"""Command-line interface: benchmark sweeps, oracle verification, simulation.

Subcommands:
    pflow bench    - run a Monte Carlo benchmark and write CSV/markdown/SVG
    pflow verify   - check every closed form against its numerical oracle
    pflow simulate - emit a ground-truth trajectory as CSV
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .bench import (
    MODEL_NAMES,
    BenchConfig,
    _build_model,
    config_from_mapping,
    emit_csv,
    emit_markdown,
    emit_scatter_svg,
    normalize_vs_ekf,
    parse_config_file,
    run_benchmark,
    write_text,
)
from .filters import FILTER_NAMES
from .model import simulate
from .oracle import ORACLE_TOLERANCES, worst_deviations

SEED_ENV_VAR = "PFLOW_SEED"
# BLAS/OpenMP thread settings recorded in metadata.json (null when unset).
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_version() -> str:
    """Name and version of the BLAS numpy was built against, or "unknown"."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pflow", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a Monte Carlo benchmark sweep")
    bench.add_argument("--config", help="flat key = value config file")
    bench.add_argument("--model", choices=MODEL_NAMES)
    bench.add_argument("--dims", help="comma-separated state dimensions (coupled)")
    bench.add_argument("--particle-counts", help="comma-separated ensemble sizes")
    bench.add_argument("--lambda-steps", type=int)
    bench.add_argument("--mc-runs", type=int)
    bench.add_argument("--trajectory-steps", type=int)
    bench.add_argument("--seed", type=int, dest="master_seed",
                       help="master seed (falls back to $PFLOW_SEED)")
    bench.add_argument("--filters",
                       help=f"comma-separated subset of {','.join(FILTER_NAMES)}, with EKF")
    bench.add_argument("--out-dir", help="output directory (default bench_out)")
    bench.add_argument("--no-timing", action="store_true", default=None,
                       help="zero the runtime columns")
    bench.add_argument("--strict", action="store_true", help="exit code 1 on any failed run")
    bench.add_argument("--full-ledh", action="store_true", default=None,
                       help="run LEDH at every sweep point")

    verify = sub.add_parser("verify", help="run the closed-form oracle suite")
    verify.add_argument("--instances", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)

    sim = sub.add_parser("simulate", help="emit a simulated trajectory as CSV")
    sim.add_argument("--model", choices=MODEL_NAMES, default="ungm")
    sim.add_argument("--dim", type=int, default=10, help="state dimension (coupled only)")
    sim.add_argument("--steps", type=int, default=100)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", help="output path (stdout when omitted)")
    return parser


def _bench_config(args: argparse.Namespace) -> BenchConfig:
    """Config-file values, overridden by every given flag, then the $PFLOW_SEED fallback."""
    try:
        values = parse_config_file(args.config) if args.config else {}
    except OSError as exc:
        raise ValueError(f"cannot read --config: {exc}") from exc
    names = {f.name for f in dataclasses.fields(BenchConfig)}
    values.update((k, v) for k, v in vars(args).items() if k in names and v is not None)
    if "master_seed" not in values and os.environ.get(SEED_ENV_VAR):
        values["master_seed"] = os.environ[SEED_ENV_VAR]
    config = config_from_mapping(values)
    if "EKF" not in config.filters:
        raise ValueError("filters must include EKF, the baseline every table row is normalized by")
    return config


def _cmd_bench(config: BenchConfig, strict: bool) -> int:
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)

    records = run_benchmark(config)
    rows = normalize_vs_ekf(records)
    emit_csv(rows, os.path.join(out_dir, "results.csv"))
    emit_markdown(rows, os.path.join(out_dir, "results.md"))
    emit_scatter_svg(rows, os.path.join(out_dir, "scatter.svg"))

    failed = [r for r in records if r.failed]
    metadata = {
        "pflow_version": __version__,
        "config": {k: v for k, v in dataclasses.asdict(config).items() if k != "out_dir"},
        "notes": {
            "fresh_random_system_per_run": True,
            "common_random_numbers_across_filters": True,
            "ledh_trimmed_above_100_particles_at_dim_100": not config.full_ledh,
        },
        "run_records": len(records),
        "failed_runs": len(failed),
        # Coupled-model figures depend on the BLAS build and its thread count.
        "environment": {
            "numpy_version": np.__version__,
            "blas": _blas_version(),
            "thread_variables": {var: os.environ.get(var) for var in THREAD_ENV_VARS},
        },
    }
    write_text(os.path.join(out_dir, "metadata.json"), json.dumps(metadata, indent=2) + "\n")

    print(f"wrote {len(rows)} table rows from {len(records)} runs to {out_dir}")
    for row in rows:
        print(
            f"  {row.model} dim={row.dim} {row.filter:>6} N_p={row.particles:<4} "
            f"rmse={row.rmse_mean:.4g} (x{row.rmse_rel_ekf:.3f} EKF) "
            f"time={row.runtime_ms_mean:.4g} ms (x{row.runtime_rel_ekf:.3f} EKF)"
        )
    if failed:
        print(f"{len(failed)} run(s) failed:", file=sys.stderr)
        for r in failed[:10]:
            print(f"  {r.filter} dim={r.dim} N_p={r.particles} run={r.run_index}: {r.error}",
                  file=sys.stderr)
        if strict:
            return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = worst_deviations(n_instances=args.instances, seed=args.seed)
    status = 0
    for name, worst in results.items():
        tolerance = ORACLE_TOLERANCES[name]
        ok = worst.deviation <= tolerance
        status = status if ok else 1
        print(f"{name:<28} max deviation = {worst.deviation:.3e}  (tolerance {tolerance:.0e})  "
              f"at {worst.where()}  {'OK' if ok else 'FAIL'}")
    print("all closed forms verified" if status == 0 else "verification FAILED")
    return status


def _cmd_simulate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    model = _build_model(args.model, args.dim, rng)
    trajectory = simulate(model, np.zeros(model.n_x), args.steps, rng)

    header = (
        ["k"]
        + [f"x{i + 1}" for i in range(model.n_x)]
        + [f"z{i + 1}" for i in range(model.n_z)]
    )
    lines = [",".join(header)]
    for k in range(trajectory.steps):
        cells = [str(k + 1)]
        cells += [repr(float(v)) for v in trajectory.states[k]]
        cells += [repr(float(v)) for v in trajectory.measurements[k]]
        lines.append(",".join(cells))
    content = "\n".join(lines) + "\n"
    if args.out:
        write_text(args.out, content)
    else:
        sys.stdout.write(content)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command != "bench" and args.seed < 0:
        parser.error(f"{args.command} --seed must be >= 0, got {args.seed}")
    if args.command == "bench":
        try:
            config = _bench_config(args)
        except ValueError as exc:
            parser.error(f"bench: {exc}")
        return _cmd_bench(config, args.strict)
    if args.command == "verify":
        if args.instances < 1:
            parser.error(f"verify --instances must be >= 1, got {args.instances}")
        return _cmd_verify(args)
    if args.model == "coupled" and args.dim < 1:
        parser.error(f"simulate --dim must be >= 1, got {args.dim}")
    if args.steps < 0:
        parser.error(f"simulate --steps must be >= 0, got {args.steps}")
    return _cmd_simulate(args)


if __name__ == "__main__":
    sys.exit(main())

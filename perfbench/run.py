"""pflow benchmark: per-filter run time and accuracy, and closed-form oracle time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload coupled_d100_n100 --seed 1 --seconds 35 --trace 0

The benchmark is one single-threaded closed loop: one caller making
sequential calls into pflow's public entry points, `pflow.bench.run_benchmark`
(what `pflow bench` runs) and `pflow.oracle.verify_closed_forms` (what
`pflow verify` runs). It imports pflow from the checkout's `src/` tree and
changes nothing in it.

Every workload has a main part, which fills `--seconds`, and a small fixed
companion part of the other kind, so that every metric has a value on every
workload. On the filter workloads the companion is five one-instance
oracle passes; on `oracle_verify` it is a small UNGM sweep. Each companion
is the no-change control for work on the other side.

Timed calls are rescaled by a machine-speed probe run around each of them
(see speed.py), because the shared hosts this runs on switch between speed
regimes 1.8 times apart; the log also prints the raw wall medians.

With `--trace 0` the run reports the end-to-end metrics. With `--trace 1` it
runs each measured call twice, untraced and then traced with spans at the
module boundaries (see spans.py), checks that both give bit-identical
results, and reports per-layer metrics plus the tracing overhead. The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checkout
import spans
import speed

FILTERS = ("EKF", "EDH", "LEDH", "A-EDH", "NA-EDH")
FLOW_FILTERS = FILTERS[1:]

# The accuracy panel is the first runs of the acceptance sweeps (criteria 8
# and 9 use master seed 57). RMSE over a handful of random coupled systems
# varies about tenfold from one master seed to the next, so a seeded mean
# over the runs a benchmark can afford would never be steady; the panel is
# the same for every --seed, which makes rmse.* deterministic.
PANEL_SEED = 57

SETUP_PROBES = 9
# A seeded call's master seed is seed * 1_000_000 + round * 100 + call.
MAX_ROUNDS = 9999
ERRORS_SHOWN = 5


@dataclass(frozen=True)
class FilterSpec:
    """One benchmark sweep point and how many runs each timed call makes.

    LEDH costs 10-300 times the EKF, so the cheaper filters make
    calls_per_round calls in each round for LEDH's one, each of
    runs_per_call Monte Carlo runs.
    """

    model: str
    dim: int
    particles: int
    lambda_steps: int
    steps: int
    panel_runs: int
    runs_per_call: dict
    calls_per_round: dict
    rounds: int


@dataclass(frozen=True)
class VerifySpec:
    instances: int
    passes: int


@dataclass(frozen=True)
class Workload:
    filters: FilterSpec
    verify: VerifySpec
    main: str  # "filters" or "verify": the part that fills --seconds


WORKLOADS = {
    "coupled_d100_n100": Workload(
        filters=FilterSpec(
            model="coupled", dim=100, particles=100, lambda_steps=10, steps=100,
            panel_runs=1, runs_per_call={"EKF": 2, "EDH": 1, "LEDH": 1, "A-EDH": 2, "NA-EDH": 1},
            calls_per_round={"EKF": 4, "EDH": 2, "LEDH": 1, "A-EDH": 2, "NA-EDH": 2}, rounds=3,
        ),
        verify=VerifySpec(instances=1, passes=5),
        main="filters",
    ),
    "ungm_n100": Workload(
        filters=FilterSpec(
            model="ungm", dim=1, particles=100, lambda_steps=10, steps=100,
            panel_runs=2, runs_per_call={"EKF": 20, "EDH": 2, "LEDH": 1, "A-EDH": 4, "NA-EDH": 2},
            calls_per_round={"EKF": 2, "EDH": 2, "LEDH": 1, "A-EDH": 2, "NA-EDH": 2}, rounds=3,
        ),
        verify=VerifySpec(instances=1, passes=5),
        main="filters",
    ),
    "oracle_verify": Workload(
        filters=FilterSpec(
            model="ungm", dim=1, particles=20, lambda_steps=10, steps=20,
            panel_runs=2, runs_per_call={"EKF": 20, "EDH": 4, "LEDH": 1, "A-EDH": 8, "NA-EDH": 4},
            calls_per_round={"EKF": 1, "EDH": 1, "LEDH": 1, "A-EDH": 1, "NA-EDH": 1}, rounds=6,
        ),
        verify=VerifySpec(instances=2, passes=4),
        main="verify",
    ),
}

END_TO_END = (
    ["setup_s"]
    + [f"run_ms.{f}" for f in FILTERS]
    + [f"rmse.{f}" for f in FILTERS]
    + ["verify_s", "peak_rss_mb"]
)

PER_LAYER = (
    [f"filters.predict_particles.self_ms_per_step.{f}" for f in FLOW_FILTERS]
    + [f"model.calls_per_step.{f}" for f in FILTERS]
    + [f"model.callbacks.self_ms_per_step.{f}" for f in FILTERS]
    + [f"ekf.ekf_predict.self_ms_per_step.{f}" for f in FILTERS]
    + [f"ekf.ekf_update.self_ms_per_step.{f}" for f in FILTERS]
    + [f"flow_core.{fn}.self_ms_per_step.{f}"
       for fn in ("validate_flow_inputs", "_assemble_coefficients", "apply_flow_ensemble")
       for f in ("A-EDH", "NA-EDH")]
    + [f"flow_core.{fn}.self_ms_per_step.EDH" for fn in ("drift_matrix_A", "drift_vector_b")]
    + [f"filters.{fn}.self_ms_per_step.{f}"
       for fn, f in (("edh_update", "EDH"), ("ledh_update", "LEDH"),
                     ("aedh_update", "A-EDH"), ("naedh_update", "NA-EDH"))]
    + [f"filters.run_filter.self_ms_per_step.{f}" for f in FILTERS]
    + [f"bench.run_benchmark.self_ms_per_run.{f}" for f in FILTERS]
    + ["model.build_model.ms_per_run", "model.simulate.ms_per_run"]
    + [f"oracle.{fn}.self_s" for fn in (
        "integrate_flow_batch", "quadrature_inhomogeneous", "matrix_exponential",
        "commutator_norm", "verify_closed_forms")]
    + ["flow_core.closed_forms.self_s", "oracle.calls_per_pass"]
    + [f"trace.overhead_ms_per_run.{f}" for f in FILTERS]
    + ["trace.overhead_s_per_pass.verify"]
)

UNITS = {"setup_s": "s", "verify_s": "s", "peak_rss_mb": "MiB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.startswith("rmse."):
        return "state_units"
    if ".calls_per" in name:
        return "count"
    if name.startswith("run_ms.") or "ms_per_" in name:
        return "ms"
    return "s"


@dataclass
class Book:
    """Operations attempted and failed, with the first errors kept for the log."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    mismatches: int = 0  # results that differ where they must be identical

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def mismatch(self, message: str) -> None:
        self.mismatches += 1
        self.errors.append(message)


class Caller:
    """What every measured call needs: pflow, the speed probe and the book."""

    def __init__(self, pflow, probe: speed.SpeedProbe, book: Book) -> None:
        self.pflow = pflow
        self.probe = probe
        self.book = book

    def bench_call(self, spec: FilterSpec, name: str, runs: int, master_seed: int):
        """One run_benchmark call for one filter: (records, wall s, normalized s)."""
        config = self.pflow.bench.BenchConfig(
            model=spec.model, dims=(spec.dim,), particle_counts=(spec.particles,),
            lambda_steps=spec.lambda_steps, mc_runs=runs, trajectory_steps=spec.steps,
            master_seed=master_seed, filters=(name,),
        )
        # Looked up at call time, so a traced call goes through the span wrapper.
        records, wall, norm = self.probe.measure(lambda: self.pflow.bench.run_benchmark(config))
        if len(records) != runs:
            self.book.mismatch(f"{name}: run_benchmark booked {len(records)} of {runs} runs")
        for r in records:
            self.book.attempted += 1
            if r.failed or not math.isfinite(r.rmse):
                self.book.fail(
                    f"{name} run {r.run_index} (seed {r.seed}): {r.error or 'nonfinite RMSE'}"
                )
        return records, wall, norm

    def verify(self, instances: int, seed: int):
        """One verify_closed_forms pass: (deviations, wall s, normalized s)."""
        deviations, wall, norm = self.probe.measure(
            lambda: self.pflow.oracle.verify_closed_forms(n_instances=instances, seed=seed)
        )
        self.book.attempted += 1
        tolerances = self.pflow.oracle.ORACLE_TOLERANCES
        over = {k: v for k, v in deviations.items() if not v <= tolerances[k]}
        if over:
            self.book.fail(f"verify_closed_forms({instances}, seed={seed}) over tolerance: {over}")
        return deviations, wall, norm


def rmse_list(records) -> list:
    return [r.rmse for r in records]


@dataclass
class FilterTimes:
    per_run_ms: dict = field(default_factory=lambda: {f: [] for f in FILTERS})  # normalized, per call
    wall_ms: dict = field(default_factory=lambda: {f: [] for f in FILTERS})     # raw, per call
    booked_ms: dict = field(default_factory=lambda: {f: [] for f in FILTERS})   # raw, per run
    runs: dict = field(default_factory=lambda: {f: 0 for f in FILTERS})
    panel_rmse: dict = field(default_factory=dict)


def time_filters(caller: Caller, spec: FilterSpec, seed: int, deadline: float, fill: bool):
    """Panel round, then seeded rounds: at least spec.rounds, until the deadline if fill."""
    times = FilterTimes()

    def timed_call(name: str, runs: int, master_seed: int) -> list:
        records, wall, norm = caller.bench_call(spec, name, runs, master_seed)
        times.per_run_ms[name].append(norm * 1e3 / runs)
        times.wall_ms[name].append(wall * 1e3 / runs)
        times.booked_ms[name].extend(r.runtime_ms for r in records)
        times.runs[name] += runs
        return rmse_list(records)

    times.panel_rmse = {name: timed_call(name, spec.panel_runs, PANEL_SEED) for name in FILTERS}
    for round_index in range(1, MAX_ROUNDS + 1):
        if round_index > spec.rounds and not (fill and time.perf_counter() < deadline):
            break
        for name in FILTERS:
            for call in range(spec.calls_per_round[name]):
                master_seed = seed * 1_000_000 + round_index * 100 + call
                timed_call(name, spec.runs_per_call[name], master_seed)
    return times


def trace_filters(caller: Caller, spec: FilterSpec, seed: int, deadline: float, fill: bool,
                  tracer: spans.Tracer) -> dict:
    """Untraced then traced call per filter on the same inputs; returns overhead inputs."""
    walls = {f: [0.0, 0.0] for f in FILTERS}  # normalized seconds, untraced and traced
    runs = {f: 0 for f in FILTERS}
    for round_index in range(1, MAX_ROUNDS + 1):
        if round_index > 1 and not (fill and time.perf_counter() < deadline):
            break
        master_seed = seed * 1_000_000 + round_index * 100
        for name in FILTERS:
            n = spec.runs_per_call[name]
            plain, _, norm = caller.bench_call(spec, name, n, master_seed)
            walls[name][0] += norm
            tracer.tag = name
            with spans.instrument(caller.pflow, tracer):
                traced, _, norm = caller.bench_call(spec, name, n, master_seed)
            walls[name][1] += norm
            runs[name] += n
            if rmse_list(plain) != rmse_list(traced):
                caller.book.mismatch(
                    f"{name} master seed {master_seed}: traced RMSEs differ from untraced"
                )
    return {"walls": walls, "runs": runs}


def time_verify(caller: Caller, spec: VerifySpec, seed: int, deadline: float, fill: bool):
    """Normalized and raw seconds of each pass: at least spec.passes, until the deadline if fill.

    Each pass draws fresh instances (seed * 1000 + pass): the adaptive
    quadrature's cost depends on the instance, so one seed's pass time
    alone varies by 15% or more from seed to seed.
    """
    norms, walls = [], []
    while len(walls) < spec.passes or (fill and time.perf_counter() < deadline):
        _, wall, norm = caller.verify(spec.instances, seed * 1000 + len(walls))
        norms.append(norm)
        walls.append(wall)
    return norms, walls


def probe_setup(probe: speed.SpeedProbe, count: int) -> tuple[list, list]:
    """Normalized and raw seconds from process start to `ready`, `count` fresh processes."""
    script = str(checkout.ROOT / "perfbench" / "ready.py")
    norms, walls = [], []
    for _ in range(count):
        before = probe.probe_ms()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, script], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, cwd=checkout.ROOT,
        ) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - start
            _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()[-500:]}")
        norms.append(probe.normalize(wall, before, probe.probe_ms()))
        walls.append(wall)
    return norms, walls


def tail(samples: list) -> str:
    """The highest common percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            ordered = sorted(samples)
            value = ordered[min(n - 1, math.ceil(n * p / 100) - 1)]
            return f"p{p:g} {value:.3f} (n={n})"
    return f"no percentile has 10 samples beyond it (n={n})"


def ordering_lines(model: str, run_ms: dict, rmse: dict) -> list:
    """Non-gating checks of the orderings the acceptance tests assert."""
    if model == "coupled":
        chain = ("A-EDH", "NA-EDH", "EDH", "LEDH")
        holds = all(run_ms[a] < run_ms[b] for a, b in zip(chain, chain[1:]))
        margin = 0.01 * rmse["EKF"]
        pattern = (
            ("LEDH < EDH", rmse["LEDH"] + margin <= rmse["EDH"]),
            ("EDH <= NA-EDH", rmse["EDH"] <= rmse["NA-EDH"] + margin),
            ("NA-EDH < EKF", rmse["NA-EDH"] + margin <= rmse["EKF"]),
            ("EKF < A-EDH", rmse["EKF"] + margin <= rmse["A-EDH"]),
        )
        return [
            f"ordering run_ms A-EDH < NA-EDH < EDH < LEDH: {'holds' if holds else 'VIOLATED'}",
            "ordering rmse (criterion 8 pattern, panel runs): "
            + ", ".join(f"{label} {'holds' if ok else 'violated'}" for label, ok in pattern),
        ]
    ratios = {f: rmse[f] / rmse["EKF"] for f in FLOW_FILTERS}
    return [
        "rmse/EKF on the panel runs (criterion 9 bound 1.05): "
        + ", ".join(f"{f} {v:.4f}" for f, v in ratios.items())
        + f"; NA-EDH/EDH {rmse['NA-EDH'] / rmse['EDH']:.4f} (bound 1 +- 0.15)"
    ]


def end_to_end(caller: Caller, workload: Workload, seed: int, seconds: float, log) -> dict:
    setup, setup_wall = probe_setup(caller.probe, SETUP_PROBES)
    checkout.warm_up(caller.pflow)
    deadline = time.perf_counter() + seconds
    if workload.main == "filters":
        verify, verify_wall = time_verify(caller, workload.verify, seed, deadline, False)
        times = time_filters(caller, workload.filters, seed, deadline, True)
    else:
        times = time_filters(caller, workload.filters, seed, deadline, False)
        verify, verify_wall = time_verify(caller, workload.verify, seed, deadline, True)

    log("times are normalized to the speed probe (speed.py); raw wall medians in brackets")
    metrics = {"setup_s": statistics.median(setup)}
    log(f"setup_s: median of {len(setup)} fresh processes [{statistics.median(setup_wall):.4f} s]")
    for name in FILTERS:
        metrics[f"run_ms.{name}"] = statistics.median(times.per_run_ms[name])
        log(f"run_ms.{name}: median of {len(times.per_run_ms[name])} calls over "
            f"{times.runs[name]} runs [{statistics.median(times.wall_ms[name]):.3f} ms]; "
            f"raw per-run filter time booked by run_benchmark: {tail(times.booked_ms[name])} ms")
    for name in FILTERS:
        metrics[f"rmse.{name}"] = statistics.fmean(times.panel_rmse[name])
    log(f"rmse.*: mean over {workload.filters.panel_runs} panel runs (master seed {PANEL_SEED})")
    metrics["verify_s"] = statistics.median(verify)
    log(f"verify_s: median of {len(verify)} passes at {workload.verify.instances} instances "
        f"[{statistics.median(verify_wall):.4f} s]")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_ms = {f: metrics[f"run_ms.{f}"] for f in FILTERS}
    rmse = {f: metrics[f"rmse.{f}"] for f in FILTERS}
    for line in ordering_lines(workload.filters.model, run_ms, rmse):
        log(line)
    return metrics


def per_layer(caller: Caller, workload: Workload, seed: int, seconds: float, log) -> dict:
    checkout.warm_up(caller.pflow)
    tracer = spans.Tracer()
    deadline = time.perf_counter() + seconds
    spec = workload.filters
    filt = trace_filters(caller, spec, seed, deadline, workload.main == "filters", tracer)

    verify_seed = seed * 1000
    plain, _, plain_norm = caller.verify(workload.verify.instances, verify_seed)
    tracer.tag = "verify"
    with spans.instrument(caller.pflow, tracer):
        traced, _, traced_norm = caller.verify(workload.verify.instances, verify_seed)
    if traced != plain:
        caller.book.mismatch(f"verify seed {verify_seed}: traced deviations differ from untraced")

    metrics = {}
    for name in FILTERS:
        runs = filt["runs"][name]
        steps = runs * spec.steps

        def per_step(span: str) -> float:
            return tracer.self_s(name, span) * 1e3 / steps

        callbacks = [f"model.{cb}" for cb in spans.MODEL_CALLBACKS]
        metrics[f"model.calls_per_step.{name}"] = sum(
            tracer.calls(name, cb, exclude_parent="model.simulate") for cb in callbacks
        ) / steps
        metrics[f"model.callbacks.self_ms_per_step.{name}"] = sum(
            tracer.self_s(name, cb, exclude_parent="model.simulate") for cb in callbacks
        ) * 1e3 / steps
        for span in ("ekf.ekf_predict", "ekf.ekf_update", "filters.run_filter",
                     "filters.predict_particles", "flow_core.validate_flow_inputs",
                     "flow_core._assemble_coefficients", "flow_core.apply_flow_ensemble",
                     "flow_core.drift_matrix_A", "flow_core.drift_vector_b",
                     "filters.edh_update", "filters.ledh_update",
                     "filters.aedh_update", "filters.naedh_update"):
            metrics[f"{span}.self_ms_per_step.{name}"] = per_step(span)
        metrics[f"bench.run_benchmark.self_ms_per_run.{name}"] = (
            tracer.self_s(name, "bench.run_benchmark") * 1e3 / runs
        )
        untraced, traced = filt["walls"][name]
        metrics[f"trace.overhead_ms_per_run.{name}"] = (traced - untraced) * 1e3 / runs
    all_runs = sum(filt["runs"].values())
    metrics["model.build_model.ms_per_run"] = tracer.total_s("model.build_model") * 1e3 / all_runs
    metrics["model.simulate.ms_per_run"] = tracer.total_s("model.simulate") * 1e3 / all_runs
    for fn in ("integrate_flow_batch", "quadrature_inhomogeneous", "matrix_exponential",
               "commutator_norm", "verify_closed_forms"):
        metrics[f"oracle.{fn}.self_s"] = tracer.self_s("verify", f"oracle.{fn}")
    metrics["flow_core.closed_forms.self_s"] = sum(
        tracer.self_s("verify", span) for span in spans.CLOSED_FORMS
    )
    metrics["oracle.calls_per_pass"] = sum(
        v[0] for (t, _, _), v in tracer.totals.items() if t == "verify"
    )
    metrics["trace.overhead_s_per_pass.verify"] = traced_norm - plain_norm

    metrics = {k: metrics[k] for k in PER_LAYER}
    log(f"traced {dict(filt['runs'])} runs per filter and one oracle pass at "
        f"{workload.verify.instances} instances; spans: {sum(v[0] for v in tracer.totals.values())}")
    write_trace(tracer, log)
    return metrics


def write_trace(tracer: spans.Tracer, log) -> None:
    out = checkout.ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / "trace.json"
    path.write_text(json.dumps(tracer.dump(), indent=1) + "\n", encoding="utf-8")
    log(f"span totals written to {path.relative_to(checkout.ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    checkout.pin_threads()
    try:
        pflow = checkout.import_pflow()
    except checkout.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    def log(line: str) -> None:
        print(line, flush=True)

    log(f"env {json.dumps(checkout.environment(np))}")
    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    book = Book()
    caller = Caller(pflow, speed.SpeedProbe(np), book)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(caller, WORKLOADS[args.workload], args.seed, args.seconds, log)

    width = max(map(len, metrics))
    for name, value in metrics.items():
        log(f"{name:<{width}}  {value:.6g} {unit_of(name)}")
    for message in book.errors[:ERRORS_SHOWN]:
        log(f"error: {message}")
    if len(book.errors) > ERRORS_SHOWN:
        log(f"error: ... {len(book.errors) - ERRORS_SHOWN} more")
    correct = book.failed == 0 and book.mismatches == 0
    print(json.dumps({
        "correct": correct,
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Monte Carlo benchmark harness: RMSE and runtime per filter, normalized by the EKF.

A benchmark sweep runs every requested filter over a grid of state
dimensions, particle counts, and Monte Carlo run indices. Each run index
gets a fresh random system and trajectory; all filters within one run
consume the identical trajectory and identical prediction-noise draws
(common random numbers), so RMSE differences reflect the update step
only. Results aggregate into a table normalized by the EKF baseline and
are emitted as CSV, markdown, and an SVG scatter plot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from .filters import FILTER_NAMES, FilterConfig, FilterDivergenceError, run_filter
from .model import SystemModel, random_coupled_model, simulate, ungm_model

Array = np.ndarray

# LEDH at dim 100 with 500 particles takes about 1.6-2.8 s per run, two to
# three times EDH, and adds 50-70% to the default sweep; the default sweep
# trims it and the full sweep is opt-in.
_LEDH_TRIM_DIM = 100
_LEDH_TRIM_PARTICLES = 100

# The benchmark models, as BenchConfig.model and the CLI's --model name them.
MODEL_NAMES = ("ungm", "coupled")


@dataclass
class BenchConfig:
    """One benchmark sweep.

    Attributes:
        model: "ungm" (1-D) or "coupled" (random multidimensional).
        dims: State dimensions to sweep; ungm sets (1,), its only dimension.
        particle_counts: Ensemble sizes to sweep.
        lambda_steps: Pseudo-time steps for EDH/LEDH/NA-EDH.
        mc_runs: Monte Carlo runs per configuration.
        trajectory_steps: Time steps per trajectory.
        master_seed: Root of the deterministic per-run seed derivation.
        filters: Subset of FILTER_NAMES to execute.
        out_dir: Directory the report emitters write into.
        no_timing: Zero the runtime columns for byte-stable output.
        full_ledh: Run LEDH even at dim >= 100 with > 100 particles.
    """

    model: str = "coupled"
    dims: tuple[int, ...] = (100,)
    particle_counts: tuple[int, ...] = (10, 50, 100, 500)
    lambda_steps: int = 10
    mc_runs: int = 100
    trajectory_steps: int = 100
    master_seed: int = 0
    filters: tuple[str, ...] = FILTER_NAMES
    out_dir: str = "bench_out"
    no_timing: bool = False
    full_ledh: bool = False

    def __post_init__(self) -> None:
        if self.model not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.model!r}")
        for name, value in (
            ("lambda_steps", self.lambda_steps),
            ("mc_runs", self.mc_runs),
            ("trajectory_steps", self.trajectory_steps),
        ):
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("dims must be a nonempty list of positive integers")
        if not self.particle_counts or any(c < 1 for c in self.particle_counts):
            raise ValueError("particle_counts must be a nonempty list of positive integers")
        if not self.filters:
            raise ValueError("filters must be nonempty")
        if not self.out_dir:
            raise ValueError("out_dir must be nonempty")
        unknown = set(self.filters) - set(FILTER_NAMES)
        if unknown:
            raise ValueError(f"unknown filters {sorted(unknown)}; expected subset of {FILTER_NAMES}")
        # A repeated value would rerun the same seeds and count them twice.
        for name in ("dims", "particle_counts", "filters"):
            values = getattr(self, name)
            repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
            if repeated is not None:
                raise ValueError(f"{name} lists {repeated!r} more than once")
        if self.model == "ungm":
            self.dims = (1,)


@dataclass
class RunRecord:
    """One Monte Carlo run of one filter configuration."""

    model: str
    dim: int
    filter: str
    particles: int
    run_index: int
    seed: int
    rmse: float
    runtime_ms: float
    n_lambda: int
    master_seed: int
    error: str = ""

    @property
    def failed(self) -> bool:
        """Whether the run failed; `error` then gives the reason."""
        return bool(self.error)


@dataclass
class ReportRow:
    """Aggregated results for one (filter, particle count) group."""

    model: str
    dim: int
    filter: str
    particles: int
    n_lambda: int
    mc_runs: int
    seed: int
    rmse_mean: float
    rmse_std: float
    runtime_ms_mean: float
    rmse_rel_ekf: float
    runtime_rel_ekf: float


CSV_HEADER = ",".join(f.name for f in fields(ReportRow))


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 scrambling step."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master_seed: int, *parts: int) -> int:
    """64-bit run seed from the master seed and integer coordinates.

    Each coordinate is xor-folded into a splitmix64 chain, so distinct
    (dim, particle count, run index) tuples get well-separated streams.
    """
    state = _splitmix64(master_seed & _MASK64)
    for part in parts:
        state = _splitmix64(state ^ (part & _MASK64))
    return state


def rmse(truth: Array, estimates: Array) -> float:
    """Root mean squared Euclidean error over a trajectory.

    Raises:
        ValueError: On a length mismatch or empty input.
    """
    truth = np.asarray(truth, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    if truth.shape != estimates.shape:
        raise ValueError(f"shape mismatch: truth {truth.shape} vs estimates {estimates.shape}")
    if truth.shape[0] == 0:
        raise ValueError("rmse needs at least one step")
    return float(np.sqrt(np.mean(np.sum((estimates - truth) ** 2, axis=-1))))


def _build_model(kind: str, dim: int, rng: np.random.Generator) -> SystemModel:
    if kind == "ungm":
        return ungm_model()
    return random_coupled_model(dim, rng)


def _ledh_trimmed(config: BenchConfig, dim: int, particles: int) -> bool:
    return (
        not config.full_ledh
        and dim >= _LEDH_TRIM_DIM
        and particles > _LEDH_TRIM_PARTICLES
    )


def run_benchmark(config: BenchConfig) -> list[RunRecord]:
    """Execute the Monte Carlo sweep described by the config.

    Per (dim, particle count, run index): one fresh random system,
    trajectory, and initial belief mean shared by all filters of that
    run, one filter execution per requested name, and one record per
    execution. The initial belief mean is drawn from the unit-covariance
    initial belief so the measurement linearization has a nonzero
    anchor; with a quadratic measurement an exactly-zero mean would pin
    the EKF to the origin forever. A run that fails (a
    FilterDivergenceError naming its step, a LinAlgError, or finite
    estimates whose squared errors overflow the RMSE) is booked once,
    as failed with a NaN rmse, a zero runtime and the reason; any other
    exception is a programming error and propagates. Fully
    deterministic (runtime columns aside) for a fixed master seed.
    """
    records: list[RunRecord] = []

    for dim in config.dims:
        for particles in config.particle_counts:
            for run_index in range(config.mc_runs):
                run_seed = derive_seed(config.master_seed, dim, particles, run_index)
                system_rng = np.random.default_rng(derive_seed(run_seed, 1))
                model = _build_model(config.model, dim, system_rng)
                trajectory = simulate(model, np.zeros(model.n_x), config.trajectory_steps, system_rng)
                init_rng = np.random.default_rng(derive_seed(run_seed, 3))
                init_mean = init_rng.standard_normal(model.n_x)

                for name in config.filters:
                    if name == "LEDH" and _ledh_trimmed(config, dim, particles):
                        continue
                    filter_config = FilterConfig(
                        variant=name,
                        particle_count=particles,
                        lambda_steps=config.lambda_steps,
                        init_mean=init_mean,
                    )
                    filter_rng = np.random.default_rng(derive_seed(run_seed, 2))
                    start = time.perf_counter()
                    # Divergent systems overflow before they are flagged;
                    # the flagged record carries the signal, not the warnings.
                    with np.errstate(all="ignore"):
                        try:
                            estimates = run_filter(model, trajectory, filter_config, filter_rng)
                            elapsed_ms = (time.perf_counter() - start) * 1e3
                            score = rmse(trajectory.states, estimates)
                            error = "" if np.isfinite(score) else "nonfinite RMSE (filter diverged)"
                        except (FilterDivergenceError, np.linalg.LinAlgError) as exc:
                            error = str(exc)
                    records.append(
                        RunRecord(
                            model=config.model,
                            dim=model.n_x,
                            filter=name,
                            particles=particles,
                            run_index=run_index,
                            seed=run_seed,
                            rmse=float("nan") if error else score,
                            runtime_ms=0.0 if error or config.no_timing else elapsed_ms,
                            n_lambda=config.lambda_steps,
                            master_seed=config.master_seed,
                            error=error,
                        )
                    )
    return records


def normalize_vs_ekf(records: Sequence[RunRecord]) -> list[ReportRow]:
    """Aggregate run records into per-(filter, particle count) rows.

    Mean RMSE and mean runtime divide by the EKF means of the matching
    (model, dim, particles) group, falling back to the pooled
    (model, dim) EKF baseline for particle counts the EKF was not run at.
    EKF rows therefore have relative values exactly 1.

    Raises:
        ValueError: If a (model, dim) group has no EKF baseline.
    """
    ok = [r for r in records if not r.failed]
    groups: dict[tuple, list[RunRecord]] = {}
    for r in ok:
        groups.setdefault((r.model, r.dim, r.filter, r.particles), []).append(r)

    def means(rs: list[RunRecord]) -> tuple[float, float]:
        return float(np.mean([r.rmse for r in rs])), float(np.mean([r.runtime_ms for r in rs]))

    filter_order = {name: i for i, name in enumerate(FILTER_NAMES)}
    rows: list[ReportRow] = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[3], filter_order.get(k[2], 99))):
        model, dim, name, particles = key
        rs = groups[key]
        baseline = groups.get((model, dim, "EKF", particles)) or [
            r for r in ok if r.filter == "EKF" and (r.model, r.dim) == (model, dim)
        ]
        if not baseline:
            raise ValueError(f"missing EKF baseline for group (model={model}, dim={dim})")
        base_rmse, base_runtime = means(baseline)
        rmse_mean, runtime_mean = means(rs)
        rows.append(
            ReportRow(
                model=model,
                dim=dim,
                filter=name,
                particles=particles,
                n_lambda=rs[0].n_lambda,
                mc_runs=len(rs),
                seed=rs[0].master_seed,
                rmse_mean=rmse_mean,
                rmse_std=float(np.std([r.rmse for r in rs])),
                runtime_ms_mean=runtime_mean,
                rmse_rel_ekf=rmse_mean / base_rmse,
                runtime_rel_ekf=runtime_mean / base_runtime if base_runtime > 0 else 0.0,
            )
        )
    return rows


def emit_csv(rows: Sequence[ReportRow], path: str) -> None:
    """Write the normalized rows as CSV (LF endings, '.' decimals).

    One column per ReportRow field, in field order; floats are written
    as their shortest round-trip repr. No rows yield a header-only file.
    """
    lines = [CSV_HEADER]
    for row in rows:
        values = (getattr(row, f.name) for f in fields(ReportRow))
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in values))
    write_text(path, "\n".join(lines) + "\n")


def emit_markdown(rows: Sequence[ReportRow], path: str) -> None:
    """Render the normalized rows as a markdown grid, one block per (model, dim).

    Rows are RMSE and TIME (ms) per particle count, columns the filters,
    mirroring the usual presentation of such comparisons.
    """
    sections: dict[tuple[str, int], list[ReportRow]] = {}
    for row in rows:
        sections.setdefault((row.model, row.dim), []).append(row)

    chunks: list[str] = []
    for (model, dim), section in sections.items():
        filters = [name for name in FILTER_NAMES if any(r.filter == name for r in section)]
        counts = sorted({r.particles for r in section})
        by_key = {(r.filter, r.particles): r for r in section}
        lines = [
            f"### {model}, dim={dim}",
            "",
            "| Performance | " + " | ".join(filters) + " |",
            "|" + "---|" * (len(filters) + 1),
        ]
        for count in counts:
            for label, attr in (("RMSE", "rmse_mean"), ("TIME", "runtime_ms_mean")):
                cells = []
                for name in filters:
                    row = by_key.get((name, count))
                    cells.append(f"{getattr(row, attr):.4g}" if row is not None else "-")
                lines.append(f"| {label}_{count} | " + " | ".join(cells) + " |")
        chunks.append("\n".join(lines))
    write_text(path, "\n\n".join(chunks) + "\n")


def emit_scatter_svg(rows: Sequence[ReportRow], path: str) -> None:
    """Scatter plot of the rows' relative runtime (x, log scale) vs relative RMSE (y).

    Marker area scales with the particle count; one color per filter.
    """
    rows = [r for r in rows if r.runtime_rel_ekf > 0 and np.isfinite(r.rmse_rel_ekf)]
    width, height, margin = 640, 480, 60
    palette = {
        "EKF": "#444444",
        "EDH": "#1f77b4",
        "LEDH": "#2ca02c",
        "A-EDH": "#d62728",
        "NA-EDH": "#9467bd",
    }

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if rows:
        log_x = [np.log10(r.runtime_rel_ekf) for r in rows]
        ys = [r.rmse_rel_ekf for r in rows]
        x_lo, x_hi = min(log_x), max(log_x)
        y_lo, y_hi = min(ys), max(ys)
        if x_hi - x_lo < 1e-9:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
        if y_hi - y_lo < 1e-9:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        x_pad = 0.05 * (x_hi - x_lo)
        y_pad = 0.05 * (y_hi - y_lo)
        x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
        y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

        def sx(v: float) -> float:
            return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

        def sy(v: float) -> float:
            return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

        for decade in range(int(np.floor(x_lo)), int(np.ceil(x_hi)) + 1):
            if x_lo <= decade <= x_hi:
                x = sx(decade)
                parts.append(
                    f'<line x1="{x:.1f}" y1="{margin}" x2="{x:.1f}" y2="{height - margin}" '
                    f'stroke="#dddddd"/>'
                )
                parts.append(
                    f'<text x="{x:.1f}" y="{height - margin + 18}" font-size="11" '
                    f'text-anchor="middle">1e{decade}</text>'
                )
        max_count = max(r.particles for r in rows)
        for r in sorted(rows, key=lambda q: -q.particles):
            radius = 3.0 + 9.0 * np.sqrt(r.particles / max_count)
            color = palette.get(r.filter, "#ff7f0e")
            parts.append(
                f'<circle cx="{sx(np.log10(r.runtime_rel_ekf)):.1f}" '
                f'cy="{sy(r.rmse_rel_ekf):.1f}" r="{radius:.1f}" fill="{color}" '
                f'fill-opacity="0.65" stroke="{color}"><title>{r.filter} '
                f'N_p={r.particles}</title></circle>'
            )
        seen = []
        for r in rows:
            if r.filter not in seen:
                seen.append(r.filter)
        for i, name in enumerate(seen):
            y = margin + 14 * i
            color = palette.get(name, "#ff7f0e")
            parts.append(f'<circle cx="{width - margin - 70}" cy="{y}" r="4" fill="{color}"/>')
            parts.append(
                f'<text x="{width - margin - 60}" y="{y + 4}" font-size="11">{name}</text>'
            )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 14}" font-size="12" text-anchor="middle">'
        "runtime relative to EKF (log scale)</text>"
    )
    parts.append(
        f'<text x="16" y="{height / 2:.0f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {height / 2:.0f})">RMSE relative to EKF</text>'
    )
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")


def write_text(path: str, content: str) -> None:
    """Write content as UTF-8 with newlines untranslated; OSError names the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def parse_config_file(path: str) -> dict:
    """Parse a flat `key = value` benchmark config file.

    Lists are comma separated; blank lines and '#' comments are ignored.

    Raises:
        ValueError: On a line without '=' or a key given twice.
    """
    values: dict = {}
    lines: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in lines:
                raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
            lines[key] = lineno
            values[key] = value.strip()
    return values


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_field(default, value):
    """Convert one config value to the type of the field's default.

    A boolean is one of true/false, 1/0, yes/no in any letter case.
    """
    if isinstance(default, bool):
        try:
            return _BOOLEANS[str(value).lower()]
        except KeyError:
            raise ValueError(f"expected one of {', '.join(_BOOLEANS)}") from None
    if isinstance(default, tuple):
        if isinstance(value, str):
            value = [v.strip() for v in value.split(",") if v.strip()]
        return tuple(type(default[0])(v) for v in value)
    return type(default)(value)


def config_from_mapping(values: Mapping) -> BenchConfig:
    """Build a BenchConfig from string-valued mapping entries.

    The keys are exactly BenchConfig's field names; each value converts
    to the type of its field. Lists are comma separated.

    Raises:
        ValueError: On an unknown key, an unconvertible value or a
            config that BenchConfig rejects.
    """
    defaults = {f.name: f.default for f in fields(BenchConfig)}
    kwargs = {}
    for key, value in values.items():
        if key not in defaults:
            raise ValueError(f"unknown benchmark config key {key!r}")
        try:
            kwargs[key] = _parse_field(defaults[key], value)
        except ValueError as exc:
            raise ValueError(f"bad value {value!r} for {key}: {exc}") from exc
    return BenchConfig(**kwargs)

"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

These are the exit criteria for the library. Every closed form is held
against its independent oracle at the stated tolerance, and the desk-scale
benchmarks must reproduce the qualitative orderings of the reference
results (absolute values are hardware- and draw-dependent and are not
checked).

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from conftest import linear_model
from pflow.bench import BenchConfig, normalize_vs_ekf, run_benchmark
from pflow.cli import main as cli_main
from pflow.filters import FilterConfig, aedh_update, naedh_update
from pflow.flow_core import (
    analytic_flow_map,
    build_coefficients,
    psi_term,
    transition_matrix,
    k_eval,
)
from pflow.oracle import (
    commutator_norm,
    integrate_flow_batch,
    kalman_posterior,
    matrix_exponential,
    quadrature_inhomogeneous,
    random_flow_instance,
    random_interval,
    random_spd,
    relative_deviation,
)
from pflow.flow_core import drift_matrix_A

ACCEPTANCE_SEED = 57


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def test_criterion_1_commutativity():
    rng = np.random.default_rng(101)
    grid = np.arange(0.0, 1.0 + 1e-12, 0.1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n_x = int(rng.integers(1, 21))
        n_z = int(rng.integers(1, min(n_x, 5) + 1))
        P = random_spd(rng, n_x)
        H = rng.standard_normal((n_z, n_x))
        R = random_spd(rng, n_z)
        drift = {lam: drift_matrix_A(P, H, R, lam) for lam in grid}
        norms = {lam: np.linalg.norm(A, "fro") for lam, A in drift.items()}
        for i, lam in enumerate(grid):
            for tau in grid[i + 1:]:
                normalized = commutator_norm(drift[lam], drift[tau]) / (
                    1.0 + norms[lam] * norms[tau]
                )
                worst = np.maximum(worst, normalized)
    elapsed = time.perf_counter() - start
    _report(
        1, "commutativity", worst <= 1e-10 and elapsed < 10.0,
        f"max normalized commutator {worst:.3e} (tol 1e-10), {elapsed:.1f}s",
    )


def test_criterion_2_transition_matrix_vs_exponential():
    rng = np.random.default_rng(202)
    dims = (1, 2, 3, 5, 8, 13, 20)
    start = time.perf_counter()
    worst = 0.0
    for i in range(500):
        c = random_flow_instance(rng, dims[i % len(dims)])
        lam0, lam = random_interval(rng)
        integral = np.log(k_eval(c, lam0) / k_eval(c, lam)) / (2.0 * c.p) * c.M
        worst = np.maximum(
            worst,
            relative_deviation(transition_matrix(c, lam, lam0), matrix_exponential(integral)),
        )
    elapsed = time.perf_counter() - start
    _report(
        2, "transition matrix vs matrix exponential", worst <= 1e-8 and elapsed < 10.0,
        f"max deviation {worst:.3e} (tol 1e-8), {elapsed:.1f}s",
    )


def test_criterion_3_psi_terms_vs_quadrature():
    rng = np.random.default_rng(303)
    dims = (1, 2, 3, 5, 8, 13)
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        c = random_flow_instance(rng, dims[i % len(dims)])
        lam0, lam = random_interval(rng)
        for index in range(5):
            closed = psi_term(c, index, lam, lam0)
            oracle = quadrature_inhomogeneous(c, index, lam, lam0)
            worst = np.maximum(worst, relative_deviation(closed, oracle))
    elapsed = time.perf_counter() - start
    _report(
        3, "integrated offset terms vs quadrature", worst <= 1e-6 and elapsed < 60.0,
        f"max deviation {worst:.3e} (tol 1e-6), {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_4_flow_map_vs_rk4():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 5, 10, 50):
        # Ten draws of 20 instances that share an interval, integrated in
        # one call per dimension with one interval per row.
        coeffs, lam0, lam, x0 = [], [], [], []
        for _ in range(10):
            batch = [random_flow_instance(rng, n) for _ in range(20)]
            interval = random_interval(rng)
            x0 += [c.xbar + rng.standard_normal(n) for c in batch]
            coeffs += batch
            lam0 += [interval[0]] * 20
            lam += [interval[1]] * 20
        x0 = np.stack(x0)
        numeric = integrate_flow_batch(coeffs, x0, np.array(lam0), np.array(lam), 10_000, "rk4")
        for row, c in enumerate(coeffs):
            phi, d = analytic_flow_map(c, lam[row], lam0[row])
            worst = np.maximum(worst, relative_deviation(phi @ x0[row] + d, numeric[row]))
    elapsed = time.perf_counter() - start
    _report(
        4, "analytic flow map vs RK4", worst <= 1e-6 and elapsed < 120.0,
        f"max deviation {worst:.3e} over 1000 instances (tol 1e-6), {elapsed:.1f}s",
    )


def test_criterion_5_kalman_exactness():
    rng = np.random.default_rng(505)
    dims = (1, 2, 3, 5, 8, 13, 20)
    worst_mean = 0.0
    worst_cov = 0.0
    for i in range(500):
        c = random_flow_instance(rng, dims[i % len(dims)])
        phi, d = analytic_flow_map(c, 1.0, 0.0)
        posterior = kalman_posterior(c.P, c.H, [[c.r]], [c.z], c.xbar)
        worst_mean = np.maximum(worst_mean, relative_deviation(phi @ c.xbar + d, posterior.mean))
        worst_cov = np.maximum(
            worst_cov, relative_deviation(phi @ c.P @ phi.T, posterior.covariance)
        )

    fixture = build_coefficients(np.eye(1), [1.0], 1.0, 2.0, [0.0])
    phi, d = analytic_flow_map(fixture, 1.0, 0.0)
    fixture_ok = (
        abs((phi @ np.zeros(1) + d)[0] - 1.0) < 1e-8
        and abs((phi @ np.eye(1) @ phi.T)[0, 0] - 0.5) < 1e-8
    )
    _report(
        5, "Kalman exactness", worst_mean <= 1e-8 and worst_cov <= 1e-8 and fixture_ok,
        f"max mean dev {worst_mean:.3e}, max cov dev {worst_cov:.3e} (tol 1e-8), "
        f"worked fixture {'ok' if fixture_ok else 'WRONG'}",
    )


def test_criterion_6_nstep_semigroup_consistency():
    rng = np.random.default_rng(606)
    n = 4
    H = rng.standard_normal((1, n))
    model = linear_model(np.eye(n), np.eye(n), H, [[0.7]])
    P = random_spd(rng, n)
    ens = rng.standard_normal((200, n))
    z = np.array([1.3])
    single = aedh_update(ens, P, model, z, FilterConfig(variant="A-EDH", particle_count=200))
    worst = 0.0
    for steps in (2, 10, 100):
        cfg = FilterConfig(variant="NA-EDH", particle_count=200, lambda_steps=steps)
        multi = naedh_update(ens, P, model, z, cfg)
        worst = np.maximum(worst, float(np.max(np.abs(multi - single))))
    _report(
        6, "N-step semigroup consistency", worst <= 1e-10,
        f"max per-particle gap {worst:.3e} (tol 1e-10) across N in {{2, 10, 100}}",
    )


def test_criterion_7_euler_convergence_is_monotone():
    rng = np.random.default_rng(707)
    dims = (1, 2, 5, 10)
    start = time.perf_counter()
    violations = 0
    for i in range(100):
        n = dims[i % len(dims)]
        c = random_flow_instance(rng, n)
        x0 = c.xbar + rng.standard_normal(n)
        phi, d = analytic_flow_map(c, 1.0, 0.0)
        exact = phi @ x0 + d
        errors = [
            float(np.max(np.abs(
                integrate_flow_batch([c], x0[np.newaxis, :], 0.0, 1.0, steps, "euler")[0]
                - exact
            )))
            for steps in (10, 100, 1000)
        ]
        if not (errors[0] > errors[1] > errors[2]):
            violations += 1
    elapsed = time.perf_counter() - start
    _report(
        7, "Euler convergence monotone", violations == 0,
        f"{violations} of 100 instances broke strict error decrease, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_8_coupled_benchmark_orderings():
    start = time.perf_counter()
    config = BenchConfig(
        model="coupled", dims=(100,), particle_counts=(100,), lambda_steps=10,
        mc_runs=50, trajectory_steps=100, master_seed=ACCEPTANCE_SEED,
    )
    records = run_benchmark(config)
    failed = [r for r in records if r.failed]
    rows = normalize_vs_ekf(records)
    rmse = {r.filter: r.rmse_mean for r in rows}
    runtime = {r.filter: r.runtime_ms_mean for r in rows}
    elapsed = time.perf_counter() - start

    margin = 0.01 * rmse["EKF"]
    rmse_checks = [
        ("LEDH < EDH", rmse["LEDH"] + margin <= rmse["EDH"]),
        # The reference pattern shows EDH and NA-EDH as near-equal; the
        # non-strict pair gets the same 1% granularity as the strict ones.
        ("EDH <= NA-EDH", rmse["EDH"] <= rmse["NA-EDH"] + margin),
        ("NA-EDH < EKF", rmse["NA-EDH"] + margin <= rmse["EKF"]),
        ("EKF < A-EDH", rmse["EKF"] + margin <= rmse["A-EDH"]),
    ]
    ordering = (("A-EDH", "NA-EDH"), ("NA-EDH", "EDH"), ("EDH", "LEDH"))
    runtime_checks = [(f"{fast} < {slow}", runtime[fast] < runtime[slow]) for fast, slow in ordering]
    bad = [name for name, ok in rmse_checks + runtime_checks if not ok]
    ok = not failed and not bad
    ratios = {name: round(value / rmse["EKF"], 4) for name, value in rmse.items()}
    times = {name: round(value, 1) for name, value in runtime.items()}
    # Each runtime clause holds while its ratio is below 1; the distance
    # from 1 is the headroom a speed change can spend before it flips.
    headroom = {f"{fast}/{slow}": round(runtime[fast] / runtime[slow], 3) for fast, slow in ordering}
    _report(
        8, "100-dim benchmark orderings", ok,
        f"rmse/EKF {ratios}, runtimes ms {times}, runtime ratios {headroom}, "
        f"{len(failed)} failed runs, violated: {bad or 'none'}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_9_ungm_sanity():
    start = time.perf_counter()
    config = BenchConfig(
        model="ungm", particle_counts=(100,), lambda_steps=10,
        mc_runs=100, trajectory_steps=100, master_seed=ACCEPTANCE_SEED,
    )
    records = run_benchmark(config)
    failed = [r for r in records if r.failed]
    rows = normalize_vs_ekf(records)
    rmse = {r.filter: r.rmse_mean for r in rows}
    elapsed = time.perf_counter() - start

    bounded = ("EDH", "LEDH", "NA-EDH")
    ratios = {name: rmse[name] / rmse["EKF"] for name in bounded}
    over = [name for name, ratio in ratios.items() if ratio > 1.05]
    na_vs_edh = rmse["NA-EDH"] / rmse["EDH"]
    # One linearization of x^2/20 leaves A-EDH 1.14x (N=10) to 1.23x (N=10000) the
    # EKF, so instead of the 1.05 bound it must trail NA-EDH by criterion 8's margin.
    margin = 0.01 * rmse["EKF"]
    aedh_ok = rmse["NA-EDH"] + margin <= rmse["A-EDH"]
    ok = not failed and not over and abs(na_vs_edh - 1.0) <= 0.15 and aedh_ok
    _report(
        9, "1-D model sanity", ok,
        f"rmse/EKF {({k: round(v, 4) for k, v in ratios.items()})} (bound 1.05), "
        f"NA-EDH/EDH {na_vs_edh:.4f} (bound 1.15), "
        f"NA-EDH < A-EDH {aedh_ok} (rmse {rmse['NA-EDH']:.2f} vs {rmse['A-EDH']:.2f}), "
        f"A-EDH/EKF {rmse['A-EDH'] / rmse['EKF']:.4f} (reported), "
        f"{len(failed)} failed runs, {elapsed:.0f}s",
    )


def test_criterion_10_bench_determinism(tmp_path):
    args = [
        "bench", "--model", "ungm", "--particle-counts", "10", "--mc-runs", "2",
        "--trajectory-steps", "20", "--lambda-steps", "5", "--seed", "77",
        "--no-timing",
    ]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out-dir", str(dir_a)]) == 0
    assert cli_main(args + ["--out-dir", str(dir_b)]) == 0
    bytes_a = (dir_a / "results.csv").read_bytes()
    bytes_b = (dir_b / "results.csv").read_bytes()
    _report(
        10, "benchmark CSV determinism", bytes_a == bytes_b,
        f"{len(bytes_a)} bytes, identical across invocations: {bytes_a == bytes_b}",
    )

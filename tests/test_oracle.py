"""Tests for the independent numerical validators."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pflow.flow_core
import pflow.oracle
from pflow.ekf import GaussianBelief
from pflow.flow_core import (
    FlowCoefficients,
    analytic_flow_map,
    build_coefficients,
    drift_matrix_A,
    drift_vector_b,
)
from pflow.oracle import (
    FLOW_TABLE_STEPS,
    commutator_norm,
    embed_flow_instance,
    integrate_flow_batch,
    kalman_posterior,
    matrix_exponential,
    quadrature_inhomogeneous,
    random_flow_instance,
    random_interval,
    random_spd,
    relative_deviation,
    verify_closed_forms,
    worst_deviations,
)


@pytest.fixture
def scalar_z2():
    return build_coefficients(np.eye(1), [1.0], 1.0, 2.0, [0.0])


class TestMatrixExponential:
    def test_zero_matrix(self):
        np.testing.assert_allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_diagonal_matrix(self):
        out = matrix_exponential(np.diag([1.0, -2.0]))
        np.testing.assert_allclose(out, np.diag([np.e, np.exp(-2.0)]), rtol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_small_norm_matches_plain_series(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((4, 4))
        M *= 0.9 / np.linalg.norm(M, 1)
        series = np.eye(4)
        term = np.eye(4)
        for j in range(1, 21):
            term = term @ M / j
            series = series + term
        assert np.linalg.norm(matrix_exponential(M) - series) < 1e-12

    def test_rank_one_closed_form(self):
        rng = np.random.default_rng(9)
        M = np.outer(rng.standard_normal(5), rng.standard_normal(5))
        beta = 0.7
        closed = np.eye(5) + M * (np.exp(beta * np.trace(M)) - 1.0) / np.trace(M)
        np.testing.assert_allclose(matrix_exponential(beta * M), closed, rtol=1e-10, atol=1e-10)


def per_step_reference(coeffs_list, x0_rows, lambda0, lambda1, steps, method):
    """The integrator with the drift rebuilt at every stage: a(lam), then
    b(lam) as the nested product (I + 2 lam A)((I + lam A) w + A xbar)."""
    Ph = np.stack([c.Ph for c in coeffs_list])
    H = np.stack([c.H for c in coeffs_list])
    w = np.stack([c.w for c in coeffs_list])
    xbar = np.stack([c.xbar for c in coeffs_list])
    p = np.array([c.p for c in coeffs_list])[:, None]
    r = np.array([c.r for c in coeffs_list])[:, None]
    Hw = np.einsum("ij,ij->i", H, w)[:, None]
    Hxbar = np.einsum("ij,ij->i", H, xbar)[:, None]

    def drift(lam):
        a = -0.5 / (lam * p + r)
        inner = w + lam * (a * Hw * Ph) + a * Hxbar * Ph
        return a, inner + 2.0 * lam * (a * np.einsum("ij,ij->i", H, inner)[:, None] * Ph)

    def rhs(a, b, X):
        return a * np.einsum("ij,ij->i", H, X)[:, None] * Ph + b

    lam0 = np.reshape(np.asarray(lambda0, dtype=float), (-1, 1))
    lam1 = np.reshape(np.asarray(lambda1, dtype=float), (-1, 1))
    x = np.asarray(x0_rows, dtype=float)
    h = (lam1 - lam0) / steps
    lam = lam0
    for i in range(steps):
        k1 = rhs(*drift(lam), x)
        if method == "euler":
            x = x + h * k1
        else:
            a_mid, b_mid = drift(lam + 0.5 * h)
            k2 = rhs(a_mid, b_mid, x + 0.5 * h * k1)
            k3 = rhs(a_mid, b_mid, x + 0.5 * h * k2)
            k4 = rhs(*drift(lam + h), x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        lam = lam0 + (i + 1) * h
    return x


def classic_stage_loop(coeffs_list, x0_rows, lambda0, lambda1, steps, method="rk4"):
    """integrate_flow_batch's tabulated drift with the classic stage loop:
    h, h/2 and h/6 stay (rows, 1, 1) scalars and stages double as 2.0 * k."""
    Ph = np.stack([c.Ph for c in coeffs_list])[:, None, :]
    w = np.stack([c.w for c in coeffs_list])[:, None, :]
    H_col = np.stack([c.H for c in coeffs_list])[:, :, None]
    p = np.array([c.p for c in coeffs_list])[:, None, None]
    r = np.array([c.r for c in coeffs_list])[:, None, None]
    Hw = w @ H_col
    Hxbar = np.stack([c.xbar for c in coeffs_list])[:, None, :] @ H_col

    def drift(lam):
        a = -0.5 / (lam * p + r)
        g = a * (lam * Hw + Hxbar)
        return a, g + 2.0 * lam * (a * (Hw + g * p))

    def rhs(a, beta, X):
        return (a * (X @ H_col) + beta) * Ph + w

    lam0 = np.reshape(np.asarray(lambda0, dtype=float), (-1, 1, 1))
    lam1 = np.reshape(np.asarray(lambda1, dtype=float), (-1, 1, 1))
    h = (lam1 - lam0) / steps
    half_h = 0.5 * h
    sixth_h = h / 6.0
    x = np.asarray(x0_rows, dtype=float)[:, None, :]
    for first in range(0, steps, FLOW_TABLE_STEPS):
        index = np.arange(first, min(first + FLOW_TABLE_STEPS, steps))
        lam = lam0 + index[:, None, None, None] * h
        left = zip(*drift(lam))
        if method == "euler":
            for a, beta in left:
                x = x + h * rhs(a, beta, x)
        else:
            mid, right = zip(*drift(lam + half_h)), zip(*drift(lam + h))
            for (a1, b1), (a2, b2), (a4, b4) in zip(left, mid, right):
                k1 = rhs(a1, b1, x)
                k2 = rhs(a2, b2, x + half_h * k1)
                k3 = rhs(a2, b2, x + half_h * k2)
                k4 = rhs(a4, b4, x + h * k3)
                x = x + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x[:, 0, :]


class TestIntegrateFlowNumeric:
    def test_single_euler_step_definition(self, scalar_z2):
        c = scalar_z2
        x = np.array([1.0])
        drift = drift_matrix_A(c.P, c.H, [[c.r]], 0.2) @ x + drift_vector_b(
            c.P, c.H, [[c.r]], [c.z], c.xbar, 0.2
        )
        out = integrate_flow_batch([c], x[np.newaxis, :], 0.2, 0.7, 1, "euler")
        np.testing.assert_allclose(out[0], x + 0.5 * drift)

    def test_rk4_reproduces_closed_form_value(self, scalar_z2):
        out = integrate_flow_batch([scalar_z2], np.array([[1.0]]), 0.0, 1.0, 10_000, "rk4")
        np.testing.assert_allclose(out[0], [1.7071067811865475], rtol=1e-9)

    def test_rejects_bad_arguments(self, scalar_z2):
        x0 = np.zeros((1, 1))
        with pytest.raises(ValueError):
            integrate_flow_batch([scalar_z2], x0, 0.0, 1.0, 0, "rk4")
        with pytest.raises(ValueError):
            integrate_flow_batch([scalar_z2], x0, 0.0, 1.0, 10, "leapfrog")

    def test_rejects_mismatched_shapes(self, scalar_z2):
        # One instance: three start points or two state rows must not broadcast.
        with pytest.raises(ValueError, match="scalar or have length 1"):
            integrate_flow_batch([scalar_z2], np.zeros((1, 1)), np.array([0.0, 0.1, 0.2]), 1.0, 10)
        with pytest.raises(ValueError, match="scalar or have length 1"):
            integrate_flow_batch([scalar_z2], np.zeros((1, 1)), 0.0, np.array([0.5, 1.0]), 10)
        with pytest.raises(ValueError, match="x0_rows must have shape"):
            integrate_flow_batch([scalar_z2], np.zeros((2, 1)), 0.0, 1.0, 10)
        with pytest.raises(ValueError, match="x0_rows must have shape"):
            integrate_flow_batch([scalar_z2], np.zeros(1), 0.0, 1.0, 10)

    # Step counts around the drift-table block boundary. Over 150 random
    # draws (n 1-13, 1-7 rows, every case below) the largest deviation from
    # the per-step loop was 2.5e-15 in relative_deviation.
    @pytest.mark.parametrize(
        "steps",
        [1, FLOW_TABLE_STEPS - 1, FLOW_TABLE_STEPS, FLOW_TABLE_STEPS + 1, 2 * FLOW_TABLE_STEPS + 3],
    )
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("per_row", [False, True])
    def test_matches_per_step_reference(self, steps, method, per_row):
        rng = np.random.default_rng(steps)
        coeffs = [random_flow_instance(rng, 4) for _ in range(3)]
        x0 = np.stack([c.xbar for c in coeffs]) + rng.standard_normal((3, 4))
        if per_row:
            lam0, lam1 = np.array([random_interval(rng) for _ in coeffs]).T
        else:
            lam0, lam1 = random_interval(rng)
        out = integrate_flow_batch(coeffs, x0, lam0, lam1, steps, method)
        reference = per_step_reference(coeffs, x0, lam0, lam1, steps, method)
        assert out.shape == reference.shape
        assert relative_deviation(out, reference) < 1e-13

    # The loop's step sizes are shaped like the state once and its stages
    # doubled by addition; neither may change a bit. Rows of dimension 1-13
    # share one call by embedding, as in a verify pass.
    @pytest.mark.parametrize(
        "steps", [1, FLOW_TABLE_STEPS - 1, FLOW_TABLE_STEPS + 1, 2 * FLOW_TABLE_STEPS + 3]
    )
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("dims", [(1, 1, 1), tuple(range(1, 14))])
    def test_bit_identical_to_classic_stage_loop(self, steps, method, per_row, dims):
        rng = np.random.default_rng(steps)
        n_max = max(dims)
        coeffs = [embed_flow_instance(random_flow_instance(rng, n), n_max) for n in dims]
        x0 = np.stack([c.xbar for c in coeffs]) + rng.standard_normal((len(dims), n_max))
        if per_row:
            lam0, lam1 = np.array([random_interval(rng) for _ in coeffs]).T
        else:
            lam0, lam1 = random_interval(rng)
        out = integrate_flow_batch(coeffs, x0, lam0, lam1, steps, method)
        assert np.array_equal(out, classic_stage_loop(coeffs, x0, lam0, lam1, steps, method))

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_batch_matches_single(self, method):
        # Per-row intervals in one call give each row exactly what a call
        # with that row's interval gives.
        rng = np.random.default_rng(21)
        coeffs = [random_flow_instance(rng, 3) for _ in range(4)]
        x0 = rng.standard_normal((4, 3))
        lam0 = np.array([0.0, 0.1, 0.3, 0.0])
        lam1 = np.array([1.0, 0.6, 0.9, 0.25])
        batch = integrate_flow_batch(coeffs, x0, lam0, lam1, 100, method)
        for i in range(4):
            single = integrate_flow_batch(coeffs, x0, lam0[i], lam1[i], 100, method)
            assert np.array_equal(batch[i], single[i])


class TestQuadrature:
    def test_empty_interval(self, scalar_z2):
        np.testing.assert_allclose(quadrature_inhomogeneous(scalar_z2, 0, 0.4, 0.4), [0.0])

    def test_constant_term_value(self, scalar_z2):
        out = quadrature_inhomogeneous(scalar_z2, 0, 1.0, 0.0)
        np.testing.assert_allclose(out, [1.7238576250846032], rtol=1e-8)

    def test_prior_mean_term_value(self):
        c = build_coefficients(np.eye(1), [1.0], 1.0, 0.0, [1.0])
        out = quadrature_inhomogeneous(c, 3, 1.0, 0.0)
        np.testing.assert_allclose(out, [0.0857864376269049], rtol=1e-7, atol=1e-10)

    def test_invalid_index(self, scalar_z2):
        with pytest.raises(ValueError):
            quadrature_inhomogeneous(scalar_z2, 7, 1.0, 0.0)

    def test_nan_integrand_gives_nan_not_a_subdivision_error(self):
        # nan <= tol is false at every level, so without a finiteness check
        # the recursion halves down to the depth limit and raises.
        c = FlowCoefficients(np.eye(2), np.array([1.0, 0.5]), 1.0, math.nan, np.zeros(2))
        out = quadrature_inhomogeneous(c, 0, 1.0, 0.0)
        assert out.shape == (2,) and np.isnan(out).all()

    def test_integrand_that_never_converges_exhausts_the_budget(self):
        # Fresh noise on every call keeps each panel's error estimate at
        # the noise level times its width, so panels would halve to about
        # 1e-10 wide (some 2^33 of them) without reaching the depth limit:
        # only the evaluation budget stops the call.
        rng = np.random.default_rng(5)
        taus = []

        def noise(tau):
            taus.append(tau)
            return rng.standard_normal(3)

        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="evaluation budget"):
            pflow.oracle._adaptive_simpson(noise, 0.0, 1.0)
        assert time.perf_counter() - start < 1.0
        assert len(taus) <= pflow.oracle.QUADRATURE_MAX_EVALUATIONS


class TestKalmanPosterior:
    def test_scalar_fixture(self):
        out = kalman_posterior(np.eye(1), [[1.0]], [[1.0]], [2.0], [0.0])
        np.testing.assert_allclose(out.mean, [1.0])
        np.testing.assert_allclose(out.covariance, [[0.5]])

    def test_zero_innovation(self):
        rng = np.random.default_rng(2)
        P = random_spd(rng, 3)
        H = rng.standard_normal((1, 3))
        xbar = rng.standard_normal(3)
        out = kalman_posterior(P, H, [[0.5]], H @ xbar, xbar)
        np.testing.assert_allclose(out.mean, xbar, rtol=1e-12)

    def test_uninformative_limit(self):
        rng = np.random.default_rng(3)
        P = random_spd(rng, 3)
        H = rng.standard_normal((1, 3))
        xbar = rng.standard_normal(3)
        out = kalman_posterior(P, H, [[1e12]], [5.0], xbar)
        np.testing.assert_allclose(out.mean, xbar, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(out.covariance, P, rtol=1e-10)

    def test_returns_belief(self):
        out = kalman_posterior(np.eye(2), [[1.0, 0.0]], [[1.0]], [1.0], np.zeros(2))
        assert isinstance(out, GaussianBelief)


class TestCommutatorNorm:
    def test_scalar_case_is_exactly_zero(self):
        A1, A2 = (drift_matrix_A(np.eye(1), [[2.0]], [[1.0]], lam) for lam in (0.2, 0.9))
        assert commutator_norm(A1, A2) == 0.0

    def test_equal_arguments(self):
        rng = np.random.default_rng(5)
        P = random_spd(rng, 4)
        H = rng.standard_normal((2, 4))
        R = random_spd(rng, 2)
        A = drift_matrix_A(P, H, R, 0.4)
        assert commutator_norm(A, drift_matrix_A(P, H, R, 0.4)) < 1e-14

    def test_random_instance_commutes(self):
        rng = np.random.default_rng(6)
        P = random_spd(rng, 5)
        H = rng.standard_normal((2, 5))
        R = random_spd(rng, 2)
        A1, A2 = drift_matrix_A(P, H, R, 0.3), drift_matrix_A(P, H, R, 0.9)
        bound = 1e-12 * (1.0 + np.linalg.norm(A1, "fro") * np.linalg.norm(A2, "fro"))
        assert commutator_norm(A1, A2) <= bound

    def test_non_commuting_pair(self):
        # [E12, E21] = diag(1, -1), whose Frobenius norm is sqrt(2).
        E12, E21 = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])
        assert commutator_norm(E12, E21) == math.sqrt(2.0)
        assert type(commutator_norm(E12, E21)) is float


def per_pair_commutators(n_instances, seed):
    """The commutator records of worst_deviations(n_instances, seed) as the
    per-pair loop made them, forming both drift matrices again for every
    (lam, tau) pair: (deviation hex, instance, interval, n_z) per pair."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 5)
    records = []
    for case in range(n_instances):
        n_x = int(rng.integers(1, 21))
        n_z = int(rng.integers(1, min(n_x, 5) + 1))
        P = random_spd(rng, n_x)
        Hm = rng.standard_normal((n_z, n_x))
        Rm = random_spd(rng, n_z)
        norms = {lam: np.linalg.norm(drift_matrix_A(P, Hm, Rm, lam), "fro") for lam in grid}
        for i, lam in enumerate(grid):
            for tau in grid[i + 1:]:
                A1, A2 = drift_matrix_A(P, Hm, Rm, lam), drift_matrix_A(P, Hm, Rm, tau)
                norm = float(np.linalg.norm(A1 @ A2 - A2 @ A1, "fro"))
                value = float(norm / (1.0 + norms[lam] * norms[tau]))
                records.append((value.hex(), case, (float(lam), float(tau)), n_z))
    return records


class TestCommutatorPass:
    """worst_deviations forms each commutator instance's grid matrices once."""

    @pytest.mark.parametrize(
        "n_instances, seed", [(2, 0), (2, 1), (2, 2), (2, 3), (100, 0)]
    )
    def test_five_drift_matrices_per_instance(self, monkeypatch, n_instances, seed):
        real_drift, real_record = pflow.oracle.drift_matrix_A, pflow.oracle.WorstDeviation
        calls, records = [], []

        def drift(*args):
            calls.append(args[3])
            return real_drift(*args)

        def record(*args, **kwargs):
            records.append(real_record(*args, **kwargs))
            return records[-1]

        monkeypatch.setattr(pflow.oracle, "drift_matrix_A", drift)
        monkeypatch.setattr(pflow.oracle, "WorstDeviation", record)
        worst = worst_deviations(n_instances, seed, rk4_steps=10)["commutator"]
        assert len(calls) == 5 * n_instances
        assert calls == list(np.linspace(0.0, 1.0, 5)) * n_instances

        expected = per_pair_commutators(n_instances, seed)
        commutators = [r for r in records if r.n_z is not None]
        assert [(r.deviation.hex(), r.instance, r.interval, r.n_z) for r in commutators] == expected
        first_max = max(expected, key=lambda entry: float.fromhex(entry[0]))
        assert (worst.deviation.hex(), worst.instance, worst.interval, worst.n_z) == first_max


class TestVerifySuite:
    def test_small_suite_is_clean(self):
        from pflow.oracle import ORACLE_TOLERANCES

        results = verify_closed_forms(n_instances=10, seed=7, rk4_steps=1000)
        assert set(results) == set(ORACLE_TOLERANCES)
        for name, value in results.items():
            assert value <= ORACLE_TOLERANCES[name], name

    @pytest.mark.parametrize("count", [0, -1])
    def test_rejects_a_pass_that_checks_nothing(self, count):
        with pytest.raises(ValueError, match="n_instances"):
            verify_closed_forms(n_instances=count, seed=7, rk4_steps=10)

    def test_returns_plain_floats(self):
        results = verify_closed_forms(n_instances=2, seed=3, rk4_steps=10)
        assert all(type(value) is float for value in results.values())

    def test_nan_deviation_is_reported(self, monkeypatch):
        # max(0.0, nan) is 0.0: a running max() would report a NaN closed form as exact.
        real = pflow.flow_core.transition_matrix
        monkeypatch.setattr(
            pflow.flow_core, "transition_matrix", lambda *args: real(*args) * math.nan
        )
        results = verify_closed_forms(n_instances=3, seed=0, rk4_steps=100)
        poisoned = {"phi_vs_matrix_exponential", "flow_map_vs_rk4", "kalman_mean", "kalman_covariance"}
        for name, value in results.items():
            assert math.isnan(value) == (name in poisoned), name

    def test_nan_quadrature_is_reported(self, monkeypatch):
        real = pflow.oracle._offset_term
        monkeypatch.setattr(pflow.oracle, "_offset_term", lambda *args: real(*args) * math.nan)
        results = verify_closed_forms(n_instances=3, seed=0, rk4_steps=100)
        for name, value in results.items():
            assert math.isnan(value) == (name == "psi_vs_quadrature"), name


    @pytest.mark.parametrize("seed", [11, 12])
    def test_bit_identical_with_classic_stage_loop(self, monkeypatch, seed):
        results = verify_closed_forms(n_instances=2, seed=seed)
        monkeypatch.setattr(pflow.oracle, "integrate_flow_batch", classic_stage_loop)
        classic = verify_closed_forms(n_instances=2, seed=seed)
        assert {key: value.hex() for key, value in results.items()} == {
            key: value.hex() for key, value in classic.items()
        }


DRAWN_DIMS = (1, 2, 3, 5, 8, 13)  # scalar instance i has dimension DRAWN_DIMS[i % 6]


class TestWorstDeviations:
    def test_values_are_verify_closed_forms(self):
        worst = worst_deviations(n_instances=7, seed=4, rk4_steps=100)
        values = verify_closed_forms(n_instances=7, seed=4, rk4_steps=100)
        assert {key: w.deviation for key, w in worst.items()} == values

    def test_each_maximum_is_its_instance(self):
        worst = worst_deviations(n_instances=13, seed=2, rk4_steps=100)
        commutator = worst.pop("commutator")
        assert 1 <= commutator.n_z <= min(commutator.dim, 5)
        assert commutator.interval[0] < commutator.interval[1]
        assert commutator.p_over_r is None and commutator.psi_index is None
        for key, w in worst.items():
            assert 0 <= w.instance < 13, key
            assert w.dim == DRAWN_DIMS[w.instance % 6], key
            assert w.p_over_r > 0.0 and w.n_z is None, key
            assert (w.psi_index is not None) == (key == "psi_vs_quadrature"), key
        assert worst["kalman_mean"].interval == (0.0, 1.0)

    def test_nan_reports_the_first_nan_in_drawing_order(self, monkeypatch):
        # Rows of the RK4 call are sorted by dimension: 7 instances of dims
        # 1, 2, 3, 5, 8, 13, 1 go in as instances 0, 6, 1, 2, ... So poisoned
        # rows 1 and 2 are instances 6 and 1, and instance 1 was drawn first.
        real = pflow.oracle.integrate_flow_batch

        def poisoned(*args):
            out = real(*args)
            out[1:3] = math.nan
            return out

        monkeypatch.setattr(pflow.oracle, "integrate_flow_batch", poisoned)
        worst = worst_deviations(n_instances=7, seed=0, rk4_steps=10)["flow_map_vs_rk4"]
        assert math.isnan(worst.deviation)
        assert (worst.instance, worst.dim) == (1, 2)

    def test_nan_in_one_instance_is_named(self, monkeypatch):
        real, calls = pflow.oracle.matrix_exponential, []

        def poisoned(M):
            calls.append(M)
            return real(M) * (math.nan if len(calls) in (3, 5) else 1.0)

        monkeypatch.setattr(pflow.oracle, "matrix_exponential", poisoned)
        worst = worst_deviations(n_instances=6, seed=1, rk4_steps=10)
        phi = worst["phi_vs_matrix_exponential"]
        assert math.isnan(phi.deviation) and phi.instance == 2 and phi.dim == 3
        assert not math.isnan(worst["psi_vs_quadrature"].deviation)

    def test_where_names_the_instance(self):
        worst = worst_deviations(n_instances=3, seed=0, rk4_steps=10)
        assert worst["commutator"].where().startswith(f"instance {worst['commutator'].instance}: n_x=")
        assert ", psi " in worst["psi_vs_quadrature"].where()
        assert "p/r=" in worst["kalman_mean"].where()
        assert all("deviation" not in w.where() for w in worst.values())


def per_dimension_rk4(instances, rng, steps):
    """The flow-map oracle as one RK4 call per dimension, the x0 rows drawn
    group by group in first-seen order: (x0 row, result row) per instance,
    in instance order."""
    by_dim = {}
    for case, item in enumerate(instances):
        by_dim.setdefault(item[0].P.shape[0], []).append(case)
    rows = [None] * len(instances)
    for n, cases in by_dim.items():
        group = [instances[case] for case in cases]
        coeffs_list = [c for c, _, _ in group]
        x0 = np.stack([c.xbar + rng.standard_normal(n) for c in coeffs_list])
        lam0 = np.array([l0 for _, l0, _ in group])
        lam = np.array([l1 for _, _, l1 in group])
        for case, row in zip(cases, zip(x0, integrate_flow_batch(coeffs_list, x0, lam0, lam, steps))):
            rows[case] = row
    return rows


class TestVerifyFlowMapPass:
    """The pass's one embedded RK4 call against the per-dimension calls."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_instances", [1, 2, 6, 13])
    def test_matches_per_dimension_calls(self, monkeypatch, n_instances, seed):
        instances, calls, state = [], [], {}
        real_instance = pflow.oracle.random_flow_instance
        real_interval = pflow.oracle.random_interval

        def instance(rng, n):
            instances.append((real_instance(rng, n),))
            return instances[-1][0]

        def interval(rng):
            lam0, lam = real_interval(rng)
            instances[-1] += (lam0, lam)
            state["before_x0"] = rng.bit_generator.state  # the last draw before the x0 rows
            return lam0, lam

        def batch(*args):
            calls.append((args, integrate_flow_batch(*args)))
            return calls[-1][1]

        monkeypatch.setattr(pflow.oracle, "random_flow_instance", instance)
        monkeypatch.setattr(pflow.oracle, "random_interval", interval)
        monkeypatch.setattr(pflow.oracle, "integrate_flow_batch", batch)
        verify_closed_forms(n_instances=n_instances, seed=seed, rk4_steps=200)

        rng = np.random.default_rng()
        rng.bit_generator.state = state["before_x0"]
        reference = per_dimension_rk4(instances, rng, 200)
        assert len(calls) == 1
        (_, x0, _, _, _), numeric = calls[0]
        assert numeric.shape == (n_instances, max(c.P.shape[0] for c, _, _ in instances))
        for row, (ref_x0, ref_out) in enumerate(reference):
            n = ref_x0.size
            assert np.array_equal(x0[row, :n], ref_x0)
            assert np.array_equal(x0[row, n:], np.zeros(x0.shape[1] - n))
            assert relative_deviation(numeric[row, :n], ref_out) < 1e-13
            assert np.array_equal(numeric[row, n:], np.zeros(x0.shape[1] - n))
        if len({c.P.shape[0] for c, _, _ in instances}) == 1:
            assert np.array_equal(numeric, np.stack([out for _, out in reference]))


class TestEmbedFlowInstance:
    # The embedded bundle's P H^T and H P H^T are dot products over padded
    # rows, which may round differently from the original's.
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.integers(1, 13).flatmap(lambda n: st.tuples(st.just(n), st.integers(n, 13))),
        log_ratio=st.floats(-8.0, 12.0),
        lams=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
    )
    def test_map_is_block_diagonal(self, seed, dims, log_ratio, lams):
        n, n_max = dims
        lam0, lam = lams
        base = random_flow_instance(np.random.default_rng(seed), n)
        c = build_coefficients(base.P, base.H, base.p / 10.0 ** log_ratio, base.z, base.xbar)
        phi, d = analytic_flow_map(c, lam, lam0)
        expected_phi = np.eye(n_max)
        expected_phi[:n, :n] = phi
        expected_d = np.zeros(n_max)
        expected_d[:n] = d

        phi_e, d_e = analytic_flow_map(embed_flow_instance(c, n_max), lam, lam0)
        assert np.max(np.abs(phi_e - expected_phi)) <= 1e-14 * np.max(np.abs(expected_phi))
        assert np.max(np.abs(d_e - expected_d)) <= 1e-14 * np.max(np.abs(expected_d))
        assert np.array_equal(phi_e[n:], expected_phi[n:])
        assert np.array_equal(phi_e[:, n:], expected_phi[:, n:])
        assert np.array_equal(d_e[n:], expected_d[n:])

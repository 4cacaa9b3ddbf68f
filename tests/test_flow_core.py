"""Tests for the closed-form flow machinery.

Derived expected values were computed with the independent oracles
(adaptive quadrature, RK4 integration, the series matrix exponential,
and the linear-Gaussian posterior) and frozen here.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pflow.flow_core import (
    FlowCoefficients,
    _assemble_coefficients,
    _map_scalars,
    analytic_flow_map,
    apply_flow_ensemble,
    build_coefficients,
    drift_matrix_A,
    drift_vector_b,
    inhomogeneous_sum,
    k_eval,
    psi_term,
    transition_matrix,
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


@pytest.fixture
def scalar_z2():
    # P=1, H=1, R=1, z=2, xbar=0: posterior mean 1, variance 1/2.
    return build_coefficients(np.eye(1), [1.0], 1.0, 2.0, [0.0])


@pytest.fixture
def scalar_z0_x1():
    # Same instance with z=0 and xbar=1: posterior mean 1/2.
    return build_coefficients(np.eye(1), [1.0], 1.0, 0.0, [1.0])


class TestBuildCoefficients:
    def test_scalar_instance(self, scalar_z2):
        assert scalar_z2.p == 1.0
        np.testing.assert_allclose(scalar_z2.w, [2.0])
        np.testing.assert_allclose(scalar_z2.M, [[1.0]])

    def test_two_dimensional_instance(self):
        c = build_coefficients(np.eye(2), [1.0, 0.0], 2.0, 4.0, np.zeros(2))
        assert c.p == 1.0
        np.testing.assert_allclose(c.w, [2.0, 0.0])

    def test_zero_row_is_degenerate(self):
        c = build_coefficients(np.eye(2), [0.0, 0.0], 1.0, 1.0, np.zeros(2))
        assert c.p == 0.0
        assert np.array_equal(c.Ph, np.zeros(2))

    def test_rejects_nonspd_covariance(self):
        with pytest.raises(ValueError, match="positive definite"):
            build_coefficients(-np.eye(2), [1.0, 0.0], 1.0, 1.0, np.zeros(2))

    def test_rejects_nonsymmetric_covariance(self):
        # Cholesky reads one triangle; this P would factor as the identity.
        with pytest.raises(ValueError, match="symmetric positive definite"):
            build_coefficients([[1.0, 5.0], [0.0, 1.0]], [1.0, 0.0], 1.0, 1.0, np.zeros(2))

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError, match="positive"):
            build_coefficients(np.eye(1), [1.0], 0.0, 1.0, [0.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_rank_one_eigen_identities(self, seed):
        rng = np.random.default_rng(seed)
        c = random_flow_instance(rng, int(rng.integers(1, 9)))
        # M w = p w and M M = p M for the rank-one drift factor.
        np.testing.assert_allclose(c.M @ c.w, c.p * c.w, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(c.M @ c.M, c.p * c.M, rtol=1e-10, atol=1e-12)
        assert c.p > 0


class TestKEval:
    def test_direct_value(self):
        c = build_coefficients(2.0 * np.eye(1), [1.0], 3.0, 0.0, [0.0])
        assert k_eval(c, 0.5) == 4.0

    def test_at_zero_equals_noise_variance(self, scalar_z2):
        assert k_eval(scalar_z2, 0.0) == 1.0

    def test_at_one(self, scalar_z2):
        assert k_eval(scalar_z2, 1.0) == 2.0


class TestDriftMatrix:
    def test_scalar_at_zero(self):
        np.testing.assert_allclose(drift_matrix_A(np.eye(1), [[1.0]], [[1.0]], 0.0), [[-0.5]])

    def test_scalar_at_one(self):
        np.testing.assert_allclose(drift_matrix_A(np.eye(1), [[1.0]], [[1.0]], 1.0), [[-0.25]])

    def test_axis_aligned_row(self):
        A = drift_matrix_A(np.eye(2), [[1.0, 0.0]], [[1.0]], 0.0)
        np.testing.assert_allclose(A, [[-0.5, 0.0], [0.0, 0.0]], atol=1e-15)

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_nonzero_spectrum_is_stable(self, lam):
        rng = np.random.default_rng(11)
        c = random_flow_instance(rng, 6)
        A = drift_matrix_A(c.P, c.H, [[c.r]], lam)
        eigenvalues = np.sort(np.linalg.eigvals(A).real)
        np.testing.assert_allclose(eigenvalues[1:], 0.0, atol=1e-10)
        np.testing.assert_allclose(
            eigenvalues[0], -c.p / (2.0 * k_eval(c, lam)), rtol=1e-10
        )


class TestDriftVector:
    def test_reduces_to_w_at_zero(self):
        b = drift_vector_b(np.eye(1), [[1.0]], [[1.0]], [2.0], [0.0], 0.0)
        np.testing.assert_allclose(b, [2.0])

    def test_prior_mean_contribution_at_zero(self):
        b = drift_vector_b(np.eye(1), [[1.0]], [[1.0]], [0.0], [1.0], 0.0)
        np.testing.assert_allclose(b, [-0.5])

    def test_matches_five_term_expansion(self):
        # The scalar offset must agree with the expanded offset terms.
        rng = np.random.default_rng(4)
        c = random_flow_instance(rng, 5)
        for lam in (0.0, 0.4, 1.0):
            k = k_eval(c, lam)
            Mx = c.M @ c.xbar
            expanded = (
                c.w
                - 0.5 * Mx / k
                - 1.5 * c.p * lam * c.w / k
                + 0.5 * c.p * lam * Mx / k ** 2
                + 0.5 * c.p ** 2 * lam ** 2 * c.w / k ** 2
            )
            b = drift_vector_b(c.P, c.H, [[c.r]], [c.z], c.xbar, lam)
            np.testing.assert_allclose(b, expanded, rtol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_z=st.integers(2, 3),
        extra_states=st.integers(0, 5),
        log_ratio=st.floats(-8.0, 12.0),
        lam=st.floats(0.0, 1.0),
    )
    def test_matches_nested_product_in_exact_arithmetic(self, seed, n_z, extra_states, log_ratio, lam):
        # ||H P H^T|| / ||R|| = 10**log_ratio with a full-row-rank H and
        # n_z <= n_x, so S = lambda H P H^T + R stays well conditioned while
        # the nested product's terms grow like p/r; evaluated in floats,
        # that product is off by up to about 1e-2 near p/r = 1e12. The
        # offset solves twice with S and loses a few eps cond(S) to rounding,
        # so the bound grows with cond(S) past 1e-13 / eps. Over 30,000 draws
        # the largest error was 0.087 of it.
        n_x = n_z + extra_states
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n_x, n_x))
        P = A @ A.T / n_x + 0.1 * np.eye(n_x)
        H = rng.standard_normal((n_z, n_x))
        B = rng.standard_normal((n_z, n_z))
        R = B @ B.T + 0.5 * np.eye(n_z)
        R *= np.linalg.norm(H @ P @ H.T, 2) / np.linalg.norm(R, 2) / 10.0**log_ratio
        xbar = rng.standard_normal(n_x)
        S = H @ P @ H.T + R
        z = H @ xbar + np.linalg.cholesky(S) @ rng.standard_normal(n_z)

        exact = exact_nested_offset(P, H, R, z, xbar, lam)
        error = np.abs(drift_vector_b(P, H, R, z, xbar, lam) - exact).max() / np.abs(exact).max()
        assert error <= max(1e-12, 10.0 * np.finfo(float).eps * np.linalg.cond(lam * (H @ P @ H.T) + R))


def _exact(M):
    """A float array as a list-of-rows matrix of exact rationals; a vector becomes a column."""
    M = np.asarray(M, dtype=float)
    return [[Fraction(v) for v in row] for row in (M[:, np.newaxis] if M.ndim == 1 else M)]


def _mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _add(A, B, t=1):
    """A + t B for a rational scalar t."""
    return [[a + t * b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _solve(M, B):
    """M^-1 B by Gauss-Jordan elimination, exact for a nonsingular rational M."""
    n = len(M)
    rows = [list(M[i]) + list(B[i]) for i in range(n)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [[a / rows[i][i] for a in rows[i][n:]] for i in range(n)]


def exact_nested_offset(P, H, R, z, xbar, lam):
    """(I + 2 lam A)((I + lam A) P H^T R^-1 z + A xbar), A = -1/2 P H^T S^-1 H, in exact rationals.

    The float inputs are taken exactly; only the result is rounded.
    """
    P, H, R, z, xbar = (_exact(v) for v in (P, H, R, z, xbar))
    lam = Fraction(lam)
    PHt = _mul(P, [list(col) for col in zip(*H)])
    S = _add(R, _mul(H, PHt), lam)
    A = [[-a / 2 for a in row] for row in _mul(PHt, _solve(S, H))]
    v = _mul(PHt, _solve(R, z))
    inner = _add(_add(v, _mul(A, v), lam), _mul(A, xbar))
    return np.array([float(row[0]) for row in _add(inner, _mul(A, inner), 2 * lam)])


class TestTransitionMatrix:
    def test_empty_interval_is_identity(self, scalar_z2):
        np.testing.assert_allclose(transition_matrix(scalar_z2, 0.3, 0.3), np.eye(1))

    def test_scalar_full_interval(self, scalar_z2):
        np.testing.assert_allclose(
            transition_matrix(scalar_z2, 1.0, 0.0), [[1.0 / np.sqrt(2.0)]]
        )

    def test_semigroup_scalar_values(self, scalar_z2):
        first = transition_matrix(scalar_z2, 0.5, 0.0)
        second = transition_matrix(scalar_z2, 1.0, 0.5)
        np.testing.assert_allclose(first, [[0.816496580927726]], rtol=1e-12)
        np.testing.assert_allclose(second, [[0.8660254037844386]], rtol=1e-12)
        np.testing.assert_allclose(second @ first, [[1.0 / np.sqrt(2.0)]], rtol=1e-12)

    def test_rejects_reversed_interval(self, scalar_z2):
        with pytest.raises(ValueError):
            transition_matrix(scalar_z2, 0.2, 0.8)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_matrix_exponential_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        c = random_flow_instance(rng, int(rng.integers(1, 11)))
        lam0, lam = random_interval(rng)
        integral = np.log(k_eval(c, lam0) / k_eval(c, lam)) / (2.0 * c.p) * c.M
        assert relative_deviation(
            transition_matrix(c, lam, lam0), matrix_exponential(integral)
        ) < 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_derivative_solves_homogeneous_ode(self, seed):
        # dPhi/dlambda = A(lambda) Phi via central differences.
        rng = np.random.default_rng(300 + seed)
        c = random_flow_instance(rng, 4)
        lam, step = 0.5, 1e-6
        derivative = (
            transition_matrix(c, lam + step, 0.0) - transition_matrix(c, lam - step, 0.0)
        ) / (2.0 * step)
        expected = drift_matrix_A(c.P, c.H, [[c.r]], lam) @ transition_matrix(c, lam, 0.0)
        assert relative_deviation(derivative, expected) < 1e-4


class TestRankOneExponential:
    @pytest.mark.parametrize("seed", range(10))
    def test_closed_form_matches_series(self, seed):
        # exp(beta M) = I + M (exp(beta tr M) - 1) / tr M for rank-one M.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        M = np.outer(rng.standard_normal(n), rng.standard_normal(n))
        beta = rng.uniform(-1.5, 1.5)
        trace = np.trace(M)
        closed = np.eye(n) + M * (np.exp(beta * trace) - 1.0) / trace
        np.testing.assert_allclose(
            closed, matrix_exponential(beta * M), rtol=1e-10, atol=1e-10
        )


class TestPsiTerms:
    def test_constant_term_value(self, scalar_z2):
        np.testing.assert_allclose(psi_term(scalar_z2, 0, 1.0, 0.0), [1.7238576250846032], rtol=1e-5)

    def test_measurement_weighted_term_sign(self, scalar_z2):
        # The corrected sign: quadrature of the integrand is the arbiter.
        np.testing.assert_allclose(psi_term(scalar_z2, 2, 1.0, 0.0), [-0.8284271247461903], rtol=1e-5)

    def test_quadratic_term_value(self, scalar_z2):
        np.testing.assert_allclose(psi_term(scalar_z2, 4, 1.0, 0.0), [0.104569499661585], rtol=1e-4)

    def test_prior_mean_terms(self, scalar_z0_x1):
        np.testing.assert_allclose(psi_term(scalar_z0_x1, 1, 1.0, 0.0), [-0.2928932188134524], rtol=1e-5)
        np.testing.assert_allclose(psi_term(scalar_z0_x1, 3, 1.0, 0.0), [0.0857864376269049], rtol=1e-4)

    @pytest.mark.parametrize("index", range(5))
    def test_empty_interval_is_zero(self, scalar_z2, index):
        np.testing.assert_allclose(psi_term(scalar_z2, index, 0.6, 0.6), [0.0])

    def test_invalid_index_rejected(self, scalar_z2):
        with pytest.raises(ValueError, match="index"):
            psi_term(scalar_z2, 5, 1.0, 0.0)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_quadrature_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        c = random_flow_instance(rng, int(rng.integers(1, 9)))
        lam0, lam = random_interval(rng)
        for index in range(5):
            closed = psi_term(c, index, lam, lam0)
            oracle = quadrature_inhomogeneous(c, index, lam, lam0)
            assert relative_deviation(closed, oracle) < 1e-6


class TestInhomogeneousSum:
    @pytest.mark.parametrize("seed", range(25))
    def test_equals_sum_of_psi_terms(self, seed):
        # Ties the five terms criterion 3 certifies against quadrature to
        # the summed form the filters apply.
        rng = np.random.default_rng(1500 + seed)
        c = random_flow_instance(rng, int(rng.integers(1, 14)))
        lam0, lam = random_interval(rng)
        terms = sum(psi_term(c, index, lam, lam0) for index in range(5))
        assert relative_deviation(inhomogeneous_sum(c, lam, lam0), terms) < 1e-12

    def test_scalar_posterior_mean(self, scalar_z2):
        np.testing.assert_allclose(inhomogeneous_sum(scalar_z2, 1.0, 0.0), [1.0], atol=1e-5)

    def test_prior_mean_instance(self, scalar_z0_x1):
        np.testing.assert_allclose(
            inhomogeneous_sum(scalar_z0_x1, 1.0, 0.0), [-0.2071067811865476], rtol=1e-5
        )

    def test_empty_interval(self, scalar_z2):
        np.testing.assert_allclose(inhomogeneous_sum(scalar_z2, 0.2, 0.2), [0.0])


class TestAnalyticFlowMap:
    def test_scalar_full_interval(self, scalar_z2):
        phi, d = analytic_flow_map(scalar_z2, 1.0, 0.0)
        np.testing.assert_allclose(phi, [[1.0 / np.sqrt(2.0)]], rtol=1e-12)
        np.testing.assert_allclose(d, [1.0], atol=1e-12)

    def test_empty_interval(self, scalar_z2):
        phi, d = analytic_flow_map(scalar_z2, 0.4, 0.4)
        np.testing.assert_allclose(phi, np.eye(1))
        np.testing.assert_allclose(d, [0.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_composition_matches_full_interval(self, seed):
        rng = np.random.default_rng(2000 + seed)
        c = random_flow_instance(rng, int(rng.integers(1, 7)))
        phi_full, d_full = analytic_flow_map(c, 1.0, 0.0)
        phi_a, d_a = analytic_flow_map(c, 0.5, 0.0)
        phi_b, d_b = analytic_flow_map(c, 1.0, 0.5)
        np.testing.assert_allclose(phi_b @ phi_a, phi_full, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(phi_b @ d_a + d_b, d_full, rtol=1e-10, atol=1e-10)

        # H P H^T / R over 1e-8..1e12, where the individual offset terms
        # grow like p/r and only the combined form of their sum stays
        # exact; 5 instances per decade and seed, split at a random lam1.
        for log_ratio in range(-8, 13):
            for _ in range(5):
                base = random_flow_instance(rng, int(rng.integers(1, 7)))
                c = build_coefficients(
                    base.P, base.H, base.p / 10.0 ** log_ratio, base.z, base.xbar
                )
                lam1 = rng.uniform(0.0, 1.0)
                phi_full, d_full = analytic_flow_map(c, 1.0, 0.0)
                phi_a, d_a = analytic_flow_map(c, lam1, 0.0)
                phi_b, d_b = analytic_flow_map(c, 1.0, lam1)
                msg = f"p/r = 1e{log_ratio}, lam1 = {lam1}"
                np.testing.assert_allclose(
                    phi_b @ phi_a, phi_full, rtol=1e-10, atol=1e-10, err_msg=msg
                )
                np.testing.assert_allclose(
                    phi_b @ d_a + d_b, d_full, rtol=1e-10, atol=1e-10, err_msg=msg
                )

    @pytest.mark.parametrize("seed", range(15))
    def test_kalman_exactness(self, seed):
        rng = np.random.default_rng(3000 + seed)
        c = random_flow_instance(rng, int(rng.integers(1, 11)))
        phi, d = analytic_flow_map(c, 1.0, 0.0)
        posterior = kalman_posterior(c.P, c.H, [[c.r]], [c.z], c.xbar)
        assert relative_deviation(phi @ c.xbar + d, posterior.mean) < 1e-8
        assert relative_deviation(phi @ c.P @ phi.T, posterior.covariance) < 1e-8


class TestApplyFlow:
    def test_scalar_from_one(self, scalar_z2):
        # RK4 oracle value for the frozen-coefficient flow started at 1.
        out = apply_flow_ensemble(scalar_z2, np.array([[1.0]]), 1.0, 0.0)
        np.testing.assert_allclose(out[0], [1.7071067811865475], rtol=1e-6)

    def test_scalar_from_prior_mean(self, scalar_z2):
        out = apply_flow_ensemble(scalar_z2, np.array([[0.0]]), 1.0, 0.0)
        np.testing.assert_allclose(out[0], [1.0], atol=1e-12)

    def test_degenerate_flow_is_identity(self):
        c = build_coefficients(np.eye(2), [0.0, 0.0], 1.0, 3.0, np.zeros(2))
        x0 = np.array([[1.0, -2.0]])
        out = apply_flow_ensemble(c, x0, 1.0, 0.0)
        np.testing.assert_allclose(out[0], [1.0, -2.0])
        # A zero Ph and w give the oracle a zero drift: the same identity.
        for method in ("euler", "rk4"):
            assert np.array_equal(integrate_flow_batch([c], x0, 0.0, 1.0, 100, method), x0)
        for index in range(5):
            assert np.array_equal(psi_term(c, index, 1.0, 0.0), np.zeros(2))
            assert np.array_equal(quadrature_inhomogeneous(c, index, 1.0, 0.0), np.zeros(2))

    def test_matches_rk4_oracle(self, scalar_z2):
        numeric = integrate_flow_batch([scalar_z2], np.array([[1.0]]), 0.0, 1.0, 10_000, "rk4")
        out = apply_flow_ensemble(scalar_z2, np.array([[1.0]]), 1.0, 0.0)
        np.testing.assert_allclose(out[0], numeric[0], rtol=1e-6)

    @pytest.mark.parametrize("p", [-1.0, -2.0])
    def test_indefinite_coefficients_end_nonfinite(self, p):
        # k(1) = 0 and k(1) < 0 come only from a P that is not positive
        # semidefinite along H. The map must return NaNs, which the
        # filters report as divergence, instead of raising.
        c = FlowCoefficients(np.eye(1), np.ones(1), 1.0, 2.0, np.zeros(1), np.ones(1), p)
        out = apply_flow_ensemble(c, np.array([[1.0], [-1.0]]), 1.0, 0.0)
        assert np.all(np.isnan(out))

    @pytest.mark.parametrize("seed", range(8))
    def test_ensemble_application_matches_rowwise(self, seed):
        rng = np.random.default_rng(4000 + seed)
        c = random_flow_instance(rng, 5)
        lam0, lam = random_interval(rng)
        particles = rng.standard_normal((6, 5))
        batch = apply_flow_ensemble(c, particles, lam, lam0)
        phi, d = analytic_flow_map(c, lam, lam0)
        for i in range(6):
            np.testing.assert_allclose(batch[i], phi @ particles[i] + d, rtol=1e-12, atol=1e-12)


def scaled_flow_instance(seed, log_ratio):
    """A random instance with H P H^T / R = 10**log_ratio, and a small ensemble."""
    rng = np.random.default_rng(seed)
    base = random_flow_instance(rng, int(rng.integers(1, 9)))
    c = build_coefficients(base.P, base.H, base.p / 10.0 ** log_ratio, base.z, base.xbar)
    return c, rng.standard_normal((int(rng.integers(1, 12)), c.P.shape[0]))


class TestFlowMapProperties:
    # p/r over 1e-8..1e12, where the individual offset terms grow like p/r
    # and only the combined form of the affine part stays exact. The largest
    # deviations measured over 20,000 draws were 8.3e-16 (semigroup) and
    # 3.8e-16 (dense map).
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_ratio=st.floats(-8.0, 12.0),
        lams=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).map(sorted),
    )
    def test_ensemble_semigroup(self, seed, log_ratio, lams):
        lam0, lam1, lam2 = lams
        c, X = scaled_flow_instance(seed, log_ratio)
        two_steps = apply_flow_ensemble(c, apply_flow_ensemble(c, X, lam1, lam0), lam2, lam1)
        one_step = apply_flow_ensemble(c, X, lam2, lam0)
        assert relative_deviation(two_steps, one_step) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_ratio=st.floats(-8.0, 12.0),
        lams=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
    )
    def test_rows_follow_dense_map(self, seed, log_ratio, lams):
        lam0, lam = lams
        c, X = scaled_flow_instance(seed, log_ratio)
        phi, d = analytic_flow_map(c, lam, lam0)
        assert relative_deviation(apply_flow_ensemble(c, X, lam, lam0), X @ phi.T + d) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_ratio=st.floats(-8.0, 12.0),
        lam=st.floats(0.0, 1.0),
    )
    def test_empty_interval_is_identity(self, seed, log_ratio, lam):
        c, X = scaled_flow_instance(seed, log_ratio)
        assert np.array_equal(apply_flow_ensemble(c, X, lam, lam), X)

    # Kalman exactness of the full-interval map over the same p/r range.
    # The largest deviations measured over 20,000 draws, the ends of the
    # range included, were 7.3e-16 (mean) and 1.6e-15 (covariance).
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_ratio=st.floats(-8.0, 12.0))
    def test_full_interval_map_is_the_kalman_update(self, seed, log_ratio):
        c, _ = scaled_flow_instance(seed, log_ratio)
        phi, d = analytic_flow_map(c, 1.0, 0.0)
        posterior = kalman_posterior(c.P, c.H, [[c.r]], [c.z], c.xbar)
        assert relative_deviation(phi @ c.xbar + d, posterior.mean) < 1e-13
        assert relative_deviation(phi @ c.P @ phi.T, posterior.covariance) < 1e-13


def reference_map_scalars(coeffs, lam, lam0):
    """(s, scale, c) of the map from the bundle's float values, in 1000-digit decimals.

    Evaluates the unfactored forms s = sqrt(k0/k1), (s - 1)/p and
    z (lam/k1 - s lam0/k0) + (H xbar)(r/p)(1/k1 - s/k0), whose cancellation
    costs about -log10(p/r) < 330 digits here; at p = 0, their limits.
    """
    with localcontext() as ctx:
        ctx.prec = 1000
        p, r, z, lam, lam0 = (Decimal(float(v)) for v in (coeffs.p, coeffs.r, coeffs.z, lam, lam0))
        h_xbar = sum(Decimal(float(a)) * Decimal(float(b)) for a, b in zip(coeffs.H, coeffs.xbar))
        dlam = lam - lam0
        if p == 0:
            return Decimal(1), -dlam / (2 * r), dlam * (2 * z - h_xbar) / (2 * r)
        k0, k1 = lam0 * p + r, lam * p + r
        s = (k0 / k1).sqrt()
        return s, (s - 1) / p, z * (lam / k1 - s * lam0 / k0) + h_xbar * (r / p) * (1 / k1 - s / k0)


def increment_instance(seed, size=1.0, log_ratio=None, null_row=False):
    """A flow bundle in which no input sum cancels, with p/r = 10**log_ratio (r = 1 when None).

    P is diagonal and xbar is signed against z through H, so H xbar and
    the numerator of c add terms of one sign. null_row zeroes P along H,
    giving p = 0 and Ph = 0 with H xbar nonzero.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    sign = rng.choice([-1.0, 1.0], n)
    H = size * sign * rng.uniform(0.5, 1.0, n)
    P = np.diag(rng.uniform(0.5, 2.0, n))
    if null_row:
        H[:-1] = 0.0
        P[-1, -1] = 0.0
    p = H @ P @ H
    r = 1.0 if log_ratio is None else p / 10.0 ** log_ratio
    z = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    xbar = -np.sign(z) * sign * rng.uniform(0.1, 1.0, n)
    return _assemble_coefficients(P, H, r, z, xbar)


INCREMENT_CASES = [
    pytest.param(seed, case, id=name)
    for seed, (name, case) in enumerate(
        [("H=0", {"size": 0.0}), ("P_H=0", {"null_row": True})]
        + [(f"p/r=1e{e}", {"log_ratio": e}) for e in (-300, -100, -17, -14, -11, -8, -4, 0, 4, 8, 12, 15)]
        + [(f"max|H|={h:g}", {"size": h}) for h in (1e-300, 1e-200, 1e-155, 1e-150, 1e-100, 1e-50, 1e-20, 1e-13, 1e-12)]
    )
]

# Wide intervals, and intervals 1e-7 wide at both ends and inside [0, 1].
INCREMENT_INTERVALS = [(0.0, 1.0), (0.0, 0.1), (0.25, 0.75), (0.9, 1.0), (0.0, 1e-7), (0.3, 0.3 + 1e-7), (1.0 - 1e-7, 1.0)]


def relative_error(value, reference):
    return float(abs(Decimal(float(value)) - reference) / abs(reference))


class TestFlowMapIncrement:
    # The map's increment, not the posterior: scale and c are the size of
    # the move, so a deviation relative to the posterior hides their loss
    # as p/r -> 0, where the move is tiny. Both stay within 1e-14 of the
    # reference from p = 0 to p/r = 1e15, on wide and 1e-7-wide intervals.
    @pytest.mark.parametrize("seed, case", INCREMENT_CASES)
    def test_scalars_match_reference(self, seed, case):
        coeffs = increment_instance(seed, **case)
        for lam0, lam in INCREMENT_INTERVALS:
            references = reference_map_scalars(coeffs, lam, lam0)
            values = _map_scalars(coeffs.p, coeffs.r, coeffs.z, float(coeffs.H @ coeffs.xbar), lam, lam0)
            for name, value, reference in zip(("s", "scale", "c"), values, references):
                assert relative_error(value, reference) <= 1e-14, (name, lam0, lam)

    # One ensemble move minus its input, against Ph (scale H x + c) in
    # decimals. The particles are signed like xbar, so scale H x and c add,
    # and sized like the move, so the subtraction of the input is exact to
    # rounding: the deviation is the map's own. With Ph = 0 unit-sized
    # particles must not move at all.
    @pytest.mark.parametrize("seed, case", INCREMENT_CASES)
    def test_ensemble_move_matches_reference(self, seed, case):
        coeffs = increment_instance(seed, **case)
        rng = np.random.default_rng(7)
        for lam0, lam in INCREMENT_INTERVALS:
            _, scale, c = reference_map_scalars(coeffs, lam, lam0)
            size = float(abs(c)) * np.abs(coeffs.Ph).min() or 1.0
            X = np.sign(coeffs.xbar) * size * rng.uniform(0.5, 1.0, (4, coeffs.P.shape[0]))
            move = apply_flow_ensemble(coeffs, X, lam, lam0) - X
            if not coeffs.Ph.any():
                assert np.array_equal(move, np.zeros_like(X)), (lam0, lam)
                continue
            with localcontext() as ctx:
                ctx.prec = 1000
                for x, row in zip(X, move):
                    h_x = sum(Decimal(float(a)) * Decimal(float(b)) for a, b in zip(coeffs.H, x))
                    for ph, value in zip(coeffs.Ph, row):
                        reference = Decimal(float(ph)) * (scale * h_x + c)
                        assert relative_error(value, reference) <= 1e-14, (lam0, lam)


class TestCommutativity:
    @pytest.mark.parametrize("seed", range(10))
    def test_general_drift_matrices_commute(self, seed):
        rng = np.random.default_rng(5000 + seed)
        n_x = int(rng.integers(1, 21))
        n_z = int(rng.integers(1, min(n_x, 5) + 1))
        P = random_spd(rng, n_x)
        H = rng.standard_normal((n_z, n_x))
        R = random_spd(rng, n_z)
        grid = np.arange(0.0, 1.0 + 1e-12, 0.1)
        norms = {lam: np.linalg.norm(drift_matrix_A(P, H, R, lam), "fro") for lam in grid}
        for i, lam in enumerate(grid):
            for tau in grid[i + 1:]:
                bound = 1e-10 * (1.0 + norms[lam] * norms[tau])
                assert commutator_norm(P, H, R, lam, tau) <= bound

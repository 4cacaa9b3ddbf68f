"""Tests for the extended Kalman filter recursion."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import linear_model
from pflow.ekf import GaussianBelief, _ensure_positive_definite, ekf_predict, ekf_update
from pflow.model import ungm_model
from pflow.oracle import kalman_posterior


class TestPredict:
    def test_identity_transition_adds_process_noise(self):
        m = linear_model([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        out = ekf_predict(GaussianBelief(np.zeros(1), np.eye(1)), m, 1)
        np.testing.assert_allclose(out.mean, [0.0])
        np.testing.assert_allclose(out.covariance, [[2.0]])

    def test_contraction_without_noise(self):
        m = linear_model([[0.5]], [[0.0]], [[1.0]], [[1.0]])
        out = ekf_predict(GaussianBelief(np.array([4.0]), np.eye(1)), m, 1)
        np.testing.assert_allclose(out.mean, [2.0])
        np.testing.assert_allclose(out.covariance, [[0.25]])

    def test_ungm_prediction_at_origin(self):
        out = ekf_predict(GaussianBelief(np.zeros(1), np.eye(1)), ungm_model(), 1)
        np.testing.assert_allclose(out.mean, [2.898862035813389], rtol=1e-12)
        np.testing.assert_allclose(out.covariance, [[25.5 ** 2 + 10.0]])

    def test_covariance_stays_symmetric(self):
        rng = np.random.default_rng(3)
        F = rng.standard_normal((4, 4))
        m = linear_model(F, np.eye(4), np.ones((1, 4)), [[1.0]])
        P = rng.standard_normal((4, 4))
        P = P @ P.T + np.eye(4)
        out = ekf_predict(GaussianBelief(np.zeros(4), P), m, 1)
        np.testing.assert_allclose(out.covariance, out.covariance.T, atol=1e-12)


class TestUpdate:
    def test_scalar_halves_uncertainty(self):
        m = linear_model([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        out = ekf_update(GaussianBelief(np.zeros(1), np.eye(1)), m, np.array([2.0]))
        np.testing.assert_allclose(out.mean, [1.0])
        np.testing.assert_allclose(out.covariance, [[0.5]])

    def test_zero_innovation_keeps_mean(self):
        m = linear_model([[1.0]], [[1.0]], [[2.0]], [[0.5]])
        belief = GaussianBelief(np.array([3.0]), np.array([[1.5]]))
        out = ekf_update(belief, m, m.measurement(belief.mean))
        np.testing.assert_allclose(out.mean, belief.mean)

    def test_zero_measurement_row_is_inert(self):
        m = linear_model([[1.0]], [[1.0]], [[0.0]], [[1.0]])
        belief = GaussianBelief(np.array([3.0]), np.array([[1.5]]))
        out = ekf_update(belief, m, np.array([7.0]))
        np.testing.assert_allclose(out.mean, belief.mean)
        np.testing.assert_allclose(out.covariance, belief.covariance)

    def test_singular_innovation_raises(self):
        m = linear_model([[1.0]], [[1.0]], [[0.0]], [[0.0]])
        with pytest.raises(np.linalg.LinAlgError, match="innovation"):
            ekf_update(GaussianBelief(np.zeros(1), np.eye(1)), m, np.array([1.0]))

    @pytest.mark.parametrize("seed", range(10))
    def test_update_never_inflates_covariance(self, seed):
        # Posterior <= prior in the Loewner order for linear measurements.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n))
        P = A @ A.T / n + 0.5 * np.eye(n)
        H = rng.standard_normal((1, n))
        m = linear_model(np.eye(n), np.eye(n), H, [[float(rng.uniform(0.1, 2.0))]])
        belief = GaussianBelief(rng.standard_normal(n), P)
        out = ekf_update(belief, m, np.array([rng.standard_normal()]))
        gaps = np.linalg.eigvalsh(belief.covariance - out.covariance)
        assert gaps.min() >= -1e-10

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        n_z=st.integers(1, 3),
        log_ratio=st.floats(-8.0, 12.0),
    )
    # cond S = 7.1e6: the covariances differ by 4.58e-12, 4.1 * 1e-12 ||P||.
    @example(seed=615100337, n=3, n_z=3, log_ratio=6.0)
    def test_linear_update_matches_kalman_posterior(self, seed, n, n_z, log_ratio):
        # ||H P H^T|| / ||R|| = 10**log_ratio spans the decades where
        # P - W^T W cancels hardest. Exact symmetry holds because W^T W is
        # exactly symmetric and P is. Both covariances lose about eps cond(S)
        # of ||P|| to rounding (the textbook one is no nearer an exact
        # posterior), so the bound grows with cond(S) past 1e-12 / eps. Over
        # 60,000 draws the largest gap was 0.18 of this bound.
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        P = A @ A.T / n + 0.1 * np.eye(n)
        P = 0.5 * (P + P.T)
        H = rng.standard_normal((n_z, n))
        B = rng.standard_normal((n_z, n_z))
        R = B @ B.T + 0.5 * np.eye(n_z)
        R *= np.linalg.norm(H @ P @ H.T, 2) / np.linalg.norm(R, 2) / 10.0**log_ratio
        xbar = rng.standard_normal(n)
        S = H @ P @ H.T + R
        z = H @ xbar + np.linalg.cholesky(0.5 * (S + S.T)) @ rng.standard_normal(n_z)

        out = ekf_update(GaussianBelief(xbar, P), linear_model(np.eye(n), np.eye(n), H, R), z)
        ref = kalman_posterior(P, H, R, z, xbar)
        scale = np.linalg.norm(P, 2)
        C = out.covariance
        rounding = max(1e-12, np.finfo(float).eps * np.linalg.cond(S))
        np.testing.assert_allclose(C, ref.covariance, rtol=0, atol=rounding * scale)
        np.testing.assert_allclose(
            out.mean, ref.mean, rtol=0, atol=1e-9 * (np.sqrt(scale) + np.abs(xbar).max())
        )
        assert np.array_equal(C, C.T)
        np.linalg.cholesky(C)
        assert np.linalg.eigvalsh(P - C).min() >= -1e-12 * scale


class TestEnsurePositiveDefinite:
    def test_spd_input_is_returned_unchanged(self):
        P = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert _ensure_positive_definite(P) is P

    @pytest.mark.parametrize("seed", range(5))
    def test_round_off_negative_eigenvalue_is_repaired(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigenvalues = rng.uniform(0.5, 4.0, n)
        eigenvalues[0] = -1e-13 * eigenvalues.max()
        P = (Q * eigenvalues) @ Q.T
        P = 0.5 * (P + P.T)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(P)

        out = _ensure_positive_definite(P)
        assert np.array_equal(out, out.T)
        np.linalg.cholesky(out)
        # The eigenvalue is lifted from -1e-13 to the floor 1e-12 * ||P||.
        scale = np.linalg.norm(P, 2)
        assert np.linalg.norm(out - P, 2) <= 1.2e-12 * scale

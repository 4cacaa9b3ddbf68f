"""Tests for the particle-flow filter pipelines."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import linear_model
from pflow import ekf as ekf_module
from pflow.ekf import GaussianBelief, ekf_predict, ekf_update
from pflow.filters import (
    _COMPOSE_BLOCK,
    FILTER_NAMES,
    FilterConfig,
    FilterDivergenceError,
    _lambda_points,
    aedh_update,
    edh_update,
    ledh_update,
    naedh_update,
    predict_particles,
    run_filter,
)
from pflow.flow_core import (
    analytic_flow_map,
    build_coefficients,
    drift_matrix_A,
    drift_vector_b,
)
from pflow.model import SystemModel, Trajectory, random_coupled_model, simulate, ungm_model
from pflow.oracle import kalman_posterior, random_spd, relative_deviation


def scalar_unit_model(measurement_scale=1.0):
    """1-D random-walk state with measurement scale*x and unit noises."""
    return linear_model([[1.0]], [[1.0]], [[measurement_scale]], [[1.0]])


def zero_measurement_model(n=2):
    F = 0.5 * np.eye(n)
    return SystemModel(
        n_x=n, n_z=1,
        transition=lambda x, k: np.matmul(F, x[..., np.newaxis])[..., 0],
        measurement=lambda x: np.zeros(x.shape[:-1] + (1,)),
        transition_jacobian=lambda x, k: F,
        measurement_jacobian=lambda x: np.zeros((1, n)),
        Q=np.eye(n), R=np.eye(1),
    )


def ensemble(*rows):
    return np.array(rows, dtype=float)


def analytic_reference(particles, P, model, z, steps):
    """NA-EDH from the public closed forms: per sub-interval, coefficients
    relinearized at the ensemble mean and the dense map X @ Phi^T + d."""
    grid = np.linspace(0.0, 1.0, steps + 1)
    X = particles
    xbar0 = X.mean(axis=0)
    for lam0, lam in zip(grid[:-1], grid[1:]):
        x_lin = X.mean(axis=0)
        H = model.measurement_jacobian(x_lin)
        z_lin = z - model.measurement(x_lin) + H @ x_lin
        phi, d = analytic_flow_map(build_coefficients(P, H, model.R, z_lin, xbar0), lam, lam0)
        X = X @ phi.T + d
    return X


def reference_case(model_name):
    """A curved-measurement model with an ensemble, a covariance and a measurement."""
    rng = np.random.default_rng(21)
    if model_name == "ungm":
        m = ungm_model()
        return m, rng.standard_normal((40, 1)) * 3.0 + 1.0, np.array([[2.5]]), np.array([0.7])
    m = random_coupled_model(5, rng)
    ens = rng.standard_normal((40, 5)) + 0.5
    return m, ens, random_spd(rng, 5), np.array([4.0])


class TestLambdaGrid:
    def test_uniform(self):
        assert _lambda_points(4) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_single_step(self):
        assert _lambda_points(1) == [0.0, 1.0]

    def test_equals_linspace_exactly(self):
        # EDH, LEDH and NA-EDH step over these points; the Euler reference
        # grids are np.linspace, so equality here is to the last bit.
        for n in range(1, 2001):
            assert _lambda_points(n) == np.linspace(0.0, 1.0, n + 1).tolist(), n


class TestConfigValidation:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            FilterConfig(variant="UKF")

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            FilterConfig(particle_count=0)
        with pytest.raises(ValueError):
            FilterConfig(lambda_steps=0)


class TestPredictParticles:
    def test_noise_free_follows_transition(self):
        m = linear_model([[0.5]], [[0.0]], [[1.0]], [[1.0]])
        out = predict_particles(
            ensemble([4.0], [2.0]), m, 1, np.random.default_rng(0), np.zeros((1, 1))
        )
        np.testing.assert_allclose(out, [[2.0], [1.0]])

    def test_fixed_seed_reproducible(self):
        m = ungm_model()
        ens = ensemble([0.0], [1.0], [2.0])
        chol_q = np.linalg.cholesky(m.Q)
        a = predict_particles(ens, m, 1, np.random.default_rng(5), chol_q)
        b = predict_particles(ens, m, 1, np.random.default_rng(5), chol_q)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("coupled", [False, True])
    def test_equals_per_row_reference(self, coupled):
        m = random_coupled_model(100, np.random.default_rng(4)) if coupled else ungm_model()
        ens = 10.0 * np.random.default_rng(8).standard_normal((100, m.n_x))
        chol_q = np.linalg.cholesky(m.Q)
        out = predict_particles(ens, m, 3, np.random.default_rng(5), chol_q)

        rng = np.random.default_rng(5)
        propagated = np.array([m.transition(x, 3) for x in ens])
        reference = propagated + rng.standard_normal(propagated.shape) @ chol_q.T
        assert np.array_equal(out, reference)

    def test_ungm_step_adds_recorded_draw(self):
        m = ungm_model()
        rng = np.random.default_rng(5)
        draw = np.sqrt(10.0) * np.random.default_rng(5).standard_normal((1, 1))
        out = predict_particles(ensemble([0.0]), m, 1, rng, np.linalg.cholesky(m.Q))
        np.testing.assert_allclose(out, 2.898862035813389 + draw, rtol=1e-12)


class TestEdhUpdate:
    def test_zero_measurement_jacobian_is_inert(self):
        m = zero_measurement_model()
        ens = ensemble([1.0, 2.0], [-1.0, 0.5])
        cfg = FilterConfig(variant="EDH", particle_count=2, lambda_steps=5)
        out = edh_update(ens, np.eye(2), m, np.array([3.0]), cfg)
        np.testing.assert_allclose(out, ens)

    def test_many_steps_reach_kalman_mean(self):
        # Scalar instance P=1, H=1, R=1, z=2: posterior mean 1.
        m = scalar_unit_model()
        cfg = FilterConfig(variant="EDH", particle_count=1, lambda_steps=10_000)
        out = edh_update(ensemble([0.0]), np.eye(1), m, np.array([2.0]), cfg)
        np.testing.assert_allclose(out, [[1.0]], atol=1e-3)

    def test_ten_steps_match_hand_rolled_euler(self):
        m = scalar_unit_model()
        cfg = FilterConfig(variant="EDH", particle_count=1, lambda_steps=10)
        out = edh_update(ensemble([0.0]), np.eye(1), m, np.array([2.0]), cfg)

        x = 0.0
        for j in range(1, 11):
            lam = j / 10.0
            a = -0.5 / (lam + 1.0)
            b = (1.0 + 2.0 * lam * a) * ((1.0 + lam * a) * 2.0 + a * 0.0)
            x = x + (a * x + b) * 0.1
        np.testing.assert_allclose(out, [[x]], rtol=1e-12)
        assert abs(x - 1.0) < 5e-2

    def test_accepts_vector_measurements(self):
        m = linear_model(np.eye(2), np.eye(2), [[1.0, 0.0], [0.0, 1.0]], np.eye(2))
        cfg = FilterConfig(variant="EDH", particle_count=1, lambda_steps=2000)
        out = edh_update(ensemble([0.0, 0.0]), np.eye(2), m, np.array([2.0, -1.0]), cfg)
        posterior = kalman_posterior(np.eye(2), np.eye(2), np.eye(2), [2.0, -1.0], np.zeros(2))
        np.testing.assert_allclose(out[0], posterior.mean, atol=2e-3)


class TestLedhUpdate:
    def test_linear_measurement_equals_edh(self):
        m = scalar_unit_model(measurement_scale=0.7)
        ens = ensemble([0.2], [1.4], [-0.9])
        cfg = FilterConfig(variant="LEDH", particle_count=3, lambda_steps=10)
        localized = ledh_update(ens, np.eye(1), m, np.array([2.0]), cfg)
        global_ = edh_update(ens, np.eye(1), m, np.array([2.0]), cfg)
        np.testing.assert_allclose(localized, global_, rtol=1e-12)

    def test_single_particle_equals_edh(self):
        m = ungm_model()
        ens = ensemble([1.3])
        cfg = FilterConfig(variant="LEDH", particle_count=1, lambda_steps=10)
        localized = ledh_update(ens, np.array([[2.0]]), m, np.array([0.4]), cfg)
        global_ = edh_update(ens, np.array([[2.0]]), m, np.array([0.4]), cfg)
        np.testing.assert_allclose(localized, global_, rtol=1e-12)

    def test_curved_measurement_moves_particles_differently(self):
        m = ungm_model()
        rng = np.random.default_rng(8)
        ens = rng.standard_normal((50, 1)) + 2.0
        cfg = FilterConfig(variant="LEDH", particle_count=50, lambda_steps=10)
        localized = ledh_update(ens, np.array([[1.0]]), m, np.array([0.5]), cfg)
        global_ = edh_update(ens, np.array([[1.0]]), m, np.array([0.5]), cfg)
        assert np.max(np.abs(localized - global_)) > 1e-3

    def test_zero_jacobian_is_inert(self):
        m = zero_measurement_model()
        ens = ensemble([1.0, 2.0], [-1.0, 0.5])
        cfg = FilterConfig(variant="LEDH", particle_count=2, lambda_steps=3)
        out = ledh_update(ens, np.eye(2), m, np.array([3.0]), cfg)
        np.testing.assert_allclose(out, ens)

    def test_one_stacked_measurement_call_per_pseudo_time_step(self):
        base = ungm_model()
        shapes = []

        def measurement(x):
            shapes.append(x.shape)
            return base.measurement(x)

        m = SystemModel(
            n_x=1, n_z=1,
            transition=base.transition,
            measurement=measurement,
            transition_jacobian=base.transition_jacobian,
            measurement_jacobian=base.measurement_jacobian,
            Q=base.Q, R=base.R,
        )
        ens = np.random.default_rng(9).standard_normal((7, 1)) + 1.0
        cfg = FilterConfig(variant="LEDH", particle_count=7, lambda_steps=4)
        out = ledh_update(ens, np.array([[2.0]]), m, np.array([0.3]), cfg)
        assert shapes == [(7, 1)] * 4
        assert np.array_equal(out, ledh_update(ens, np.array([[2.0]]), base, np.array([0.3]), cfg))

    def test_general_measurement_path_matches_scalar_path(self):
        # Two identical rows with R = I carry the information of one row
        # with r = 1/2, so the generic drift must reproduce the one-row
        # model's result.
        assert_duplicated_row_matches_halved_r("LEDH", ledh_update)

    def test_edh_general_measurement_path_matches_scalar_path(self):
        assert_duplicated_row_matches_halved_r("EDH", edh_update)


def assert_duplicated_row_matches_halved_r(variant, update):
    base = ungm_model()
    two_z = SystemModel(
        n_x=1, n_z=2,
        transition=base.transition,
        measurement=lambda x: np.repeat(x ** 2 / 20.0, 2, axis=-1),
        transition_jacobian=base.transition_jacobian,
        measurement_jacobian=lambda x: np.array([[x[0] / 10.0], [x[0] / 10.0]]),
        Q=base.Q, R=np.eye(2),
    )
    one_z = dataclasses.replace(base, R=np.array([[0.5]]))
    ens = ensemble([1.5], [0.5])
    cfg = FilterConfig(variant=variant, particle_count=2, lambda_steps=4)
    out = update(ens, np.array([[1.0]]), two_z, np.array([0.2, 0.2]), cfg)
    expected = update(ens, np.array([[1.0]]), one_z, np.array([0.2]), cfg)
    np.testing.assert_allclose(out, expected, rtol=1e-12)


class TestAedhUpdate:
    def test_prior_mean_reaches_kalman_mean(self):
        m = scalar_unit_model()
        cfg = FilterConfig(variant="A-EDH", particle_count=1)
        out = aedh_update(ensemble([0.0]), np.eye(1), m, np.array([2.0]), cfg)
        np.testing.assert_allclose(out, [[1.0]], atol=1e-12)

    def test_offset_particle_follows_flow(self):
        # Two particles symmetric about the mean 0 keep the map anchored
        # there; the one at 1 lands on the frozen-flow RK4 value.
        m = scalar_unit_model()
        cfg = FilterConfig(variant="A-EDH", particle_count=2)
        out = aedh_update(ensemble([1.0], [-1.0]), np.eye(1), m, np.array([2.0]), cfg)
        np.testing.assert_allclose(out[0], [1.7071067811865475], rtol=1e-12)

    def test_update_is_affine(self):
        m = ungm_model()
        cfg = FilterConfig(variant="A-EDH", particle_count=3)
        alpha = 0.3
        x, y = np.array([0.8]), np.array([-0.4])
        mix = alpha * x + (1 - alpha) * y
        ens = np.stack([x, y, mix])
        out = aedh_update(ens, np.array([[2.0]]), m, np.array([0.7]), cfg)
        np.testing.assert_allclose(
            out[2], alpha * out[0] + (1 - alpha) * out[1],
            rtol=1e-12,
        )

    def test_updated_mean_is_mapped_mean(self):
        from pflow.flow_core import analytic_flow_map, build_coefficients

        m = ungm_model()
        rng = np.random.default_rng(3)
        ens = rng.standard_normal((20, 1)) + 1.0
        cfg = FilterConfig(variant="A-EDH", particle_count=20)
        P = np.array([[2.0]])
        z = np.array([0.6])
        out = aedh_update(ens, P, m, z, cfg)

        xbar = ens.mean(axis=0)
        H = m.measurement_jacobian(xbar)
        z_lin = z - m.measurement(xbar) + H @ xbar
        coeffs = build_coefficients(P, H, 0.1, float(z_lin[0]), xbar)
        phi, d = analytic_flow_map(coeffs, 1.0, 0.0)
        np.testing.assert_allclose(
            out.mean(axis=0), phi @ xbar + d, rtol=1e-10
        )

    def test_rejects_vector_measurement(self):
        m = linear_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        cfg = FilterConfig(variant="A-EDH", particle_count=1)
        with pytest.raises(ValueError, match="scalar measurement"):
            aedh_update(ensemble([0.0, 0.0]), np.eye(2), m, np.array([1.0, 2.0]), cfg)

    def test_zero_jacobian_is_inert(self):
        m = zero_measurement_model()
        ens = ensemble([1.0, 2.0], [-1.0, 0.5])
        cfg = FilterConfig(variant="A-EDH", particle_count=2)
        out = aedh_update(ens, np.eye(2), m, np.array([3.0]), cfg)
        np.testing.assert_allclose(out, ens)


class TestEulerConvergesToAnalytic:
    def test_edh_error_decreases_toward_aedh(self):
        # Frozen linearization (linear h): Euler converges to the exact map.
        m = scalar_unit_model(measurement_scale=1.2)
        rng = np.random.default_rng(33)
        ens = rng.standard_normal((25, 1))
        exact = aedh_update(
            ens, np.eye(1), m, np.array([0.9]),
            FilterConfig(variant="A-EDH", particle_count=25),
        )
        errors = []
        for steps in (10, 100, 1000):
            cfg = FilterConfig(variant="EDH", particle_count=25, lambda_steps=steps)
            euler = edh_update(ens, np.eye(1), m, np.array([0.9]), cfg)
            errors.append(np.max(np.abs(euler - exact)))
        assert errors[0] > errors[1] > errors[2]


def recording_jacobian(model, points):
    """The model with measurement_jacobian appending each point it is evaluated at."""
    def jacobian(x):
        points.append(np.array(x, dtype=float))
        return model.measurement_jacobian(x)

    return dataclasses.replace(model, measurement_jacobian=jacobian)


class TestAnalyticUpdatesMatchPublicClosedForms:
    # The filters' rank-one kernel must stay the map that build_coefficients
    # and analytic_flow_map define, so a fast path cannot make another filter.
    # The update composes its sub-maps in blocks of _COMPOSE_BLOCK; the
    # last step count spans three blocks and ends in a partial one.
    @pytest.mark.parametrize("model_name", ["ungm", "coupled"])
    @pytest.mark.parametrize("steps", [1, 2, 3, 10, 100, 2 * _COMPOSE_BLOCK + 3])
    def test_naedh_matches_reference(self, model_name, steps):
        m, ens, P, z = reference_case(model_name)
        cfg = FilterConfig(variant="NA-EDH", particle_count=ens.shape[0], lambda_steps=steps)
        out = naedh_update(ens, P, m, z, cfg)
        reference = analytic_reference(ens, P, m, z, steps)
        np.testing.assert_allclose(out, reference, rtol=1e-12, atol=1e-12 * np.abs(reference).max())

    # The update relinearizes at a mean carried through the sub-maps; the
    # reference at the mean of the ensemble it moves, sub-map by sub-map.
    @pytest.mark.parametrize("model_name", ["ungm", "coupled"])
    @pytest.mark.parametrize("steps", [3, 10, 2 * _COMPOSE_BLOCK + 3])
    def test_carried_mean_is_the_moved_ensemble_mean(self, model_name, steps):
        m, ens, P, z = reference_case(model_name)
        carried, moved = [], []
        cfg = FilterConfig(variant="NA-EDH", particle_count=ens.shape[0], lambda_steps=steps)
        naedh_update(ens, P, recording_jacobian(m, carried), z, cfg)
        analytic_reference(ens, P, recording_jacobian(m, moved), z, steps)
        assert len(carried) == len(moved) == steps
        for j, (x_carried, x_moved) in enumerate(zip(carried, moved)):
            assert np.max(np.abs(x_carried - x_moved)) <= 1e-12 * np.max(np.abs(x_moved)), j

    @pytest.mark.parametrize("model_name", ["ungm", "coupled"])
    @pytest.mark.parametrize("steps", [1, 3, 10])
    def test_aedh_matches_reference(self, model_name, steps):
        # A-EDH is the one-interval map whatever lambda_steps says.
        m, ens, P, z = reference_case(model_name)
        cfg = FilterConfig(variant="A-EDH", particle_count=ens.shape[0], lambda_steps=steps)
        out = aedh_update(ens, P, m, z, cfg)
        reference = analytic_reference(ens, P, m, z, 1)
        np.testing.assert_allclose(out, reference, rtol=1e-12, atol=1e-12 * np.abs(reference).max())


def euler_reference(particles, P, model, z, steps):
    """EDH from the public drift forms: per pseudo-time step, h linearized
    at the running ensemble mean, A and b from drift_matrix_A and
    drift_vector_b, and the dense Euler step X + (X A^T + b) dlambda."""
    grid = np.linspace(0.0, 1.0, steps + 1)
    X = particles
    xbar0 = X.mean(axis=0)
    for lam0, lam in zip(grid[:-1], grid[1:]):
        x_lin = X.mean(axis=0)
        H = np.atleast_2d(model.measurement_jacobian(x_lin))
        z_lin = z - model.measurement(x_lin) + H @ x_lin
        A = drift_matrix_A(P, H, model.R, lam)
        b = drift_vector_b(P, H, model.R, z_lin, xbar0, lam)
        X = X + (X @ A.T + b) * (lam - lam0)
    return X


def euler_case(model_name):
    """reference_case, plus a linear model with two correlated measurement rows."""
    if model_name != "two-row":
        return reference_case(model_name)
    rng = np.random.default_rng(22)
    H = [[1.0, 0.5, 0.0], [0.0, -1.0, 2.0]]
    m = linear_model(np.eye(3), np.eye(3), H, [[0.5, 0.1], [0.1, 0.8]])
    return m, rng.standard_normal((40, 3)) + 0.5, random_spd(rng, 3), np.array([1.0, -2.0])


class TestEulerUpdateMatchesPublicDriftForms:
    # edh_update forms P H^T and S once per step for both A and b; it must
    # do exactly the arithmetic of the public drift_matrix_A and
    # drift_vector_b, so the results are equal, not merely close.
    @pytest.mark.parametrize("model_name", ["ungm", "coupled", "two-row"])
    @pytest.mark.parametrize("steps", [1, 3, 10])
    def test_edh_equals_reference(self, model_name, steps):
        m, ens, P, z = euler_case(model_name)
        cfg = FilterConfig(variant="EDH", particle_count=ens.shape[0], lambda_steps=steps)
        out = edh_update(ens, P, m, z, cfg)
        reference = euler_reference(ens, P, m, z, steps)
        assert not np.array_equal(reference, ens)
        assert np.array_equal(out, reference)


class TestNaedhUpdate:
    def test_zero_jacobian_is_inert(self):
        m = zero_measurement_model()
        ens = ensemble([1.0, 2.0], [-1.0, 0.5])
        cfg = FilterConfig(variant="NA-EDH", particle_count=2, lambda_steps=4)
        out = naedh_update(ens, np.eye(2), m, np.array([3.0]), cfg)
        np.testing.assert_allclose(out, ens)

    def test_ungm_ensemble_centred_at_zero_is_inert(self):
        # h'(0) = 0, so every sub-interval linearizes to a zero row.
        ens = ensemble([-1.5], [0.25], [1.25])
        assert ens.mean(axis=0)[0] == 0.0
        cfg = FilterConfig(variant="NA-EDH", particle_count=3, lambda_steps=10)
        out = naedh_update(ens, np.array([[2.0]]), ungm_model(), np.array([0.4]), cfg)
        assert np.all(np.isfinite(out))
        assert np.array_equal(out, ens)

    @pytest.mark.parametrize("steps", [2, 10, 100])
    def test_linear_measurement_equals_single_step(self, steps):
        m = scalar_unit_model(measurement_scale=1.3)
        rng = np.random.default_rng(12)
        ens = rng.standard_normal((40, 1))
        multi = naedh_update(
            ens, np.eye(1), m, np.array([1.1]),
            FilterConfig(variant="NA-EDH", particle_count=40, lambda_steps=steps),
        )
        single = aedh_update(
            ens, np.eye(1), m, np.array([1.1]),
            FilterConfig(variant="A-EDH", particle_count=40),
        )
        np.testing.assert_allclose(multi, single, atol=1e-10)

    def test_one_step_equals_aedh(self):
        m = ungm_model()
        rng = np.random.default_rng(13)
        ens = rng.standard_normal((10, 1)) + 1.5
        multi = naedh_update(
            ens, np.array([[2.0]]), m, np.array([0.3]),
            FilterConfig(variant="NA-EDH", particle_count=10, lambda_steps=1),
        )
        single = aedh_update(
            ens, np.array([[2.0]]), m, np.array([0.3]),
            FilterConfig(variant="A-EDH", particle_count=10),
        )
        np.testing.assert_allclose(multi, single, rtol=1e-14)

    def test_tracks_euler_as_steps_grow(self):
        # Relinearized exact sub-maps and Euler converge toward each other.
        m = ungm_model()
        rng = np.random.default_rng(14)
        ens = rng.standard_normal((30, 1)) + 2.0
        P = np.array([[1.5]])
        z = np.array([0.4])
        gaps = []
        for steps in (10, 100, 1000):
            cfg = FilterConfig(variant="NA-EDH", particle_count=30, lambda_steps=steps)
            multi = naedh_update(ens, P, m, z, cfg)
            euler = edh_update(ens, P, m, z, cfg)
            gaps.append(np.max(np.abs(multi - euler)))
        assert gaps[2] < gaps[1] < gaps[0]

        single = aedh_update(ens, P, m, z, FilterConfig(variant="A-EDH", particle_count=30))
        ten = naedh_update(ens, P, m, z, FilterConfig(variant="NA-EDH", particle_count=30, lambda_steps=10))
        assert np.max(np.abs(ten - single)) > 1e-6

    def test_rejects_vector_measurement(self):
        m = linear_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        cfg = FilterConfig(variant="NA-EDH", particle_count=1)
        with pytest.raises(ValueError, match="scalar measurement"):
            naedh_update(ensemble([0.0, 0.0]), np.eye(2), m, np.array([1.0, 2.0]), cfg)


class TestMeasurementRowBelowTolerance:
    # A nonzero row far below unit size still carries information, and
    # every flow filter applies it: a move of about max |H| * z / R per
    # coordinate. The Euler drift divides only by k >= R, and the closed
    # form by k too; at p/r ~ 1e-26 the exact map and 4 Euler steps differ
    # by far less than rounding. (The closed form's increment at such rows
    # is checked to 1e-14 in test_flow_core.TestFlowMapIncrement.)
    @staticmethod
    def tiny_row_case(size, steps=4):
        """A linear model with max |H| = size, an ensemble, P, z, and the Euler-flowed ensemble."""
        rng = np.random.default_rng(33)
        n = 3
        H = rng.standard_normal((1, n))
        H = H / np.abs(H).max() * size
        R = np.array([[0.1]])
        m = linear_model(np.eye(n), np.eye(n), H, R)
        X = rng.standard_normal((5, n))
        P = random_spd(rng, n)
        z = np.array([10.0])

        expected = X
        xbar0 = X.mean(axis=0)
        grid = np.linspace(0.0, 1.0, steps + 1)
        for lam0, lam in zip(grid[:-1], grid[1:]):
            A = drift_matrix_A(P, H, R, lam)
            b = drift_vector_b(P, H, R, z, xbar0, lam)
            expected = expected + (expected @ A.T + b) * (lam - lam0)
        rounding = 4.0 * steps * np.finfo(float).eps * np.abs(X).max()
        assert np.abs(expected - X).min() > 100.0 * rounding
        return m, X, P, z, expected, rounding

    @pytest.mark.parametrize("size", [1e-13, 9e-13])
    @pytest.mark.parametrize("update", [edh_update, ledh_update])
    def test_euler_updates_take_their_step(self, update, size):
        m, X, P, z, expected, rounding = self.tiny_row_case(size)
        cfg = FilterConfig(variant="EDH", particle_count=X.shape[0], lambda_steps=4)
        np.testing.assert_allclose(update(X, P, m, z, cfg), expected, rtol=0, atol=rounding)

    @pytest.mark.parametrize("size", [1e-13, 9e-13])
    @pytest.mark.parametrize("update", [aedh_update, naedh_update])
    def test_analytic_updates_take_their_step(self, update, size):
        m, X, P, z, expected, rounding = self.tiny_row_case(size)
        cfg = FilterConfig(variant="NA-EDH", particle_count=X.shape[0], lambda_steps=4)
        np.testing.assert_allclose(update(X, P, m, z, cfg), expected, rtol=0, atol=rounding)


def random_linear_gaussian_run(seed, steps=20, n_z=1):
    """A random stable linear-Gaussian model, n = 1 + seed % 8, and a trajectory of it."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 8
    F = 0.95 * np.linalg.qr(rng.standard_normal((n, n)))[0]
    Q = 0.2 * random_spd(rng, n)
    m = linear_model(F, Q, rng.standard_normal((n_z, n)), np.diag(rng.uniform(0.2, 4.0, n_z)))
    return m, simulate(m, np.zeros(n), steps, rng)


def estimates(model, trajectory, variant, lambda_steps=10, particles=20, seed=0):
    cfg = FilterConfig(variant=variant, particle_count=particles, lambda_steps=lambda_steps)
    return run_filter(model, trajectory, cfg, np.random.default_rng(seed))


class TestWholeRunInvariants:
    # Over whole runs, prediction, EKF coupling and estimate included, the
    # flow filters that agree on a linear measurement agree to rounding:
    # on this sweep the largest deviations are 1.8e-16 (EDH, LEDH; one
    # measurement row), 1.7e-16 (EDH, LEDH; two rows) and 2.7e-16 (A-EDH,
    # NA-EDH).
    @pytest.mark.parametrize("seed", range(8))
    def test_edh_equals_ledh(self, seed):
        for n_z in (1, 2):
            m, traj = random_linear_gaussian_run(seed, n_z=n_z)
            assert relative_deviation(estimates(m, traj, "LEDH"), estimates(m, traj, "EDH")) < 1e-12

    @pytest.mark.parametrize("lambda_steps", [1, 3, 10])
    @pytest.mark.parametrize("seed", range(8))
    def test_aedh_equals_naedh(self, seed, lambda_steps):
        m, traj = random_linear_gaussian_run(seed)
        naedh = estimates(m, traj, "NA-EDH", lambda_steps)
        assert relative_deviation(naedh, estimates(m, traj, "A-EDH")) < 1e-12

    # Euler is first order in the pseudo-time step, and with prediction
    # noise and EKF shared, the whole-run gap to the closed form shrinks
    # with it: each tenfold lambda_steps cut the gap 8.3-10.0x here.
    @pytest.mark.parametrize("seed", range(8))
    def test_edh_approaches_aedh_at_first_order(self, seed):
        m, traj = random_linear_gaussian_run(seed)
        exact = estimates(m, traj, "A-EDH")
        gaps = [np.abs(estimates(m, traj, "EDH", steps) - exact).max() for steps in (10, 100, 1000)]
        assert gaps[0] > 5.0 * gaps[1] > 25.0 * gaps[2]


class TestSampleCovarianceConvergence:
    def test_aedh_ensemble_covariance_matches_kalman(self):
        # With many particles the mapped ensemble covariance approaches
        # the linear-Gaussian posterior covariance.
        rng = np.random.default_rng(42)
        n, count = 3, 100_000
        A = rng.standard_normal((n, n))
        P = A @ A.T / n + 0.5 * np.eye(n)
        H = rng.standard_normal((1, n))
        m = linear_model(np.eye(n), np.eye(n), H, [[0.8]])
        particles = rng.standard_normal((count, n)) @ np.linalg.cholesky(P).T
        out = aedh_update(
            particles, P, m, np.array([1.7]),
            FilterConfig(variant="A-EDH", particle_count=count),
        )
        sample = np.cov(out.T)
        posterior = kalman_posterior(P, H, [[0.8]], [1.7], np.zeros(n)).covariance
        gap = np.linalg.norm(sample - posterior, "fro") / np.linalg.norm(posterior, "fro")
        assert gap <= 5e-2


class TestRunFilter:
    def test_ekf_only_estimates_are_ekf_means(self):
        m = ungm_model()
        traj = simulate(m, np.zeros(1), 12, np.random.default_rng(0))
        cfg = FilterConfig(variant="EKF")
        estimates = run_filter(m, traj, cfg, np.random.default_rng(1))
        assert estimates.shape == (traj.steps, m.n_x)

        belief = GaussianBelief(np.zeros(1), np.eye(1))
        for k, estimate in enumerate(estimates, start=1):
            belief = ekf_update(ekf_predict(belief, m, k), m, traj.measurements[k - 1])
            np.testing.assert_allclose(estimate, belief.mean, rtol=1e-12)

    def test_single_particle_at_prior_mean_tracks_kalman(self):
        # A lone particle pinned to the predicted mean reproduces the
        # Kalman filter step by step on a linear-Gaussian model.
        m = linear_model([[0.9]], [[0.4]], [[1.0]], [[0.5]])
        traj = simulate(m, np.zeros(1), 10, np.random.default_rng(3))
        cfg = FilterConfig(variant="A-EDH", particle_count=1)

        belief = GaussianBelief(np.zeros(1), np.eye(1))
        for k in range(1, traj.steps + 1):
            predicted = ekf_predict(belief, m, k)
            ens = predicted.mean[np.newaxis, :]
            z = traj.measurements[k - 1]
            updated = aedh_update(ens, predicted.covariance, m, z, cfg)
            belief = ekf_update(predicted, m, z)
            np.testing.assert_allclose(updated.mean(axis=0), belief.mean, atol=1e-8)

    @pytest.mark.parametrize("variant", ["EDH", "LEDH", "A-EDH", "NA-EDH"])
    def test_fixed_seed_reproducible(self, variant):
        m = ungm_model()
        traj = simulate(m, np.zeros(1), 8, np.random.default_rng(10))
        cfg = FilterConfig(variant=variant, particle_count=20, lambda_steps=5)
        first = run_filter(m, traj, cfg, np.random.default_rng(11))
        second = run_filter(m, traj, cfg, np.random.default_rng(11))
        assert np.array_equal(first, second)

    def test_prior_without_variance_along_h_runs_under_every_filter(self):
        # F zeroes the measured coordinate and Q = 0, so every predicted P
        # has P H^T = 0 and H P H^T = 0: the exact update is the identity,
        # and the closed form must take it instead of diverging.
        m = linear_model([[0.9, 0.0], [0.0, 0.0]], np.zeros((2, 2)), [[0.0, 1.0]], [[0.5]])
        traj = simulate(m, np.array([1.0, 0.0]), 10, np.random.default_rng(4))
        runs = {variant: estimates(m, traj, variant) for variant in FILTER_NAMES}
        for variant, run in runs.items():
            assert run.shape == (10, 2) and np.isfinite(run).all(), variant
        # No flow moves a particle, so the flow filters share one ensemble.
        for variant in ("LEDH", "A-EDH", "NA-EDH"):
            assert np.array_equal(runs[variant], runs["EDH"]), variant

    # Without process noise the EKF covariance collapses toward a singular
    # P over a long run, and with a non-normal F round-off breaks its
    # definiteness: the EKF's posterior check repairs it on 19-33 of the
    # 300 steps here. Every filter must still run to the end.
    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_zero_process_noise_runs_complete(self, n, monkeypatch):
        rng = np.random.default_rng(60 + n)
        G = rng.standard_normal((n, n))
        F = 0.95 * G / np.abs(np.linalg.eigvals(G)).max()
        m = linear_model(F, np.zeros((n, n)), rng.standard_normal((1, n)), [[1e-4]])
        traj = simulate(m, rng.standard_normal(n), 300, rng)

        repairs = []
        check = ekf_module._ensure_positive_definite

        def counted_check(P):
            checked = check(P)
            repairs.append(checked is not P)
            return checked

        monkeypatch.setattr(ekf_module, "_ensure_positive_definite", counted_check)
        for variant in FILTER_NAMES:
            run = estimates(m, traj, variant, particles=5)
            assert run.shape == (300, n) and np.isfinite(run).all(), variant
        assert sum(repairs) >= 10 * len(FILTER_NAMES)

    def test_uninformative_measurements_leave_ensemble_alone(self):
        m = zero_measurement_model()
        traj = Trajectory(states=np.zeros((3, 2)), measurements=np.zeros((3, 1)), steps=3)
        for variant in ("EDH", "LEDH", "A-EDH", "NA-EDH"):
            cfg = FilterConfig(variant=variant, particle_count=15, lambda_steps=4)
            rng = np.random.default_rng(6)
            estimates = run_filter(m, traj, cfg, rng)

            # Replay prediction only: the flow must add nothing.
            rng2 = np.random.default_rng(6)
            particles = rng2.standard_normal((15, 2))
            for k in range(1, 4):
                particles = predict_particles(particles, m, k, rng2, np.linalg.cholesky(m.Q))
                np.testing.assert_allclose(estimates[k - 1], particles.mean(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("variant", ["EKF", "EDH", "LEDH", "A-EDH", "NA-EDH"])
    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_nonpositive_noise_rejected_before_first_step(self, variant, r):
        base = ungm_model()
        steps_taken = []

        def transition(x, k):
            steps_taken.append(k)
            return base.transition(x, k)

        m = SystemModel(
            n_x=1, n_z=1,
            transition=transition,
            measurement=base.measurement,
            transition_jacobian=base.transition_jacobian,
            measurement_jacobian=base.measurement_jacobian,
            Q=base.Q, R=np.array([[r]]),
        )
        traj = Trajectory(states=np.ones((3, 1)), measurements=np.ones((3, 1)), steps=3)
        cfg = FilterConfig(variant=variant, particle_count=5, lambda_steps=2)
        with pytest.raises(ValueError, match="noise variance must be positive"):
            run_filter(m, traj, cfg, np.random.default_rng(0))
        assert steps_taken == []

    def test_divergence_reports_step_index(self):
        exploding = SystemModel(
            n_x=1, n_z=1,
            transition=lambda x, k: x * 1e200,
            measurement=lambda x: x.copy(),
            transition_jacobian=lambda x, k: np.array([[1e200]]),
            measurement_jacobian=lambda x: np.eye(1),
            Q=np.eye(1), R=np.eye(1),
        )
        traj = Trajectory(states=np.ones((4, 1)), measurements=np.ones((4, 1)), steps=4)
        cfg = FilterConfig(variant="EDH", particle_count=3, lambda_steps=2)
        with np.errstate(all="ignore"):
            with pytest.raises(FilterDivergenceError) as info:
                run_filter(exploding, traj, cfg, np.random.default_rng(0))
        assert info.value.step >= 1

    def test_prior_indefinite_along_a_relinearized_row_is_a_divergence_at_its_step(self, monkeypatch):
        # h(x) = x0 + 5 x1^2, so H = [1, 10 x1] turns with the mean. At step 3
        # the predicted covariance is made indefinite (the EKF itself keeps
        # it SPD). NA-EDH's first sub-map linearizes near x1 = 0, where
        # H P H^T is about 1; the second at the moved mean, where it is
        # about -79, so k(lambda) <= 0 inside [0.25, 0.5]. The EKF sees
        # H = [1, 0] and stays finite. The NaNs of that middle sub-map must
        # end the run at step 3: not as a LinAlgError, not as finite particles.
        m = SystemModel(
            n_x=2, n_z=1,
            transition=lambda x, k: np.zeros_like(x),
            measurement=lambda x: x[..., :1] + 5.0 * x[..., 1:] ** 2,
            transition_jacobian=lambda x, k: np.zeros((2, 2)),
            measurement_jacobian=lambda x: np.array([[1.0, 10.0 * x[1]]]),
            Q=1e-4 * np.eye(2), R=np.eye(1),
        )
        indefinite = np.array([[1.0, 1.0], [1.0, -1.0]])

        def predict(belief, model, k):
            predicted = ekf_predict(belief, model, k)
            return GaussianBelief(predicted.mean, indefinite) if k == 3 else predicted

        points = []
        ens = np.random.default_rng(0).standard_normal((5, 2)) * 1e-2
        cfg = FilterConfig(variant="NA-EDH", particle_count=5, lambda_steps=4)
        naedh_update(ens, indefinite, recording_jacobian(m, points), np.array([5.0]), cfg)
        assert np.isfinite(points[1]).all() and np.isnan(points[2]).all()

        monkeypatch.setattr("pflow.filters.ekf_predict", predict)
        traj = Trajectory(states=np.zeros((5, 2)), measurements=np.full((5, 1), 5.0), steps=5)
        with pytest.raises(FilterDivergenceError) as info:
            run_filter(m, traj, cfg, np.random.default_rng(0))
        assert info.value.step == 3

    def test_nan_covariance_is_a_divergence_at_its_step(self):
        # A NaN 1x1 covariance passes the factorisation, as in LAPACK, so the
        # NaN reaches the estimate and is booked as a divergence, not a
        # LinAlgError.
        def jacobian(x, k):
            return np.array([[np.nan if k >= 3 else 0.5]])

        m = SystemModel(
            n_x=1, n_z=1,
            transition=lambda x, k: 0.5 * x,
            measurement=lambda x: x.copy(),
            transition_jacobian=jacobian,
            measurement_jacobian=lambda x: np.eye(1),
            Q=np.eye(1), R=np.eye(1),
        )
        traj = Trajectory(states=np.ones((5, 1)), measurements=np.ones((5, 1)), steps=5)
        with pytest.raises(FilterDivergenceError) as info:
            run_filter(m, traj, FilterConfig(variant="EKF"), np.random.default_rng(0))
        assert info.value.step == 3

    @pytest.mark.parametrize("variant", ["EKF", "EDH", "LEDH", "A-EDH", "NA-EDH"])
    def test_rejects_nonsymmetric_initial_covariance(self, variant):
        # Cholesky reads one triangle; [[1, 5], [0, 1]] would factor as I.
        m = linear_model(np.eye(2), np.eye(2), [[1.0, 0.0]], [[1.0]])
        traj = Trajectory(states=np.ones((2, 2)), measurements=np.ones((2, 1)), steps=2)
        cfg = FilterConfig(variant=variant, particle_count=5, lambda_steps=2,
                           init_cov=np.array([[1.0, 5.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="symmetric positive definite"):
            run_filter(m, traj, cfg, np.random.default_rng(0))

    def test_custom_initialization(self):
        m = ungm_model()
        traj = simulate(m, np.zeros(1), 4, np.random.default_rng(30))
        cfg = FilterConfig(
            variant="EKF", init_mean=np.array([2.0]), init_cov=np.array([[4.0]])
        )
        estimates = run_filter(m, traj, cfg, np.random.default_rng(31))

        belief = GaussianBelief(np.array([2.0]), np.array([[4.0]]))
        belief = ekf_update(ekf_predict(belief, m, 1), m, traj.measurements[0])
        np.testing.assert_allclose(estimates[0], belief.mean, rtol=1e-12)

"""Tests for the benchmark system models and trajectory simulation."""

import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest

import pflow
from conftest import linear_model
from pflow.model import (
    _MAX_TF_CONDITION,
    SystemModel,
    _covariance_factor,
    _matmul,
    jacobian_check,
    random_coupled_model,
    simulate,
    ungm_model,
)


class TestUngmModel:
    def test_noise_variances(self):
        m = ungm_model()
        assert m.Q[0, 0] == 10.0
        assert m.R[0, 0] == 0.1

    def test_measurement_value(self):
        m = ungm_model()
        np.testing.assert_allclose(m.measurement(np.array([10.0])), [5.0])

    def test_transition_at_origin(self):
        # 8 cos(1.2) with the time index starting at 1.
        m = ungm_model()
        np.testing.assert_allclose(
            m.transition(np.array([0.0]), 1), [2.898862035813389], rtol=1e-12
        )

    @pytest.mark.parametrize("k", [2, 3, 7])
    @pytest.mark.parametrize("x", [-3.0, 0.5, 2.0])
    def test_transition_at_later_steps(self, x, k):
        m = ungm_model()
        expected = x / 2 + 25 * x / (1 + x * x) + 8 * math.cos(1.2 * k)
        np.testing.assert_allclose(m.transition(np.array([x]), k), [expected], rtol=1e-12)

    def test_transition_jacobian_at_origin(self):
        m = ungm_model()
        np.testing.assert_allclose(m.transition_jacobian(np.array([0.0]), 1), [[25.5]])

    def test_measurement_jacobian(self):
        m = ungm_model()
        np.testing.assert_allclose(m.measurement_jacobian(np.array([10.0])), [[1.0]])


class TestRandomCoupledModel:
    def test_measurement_noise_variance(self):
        m = random_coupled_model(3, np.random.default_rng(0))
        assert m.R[0, 0] == 5.0

    def test_measurement_is_squared_norm(self):
        m = random_coupled_model(2, np.random.default_rng(0))
        np.testing.assert_allclose(m.measurement(np.array([1.0, 2.0])), [5.0])

    def test_measurement_jacobian_is_gradient(self):
        m = random_coupled_model(2, np.random.default_rng(0))
        np.testing.assert_allclose(
            m.measurement_jacobian(np.array([1.0, 2.0])), [[2.0, 4.0]]
        )

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("dim", [1, 3, 10, 25])
    def test_transition_is_stable(self, dim, seed):
        m = random_coupled_model(dim, np.random.default_rng(seed))
        F = m.transition_jacobian(np.zeros(dim), 1)
        assert np.max(np.abs(np.linalg.eigvals(F))) < 1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_process_noise_is_spd(self, seed):
        m = random_coupled_model(12, np.random.default_rng(seed))
        np.linalg.cholesky(m.Q)  # raises when not SPD
        np.testing.assert_allclose(m.Q, m.Q.T)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_transition_matches_the_diagonal_product(self, seed):
        # F = T diag(u) T^-1 formed with the dense diagonal, the draws
        # repeated from the same seed, is the model's F bit for bit.
        for dim in range(1, 151):
            rng = np.random.default_rng([seed, dim])
            F = random_coupled_model(dim, rng).transition_jacobian(np.zeros(dim), 1)
            rng = np.random.default_rng([seed, dim])
            t_f = rng.uniform(size=(dim, dim))
            while np.linalg.cond(t_f) >= _MAX_TF_CONDITION:
                t_f = rng.uniform(size=(dim, dim))
            eigenvalues = -rng.uniform(size=dim)
            reference = t_f @ np.diag(eigenvalues) @ np.linalg.inv(t_f)
            assert np.array_equal(F, reference), dim

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            random_coupled_model(0, np.random.default_rng(0))

    def test_pathological_rng_raises(self):
        class SingularRng:
            def uniform(self, size):
                return np.ones(size)

        with pytest.raises(RuntimeError, match="condition"):
            random_coupled_model(3, SingularRng())


def _models():
    return {
        "ungm": ungm_model(),
        "coupled": random_coupled_model(100, np.random.default_rng(3)),
        "linear": linear_model([[0.3, 0.1], [0.0, 0.5]], np.eye(2), [[1.0, 2.0]], [[1.0]]),
    }


class TestRowStackContract:
    """A stacked callback call equals the single-state calls, bit for bit."""

    @pytest.mark.parametrize("name", ["ungm", "coupled", "linear"])
    def test_stacked_transition_equals_rows(self, name):
        m = _models()[name]
        X = 10.0 * np.random.default_rng(1).standard_normal((50, m.n_x))
        stacked = m.transition(X, 7)
        assert stacked.shape == (50, m.n_x)
        assert np.array_equal(stacked, np.array([m.transition(x, 7) for x in X]))

    @pytest.mark.parametrize("name", ["ungm", "coupled", "linear"])
    def test_stacked_measurement_equals_rows(self, name):
        m = _models()[name]
        X = 10.0 * np.random.default_rng(2).standard_normal((50, m.n_x))
        stacked = m.measurement(X)
        assert stacked.shape == (50, m.n_z)
        assert np.array_equal(stacked, np.array([m.measurement(x) for x in X]))

    @pytest.mark.parametrize("name", ["ungm", "coupled", "linear"])
    def test_single_state_shapes(self, name):
        m = _models()[name]
        x = np.ones(m.n_x)
        assert m.transition(x, 1).shape == (m.n_x,)
        assert m.measurement(x).shape == (m.n_z,)


def _simulate_per_step(model, x0, steps, rng):
    """Reference: one transition, measurement and noise draw per step."""
    chol_q = np.linalg.cholesky(model.Q)
    chol_r = np.linalg.cholesky(model.R)
    states = np.zeros((steps, model.n_x))
    measurements = np.zeros((steps, model.n_z))
    x = x0
    for k in range(1, steps + 1):
        x = model.transition(x, k) + chol_q @ rng.standard_normal(model.n_x)
        z = model.measurement(x) + chol_r @ rng.standard_normal(model.n_z)
        states[k - 1] = x
        measurements[k - 1] = z
    return states, measurements


class TestSimulate:
    def test_zero_steps_is_empty(self):
        traj = simulate(ungm_model(), np.zeros(1), 0, np.random.default_rng(0))
        assert traj.steps == 0
        assert traj.states.shape == (0, 1)
        assert traj.measurements.shape == (0, 1)

    @pytest.mark.parametrize("name", ["ungm", "coupled"])
    def test_zero_steps_draws_nothing(self, name):
        m = _models()[name]
        rng = np.random.default_rng(0)
        traj = simulate(m, np.zeros(m.n_x), 0, rng)
        assert traj.states.shape == (0, m.n_x)
        assert traj.measurements.shape == (0, 1)
        assert rng.standard_normal() == np.random.default_rng(0).standard_normal()

    @pytest.mark.parametrize("name", ["ungm", "coupled", "linear"])
    def test_equals_per_step_reference(self, name):
        m = _models()[name]
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        traj = simulate(m, np.zeros(m.n_x), 30, rng)
        states, measurements = _simulate_per_step(m, np.zeros(m.n_x), 30, ref_rng)
        assert np.array_equal(traj.states, states)
        assert np.array_equal(traj.measurements, measurements)
        assert np.array_equal(rng.standard_normal(4), ref_rng.standard_normal(4))

    # The process-noise kicks are formed in one stacked product before the
    # recursion; each equals chol(Q) @ w_k at every state width.
    @pytest.mark.parametrize("dim", [1, 2, 5, 17, 64, 150])
    def test_coupled_equals_per_step_reference_at_every_width(self, dim):
        m = random_coupled_model(dim, np.random.default_rng(dim))
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        traj = simulate(m, np.ones(dim), 12, rng)
        states, measurements = _simulate_per_step(m, np.ones(dim), 12, ref_rng)
        assert np.array_equal(traj.states, states)
        assert np.array_equal(traj.measurements, measurements)

    def test_noise_free_follows_recursion(self):
        m = ungm_model()
        quiet = SystemModel(
            transition=m.transition, measurement=m.measurement,
            transition_jacobian=m.transition_jacobian,
            measurement_jacobian=m.measurement_jacobian,
            Q=np.zeros((1, 1)), R=np.zeros((1, 1)),
        )
        traj = simulate(quiet, np.zeros(1), 5, np.random.default_rng(0))
        x = np.zeros(1)
        for k in range(1, 6):
            x = m.transition(x, k)
            np.testing.assert_allclose(traj.states[k - 1], x)
            np.testing.assert_allclose(traj.measurements[k - 1], m.measurement(x))

    @pytest.mark.parametrize("field, name", [("Q", "process noise covariance"),
                                             ("R", "measurement noise covariance")])
    @pytest.mark.parametrize("cov", [[[1.0, 0.5], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]],
                                     [[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]],
                             ids=["nonsymmetric", "indefinite", "inf", "nan", "1-D"])
    def test_rejects_bad_noise_covariance(self, field, name, cov):
        # Each factor reads one triangle: [[1, 0.5], [0, 1]] would factor as I.
        m = linear_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        m = dataclasses.replace(m, **{field: np.array(cov)})
        with pytest.raises(ValueError, match=f"^{name} is not symmetric positive definite"):
            simulate(m, np.zeros(2), 3, np.random.default_rng(0))

    def test_fixed_seed_is_reproducible(self):
        m = random_coupled_model(4, np.random.default_rng(5))
        a = simulate(m, np.zeros(4), 20, np.random.default_rng(42))
        b = simulate(m, np.zeros(4), 20, np.random.default_rng(42))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.measurements, b.measurements)

    def test_rejects_wrong_initial_dimension(self):
        with pytest.raises(ValueError):
            simulate(ungm_model(), np.zeros(2), 3, np.random.default_rng(0))

    def test_lengths_match_steps(self):
        traj = simulate(ungm_model(), np.zeros(1), 7, np.random.default_rng(1))
        assert traj.steps == 7
        assert len(traj.states) == len(traj.measurements) == 7


class TestJacobianCheck:
    def test_ungm_measurement_jacobian(self):
        m = ungm_model()
        assert m.measurement_jacobian(np.array([10.0]))[0, 0] == 1.0
        assert jacobian_check(m, np.array([10.0]), 1) < 1e-5

    def test_linear_model_is_machine_exact(self):
        m = linear_model([[0.3, 0.1], [0.0, 0.5]], np.eye(2), [[1.0, 2.0]], [[1.0]])
        assert jacobian_check(m, np.array([1.0, -2.0]), 1) < 1e-9

    def test_ungm_transition_jacobian(self):
        assert jacobian_check(ungm_model(), np.array([1.0]), 1) < 1e-5

    @pytest.mark.parametrize("seed", range(5))
    def test_coupled_model_jacobians(self, seed):
        rng = np.random.default_rng(seed)
        m = random_coupled_model(6, rng)
        x = rng.standard_normal(6)
        assert jacobian_check(m, x, 1) < 1e-5


class TestCovarianceFactor:
    """`_covariance_factor`: zeros for the zero matrix, `_cholesky` for an SPD one, else a ValueError."""

    @pytest.mark.parametrize("cov", [np.eye(1), np.array([[4.0, 1.0], [1.0, 3.0]])])
    def test_spd_factor_is_cholesky(self, cov):
        assert _covariance_factor(cov, "C").tobytes() == np.linalg.cholesky(cov).tobytes()

    @pytest.mark.parametrize("cov", [
        2.0, [2.0], np.ones((2, 3)), np.zeros((2, 3)), [[1.0, 1.0], [0.0, 1.0]], -np.eye(2),
        [[1.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]], [[np.inf]], [[-np.inf]], [[np.nan]],
    ], ids=["0-d", "1-D", "non-square", "zero-non-square", "nonsymmetric", "negative",
            "indefinite", "semidefinite", "inf", "-inf", "nan"])
    def test_rejects_anything_else_naming_the_matrix(self, cov):
        with pytest.raises(ValueError, match="^the matrix C is not symmetric positive definite"):
            _covariance_factor(cov, "the matrix C")


def _names_cholesky(node):
    if isinstance(node, ast.Attribute):
        return node.attr == "cholesky"
    if isinstance(node, ast.Name):
        return node.id == "cholesky"
    return isinstance(node, ast.alias) and node.name == "cholesky"


def test_cholesky_is_called_in_one_place():
    """Every covariance factor goes through `model._cholesky`: nothing else
    in pflow names `cholesky` (a call, an alias or an import), so no other
    path can take a 1x1 factor through LAPACK or factor by another rule."""
    uses = []
    for path in sorted(pathlib.Path(pflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> innermost enclosing function (ast.walk visits outer ones first)
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), function.name) for node in ast.walk(function))
        uses += [(path.name, owner.get(id(n), "<module>")) for n in ast.walk(tree) if _names_cholesky(n)]
    assert uses == [("model.py", "_cholesky")]


# (A shape, B shape) pairs of every operand kind np.matmul takes: 1-D and 2-D
# on either side and broadcast stacks, each with inner dimension 1 and > 1.
_MATMUL_SHAPES = [
    ((1,), (1,)), ((4,), (4,)),
    ((1,), (1, 3)), ((4,), (4, 3)),
    ((3, 1), (1,)), ((3, 4), (4,)),
    ((3, 1), (1, 5)), ((3, 4), (4, 5)), ((1, 1), (1, 1)), ((100, 1), (1, 100)),
    ((6, 1, 4), (6, 4, 1)), ((6, 1, 1), (6, 1, 1)), ((6, 3, 1), (1, 2)),
    ((1,), (6, 1, 2)), ((6, 3, 1), (1,)), ((2, 1, 3, 1), (5, 1, 4)), ((4, 1), (2, 1, 3)),
]


class TestMatmul:
    """`_matmul` is np.matmul with inner dimension 1 formed by broadcasting."""

    @pytest.mark.parametrize("shapes", _MATMUL_SHAPES, ids=str)
    @pytest.mark.parametrize("data", ["normal", "signed_zeros"])
    def test_matches_np_matmul(self, shapes, data):
        rng = np.random.default_rng(sum(map(sum, shapes)))
        A, B = (rng.standard_normal(shape) for shape in shapes)
        if data == "signed_zeros":
            # Zeros and -0.0 on both sides, products of both signs of zero.
            A[A < 0.0] = -0.0
            B.flat[::2] = 0.0
            B.flat[1::3] = -0.0
        out, reference = _matmul(A, B), np.matmul(A, B)
        assert np.shape(out) == np.shape(reference)
        assert np.asarray(out).dtype == np.asarray(reference).dtype
        assert np.array_equal(out, reference)

    def test_inner_dimension_one_keeps_every_bit_but_the_zero_sign(self):
        # One multiplication per entry: the bytes equal np.matmul's wherever
        # the product is not -0.0, which np.matmul's sum (0 + -0.0) makes +0.0.
        rng = np.random.default_rng(5)
        A = np.exp(rng.uniform(-300.0, 300.0, (200, 1))) * rng.choice([-1.0, 1.0], (200, 1))
        B = np.exp(rng.uniform(-300.0, 300.0, (1, 50)))
        out, reference = _matmul(A, B), A @ B
        assert np.isfinite(out).all() and (out != 0.0).all()
        assert out.tobytes() == reference.tobytes()

    @pytest.mark.parametrize(
        "shapes", [((3, 1), (3, 4)), ((1,), (2,)), ((1, 1), (2,)), ((2,), (1,)), ((5, 4, 1), (2, 1, 3))],
        ids=str,
    )
    def test_mismatched_inner_dimension_raises_as_matmul_does(self, shapes):
        # Both factors of (3,1).(3,4) would broadcast to (3,4) as arrays; the
        # product must not.
        A, B = (np.ones(shape) for shape in shapes)
        with pytest.raises(ValueError):
            np.matmul(A, B)
        with pytest.raises(ValueError):
            _matmul(A, B)

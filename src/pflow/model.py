"""System models and ground-truth simulation for the filtering benchmarks.

Provides:
1. SystemModel - immutable bundle of transition/measurement functions,
   their Jacobians, and the noise covariances Q and R
2. Trajectory - a simulated ground-truth state/measurement sequence
3. ungm_model - the standard univariate nonstationary growth model
4. random_coupled_model - a randomly generated, fully coupled, stable
   linear motion model with a quadratic scalar measurement
5. simulate / jacobian_check utilities
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray

# Condition-number cap for the random similarity transform; uniform(0,1)
# matrices are occasionally near-singular and would corrupt F.
_MAX_TF_CONDITION = 1e6
_MAX_TF_DRAWS = 100

# Jitter added to a numerically semidefinite process-noise covariance so
# that Cholesky-based sampling always succeeds.
_Q_JITTER = 1e-9


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Discrete-time model x_k = g(x_{k-1}, k) + w_k, z_k = h(x_k) + v_k.

    The process noise w and measurement noise v are zero-mean Gaussian
    with covariances Q (n_x x n_x) and R (n_z x n_z). Instances are
    immutable and safe to share across concurrent runs.

    `transition` and `measurement` take either one state of shape (n_x,)
    or a row stack of shape (N, n_x), and return one result per row:
    (n_x,) or (N, n_x) for g, (n_z,) or (N, n_z) for h. Each row of a
    stacked call must be bit-identical to the single-state call on that
    row, because the filters move the whole ensemble in one call while
    the EKF and the simulator call with one state. The Jacobians take a
    single state only.

    Attributes:
        transition: g(x, k) -> next state mean, one row per state.
        measurement: h(x) -> measurement mean, one row per state.
        transition_jacobian: dg/dx at (x, k), shape (n_x, n_x).
        measurement_jacobian: dh/dx at x, shape (n_z, n_x).
        Q: Process-noise covariance, finite and SPD, or zero.
        R: Measurement-noise covariance, finite and SPD (or zero to `simulate`).

    The state dimension n_x and the measurement dimension n_z are the
    orders of Q and R, which `simulate` and `run_filter` check first.
    """

    transition: Callable[[Array, int], Array]
    measurement: Callable[[Array], Array]
    transition_jacobian: Callable[[Array, int], Array]
    measurement_jacobian: Callable[[Array], Array]
    Q: Array
    R: Array

    @property
    def n_x(self) -> int:
        """State dimension, the order of Q."""
        return len(self.Q)

    @property
    def n_z(self) -> int:
        """Measurement dimension, the order of R (1 for both benchmark models)."""
        return len(self.R)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ground-truth states x_1..x_N and measurements z_1..z_N.

    Attributes:
        states: Array of shape (steps, n_x).
        measurements: Array of shape (steps, n_z).
    """

    states: Array
    measurements: Array

    @property
    def steps(self) -> int:
        """Number of time steps N, the rows of `states`."""
        return len(self.states)


def _cholesky(A: Array) -> Array:
    """Lower Cholesky factor of an SPD A: every factor in pflow comes from here.

    A 1x1 A takes its square root, LAPACK's bytes without a ~7 us call, and
    raises LinAlgError where dpotrf does: exactly when a <= 0, so NaN and
    +inf pass (as factors NaN and inf) to the caller's divergence check.
    """
    if A.shape == (1, 1):
        if A[0, 0] <= 0.0:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return np.sqrt(A)
    return np.linalg.cholesky(A)


def _matmul(A: Array, B: Array) -> Array:
    """A @ B for operands of one or more dimensions: the product rule of a time step.

    When both inner dimensions are 1, each entry is one multiplication, so
    the broadcast product has np.matmul's values without its ~1 us dispatch;
    a 1-D operand loses its axis as in np.matmul. The one bit that can
    differ is the sign of a zero: a -0.0 product stays -0.0, where
    np.matmul's zero-started sum returns +0.0. Every other shape, a
    mismatched inner dimension included, goes to A @ B.
    """
    if A.shape[-1] == 1:
        if B.ndim > 1:
            if B.shape[-2] == 1:
                return A * B if A.ndim > 1 else A[0] * B[..., 0, :]
        elif B.shape[0] == 1:
            return A[..., 0] * B if A.ndim > 1 else A[0] * B[0]
    return A @ B


def _covariance_factor(cov: Array, name: str) -> Array:
    """`_cholesky` of a covariance: the one check every covariance in pflow passes.

    Finite, symmetric (a factor reads one triangle) and positive definite, or
    zero (the noise-free limit, factored as zeros); else a ValueError naming it.
    """
    cov = np.asarray(cov, dtype=float)
    try:
        if cov.ndim == 2 and np.array_equal(cov, cov.T) and np.isfinite(cov).all():
            return _cholesky(cov) if cov.any() else np.zeros_like(cov)
    except np.linalg.LinAlgError:
        pass
    raise ValueError(f"{name} is not symmetric positive definite: a covariance is finite and SPD, or zero")


def ungm_model() -> SystemModel:
    """The univariate nonstationary growth model.

    Transition x/2 + 25x/(1+x^2) + 8*cos(1.2k), measurement x^2/20,
    process-noise variance 10, measurement-noise variance 0.1.
    """

    # x.T[0] is the state coordinate of one state or of every row in a
    # stack; an elementwise form on x itself is slower on a single state.
    def transition(x: Array, k: int) -> Array:
        x0 = x.T[0]
        return (0.5 * x0 + 25.0 * x0 / (1.0 + x0 * x0) + 8.0 * np.cos(1.2 * k)).reshape(x.shape)

    def measurement(x: Array) -> Array:
        x0 = x.T[0]
        return (x0 * x0 / 20.0).reshape(x.shape)

    def transition_jacobian(x: Array, k: int) -> Array:
        x0 = x[0]
        return np.array([[0.5 + 25.0 * (1.0 - x0 * x0) / (1.0 + x0 * x0) ** 2]])

    def measurement_jacobian(x: Array) -> Array:
        return np.array([[x[0] / 10.0]])

    return SystemModel(
        transition=transition,
        measurement=measurement,
        transition_jacobian=transition_jacobian,
        measurement_jacobian=measurement_jacobian,
        Q=np.array([[10.0]]),
        R=np.array([[0.1]]),
    )


def random_coupled_model(dim: int, rng: np.random.Generator) -> SystemModel:
    """Random fully coupled stable linear model with measurement x.x.

    The transition matrix is F = T U T^-1 where U is diagonal with
    eigenvalues -u, u ~ uniform(0,1), so the discrete map is stable.
    T and the process-noise factor have uniform(0,1) entries and
    Q = T_Q T_Q^T. The scalar measurement is the squared state norm
    with noise variance 5.

    Args:
        dim: State dimension, >= 1.
        rng: Source of randomness.

    Raises:
        ValueError: If dim < 1.
        RuntimeError: If no well-conditioned similarity transform is
            found in 100 draws (pathological random stream).
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")

    for _ in range(_MAX_TF_DRAWS):
        t_f = rng.uniform(size=(dim, dim))
        if np.linalg.cond(t_f) < _MAX_TF_CONDITION:
            break
    else:
        raise RuntimeError(
            f"no similarity transform with condition number < {_MAX_TF_CONDITION:g} "
            f"found in {_MAX_TF_DRAWS} draws"
        )

    eigenvalues = -rng.uniform(size=dim)
    # T * u scales T's columns: T @ diag(u) bit for bit, without its n^3 GEMM.
    F = (t_f * eigenvalues) @ np.linalg.inv(t_f)

    t_q = rng.uniform(size=(dim, dim))
    Q = t_q @ t_q.T
    try:
        _cholesky(Q)
    except np.linalg.LinAlgError:
        Q = Q + _Q_JITTER * np.eye(dim)
        _cholesky(Q)  # must succeed after jitter

    # One matrix-vector product per row: bit-identical to F @ x and x @ x
    # on every row, which a stack-wide X @ F.T is not.
    def transition(x: Array, k: int) -> Array:
        return np.matmul(F, x[..., np.newaxis])[..., 0]

    def measurement(x: Array) -> Array:
        return np.matmul(x[..., np.newaxis, :], x[..., :, np.newaxis])[..., 0]

    def transition_jacobian(x: Array, k: int) -> Array:
        return F

    def measurement_jacobian(x: Array) -> Array:
        return 2.0 * x[np.newaxis, :]

    return SystemModel(
        transition=transition,
        measurement=measurement,
        transition_jacobian=transition_jacobian,
        measurement_jacobian=measurement_jacobian,
        Q=Q,
        R=np.array([[5.0]]),
    )


def simulate(
    model: SystemModel, x0: Array, steps: int, rng: np.random.Generator
) -> Trajectory:
    """Simulate a ground-truth trajectory and its noisy measurements.

    x_k = g(x_{k-1}, k) + w_k and z_k = h(x_k) + v_k for k = 1..steps,
    with the time index of the first transition being 1. Deterministic
    for a fixed rng state. The noise is drawn in one block in the order
    w_1, v_1, w_2, v_2, ...

    The recursion does only per-step work: transition, add, store. The
    kicks chol(Q) w_k are formed before it in one stacked product, and the
    measurements in one stacked call after it; a stacked product makes
    the same per-row matrix-vector product as chol(Q) @ w_k, so the
    trajectory is bit-identical to a step-by-step one.

    Args:
        model: The system to simulate.
        x0: Initial state, shape (n_x,).
        steps: Number of steps; 0 yields an empty trajectory.
        rng: Source of randomness.

    Raises:
        ValueError: If x0 is not (n_x,) or Q or R fails `_covariance_factor`.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n_x,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({model.n_x},)")

    chol_q = _covariance_factor(model.Q, "process noise covariance")
    chol_r = _covariance_factor(model.R, "measurement noise covariance")

    noise = rng.standard_normal((steps, model.n_x + model.n_z))
    state_noise, measurement_noise = noise[:, : model.n_x], noise[:, model.n_x :]

    kicks = np.matmul(chol_q, state_noise[..., np.newaxis])[..., 0]
    states = np.zeros((steps, model.n_x))
    x = x0
    for k in range(1, steps + 1):
        x = model.transition(x, k) + kicks[k - 1]
        states[k - 1] = x
    measurements = model.measurement(states) + np.matmul(
        chol_r, measurement_noise[..., np.newaxis]
    )[..., 0]
    return Trajectory(states=states, measurements=measurements)


def _central_difference_jacobian(
    func: Callable[[Array], Array], x: Array, n_out: int
) -> Array:
    """Central-difference Jacobian with per-coordinate step 1e-6*(1+|x_i|)."""
    n = x.size
    jac = np.zeros((n_out, n))
    for i in range(n):
        h = 1e-6 * (1.0 + abs(x[i]))
        x_plus = x.copy()
        x_minus = x.copy()
        x_plus[i] += h
        x_minus[i] -= h
        jac[:, i] = (func(x_plus) - func(x_minus)) / (2.0 * h)
    return jac


def jacobian_check(model: SystemModel, x: Array, k: int) -> float:
    """Largest relative deviation of the analytic Jacobians from central differences.

    Entries are compared as |analytic - numeric| / (1 + |analytic|), and
    the maximum over both the transition and measurement Jacobians is
    returned. Smooth models should stay below 1e-5.
    """
    x = np.asarray(x, dtype=float)

    g_analytic = np.atleast_2d(model.transition_jacobian(x, k))
    g_numeric = _central_difference_jacobian(lambda v: model.transition(v, k), x, model.n_x)
    h_analytic = np.atleast_2d(model.measurement_jacobian(x))
    h_numeric = _central_difference_jacobian(model.measurement, x, model.n_z)

    dev_g = np.abs(g_analytic - g_numeric) / (1.0 + np.abs(g_analytic))
    dev_h = np.abs(h_analytic - h_numeric) / (1.0 + np.abs(h_analytic))
    return float(max(dev_g.max(), dev_h.max()))

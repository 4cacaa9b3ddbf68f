"""The five estimator pipelines: EKF baseline plus four particle-flow updates.

Filters:
    EKF      - the parallel extended Kalman filter by itself
    EDH      - Euler integration of the flow ODE, one linearization per
               pseudo-time step at the ensemble mean
    LEDH     - localized variant, relinearized at every particle
    A-EDH    - the closed-form flow map applied in a single step
    NA-EDH   - the closed-form map applied over N pseudo-time sub-intervals,
               relinearizing between sub-intervals

Every flow filter runs next to an EKF whose predicted covariance feeds the
flow drift. The drift offset uses the ensemble mean where the flow
started (pseudo-time 0); the per-step ensemble mean only moves the
linearization point of the measurement function. Because the drift is
derived for a linear measurement, a nonlinear h enters through its
linearization: the drift sees the pseudo-measurement
z - h(x_L) + H x_L, the measurement the linearized model would have
produced (for linear h this is z itself). Particles carry no weights
and are never resampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ekf import GaussianBelief, ekf_predict, ekf_update
from .flow_core import (
    DEGENERATE_H_TOL,
    _assemble_coefficients,
    _drift_offset_scale,
    apply_flow_ensemble,
    drift_matrix_A,
    drift_vector_b,
    validate_flow_inputs,
)
from .model import SystemModel, Trajectory, _cholesky_or_zero

Array = np.ndarray

FILTER_NAMES = ("EKF", "EDH", "LEDH", "A-EDH", "NA-EDH")


class FilterDivergenceError(RuntimeError):
    """Raised when a flow update produces nonfinite particles."""

    def __init__(self, step: int):
        super().__init__(f"nonfinite particles at time step {step}")
        self.step = step


@dataclass
class FilterConfig:
    """Configuration of one estimator pipeline.

    Attributes:
        variant: One of FILTER_NAMES.
        particle_count: Ensemble size, >= 1.
        lambda_steps: Number of uniform pseudo-time steps for
            EDH/LEDH/NA-EDH.
        init_mean: Initial belief mean; zeros when None.
        init_cov: Initial belief covariance; identity when None.
    """

    variant: str = "A-EDH"
    particle_count: int = 100
    lambda_steps: int = 10
    init_mean: Optional[Array] = field(default=None, repr=False)
    init_cov: Optional[Array] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.variant not in FILTER_NAMES:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {FILTER_NAMES}")
        if self.particle_count < 1:
            raise ValueError("particle_count must be >= 1")
        if self.lambda_steps < 1:
            raise ValueError("lambda_steps must be >= 1")


def _lambda_points(n_steps: int) -> list[float]:
    """Uniform pseudo-time grid 0 = lambda_0 < ... < lambda_N = 1.

    j * (1/N), then 1: the floats np.linspace(0, 1, N + 1) gives.
    """
    step = 1.0 / n_steps
    return [j * step for j in range(n_steps)] + [1.0]


def _ensemble_mean(particles: Array) -> Array:
    """particles.mean(axis=0), bit for bit, without np.mean's dispatch."""
    return particles.sum(axis=0) / particles.shape[0]


def _linearized_measurement(z: Array, h_lin: Array, H: Array, x_lin: Array) -> Array:
    """Pseudo-measurement of the model linearized at x_lin, given h_lin = h(x_lin).

    z - h(x_lin) + H x_lin; reduces to z when h is linear through the
    origin.
    """
    return z - h_lin + H @ x_lin


def predict_particles(
    particles: Array,
    model: SystemModel,
    k: int,
    rng: np.random.Generator,
    chol_q: Array,
) -> Array:
    """Propagate the (N, n_x) particles through the motion model and add process noise.

    All particles go through one stacked transition call. chol_q is the
    lower Cholesky factor of model.Q, factored once per run by the caller.
    """
    propagated = model.transition(particles, k)
    return propagated + rng.standard_normal(propagated.shape) @ chol_q.T


def edh_update(
    particles: Array,
    P_pred: Array,
    model: SystemModel,
    z: Array,
    config: FilterConfig,
) -> Array:
    """Euler integration of the flow ODE with per-step relinearization.

    Each pseudo-time step relinearizes the measurement function at the
    current ensemble mean, rebuilds the drift, and moves every particle
    by one explicit Euler step.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    grid = _lambda_points(config.lambda_steps)
    X = particles
    xbar0 = _ensemble_mean(X)

    for lam0, lam in zip(grid, grid[1:]):
        xbar_j = _ensemble_mean(X)
        H = np.atleast_2d(model.measurement_jacobian(xbar_j))
        if np.max(np.abs(H)) < DEGENERATE_H_TOL:
            continue
        z_lin = _linearized_measurement(z, model.measurement(xbar_j), H, xbar_j)
        A = drift_matrix_A(P_pred, H, model.R, lam)
        b = drift_vector_b(P_pred, H, model.R, z_lin, xbar0, lam)
        X = X + (X @ A.T + b) * (lam - lam0)
    return X


def ledh_update(
    particles: Array,
    P_pred: Array,
    model: SystemModel,
    z: Array,
    config: FilterConfig,
) -> Array:
    """Localized Euler flow: drift rebuilt per particle.

    Identical to edh_update except that the measurement function is
    linearized at each particle's current position, so every particle
    sees its own drift. The measurement function is evaluated at all
    particles in one stacked call per pseudo-time step.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    grid = _lambda_points(config.lambda_steps)
    X = particles
    xbar0 = _ensemble_mean(X)
    scalar_measurement = model.n_z == 1
    r = float(model.R[0, 0]) if scalar_measurement else None

    for lam0, lam in zip(grid, grid[1:]):
        moves = np.zeros_like(X)
        hX = model.measurement(X)
        for i in range(X.shape[0]):
            x = X[i]
            H = np.atleast_2d(model.measurement_jacobian(x))
            if np.max(np.abs(H)) < DEGENERATE_H_TOL:
                continue
            z_lin = _linearized_measurement(z, hX[i], H, x)
            if scalar_measurement:
                # Rank-one drift in its cancellation-free form, without
                # materializing the matrix.
                h = H[0]
                Ph = P_pred @ h
                p = float(h @ Ph)
                k = lam * p + r
                b_scale = _drift_offset_scale(float(z_lin[0]), float(h @ xbar0), p, r, lam)
                moves[i] = (b_scale - 0.5 * float(h @ x) / k) * Ph
            else:
                A = drift_matrix_A(P_pred, H, model.R, lam)
                b = drift_vector_b(P_pred, H, model.R, z_lin, xbar0, lam)
                moves[i] = A @ x + b
        X = X + moves * (lam - lam0)
    return X


def _analytic_flow(particles: Array, P_pred: Array, model: SystemModel, z: Array, n_steps: int) -> Array:
    """Closed-form maps over n_steps uniform sub-intervals, h relinearized at each start."""
    if model.n_z != 1:
        raise ValueError(f"A-EDH and NA-EDH require a scalar measurement, got n_z = {model.n_z}")
    z = float(np.ravel(z)[0])
    r = float(model.R[0, 0])
    grid = _lambda_points(n_steps)
    X = particles
    xbar0 = _ensemble_mean(X)
    for lam0, lam in zip(grid, grid[1:]):
        x_lin = _ensemble_mean(X) if lam0 > 0.0 else xbar0
        H = np.asarray(model.measurement_jacobian(x_lin), dtype=float).reshape(-1)
        z_lin = _linearized_measurement(z, model.measurement(x_lin)[0], H, x_lin)
        coeffs = _assemble_coefficients(P_pred, H, r, float(z_lin), xbar0)
        X = apply_flow_ensemble(coeffs, X, lam, lam0)
    return X


def aedh_update(
    particles: Array,
    P_pred: Array,
    model: SystemModel,
    z: Array,
    config: FilterConfig,
) -> Array:
    """Single-step analytic flow: one linearization, one affine map.

    The measurement function is linearized once at the ensemble mean and
    the closed-form map over the whole pseudo-time interval moves every
    particle. On a strongly nonlinear h this single linearization can
    trail the EKF; the relinearization of `naedh_update` is the remedy.
    P_pred must be SPD and R positive; run_filter checks its inputs once
    per run and the EKF keeps its predicted covariance SPD.
    """
    return _analytic_flow(particles, P_pred, model, z, 1)


def naedh_update(
    particles: Array,
    P_pred: Array,
    model: SystemModel,
    z: Array,
    config: FilterConfig,
) -> Array:
    """N-step analytic flow: exact sub-interval maps with relinearization.

    Between sub-intervals the measurement function is relinearized at the
    current ensemble mean, restoring the spatial adaptivity that the
    single-step map gives up. With a linear measurement all sub-maps
    compose exactly into the single-step map. Same input conditions as
    aedh_update.
    """
    return _analytic_flow(particles, P_pred, model, z, config.lambda_steps)


_UPDATES = {
    "EDH": edh_update,
    "LEDH": ledh_update,
    "A-EDH": aedh_update,
    "NA-EDH": naedh_update,
}


def run_filter(
    model: SystemModel,
    trajectory: Trajectory,
    config: FilterConfig,
    rng: np.random.Generator,
) -> list[tuple[Array, GaussianBelief]]:
    """Run one estimator over a trajectory.

    Per time step: EKF prediction, particle prediction, flow update with
    the EKF predicted covariance, point estimate (ensemble mean), EKF
    measurement update.

    Returns:
        One (point estimate, posterior belief) pair per time step. For
        the EKF the point estimate is the EKF posterior mean.

    Raises:
        FilterDivergenceError: If a flow update produces nonfinite
            particles; carries the failing step index.
        ValueError: For A-EDH and NA-EDH, before the first step, if R is
            not positive or the initial covariance is not SPD.
    """
    n = model.n_x
    mean0 = np.zeros(n) if config.init_mean is None else np.asarray(config.init_mean, dtype=float)
    cov0 = np.eye(n) if config.init_cov is None else np.asarray(config.init_cov, dtype=float)
    belief = GaussianBelief(mean0, cov0)

    particles = None
    if config.variant != "EKF":
        if config.variant in ("A-EDH", "NA-EDH"):
            # The closed-form map needs r > 0 and an SPD P. The EKF keeps P
            # SPD from an SPD start, so only the run's inputs are checked.
            validate_flow_inputs(cov0, model.R)
        chol0 = np.linalg.cholesky(cov0)
        particles = mean0 + rng.standard_normal((config.particle_count, n)) @ chol0.T
        update = _UPDATES[config.variant]
        chol_q = _cholesky_or_zero(model.Q)

    results: list[tuple[Array, GaussianBelief]] = []
    for k in range(1, trajectory.steps + 1):
        predicted = ekf_predict(belief, model, k)
        z = trajectory.measurements[k - 1]
        if particles is not None:
            particles = predict_particles(particles, model, k, rng, chol_q)
            particles = update(particles, predicted.covariance, model, z, config)
            if not np.all(np.isfinite(particles)):
                raise FilterDivergenceError(step=k)
        belief = ekf_update(predicted, model, z)
        estimate = belief.mean.copy() if particles is None else _ensemble_mean(particles)
        results.append((estimate, belief))
    return results

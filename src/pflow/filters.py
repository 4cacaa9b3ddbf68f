"""The five estimator pipelines: EKF baseline plus four particle-flow updates.

Variants:
    EKF-only - the parallel extended Kalman filter by itself
    EDH      - Euler integration of the flow ODE, one linearization per
               pseudo-time step at the ensemble mean
    LEDH     - localized variant, relinearized at every particle
    A-EDH    - the closed-form flow map applied in a single step
    NA-EDH   - the closed-form map applied over N pseudo-time sub-intervals,
               relinearizing between sub-intervals

Every variant runs next to an EKF whose predicted covariance feeds the
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
    apply_flow_ensemble,
    drift_matrix_A,
    drift_vector_b,
    validate_flow_inputs,
)
from .model import SystemModel, Trajectory, _cholesky_or_zero

Array = np.ndarray

VARIANTS = ("EKF-only", "EDH", "LEDH", "A-EDH", "NA-EDH")

_SAMPLE_COV_JITTER = 1e-9
_EXP_SCHEDULE_RATIO = 1.2


class FilterDivergenceError(RuntimeError):
    """Raised when a flow update produces nonfinite particles."""

    def __init__(self, step: int):
        super().__init__(f"nonfinite particles at time step {step}")
        self.step = step


@dataclass(frozen=True, eq=False)
class ParticleEnsemble:
    """A set of state-space points representing a distribution.

    Attributes:
        particles: Array of shape (count, n_x).
    """

    particles: Array

    @property
    def count(self) -> int:
        return self.particles.shape[0]

    @property
    def dimension(self) -> int:
        return self.particles.shape[1]


@dataclass(frozen=True, eq=False)
class FilterState:
    """Loop state of one estimator: ensemble, parallel EKF belief, time index.

    The ensemble and belief always share the state dimension.
    """

    ensemble: Optional[ParticleEnsemble]
    ekf_belief: GaussianBelief
    step: int


@dataclass
class FilterConfig:
    """Configuration of one estimator pipeline.

    Attributes:
        variant: One of VARIANTS.
        particle_count: Ensemble size, >= 1.
        lambda_steps: Number of pseudo-time steps for EDH/LEDH/NA-EDH.
        lambda_schedule: "uniform" (step 1/N) or "exponential"
            (geometrically increasing steps).
        covariance_source: "ekf-prediction" (default) or "ensemble-sample".
        init_mean: Initial belief mean; zeros when None.
        init_cov: Initial belief covariance; identity when None.
    """

    variant: str = "A-EDH"
    particle_count: int = 100
    lambda_steps: int = 10
    lambda_schedule: str = "uniform"
    covariance_source: str = "ekf-prediction"
    init_mean: Optional[Array] = field(default=None, repr=False)
    init_cov: Optional[Array] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.particle_count < 1:
            raise ValueError("particle_count must be >= 1")
        if self.lambda_steps < 1:
            raise ValueError("lambda_steps must be >= 1")
        if self.lambda_schedule not in ("uniform", "exponential"):
            raise ValueError(f"unknown lambda_schedule {self.lambda_schedule!r}")
        if self.covariance_source not in ("ekf-prediction", "ensemble-sample"):
            raise ValueError(f"unknown covariance_source {self.covariance_source!r}")


def lambda_grid(n_steps: int, schedule: str = "uniform", ratio: float = _EXP_SCHEDULE_RATIO) -> Array:
    """Pseudo-time grid 0 = lambda_0 < ... < lambda_N = 1.

    The uniform schedule uses step 1/N; the exponential schedule grows
    each step by the given ratio.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if schedule == "uniform":
        return np.linspace(0.0, 1.0, n_steps + 1)
    if schedule == "exponential":
        if n_steps == 1:
            return np.array([0.0, 1.0])
        steps = ratio ** np.arange(n_steps)
        grid = np.concatenate([[0.0], np.cumsum(steps / steps.sum())])
        grid[-1] = 1.0
        return grid
    raise ValueError(f"unknown schedule {schedule!r}")


def point_estimate(ensemble: ParticleEnsemble) -> Array:
    """Arithmetic mean of the particles."""
    return ensemble.particles.mean(axis=0)


def _linearized_measurement(
    model: SystemModel, z: Array, x_lin: Array, H: Array
) -> Array:
    """Pseudo-measurement of the model linearized at x_lin.

    z - h(x_lin) + H x_lin; reduces to z when h is linear through the
    origin.
    """
    return z - model.measurement(x_lin) + H @ x_lin


def predict_particles(
    ensemble: ParticleEnsemble,
    model: SystemModel,
    k: int,
    rng: np.random.Generator,
    chol_q: Array,
) -> ParticleEnsemble:
    """Propagate the ensemble through the motion model and add process noise.

    All particles go through one stacked transition call. chol_q is the
    lower Cholesky factor of model.Q, factored once per run by the caller.
    """
    propagated = model.transition(ensemble.particles, k)
    noise = rng.standard_normal(propagated.shape) @ chol_q.T
    return ParticleEnsemble(particles=propagated + noise)


def edh_update(
    ensemble: ParticleEnsemble,
    P_pred: Array,
    model: SystemModel,
    z: Array,
    config: FilterConfig,
) -> ParticleEnsemble:
    """Euler integration of the flow ODE with per-step relinearization.

    Each pseudo-time step relinearizes the measurement function at the
    current ensemble mean, rebuilds the drift, and moves every particle
    by one explicit Euler step.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    grid = lambda_grid(config.lambda_steps, config.lambda_schedule)
    X = ensemble.particles.copy()
    xbar0 = X.mean(axis=0)

    for j in range(1, grid.size):
        lam = grid[j]
        dlam = grid[j] - grid[j - 1]
        xbar_j = X.mean(axis=0)
        H = np.atleast_2d(model.measurement_jacobian(xbar_j))
        if np.max(np.abs(H)) < DEGENERATE_H_TOL:
            continue
        z_lin = _linearized_measurement(model, z, xbar_j, H)
        A = drift_matrix_A(P_pred, H, model.R, lam)
        b = drift_vector_b(P_pred, H, model.R, z_lin, xbar0, lam)
        X = X + (X @ A.T + b) * dlam
    return ParticleEnsemble(particles=X)


def ledh_update(
    ensemble: ParticleEnsemble,
    P_pred: Array,
    model: SystemModel,
    z: Array,
    config: FilterConfig,
) -> ParticleEnsemble:
    """Localized Euler flow: drift rebuilt per particle.

    Identical to edh_update except that the measurement function is
    linearized at each particle's current position, so every particle
    sees its own drift.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    grid = lambda_grid(config.lambda_steps, config.lambda_schedule)
    X = ensemble.particles.copy()
    xbar0 = X.mean(axis=0)
    scalar_measurement = model.n_z == 1
    r = float(model.R[0, 0]) if scalar_measurement else None

    for j in range(1, grid.size):
        lam = grid[j]
        dlam = grid[j] - grid[j - 1]
        moves = np.zeros_like(X)
        for i in range(X.shape[0]):
            x = X[i]
            H = np.atleast_2d(model.measurement_jacobian(x))
            if np.max(np.abs(H)) < DEGENERATE_H_TOL:
                continue
            z_lin = _linearized_measurement(model, z, x, H)
            if scalar_measurement:
                # Rank-one drift in its cancellation-free form, without
                # materializing the matrix.
                h = H[0]
                Ph = P_pred @ h
                p = float(h @ Ph)
                k = lam * p + r
                b_scale = (
                    float(z_lin[0]) * (lam * p + 2.0 * r) - r * float(h @ xbar0)
                ) / (2.0 * k * k)
                moves[i] = (b_scale - 0.5 * float(h @ x) / k) * Ph
            else:
                A = drift_matrix_A(P_pred, H, model.R, lam)
                b = drift_vector_b(P_pred, H, model.R, z_lin, xbar0, lam)
                moves[i] = A @ x + b
        X = X + moves * dlam
    return ParticleEnsemble(particles=X)


def _require_scalar_measurement(model: SystemModel, name: str) -> None:
    if model.n_z != 1:
        raise ValueError(f"{name} requires a scalar measurement (n_z = 1), got n_z = {model.n_z}")


def aedh_update(
    ensemble: ParticleEnsemble,
    P_pred: Array,
    model: SystemModel,
    z: Array,
    config: FilterConfig,
) -> ParticleEnsemble:
    """Single-step analytic flow: one linearization, one affine map.

    The measurement function is linearized once at the ensemble mean and
    the closed-form map over the whole pseudo-time interval moves every
    particle. On a strongly nonlinear h this single linearization can
    trail the EKF; the relinearization of `naedh_update` is the remedy.
    """
    _require_scalar_measurement(model, "aedh_update")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    r = float(model.R[0, 0])
    validate_flow_inputs(P_pred, r)
    xbar = ensemble.particles.mean(axis=0)
    H = np.asarray(model.measurement_jacobian(xbar), dtype=float).reshape(-1)
    z_lin = _linearized_measurement(model, z, xbar, H[np.newaxis, :])
    coeffs = _assemble_coefficients(P_pred, H, r, float(z_lin[0]), xbar)
    return ParticleEnsemble(particles=apply_flow_ensemble(coeffs, ensemble.particles, 1.0, 0.0))


def naedh_update(
    ensemble: ParticleEnsemble,
    P_pred: Array,
    model: SystemModel,
    z: Array,
    config: FilterConfig,
) -> ParticleEnsemble:
    """N-step analytic flow: exact sub-interval maps with relinearization.

    Between sub-intervals the measurement function is relinearized at the
    current ensemble mean, restoring the spatial adaptivity that the
    single-step map gives up. With a linear measurement all sub-maps
    compose exactly into the single-step map.
    """
    _require_scalar_measurement(model, "naedh_update")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    r = float(model.R[0, 0])
    # P is shared by every sub-interval; validate it once, not per substep.
    validate_flow_inputs(P_pred, r)
    grid = lambda_grid(config.lambda_steps, config.lambda_schedule)
    X = ensemble.particles.copy()
    xbar0 = X.mean(axis=0)

    for j in range(1, grid.size):
        xbar_j = X.mean(axis=0)
        H = np.asarray(model.measurement_jacobian(xbar_j), dtype=float).reshape(-1)
        z_lin = _linearized_measurement(model, z, xbar_j, H[np.newaxis, :])
        coeffs = _assemble_coefficients(P_pred, H, r, float(z_lin[0]), xbar0)
        X = apply_flow_ensemble(coeffs, X, grid[j], grid[j - 1])
    return ParticleEnsemble(particles=X)


_UPDATES = {
    "EDH": edh_update,
    "LEDH": ledh_update,
    "A-EDH": aedh_update,
    "NA-EDH": naedh_update,
}


def _ensemble_covariance(ensemble: ParticleEnsemble) -> Array:
    X = ensemble.particles
    centered = X - X.mean(axis=0)
    denom = max(X.shape[0] - 1, 1)
    return centered.T @ centered / denom + _SAMPLE_COV_JITTER * np.eye(X.shape[1])


def run_filter(
    model: SystemModel,
    trajectory: Trajectory,
    config: FilterConfig,
    rng: np.random.Generator,
) -> list[tuple[Array, GaussianBelief]]:
    """Run one estimator over a trajectory.

    Per time step: EKF prediction, particle prediction, flow update,
    point estimate (ensemble mean), EKF measurement update. The flow
    drift uses the EKF predicted covariance unless the config selects the
    ensemble sample covariance.

    Returns:
        One (point estimate, posterior belief) pair per time step. For
        the EKF-only variant the point estimate is the EKF posterior mean.

    Raises:
        FilterDivergenceError: If a flow update produces nonfinite
            particles; carries the failing step index.
    """
    n = model.n_x
    mean0 = np.zeros(n) if config.init_mean is None else np.asarray(config.init_mean, dtype=float)
    cov0 = np.eye(n) if config.init_cov is None else np.asarray(config.init_cov, dtype=float)

    ekf_only = config.variant == "EKF-only"
    ensemble = None
    if not ekf_only:
        chol0 = np.linalg.cholesky(cov0)
        particles = mean0 + rng.standard_normal((config.particle_count, n)) @ chol0.T
        ensemble = ParticleEnsemble(particles=particles)
        update = _UPDATES[config.variant]
        chol_q = _cholesky_or_zero(model.Q)
    state = FilterState(ensemble=ensemble, ekf_belief=GaussianBelief(mean0, cov0), step=0)

    results: list[tuple[Array, GaussianBelief]] = []
    for k in range(1, trajectory.steps + 1):
        predicted = ekf_predict(state.ekf_belief, model, k)
        z = trajectory.measurements[k - 1]

        if ekf_only:
            belief = ekf_update(predicted, model, z)
            state = FilterState(ensemble=None, ekf_belief=belief, step=k)
            results.append((belief.mean.copy(), belief))
            continue

        ensemble = predict_particles(state.ensemble, model, k, rng, chol_q)
        if config.covariance_source == "ekf-prediction":
            P_flow = predicted.covariance
        else:
            P_flow = _ensemble_covariance(ensemble)
        ensemble = update(ensemble, P_flow, model, z, config)
        if not np.all(np.isfinite(ensemble.particles)):
            raise FilterDivergenceError(step=k)
        estimate = point_estimate(ensemble)
        belief = ekf_update(predicted, model, z)
        state = FilterState(ensemble=ensemble, ekf_belief=belief, step=k)
        results.append((estimate, belief))
    return results

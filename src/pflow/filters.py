"""The five estimator pipelines: EKF baseline plus four particle-flow updates.

Filters:
    EKF      - the parallel extended Kalman filter by itself
    EDH      - Euler integration of the flow ODE, one linearization per
               pseudo-time step at the ensemble mean
    LEDH     - localized variant, relinearized at every particle
    A-EDH    - the closed-form flow map applied in a single step
    NA-EDH   - the closed-form map applied over N pseudo-time sub-intervals,
               relinearizing between sub-intervals at a mean carried
               through the sub-maps

Every flow filter runs next to an EKF whose predicted covariance feeds the
flow drift. The drift offset uses the ensemble mean where the flow
started (pseudo-time 0); the per-step ensemble mean only moves the
linearization point of the measurement function. Because the drift is
derived for a linear measurement, a nonlinear h enters through its
linearization: the drift sees the pseudo-measurement
z - h(x_L) + H x_L, the measurement the linearized model would have
produced (for linear h this is z itself). Particles carry no weights
and are never resampled.

EDH and LEDH share flow_core's one Euler drift for every measurement
dimension. EDH forms P H^T and S = lambda H P H^T + R once per
pseudo-time step and builds both the drift matrix A and the offset b
from them. LEDH calls the measurement Jacobian particle by particle, as
the model protocol asks (a single state per call), then forms P H^T for
the whole ensemble in one matrix product and evaluates h and the drift
once over the stack of per-particle linearizations.

A-EDH and NA-EDH share `_analytic_flow`. Each closed-form sub-map is
affine, so the mean is carried through the sub-maps alone to
relinearize h, and the composed map of each block of sub-maps moves the
ensemble in one pass: once per time step at the default 10 sub-maps.
That pass is flow_core's `_move_ensemble`, whose one-sub-map case is the
public `apply_flow_ensemble`.

All four flow filters apply their update to every measurement row,
however small. None divides by H P H^T: the Euler drift divides by S,
which R bounds below, and the closed-form map by k = lambda H P H^T + R.
A zero row moves nothing, because then P H^T = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ekf import GaussianBelief, ekf_predict, ekf_update
from .flow_core import (
    _drift_matrix,
    _drift_S,
    _euler_drift,
    _map_scalars,
    _move_ensemble,
    validate_flow_inputs,
    # Not called here: edh_update builds A and b from the drift helpers,
    # and _analytic_flow composes its sub-maps from _map_scalars. The
    # benchmark's tracer (perfbench/spans.py) wraps these names in this
    # module, so they must stay bound here.
    _assemble_coefficients,
    apply_flow_ensemble,
    drift_matrix_A,
    drift_vector_b,
)
from .model import SystemModel, Trajectory, _covariance_factor, _matmul

Array = np.ndarray

FILTER_NAMES = ("EKF", "EDH", "LEDH", "A-EDH", "NA-EDH")


class FilterDivergenceError(RuntimeError):
    """Raised at the first time step, kept as `step`, whose point estimate is nonfinite."""

    def __init__(self, step: int):
        super().__init__(f"nonfinite estimate at time step {step}")
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
    return np.add.reduce(particles, axis=0) / particles.shape[0]


def _linearized_measurement(z: Array | float, h_lin: Array | float, Hx_lin: Array | float) -> Array | float:
    """Pseudo-measurement of the model linearized at x_lin, given h(x_lin) and H x_lin.

    z - h(x_lin) + H x_lin; reduces to z when h is linear through the
    origin.
    """
    return z - h_lin + Hx_lin


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
    return propagated + _matmul(rng.standard_normal(propagated.shape), chol_q.T)


def edh_update(
    particles: Array,
    P_pred: Array,
    model: SystemModel,
    z: Array,
    config: FilterConfig,
) -> Array:
    """Euler integration of the flow ODE with per-step relinearization.

    Each pseudo-time step relinearizes the measurement function at the
    current ensemble mean (the flow's start mean at lambda = 0), forms
    P H^T and S = lambda H P H^T + R once, builds the drift matrix A and
    offset b from them, and moves every particle by one explicit Euler
    step X + (X A^T + b) dlambda. The results are those of
    `drift_matrix_A` and `drift_vector_b`, bit for bit.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    grid = _lambda_points(config.lambda_steps)
    X = particles
    xbar0 = _ensemble_mean(X)

    for lam0, lam in zip(grid, grid[1:]):
        x_lin = _ensemble_mean(X) if lam0 > 0.0 else xbar0
        H = np.atleast_2d(model.measurement_jacobian(x_lin))
        z_lin = _linearized_measurement(z, model.measurement(x_lin), _matmul(H, x_lin))
        PHt = _matmul(P_pred, H.T)
        S = _drift_S(PHt, H, model.R, lam)
        A = _drift_matrix(PHt, S, H)
        b = _euler_drift(PHt, S, H, model.R, z_lin, xbar0, 0.0)
        X = X + (_matmul(X, A.T) + b) * (lam - lam0)
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
    sees its own drift. Only the Jacobian is called particle by particle.
    P H^T is one (N n_z, n_x) x (n_x, n_x) product for the ensemble,
    whose row block i is (P H_i^T)^T for any P, symmetric or not; h and
    the drift are evaluated once over the stack.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    grid = _lambda_points(config.lambda_steps)
    X = particles
    xbar0 = _ensemble_mean(X)
    H = np.empty((X.shape[0], model.n_z, model.n_x))

    for lam0, lam in zip(grid, grid[1:]):
        for i, x in enumerate(X):
            H[i] = model.measurement_jacobian(x)
        PHt = np.swapaxes(_matmul(H.reshape(-1, model.n_x), P_pred.T).reshape(H.shape), -1, -2)
        Hx = _matmul(H, X[..., np.newaxis])[..., 0]
        z_lin = _linearized_measurement(z, model.measurement(X), Hx)
        S = _drift_S(PHt, H, model.R, lam)
        X = X + _euler_drift(PHt, S, H, model.R, z_lin, xbar0, Hx) * (lam - lam0)
    return X


# Sub-maps composed per ensemble pass. Within a pass the recurrence costs
# O(block * n_x) per sub-map, and W and Phs hold block * n_x floats, so time
# and memory stay linear in lambda_steps; the default 10 steps are one pass.
_COMPOSE_BLOCK = 16


def _analytic_flow(particles: Array, P_pred: Array, model: SystemModel, z: Array, n_steps: int) -> Array:
    """Closed-form maps over n_steps uniform sub-intervals, h relinearized at each start.

    Sub-map j is affine: x -> x + (scale_j H_j x + c_j) Ph_j, with
    Ph_j = P H_j^T and (scale_j, c_j) from `_map_scalars`. So the ensemble
    mean is carried through the sub-maps by itself, and h is relinearized
    at the carried mean. A block of sub-maps then composes to
    x -> x + (W x + b) Phs, one ensemble pass (`_move_ensemble`): row j
    of W and b solve the unit-lower-triangular recurrence
    (w_j, b_j) = scale_j ((H_j, 0) + sum_{i<j} (H_j . Ph_i)(w_i, b_i)) + (0, c_j).
    With one sub-map (A-EDH) the pass is `apply_flow_ensemble`'s, bit for bit.

    Cost: two model callbacks, the P H^T matvec and O(block * n_x)
    recurrence work per sub-map, plus two (N, n_x, block) products per
    block; O(K (n_x + N + block) n_x) in all for K sub-maps, with no
    n_x x n_x matrix formed. A ValueError if n_z != 1 or h(mean) is not of
    shape (1,).
    """
    if model.n_z != 1:
        raise ValueError(f"A-EDH and NA-EDH require a scalar measurement, got n_z = {model.n_z}")
    z = float(np.ravel(z)[0])
    r = float(model.R[0, 0])
    grid = _lambda_points(n_steps)
    X = particles
    xbar0 = xbar = _ensemble_mean(X)
    for start in range(0, n_steps, _COMPOSE_BLOCK):
        intervals = list(zip(grid[start:], grid[start + 1 : start + 1 + _COMPOSE_BLOCK]))
        W = np.empty((len(intervals), X.shape[1]))
        Phs = np.empty_like(W)
        b = np.empty(len(intervals))
        for j, (lam0, lam) in enumerate(intervals):
            H = np.asarray(model.measurement_jacobian(xbar), dtype=float).reshape(-1)
            Ph = _matmul(P_pred, H)
            Hx = float(_matmul(H, xbar))
            # At lambda_0 = 0 the carried mean is the start mean.
            h_xbar0 = Hx if lam0 == 0.0 else float(_matmul(H, xbar0))
            h_mean = model.measurement(xbar)
            if np.shape(h_mean) != (1,):  # as ekf_update's innovation check
                raise ValueError(f"h(mean) has shape {np.shape(h_mean)}, expected (1,)")
            z_lin = _linearized_measurement(z, float(h_mean[0]), Hx)
            _, scale, c = _map_scalars(float(_matmul(H, Ph)), r, z_lin, h_xbar0, lam, lam0)
            if j:  # the first sub-map of a block has nothing to compose with
                HPh = _matmul(Phs[:j], H)
                W[j] = scale * (H + HPh @ W[:j])
                b[j] = scale * (HPh @ b[:j]) + c
            else:
                W[j] = scale * H
                b[j] = c
            Phs[j] = Ph
            if lam < 1.0:  # the mean after the last sub-map is not read
                xbar = xbar + (scale * Hx + c) * Ph
        X = _move_ensemble(X, W, b, Phs)
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
    ensemble mean, restoring the spatial adaptivity that the single-step
    map gives up. That mean is carried through the affine sub-maps, and
    the ensemble moves once per block of composed sub-maps
    (`_analytic_flow`); both equal the sub-map-by-sub-map result up to
    round-off. With a linear measurement all sub-maps compose exactly
    into the single-step map. Same input conditions as aedh_update.
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
) -> Array:
    """Run one estimator over a trajectory.

    Per time step: EKF prediction, particle prediction, flow update with
    the EKF predicted covariance, EKF measurement update, point estimate.

    Returns:
        The (trajectory.steps, model.n_x) point estimates, one row per
        time step: the ensemble mean for a flow filter, the EKF
        posterior mean for the EKF.

    Raises:
        FilterDivergenceError: At the first time step whose estimate is
            nonfinite; carries that step index. A nonfinite particle
            always makes the ensemble mean nonfinite.
        ValueError: Before the first step, if Q fails `model._covariance_factor`
            or R or the initial covariance `validate_flow_inputs`.
    """
    n = model.n_x
    mean0 = np.zeros(n) if config.init_mean is None else np.asarray(config.init_mean, dtype=float)
    cov0 = np.eye(n) if config.init_cov is None else np.asarray(config.init_cov, dtype=float)
    belief = GaussianBelief(mean0, cov0)

    # The EKF keeps P SPD from an SPD start, so only the run's inputs are checked.
    chol_q = _covariance_factor(model.Q, "process noise covariance")
    chol0 = validate_flow_inputs(cov0, model.R)
    particles = None
    if config.variant != "EKF":
        particles = mean0 + rng.standard_normal((config.particle_count, n)) @ chol0.T
        update = _UPDATES[config.variant]

    # 0 . x is NaN exactly when some x_i is +-inf or NaN, and never overflows;
    # np.vdot raises no floating-point warning on 0 * inf.
    zero = np.zeros(n)
    estimates = np.empty((trajectory.steps, n))
    for k in range(1, trajectory.steps + 1):
        predicted = ekf_predict(belief, model, k)
        z = trajectory.measurements[k - 1]
        if particles is not None:
            particles = predict_particles(particles, model, k, rng, chol_q)
            particles = update(particles, predicted.covariance, model, z, config)
        belief = ekf_update(predicted, model, z)
        estimate = belief.mean if particles is None else _ensemble_mean(particles)
        if np.vdot(zero, estimate) != 0.0:
            raise FilterDivergenceError(step=k)
        estimates[k - 1] = estimate
    return estimates

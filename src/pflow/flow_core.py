"""Closed-form machinery for the exact deterministic particle flow.

The Bayesian update is posed as moving particles along the homotopy
parameter lambda in [0,1] under the linear drift

    dx/dlambda = A(lambda) x + b(lambda),

with A = -1/2 P H^T S^-1 H and S = lambda H P H^T + R. The Euler filters
evaluate it for any measurement dimension from P H^T and S formed once
per pseudo-time step: `_drift_S`, `_drift_matrix` and `_euler_drift`.

For a scalar measurement the drift matrix is rank one and the flow ODE
has a closed-form solution: a state-transition factor Phi(lambda,
lambda0) plus five integrated offset terms psi_0..psi_4. Everything here
is a pure function of immutable inputs.

With k(lambda) = lambda H P H^T + R, Phi = I + scale M and each psi term
is that same scale times one factor: no closed form divides by H P H^T,
so all keep full precision from H P H^T = 0 to H P H^T / R = 1e15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import _covariance_factor, _matmul

Array = np.ndarray

@dataclass(frozen=True, eq=False)
class FlowCoefficients:
    """Scalar-measurement flow bundle and its derived quantities.

    Attributes:
        P: Predicted covariance, SPD, shape (n_x, n_x).
        H: Measurement Jacobian row, shape (n_x,).
        r: Measurement noise variance, > 0.
        z: Scalar measurement.
        xbar: Mean of the predicted Gaussian (the drift offset uses this
            fixed linearization point), shape (n_x,).

    `Ph` and `p` are computed from P and H on first read and kept; `w` and
    `M` are derived on demand. Built directly, a bundle is not checked;
    `build_coefficients` validates its inputs. The filters build none:
    they hand `_map_scalars` and `_move_ensemble` the values that
    `apply_flow_ensemble` derives from a bundle.
    """

    P: Array
    H: Array
    r: float
    z: float
    xbar: Array

    @cached_property
    def Ph(self) -> Array:
        """P @ H, shape (n_x,)."""
        return self.P @ self.H

    @cached_property
    def p(self) -> float:
        """H P H^T; for a positive semidefinite P, p >= 0 and p = 0 means Ph = 0."""
        return float(self.H @ self.Ph)

    @property
    def w(self) -> Array:
        """P H^T z / r, shape (n_x,). Read by the oracle and the psi terms."""
        return self.Ph * (self.z / self.r)

    @property
    def M(self) -> Array:
        """P H^T H = outer(Ph, H), rank <= 1, shape (n_x, n_x).

        Built on demand: the filters use only its rank-one factors.
        """
        return np.outer(self.Ph, self.H)


def _assemble_coefficients(P: Array, H: Array, r: float, z: float, xbar: Array) -> FlowCoefficients:
    """The flow bundle of already-validated inputs."""
    return FlowCoefficients(P, H, r, z, xbar)


def validate_flow_inputs(P: Array, R: Array) -> Array:
    """The lower Cholesky factor of P, after checking R and P: each must pass
    `model._covariance_factor` and be nonzero, so k = lambda H P H^T + R > 0.

    Raises:
        ValueError: Naming R (a variance or an n_z x n_z matrix) or P if
            it is zero or not symmetric positive definite.
    """
    R = np.reshape(R, (1, 1)) if np.ndim(R) == 0 else R
    for cov, name in ((R, "measurement noise covariance"), (P, "prior covariance")):
        factor = _covariance_factor(cov, name)
        if not factor.any():
            raise ValueError(f"{name} is zero, not symmetric positive definite")
    return factor  # P's, the last checked


def build_coefficients(P: Array, H: Array, R: float, z: float, xbar: Array) -> FlowCoefficients:
    """Assemble the flow bundle from a predicted Gaussian and a scalar measurement.

    Args:
        P: Predicted covariance, SPD.
        H: Measurement row, shape (n_x,) or (1, n_x).
        R: Measurement noise variance, > 0: a scalar or any one-entry array.
        z: Scalar measurement, a scalar or any one-entry array.
        xbar: Predicted mean.

    Raises:
        ValueError: If R or z has more than one entry, R <= 0, P is not
            SPD (`validate_flow_inputs`), H or xbar is not of P's order,
            or H, z or xbar is not finite.
    """
    P = np.asarray(P, dtype=float)
    H = np.asarray(H, dtype=float).reshape(-1)
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    R = np.asarray(R, dtype=float)
    z = np.asarray(z, dtype=float)
    if R.size != 1 or z.size != 1:
        raise ValueError(f"R and z of a scalar measurement have one entry each, got R {R.shape} and z {z.shape}")

    validate_flow_inputs(P, R.reshape(1, 1))
    if H.shape != xbar.shape or H.shape != P.shape[:1]:
        raise ValueError(f"H {H.shape} and xbar {xbar.shape} must match P {P.shape}")
    if not (np.isfinite(H).all() and np.isfinite(z).all() and np.isfinite(xbar).all()):
        raise ValueError("H, z and xbar must be finite")
    return _assemble_coefficients(P, H, R.item(), z.item(), xbar)


def k_eval(coeffs: FlowCoefficients, lam: float) -> float:
    """The strictly positive scalar k(lambda) = lambda * H P H^T + R."""
    return lam * coeffs.p + coeffs.r


def _times_S_inverse(L: Array, S: Array, B: Array) -> Array:
    """L S^-1 B for one S or a stack, L (..., m, n_z) and B (..., n_z, k).

    A 1x1 S divides (np.linalg.solve costs ~10 us). That is solve's
    rounding for a B of one column, but for two or more (EDH's drift
    matrix, B = H, when n_x > 1) OpenBLAS's solve multiplies by the
    reciprocal, as `ekf._whiten` does, so that A can differ from solve's in
    the last bit. The product with L then has inner
    dimension 1, so it is the broadcast multiply of `model._matmul`'s
    product rule, written out because the shape is already known: one term
    per entry, np.matmul's values without one small matmul per matrix of a
    stack.
    """
    if S.shape[-1] == 1:
        return L * (B / S)
    return L @ np.linalg.solve(S, B)


def _drift_S(PHt: Array, H: Array, R: Array, lam: float) -> Array:
    """S = lambda H P H^T + R, the matrix every drift term solves against."""
    return lam * _matmul(H, PHt) + R


def _drift_matrix(PHt: Array, S: Array, H: Array) -> Array:
    """A = -1/2 P H^T S^-1 H from P H^T and S."""
    return _times_S_inverse(-0.5 * PHt, S, H)


def drift_matrix_A(P: Array, H: Array, R: Array, lam: float) -> Array:
    """Flow drift matrix -1/2 P H^T (lambda H P H^T + R)^-1 H.

    Supports general measurement dimension; H is (n_z, n_x) and R is
    (n_z, n_z). The nonzero spectrum lies in the closed left half-plane.
    """
    P = np.asarray(P, dtype=float)
    H = np.atleast_2d(np.asarray(H, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    PHt = P @ H.T
    return _drift_matrix(PHt, _drift_S(PHt, H, R, lam), H)


def _euler_drift(PHt: Array, S: Array, H: Array, R: Array, z: Array, xbar: Array, Hx: Array | float) -> Array:
    """The flow drift A x + b = 1/2 P H^T S^-1 (z + R S^-1 (z - H xbar) - H x).

    The offset b = (I + 2 lambda A)((I + lambda A) P H^T R^-1 z + A xbar)
    rearranged: as written, that product cancels terms growing like
    H P H^T / R (off by ~1e-2 at 1e12); this form loses a few eps cond(S).
    PHt is (..., n_x, n_z), H (..., n_z, n_x), S = `_drift_S` (..., n_z, n_z),
    z and Hx = H x (..., n_z); Hx = 0 gives b alone. Both products with
    S^-1 go through `_times_S_inverse`, so a stack of single measurement
    rows costs broadcast multiplies, not one small matmul per particle.
    """
    innovation = (z - _matmul(H, xbar))[..., np.newaxis]
    v = (z - Hx)[..., np.newaxis] + _times_S_inverse(R, S, innovation)
    return 0.5 * _times_S_inverse(PHt, S, v)[..., 0]


def drift_vector_b(P: Array, H: Array, R: Array, z: Array, xbar: Array, lam: float) -> Array:
    """Flow drift offset (I + 2 lambda A)((I + lambda A) P H^T R^-1 z + A xbar).

    Evaluated in the cancellation-free form 1/2 P H^T S^-1 (z + R S^-1 (z - H xbar))
    with S = lambda H P H^T + R, for every measurement dimension.
    """
    P = np.asarray(P, dtype=float)
    H = np.atleast_2d(np.asarray(H, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    PHt = P @ H.T
    return _euler_drift(PHt, _drift_S(PHt, H, R, lam), H, R, z, xbar, 0.0)


def _map_scalars(p: float, r: float, z: float, h_xbar: float, lam: float, lam0: float) -> tuple[float, float, float]:
    """(s, scale, c) of the map over [lam0, lam]: Phi = I + scale * M and d = Ph * c.

    p = H P H^T, r = R, z the scalar measurement and h_xbar = H xbar, all
    plain floats. With k = lambda p + r, q = sqrt(k) and dlam = lam - lam0,
    s = q0/q1, and the Phi scale (s - 1)/p and the psi terms' sum
    c = z (lam/k1 - s lam0/k0) + (H xbar)(r/p)(1/k1 - s/k0) are, since
    k0 - k1 = -dlam p and (lam q0 - lam0 q1)(q0 + q1) = dlam (r + q0 q1),

        scale = -dlam / (q1 (q0 + q1)),
        c = dlam (z (r + q0 q1) - r (H xbar)) / (q0 (q0 + q1) k1),

    here divided through by k1 (q0 q1/k1 = s, rho = r/k1) so that no
    product grows like k^2. Neither subtracts nearly equal terms or divides
    by p: both keep full precision for every p/r, p = 0 included. A k that
    is not positive (P indefinite along H) gives NaNs: the flow ends nonfinite.
    """
    k0 = lam0 * p + r
    k1 = lam * p + r
    if not (k0 > 0.0 and k1 > 0.0):
        return math.nan, math.nan, math.nan
    q0, q1 = math.sqrt(k0), math.sqrt(k1)
    q_sum = q0 + q1
    s = q0 / q1
    rho = r / k1
    dlam = lam - lam0
    c = dlam * (z * (rho + s) - rho * h_xbar) / (q0 * q_sum)
    return s, -dlam / (q1 * q_sum), c


def _bundle_map_scalars(coeffs: FlowCoefficients, lam: float, lam0: float) -> tuple[float, float, float]:
    """`_map_scalars` of a flow bundle; a ValueError unless 0 <= lam0 <= lam <= 1."""
    if not (0.0 <= lam0 <= lam <= 1.0):
        raise ValueError(f"flow interval must satisfy 0 <= lambda0 <= lambda <= 1, got ({lam0}, {lam})")
    return _map_scalars(coeffs.p, coeffs.r, coeffs.z, float(coeffs.H @ coeffs.xbar), lam, lam0)


def transition_matrix(coeffs: FlowCoefficients, lam: float, lam0: float) -> Array:
    """State-transition matrix I + (M/p)(sqrt(k(lam0)/k(lam)) - 1).

    Equals the matrix exponential of the integral of the drift matrix
    over [lam0, lam]; see the oracle module for the cross-check.
    """
    _, scale, _ = _bundle_map_scalars(coeffs, lam, lam0)
    return np.eye(coeffs.P.shape[0]) + scale * coeffs.M


def psi_term(coeffs: FlowCoefficients, index: int, lam: float, lam0: float) -> Array:
    """Closed-form integral of Phi(lam, tau) against the index-th drift-offset term.

    The offset b(tau) splits into five terms (constant, linear-in-xbar,
    and the lambda-weighted cross terms). Each integrates to the Phi scale
    (s - 1)/p of `_map_scalars` times one factor times w, or for psi1 and
    psi3 Mx = Ph (H xbar); the factors use u = s k1 = sqrt(k0 k1) and
    D = r (lam0 + lam) + lam0 lam p = (u^2 - r^2)/p. None divides by p or
    subtracts nearly equal terms (psi4's bracket cancels at most a quarter
    of its first term), so each keeps full precision for every p/r >= 0.
    At p = 0 a PSD P has Ph = 0: zeros; k <= 0 (P indefinite along H): NaNs.

    Args:
        index: Term index, 0..4.

    Raises:
        ValueError: For an index outside 0..4 or a reversed interval.
    """
    if index not in (0, 1, 2, 3, 4):
        raise ValueError(f"psi index must be in 0..4, got {index}")
    s, scale, _ = _bundle_map_scalars(coeffs, lam, lam0)
    p, r = coeffs.p, coeffs.r
    k0, k1 = lam0 * p + r, lam * p + r
    u = s * k1
    D = r * (lam0 + lam) + lam0 * lam * p
    factor = (
        -2.0 / 3.0 * (k0 + u + k1),
        1.0,
        p * (lam0 + lam + D / (u + r)),
        -p * D / (u * (u + r)),
        -p * p * ((lam0 + lam) * D * (u + 3.0 * r) / (u + r) + lam0 * lam * (u - 3.0 * r)) / (3.0 * u * (u + r)),
    )[index]
    vector = coeffs.Ph * float(coeffs.H @ coeffs.xbar) if index in (1, 3) else coeffs.w
    return scale * factor * vector


def analytic_flow_map(coeffs: FlowCoefficients, lam: float, lam0: float) -> tuple[Array, Array]:
    """The affine map (Phi, d) solving the flow ODE over [lam0, lam].

    x(lam) = Phi @ x(lam0) + d for coefficients frozen at the stored
    linearization; d = Ph c sums the five psi terms as `_map_scalars` does.
    """
    _, _, c = _bundle_map_scalars(coeffs, lam, lam0)
    return transition_matrix(coeffs, lam, lam0), coeffs.Ph * c


def _move_ensemble(X: Array, W: Array, b: Array, Phs: Array) -> Array:
    """X + (X W^T + b) Phs: the (count, n_x) ensemble through a block of composed rank-one sub-maps.

    Row j of the (block, n_x) W and Phs and of the (block,) b holds sub-map
    j's composed linear part, P H_j^T and offset. With one sub-map the
    second product is an outer product, which `model._matmul` broadcasts.
    """
    return X + _matmul(_matmul(X, W.T) + b, Phs)


def apply_flow_ensemble(coeffs: FlowCoefficients, particles: Array, lam: float, lam0: float) -> Array:
    """Move a (count, n_x) array of states through the flow map over [lam0, lam].

    Each row x goes to Phi @ x + d = x + (scale H x + c) Ph, for the
    bundle's one frozen linearization. The rank-one structure makes this
    cost a (count, n_x) @ (n_x, 1) product, one rank-one update of the
    ensemble and a few scalar operations: O(count * n_x), with no
    n_x x n_x matrix. It is the one-sub-map case of `_move_ensemble`, the
    kernel A-EDH and NA-EDH move their ensemble with, so the bundle of
    A-EDH's ensemble mean and pseudo-measurement gives A-EDH's result bit
    for bit.
    """
    _, scale, c = _bundle_map_scalars(coeffs, lam, lam0)
    return _move_ensemble(particles, scale * coeffs.H[np.newaxis], np.array([c]), coeffs.Ph[np.newaxis])

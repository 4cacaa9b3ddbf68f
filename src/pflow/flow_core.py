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

All closed forms are written in terms of the ratio k(lambda0)/k(lambda)
with k(lambda) = lambda * H P H^T + R, which stays in (0, 1] on forward
flows and avoids overflow when H P H^T is large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        Ph: P @ H, shape (n_x,).
        p: H P H^T; for a positive semidefinite P, p >= 0 and p = 0
            means Ph = 0.

    `w` and `M` are derived on demand; the filters' map reads neither.
    """

    P: Array
    H: Array
    r: float
    z: float
    xbar: Array
    Ph: Array
    p: float

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
    """Derive the flow bundle from already-validated inputs."""
    Ph = P @ H
    return FlowCoefficients(P, H, r, z, xbar, Ph, float(H @ Ph))


def validate_flow_inputs(P: Array, R: Array) -> Array:
    """The lower Cholesky factor of P, after checking that R and P are SPD.

    Raises:
        ValueError: If R (a variance or an n_z x n_z matrix) or P is not
            symmetric positive definite.
    """
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if not (np.array_equal(R, R.T) and np.linalg.eigvalsh(R).min() > 0.0):
        raise ValueError(f"measurement noise variance must be positive (R SPD), got R = {R.tolist()}")
    P = np.asarray(P, dtype=float)
    # Cholesky reads one triangle only, so symmetry is checked first.
    if not np.array_equal(P, P.T):
        raise ValueError("P is not symmetric positive definite (P != P^T)")
    try:
        return np.linalg.cholesky(P)
    except np.linalg.LinAlgError as exc:
        raise ValueError("P is not symmetric positive definite") from exc


def build_coefficients(P: Array, H: Array, R: float, z: float, xbar: Array) -> FlowCoefficients:
    """Assemble the flow bundle from a predicted Gaussian and a scalar measurement.

    Args:
        P: Predicted covariance, SPD.
        H: Measurement row, shape (n_x,) or (1, n_x).
        R: Measurement noise variance, > 0.
        z: Scalar measurement.
        xbar: Predicted mean.

    Raises:
        ValueError: If R <= 0 or P is not SPD.
    """
    P = np.asarray(P, dtype=float)
    H = np.asarray(H, dtype=float).reshape(-1)
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    r = float(np.asarray(R).reshape(-1)[0])
    z = float(np.asarray(z).reshape(-1)[0])

    validate_flow_inputs(P, r)
    return _assemble_coefficients(P, H, r, z, xbar)


def k_eval(coeffs: FlowCoefficients, lam: float) -> float:
    """The strictly positive scalar k(lambda) = lambda * H P H^T + R."""
    return lam * coeffs.p + coeffs.r


def _check_interval(lam: float, lam0: float) -> None:
    if not (0.0 <= lam0 <= lam <= 1.0):
        raise ValueError(
            f"flow interval must satisfy 0 <= lambda0 <= lambda <= 1, got ({lam0}, {lam})"
        )


def _solve_S(S: Array, B: Array) -> Array:
    """S^-1 B for one S or a stack; a 1x1 S divides (np.linalg.solve costs ~10 us)."""
    if S.shape[-1] == 1:
        return B / S
    return np.linalg.solve(S, B)


def _drift_S(PHt: Array, H: Array, R: Array, lam: float) -> Array:
    """S = lambda H P H^T + R, the matrix every drift term solves against."""
    return lam * (H @ PHt) + R


def _drift_matrix(PHt: Array, S: Array, H: Array) -> Array:
    """A = -1/2 P H^T S^-1 H from P H^T and S."""
    return -0.5 * PHt @ _solve_S(S, H)


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
    z and Hx = H x (..., n_z); Hx = 0 gives b alone.
    """
    innovation = (z - H @ xbar)[..., np.newaxis]
    v = (z - Hx)[..., np.newaxis] + R @ _solve_S(S, innovation)
    return 0.5 * (PHt @ _solve_S(S, v))[..., 0]


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
    """`_map_scalars` of a flow bundle."""
    return _map_scalars(coeffs.p, coeffs.r, coeffs.z, float(coeffs.H @ coeffs.xbar), lam, lam0)


def transition_matrix(coeffs: FlowCoefficients, lam: float, lam0: float) -> Array:
    """State-transition matrix I + (M/p)(sqrt(k(lam0)/k(lam)) - 1).

    Equals the matrix exponential of the integral of the drift matrix
    over [lam0, lam]; see the oracle module for the cross-check.
    """
    _check_interval(lam, lam0)
    _, scale, _ = _bundle_map_scalars(coeffs, lam, lam0)
    return np.eye(coeffs.P.shape[0]) + scale * coeffs.M


def psi_term(coeffs: FlowCoefficients, index: int, lam: float, lam0: float) -> Array:
    """Closed-form integral of Phi(lam, tau) against the index-th drift-offset term.

    The offset b(tau) splits into five terms (constant, linear-in-xbar,
    and the lambda-weighted cross terms); each integrates in closed form.
    These forms divide by p = H P H^T. At p = 0 a positive semidefinite P
    has P H^T = 0, so every term is exactly zero and zeros are returned.

    Args:
        index: Term index, 0..4.

    Raises:
        ValueError: For an index outside 0..4 or a reversed interval.
    """
    if index not in (0, 1, 2, 3, 4):
        raise ValueError(f"psi index must be in 0..4, got {index}")
    _check_interval(lam, lam0)
    if coeffs.p == 0.0:
        return np.zeros(coeffs.P.shape[0])

    p, r, w = coeffs.p, coeffs.r, coeffs.w
    k1 = k_eval(coeffs, lam)
    k0 = k_eval(coeffs, lam0)
    ratio, _, _ = _bundle_map_scalars(coeffs, lam, lam0)
    Mx = coeffs.Ph * float(coeffs.H @ coeffs.xbar)  # M @ xbar

    psi0 = (2.0 / 3.0) * (w / p) * (k1 - k0 * ratio)
    psi1 = (Mx / p) * (ratio - 1.0)
    psi2 = (w / p) * ((2.0 * r - p * lam) - ratio * (2.0 * r - p * lam0))
    psi3 = (Mx / p) * ((p * lam + 2.0 * r) / k1 - (p * lam0 + 2.0 * r) * ratio / k0)
    psi4 = (w / (3.0 * p)) * (
        (p * p * lam * lam - 4.0 * p * r * lam - 8.0 * r * r) / k1
        - (p * p * lam0 * lam0 - 4.0 * p * r * lam0 - 8.0 * r * r) * ratio / k0
    )
    return [psi0, psi1, psi2, psi3, psi4][index]


def inhomogeneous_sum(coeffs: FlowCoefficients, lam: float, lam0: float) -> Array:
    """The affine part d = Ph * c of the flow map: the five psi terms summed as in `_map_scalars`."""
    _check_interval(lam, lam0)
    _, _, c = _bundle_map_scalars(coeffs, lam, lam0)
    return coeffs.Ph * c


def analytic_flow_map(coeffs: FlowCoefficients, lam: float, lam0: float) -> tuple[Array, Array]:
    """The affine map (Phi, d) solving the flow ODE over [lam0, lam].

    x(lam) = Phi @ x(lam0) + d for coefficients frozen at the stored
    linearization.
    """
    return transition_matrix(coeffs, lam, lam0), inhomogeneous_sum(coeffs, lam, lam0)


def apply_flow_ensemble(coeffs: FlowCoefficients, particles: Array, lam: float, lam0: float) -> Array:
    """Move a (count, n_x) array of states through the flow map over [lam0, lam].

    Each row x goes to Phi @ x + d = x + scale (H x) Ph + Ph c, for the
    bundle's one frozen linearization. The rank-one structure makes this
    cost a (count, n_x) @ (n_x,) product, one rank-one update of the
    ensemble and a few scalar operations: O(count * n_x), with no
    n_x x n_x matrix. The filters do not call it: A-EDH and NA-EDH compose
    their relinearized sub-maps from the same `_map_scalars` and move the
    ensemble once per block of sub-maps (`filters._analytic_flow`).
    """
    _check_interval(lam, lam0)
    _, scale, c = _bundle_map_scalars(coeffs, lam, lam0)
    return particles + scale * ((particles @ coeffs.H)[:, np.newaxis] * coeffs.Ph) + coeffs.Ph * c

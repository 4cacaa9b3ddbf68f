"""Closed-form machinery for the exact deterministic particle flow.

The Bayesian update is posed as moving particles along the homotopy
parameter lambda in [0,1] under the linear drift

    dx/dlambda = A(lambda) x + b(lambda).

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

# Below this infinity norm the measurement row carries no information and
# the flow degenerates to the identity map.
DEGENERATE_H_TOL = 1e-12


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
        p: H P H^T, positive whenever H is nonzero.
        degenerate: True when H is (numerically) zero; the flow is then
            the identity map.

    `w` and `M` are derived on demand; the filters' map reads neither.
    """

    P: Array
    H: Array
    r: float
    z: float
    xbar: Array
    Ph: Array
    p: float
    degenerate: bool

    @property
    def w(self) -> Array:
        """P H^T z / r, shape (n_x,); zero when degenerate. Read by the oracle and the psi terms."""
        return np.zeros(self.Ph.shape[0]) if self.degenerate else self.Ph * (self.z / self.r)

    @property
    def M(self) -> Array:
        """P H^T H = outer(Ph, H), rank <= 1, shape (n_x, n_x); zero when degenerate.

        Built on demand: the filters use only its rank-one factors.
        """
        n = self.Ph.shape[0]
        return np.zeros((n, n)) if self.degenerate else np.outer(self.Ph, self.H)


def _assemble_coefficients(P: Array, H: Array, r: float, z: float, xbar: Array) -> FlowCoefficients:
    """Derive the flow bundle from already-validated inputs."""
    if np.abs(H).max() < DEGENERATE_H_TOL:
        return FlowCoefficients(P, H, r, z, xbar, np.zeros(P.shape[0]), 0.0, True)
    Ph = P @ H
    return FlowCoefficients(P, H, r, z, xbar, Ph, float(H @ Ph), False)


def validate_flow_inputs(P: Array, R: float) -> None:
    """Reject a non-SPD covariance or nonpositive noise variance.

    Raises:
        ValueError: If R <= 0 or P is not SPD (Cholesky fails).
    """
    r = float(np.asarray(R).reshape(-1)[0])
    if r <= 0.0:
        raise ValueError(f"measurement noise variance must be positive, got {r}")
    try:
        np.linalg.cholesky(np.asarray(P, dtype=float))
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


def drift_matrix_A(P: Array, H: Array, R: Array, lam: float) -> Array:
    """Flow drift matrix -1/2 P H^T (lambda H P H^T + R)^-1 H.

    Supports general measurement dimension; H is (n_z, n_x) and R is
    (n_z, n_z). The nonzero spectrum lies in the closed left half-plane.
    """
    P = np.asarray(P, dtype=float)
    H = np.atleast_2d(np.asarray(H, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    PHt = P @ H.T
    S = lam * (H @ PHt) + R
    return -0.5 * PHt @ np.linalg.solve(S, H)


def _drift_offset_scale(z: float, h_xbar: float, p: float, r: float, lam: float) -> float:
    """Scalar-measurement drift offset as a multiple of P H^T.

    (z (lam p + 2r) - r H xbar) / (2 k(lam)^2) with p = H P H^T and
    k = lam p + r.
    """
    k = lam * p + r
    return (z * (lam * p + 2.0 * r) - r * h_xbar) / (2.0 * k * k)


def drift_vector_b(P: Array, H: Array, R: Array, z: Array, xbar: Array, lam: float) -> Array:
    """Flow drift offset (I + 2 lambda A)((I + lambda A) P H^T R^-1 z + A xbar).

    For scalar measurements the product collapses to the cancellation-free
    form P H^T (z (lam p + 2r) - r H xbar) / (2 k(lam)^2) with
    p = H P H^T and k = lam p + r; the general measurement path evaluates
    the nested product directly.
    """
    P = np.asarray(P, dtype=float)
    H = np.atleast_2d(np.asarray(H, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    xbar = np.asarray(xbar, dtype=float).reshape(-1)

    if H.shape[0] == 1:
        h = H[0]
        r = float(R[0, 0])
        Ph = P @ h
        p = float(h @ Ph)
        return Ph * _drift_offset_scale(float(z[0]), float(h @ xbar), p, r, lam)

    A = drift_matrix_A(P, H, R, lam)
    v = P @ H.T @ np.linalg.solve(R, z)
    inner = v + lam * (A @ v) + A @ xbar
    return inner + 2.0 * lam * (A @ inner)


def _map_scalars(coeffs: FlowCoefficients, lam: float, lam0: float) -> tuple[float, float, float]:
    """(s, scale, c) of the map over [lam0, lam] for non-degenerate coefficients.

    s = sqrt(k(lam0)/k(lam)), Phi = I + scale * M with scale = (s - 1)/p, and
    d = Ph * c with c = z (lam/k(lam) - s lam0/k(lam0)) + (H xbar)(r/p)(1/k(lam) - s/k(lam0)),
    the sum of the five psi terms without the cancellation those terms
    suffer when H P H^T >> R (they grow like p/r while their sum stays O(1)).
    A negative k ratio, or a zero k or p (a P not positive definite along
    H), gives NaNs as IEEE arithmetic would, so the flow ends nonfinite.
    """
    p, r = coeffs.p, coeffs.r
    h_xbar = float(coeffs.H @ coeffs.xbar)
    k1 = k_eval(coeffs, lam)
    k0 = k_eval(coeffs, lam0)
    try:
        q = k0 / k1
        s = math.sqrt(q) if q >= 0.0 else math.nan
        measurement_part = coeffs.z * (lam / k1 - s * lam0 / k0)
        prior_part = h_xbar * (r / p) * (1.0 / k1 - s / k0)
        return s, (s - 1.0) / p, measurement_part + prior_part
    except ZeroDivisionError:
        return math.nan, math.nan, math.nan


def transition_matrix(coeffs: FlowCoefficients, lam: float, lam0: float) -> Array:
    """State-transition matrix I + (M/p)(sqrt(k(lam0)/k(lam)) - 1).

    Equals the matrix exponential of the integral of the drift matrix
    over [lam0, lam]; see the oracle module for the cross-check.
    """
    _check_interval(lam, lam0)
    n = coeffs.P.shape[0]
    if coeffs.degenerate:
        return np.eye(n)
    _, scale, _ = _map_scalars(coeffs, lam, lam0)
    return np.eye(n) + scale * coeffs.M


def psi_term(coeffs: FlowCoefficients, index: int, lam: float, lam0: float) -> Array:
    """Closed-form integral of Phi(lam, tau) against the index-th drift-offset term.

    The offset b(tau) splits into five terms (constant, linear-in-xbar,
    and the lambda-weighted cross terms); each integrates in closed form.

    Args:
        index: Term index, 0..4.

    Raises:
        ValueError: For an index outside 0..4 or a reversed interval.
    """
    if index not in (0, 1, 2, 3, 4):
        raise ValueError(f"psi index must be in 0..4, got {index}")
    _check_interval(lam, lam0)
    if coeffs.degenerate or lam == lam0:
        return np.zeros(coeffs.P.shape[0])

    p, r, w = coeffs.p, coeffs.r, coeffs.w
    k1 = k_eval(coeffs, lam)
    k0 = k_eval(coeffs, lam0)
    ratio, _, _ = _map_scalars(coeffs, lam, lam0)
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
    if coeffs.degenerate or lam == lam0:
        return np.zeros(coeffs.P.shape[0])
    _, _, c = _map_scalars(coeffs, lam, lam0)
    return coeffs.Ph * c


def analytic_flow_map(coeffs: FlowCoefficients, lam: float, lam0: float) -> tuple[Array, Array]:
    """The affine map (Phi, d) solving the flow ODE over [lam0, lam].

    x(lam) = Phi @ x(lam0) + d for coefficients frozen at the stored
    linearization.
    """
    return transition_matrix(coeffs, lam, lam0), inhomogeneous_sum(coeffs, lam, lam0)


def apply_flow_ensemble(coeffs: FlowCoefficients, particles: Array, lam: float, lam0: float) -> Array:
    """Move a (count, n_x) array of states through the flow map over [lam0, lam].

    Each row x goes to Phi @ x + d = x + scale (H x) Ph + Ph c. The
    rank-one structure makes one sub-step cost a (count, n_x) @ (n_x,)
    product, one rank-one update of the ensemble and a few scalar
    operations: O(count * n_x), with no n_x x n_x matrix.
    """
    _check_interval(lam, lam0)
    if coeffs.degenerate:
        return particles.copy()
    _, scale, c = _map_scalars(coeffs, lam, lam0)
    return particles + scale * ((particles @ coeffs.H)[:, np.newaxis] * coeffs.Ph) + coeffs.Ph * c

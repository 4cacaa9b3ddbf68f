"""Independent brute-force validators for the closed-form flow machinery.

Every closed-form expression in flow_core has a numerical counterpart
here that derives the same quantity a different way: the transition
factor against a series matrix exponential, the integrated offset terms
against adaptive quadrature, the assembled affine map against fixed-step
integration of the drift ODE, and the whole scalar-measurement update
against the linear-Gaussian posterior. These run in the test suite and
behind the `pflow verify` command so users can re-certify on their own
instances.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .ekf import GaussianBelief
from .flow_core import FlowCoefficients, build_coefficients, drift_matrix_A, k_eval

Array = np.ndarray


# Adaptive quadrature stops a panel when its error estimate is below the
# larger of these tolerances, and gives up past this subdivision depth.
QUADRATURE_ABSOLUTE_TOLERANCE = 1e-10
QUADRATURE_RELATIVE_TOLERANCE = 1e-9
QUADRATURE_MAX_DEPTH = 50

# Steps of the flow integrator whose drift is tabulated at once.
FLOW_TABLE_STEPS = 1024


def matrix_exponential(M: Array) -> Array:
    """Matrix exponential by scaling and squaring with a truncated series.

    The input is halved until its norm is below 1/2, a 20-term Taylor
    series is summed by Horner's rule, and the result is squared back up.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    norm = np.linalg.norm(M, 1)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    S = M / (2.0 ** squarings)

    result = np.eye(n)
    for j in range(20, 0, -1):
        result = np.eye(n) + S @ result / j

    for _ in range(squarings):
        result = result @ result
    return result


def integrate_flow_batch(
    coeffs_list: Sequence[FlowCoefficients],
    x0_rows: Array,
    lambda0: float | Array,
    lambda1: float | Array,
    steps: int,
    method: str = "rk4",
) -> Array:
    """Fixed-step integration of dx/dlambda = A(lambda) x + b(lambda) for many instances.

    Row i of x0_rows is integrated under coeffs_list[i] from lambda0 to
    lambda1, each a scalar shared by all rows or a length-N array with
    one interval per row. method is "euler" (drift at the left endpoint)
    or "rk4" (classical fourth order); step i starts at lambda0 + i*h.

    The drift does not depend on the state: A(lambda) = a(lambda) Ph H^T
    and b(lambda) = w + beta(lambda) Ph, with per-row scalars a and beta.
    Both are tabulated for FLOW_TABLE_STEPS steps at a time (left, mid
    and right RK4 points, left only for Euler), so the tables hold
    O(FLOW_TABLE_STEPS * N) floats whatever the step count, and the
    per-step loop is left with the right-hand sides, each one row-wise
    dot product and an O(n) update per instance.

    Raises:
        ValueError: For steps < 1, an unknown method, x0_rows not of
            shape (N, n), or an interval that is neither a scalar nor of
            length N.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r}")

    # The loop carries each row as a 1 x n matrix and each per-row scalar
    # as a 1 x 1 matrix, so X @ H_col is the row-wise dot product H x.
    Ph = np.stack([c.Ph for c in coeffs_list])[:, None, :]
    w = np.stack([c.w for c in coeffs_list])[:, None, :]
    xbar = np.stack([c.xbar for c in coeffs_list])[:, None, :]
    H_col = np.stack([c.H for c in coeffs_list])[:, :, None]
    p = np.array([c.p for c in coeffs_list])[:, None, None]
    r = np.array([c.r for c in coeffs_list])[:, None, None]
    Hw = w @ H_col
    Hxbar = xbar @ H_col

    rows, _, n = Ph.shape
    x = np.asarray(x0_rows, dtype=float)
    if x.shape != (rows, n):
        raise ValueError(f"x0_rows must have shape {(rows, n)}, got {x.shape}")
    # A scalar interval broadcasts over the rows; an array pairs one interval with each row.
    lam0 = np.reshape(np.asarray(lambda0, dtype=float), (-1, 1, 1))
    lam1 = np.reshape(np.asarray(lambda1, dtype=float), (-1, 1, 1))
    if lam0.shape[0] not in (1, rows) or lam1.shape[0] not in (1, rows):
        raise ValueError(f"lambda0 and lambda1 must each be a scalar or have length {rows}")

    def drift(lam: Array) -> tuple[Array, Array]:
        """Tables of a and beta over lam, shape (len(lam), N, 1, 1).

        b = (I + 2 lam A)((I + lam A) w + A xbar) = w + beta Ph, by H Ph = p:
        the inner factor is w + g Ph with g = a (lam H w + H xbar).
        """
        a = -0.5 / (lam * p + r)
        g = a * (lam * Hw + Hxbar)
        return a, g + 2.0 * lam * (a * (Hw + g * p))

    def rhs(a: Array, beta: Array, X: Array) -> Array:
        return (a * (X @ H_col) + beta) * Ph + w

    h = (lam1 - lam0) / steps
    half_h = 0.5 * h
    sixth_h = h / 6.0
    x = x[:, None, :]
    for first in range(0, steps, FLOW_TABLE_STEPS):
        index = np.arange(first, min(first + FLOW_TABLE_STEPS, steps))
        lam = lam0 + index[:, None, None, None] * h
        left = zip(*drift(lam))
        if method == "euler":
            for a, beta in left:
                x = x + h * rhs(a, beta, x)
        else:
            # Stages 2 and 3 share the midpoint.
            mid, right = zip(*drift(lam + half_h)), zip(*drift(lam + h))
            for (a1, b1), (a2, b2), (a4, b4) in zip(left, mid, right):
                k1 = rhs(a1, b1, x)
                k2 = rhs(a2, b2, x + half_h * k1)
                k3 = rhs(a2, b2, x + half_h * k2)
                k4 = rhs(a4, b4, x + h * k3)
                x = x + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x[:, 0, :]


def _adaptive_simpson(
    f: Callable[[float], Array],
    a: float,
    b: float,
) -> Array:
    """Adaptive Simpson rule for vector-valued integrands."""
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a: float, b: float, fa: Array, fm: Array, fb: Array, whole: Array, depth: int) -> Array:
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        err = np.max(np.abs(delta)) / 15.0
        tol = max(
            QUADRATURE_ABSOLUTE_TOLERANCE,
            QUADRATURE_RELATIVE_TOLERANCE * np.max(np.abs(left + right)),
        )
        if err <= tol:
            return left + right + delta / 15.0
        if depth >= QUADRATURE_MAX_DEPTH:
            raise RuntimeError(
                f"quadrature subdivision limit ({QUADRATURE_MAX_DEPTH}) exceeded on [{a}, {b}]"
            )
        return (
            recurse(a, m, fa, flm, fm, left, depth + 1)
            + recurse(m, b, fm, frm, fb, right, depth + 1)
        )

    return recurse(a, b, fa, fm, fb, whole, 0)


def _offset_term(coeffs: FlowCoefficients, index: int, tau: float) -> Array:
    """The index-th term, 0..4, of the five-way drift-offset expansion at tau."""
    k = k_eval(coeffs, tau)
    if index == 0:
        return coeffs.w
    Mx = coeffs.Ph * float(coeffs.H @ coeffs.xbar)
    if index == 1:
        return -0.5 * Mx / k
    if index == 2:
        return -1.5 * coeffs.p * tau * coeffs.w / k
    if index == 3:
        return 0.5 * coeffs.p * tau * Mx / (k * k)
    return 0.5 * coeffs.p ** 2 * tau ** 2 * coeffs.w / (k * k)


def quadrature_inhomogeneous(
    coeffs: FlowCoefficients,
    index: int,
    lam: float,
    lam0: float,
) -> Array:
    """Adaptive quadrature of Phi(lam, tau) times the index-th offset term.

    This is the independent route to the closed-form psi_term values.

    Raises:
        ValueError: For an index outside 0..4.
        RuntimeError: If the subdivision limit is exceeded (should not
            happen since k(tau) is bounded away from zero).
    """
    if index not in (0, 1, 2, 3, 4):
        raise ValueError(f"psi index must be in 0..4, got {index}")
    if coeffs.p == 0.0:  # P H^T = 0: every offset term and the integral vanish
        return np.zeros(coeffs.P.shape[0])

    k_at_lam = k_eval(coeffs, lam)

    def integrand(tau: float) -> Array:
        v = _offset_term(coeffs, index, tau)
        ratio = np.sqrt(k_eval(coeffs, tau) / k_at_lam)
        return v + ((ratio - 1.0) / coeffs.p) * float(coeffs.H @ v) * coeffs.Ph

    return _adaptive_simpson(integrand, lam0, lam)


def kalman_posterior(P: Array, H: Array, R: Array, z: Array, xbar: Array) -> GaussianBelief:
    """Exact linear-Gaussian posterior for measurement z = H x + noise.

    Mean xbar + K (z - H xbar) and covariance (I - K H) P with the usual
    gain K = P H^T (H P H^T + R)^-1.
    """
    P = np.asarray(P, dtype=float)
    H = np.atleast_2d(np.asarray(H, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    xbar = np.asarray(xbar, dtype=float).reshape(-1)

    PHt = P @ H.T
    S = H @ PHt + R
    K = np.linalg.solve(S.T, PHt.T).T
    mean = xbar + K @ (z - H @ xbar)
    cov = (np.eye(P.shape[0]) - K @ H) @ P
    return GaussianBelief(mean=mean, covariance=0.5 * (cov + cov.T))


def commutator_norm(P: Array, H: Array, R: Array, lam: float, tau: float) -> float:
    """Frobenius norm of A(lam) A(tau) - A(tau) A(lam)."""
    A1 = drift_matrix_A(P, H, R, lam)
    A2 = drift_matrix_A(P, H, R, tau)
    return float(np.linalg.norm(A1 @ A2 - A2 @ A1, "fro"))


# ---------------------------------------------------------------------------
# Random instances and the verification suite behind `pflow verify`.

def random_spd(rng: np.random.Generator, n: int) -> Array:
    """A well-conditioned random SPD matrix."""
    A = rng.standard_normal((n, n))
    return A @ A.T / n + 0.5 * np.eye(n)


def random_flow_instance(rng: np.random.Generator, n: int) -> FlowCoefficients:
    """A random non-degenerate scalar-measurement flow bundle."""
    P = random_spd(rng, n)
    H = rng.standard_normal(n)
    if np.max(np.abs(H)) < 0.1:  # keep the measurement row away from degenerate
        H[0] += 1.0
    R = rng.uniform(0.2, 4.0)
    z = 2.0 * rng.standard_normal()
    xbar = rng.standard_normal(n)
    return build_coefficients(P, H, R, z, xbar)


def random_interval(rng: np.random.Generator, min_width: float = 0.05) -> tuple[float, float]:
    """A random forward sub-interval (lam0, lam) inside [0, 1]."""
    lam0 = rng.uniform(0.0, 1.0 - min_width)
    lam = rng.uniform(lam0 + min_width, 1.0)
    return lam0, float(min(lam, 1.0))


def relative_deviation(value: Array, reference: Array) -> float:
    """Max-norm deviation normalized by 1 + the reference magnitude."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(value - reference)) / (1.0 + np.max(np.abs(reference))))


ORACLE_TOLERANCES = {
    "commutator": 1e-10,
    "phi_vs_matrix_exponential": 1e-8,
    "psi_vs_quadrature": 1e-6,
    "flow_map_vs_rk4": 1e-6,
    "kalman_mean": 1e-8,
    "kalman_covariance": 1e-8,
}


def verify_closed_forms(
    n_instances: int = 100, seed: int = 0, rk4_steps: int = 10_000
) -> dict[str, float]:
    """Max deviations of every closed form from its independent oracle.

    Returns a mapping with the same keys as ORACLE_TOLERANCES; a healthy
    build stays below every tolerance.

    Raises:
        ValueError: If n_instances < 1, which would check nothing.
    """
    if n_instances < 1:
        raise ValueError(f"n_instances must be >= 1, got {n_instances}")
    from .flow_core import analytic_flow_map, psi_term, transition_matrix

    rng = np.random.default_rng(seed)
    dims = (1, 2, 3, 5, 8, 13)
    results = {key: 0.0 for key in ORACLE_TOLERANCES}

    # Commutator of the general (vector-measurement) drift matrix.
    grid = np.linspace(0.0, 1.0, 5)
    for _ in range(n_instances):
        n_x = int(rng.integers(1, 21))
        n_z = int(rng.integers(1, min(n_x, 5) + 1))
        P = random_spd(rng, n_x)
        Hm = rng.standard_normal((n_z, n_x))
        Rm = random_spd(rng, n_z)
        norms = {lam: np.linalg.norm(drift_matrix_A(P, Hm, Rm, lam), "fro") for lam in grid}
        for i, lam in enumerate(grid):
            for tau in grid[i + 1:]:
                norm = commutator_norm(P, Hm, Rm, lam, tau)
                results["commutator"] = max(
                    results["commutator"], norm / (1.0 + norms[lam] * norms[tau])
                )

    # Scalar-measurement closed forms against their oracles.
    instances: list[tuple[FlowCoefficients, float, float]] = []
    for i in range(n_instances):
        coeffs = random_flow_instance(rng, dims[i % len(dims)])
        lam0, lam = random_interval(rng)
        instances.append((coeffs, lam0, lam))

    for coeffs, lam0, lam in instances:
        phi = transition_matrix(coeffs, lam, lam0)
        integral_a = np.log(k_eval(coeffs, lam0) / k_eval(coeffs, lam)) / (2.0 * coeffs.p) * coeffs.M
        results["phi_vs_matrix_exponential"] = max(
            results["phi_vs_matrix_exponential"],
            relative_deviation(phi, matrix_exponential(integral_a)),
        )
        for index in range(5):
            closed = psi_term(coeffs, index, lam, lam0)
            quad = quadrature_inhomogeneous(coeffs, index, lam, lam0)
            results["psi_vs_quadrature"] = max(
                results["psi_vs_quadrature"], relative_deviation(closed, quad)
            )

    # Full maps against batched RK4, one call per dimension, each
    # instance over its own interval.
    by_dim: dict[int, list[tuple[FlowCoefficients, float, float]]] = {}
    for item in instances:
        by_dim.setdefault(item[0].P.shape[0], []).append(item)
    for n, group in by_dim.items():
        coeffs_list = [c for c, _, _ in group]
        lam0 = np.array([l0 for _, l0, _ in group])
        lam = np.array([l1 for _, _, l1 in group])
        x0 = np.stack([c.xbar + rng.standard_normal(n) for c in coeffs_list])
        numeric = integrate_flow_batch(coeffs_list, x0, lam0, lam, rk4_steps)
        for row, (c, l0, l1) in enumerate(group):
            phi, d = analytic_flow_map(c, l1, l0)
            results["flow_map_vs_rk4"] = max(
                results["flow_map_vs_rk4"],
                relative_deviation(phi @ x0[row] + d, numeric[row]),
            )

    # Kalman exactness of the full-interval map.
    for coeffs, _, _ in instances:
        phi, d = analytic_flow_map(coeffs, 1.0, 0.0)
        posterior = kalman_posterior(
            coeffs.P, coeffs.H, np.array([[coeffs.r]]), np.array([coeffs.z]), coeffs.xbar
        )
        results["kalman_mean"] = max(
            results["kalman_mean"], relative_deviation(phi @ coeffs.xbar + d, posterior.mean)
        )
        results["kalman_covariance"] = max(
            results["kalman_covariance"],
            relative_deviation(phi @ coeffs.P @ phi.T, posterior.covariance),
        )
    return results

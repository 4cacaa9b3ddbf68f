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

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ekf import GaussianBelief
from .flow_core import FlowCoefficients, build_coefficients, drift_matrix_A, k_eval

Array = np.ndarray


# Adaptive quadrature stops a panel when its error estimate is below the
# larger of these tolerances, and gives up past this subdivision depth or
# this many integrand evaluations in one call (a `pflow verify` pass needs
# at most a few hundred, an instance at p/r = 1e15 about 1,800).
QUADRATURE_ABSOLUTE_TOLERANCE = 1e-10
QUADRATURE_RELATIVE_TOLERANCE = 1e-9
QUADRATURE_MAX_DEPTH = 50
QUADRATURE_MAX_EVALUATIONS = 10_000

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
    O(FLOW_TABLE_STEPS * N) floats whatever the step count.

    The per-step loop does only per-step work: the right-hand sides, each
    one row-wise dot product, and an O(n) update per instance. The step
    sizes h, h/2 and h/6 are broadcast to the state's shape once per call,
    and the stages are doubled by addition (k + k equals 2.0 * k exactly),
    so every value is the classical stage formula's, bit for bit.

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

    step = (lam1 - lam0) / steps
    x = x[:, None, :]
    h, half_h, sixth_h = (
        np.broadcast_to(v, x.shape).copy() for v in (step, 0.5 * step, step / 6.0)
    )
    for first in range(0, steps, FLOW_TABLE_STEPS):
        index = np.arange(first, min(first + FLOW_TABLE_STEPS, steps))
        lam = lam0 + index[:, None, None, None] * step
        left = zip(*drift(lam))
        if method == "euler":
            for a, beta in left:
                x = x + h * rhs(a, beta, x)
        else:
            # Stages 2 and 3 share the midpoint.
            mid, right = zip(*drift(lam + 0.5 * step)), zip(*drift(lam + step))
            for (a1, b1), (a2, b2), (a4, b4) in zip(left, mid, right):
                k1 = rhs(a1, b1, x)
                k2 = rhs(a2, b2, x + half_h * k1)
                k3 = rhs(a2, b2, x + half_h * k2)
                k4 = rhs(a4, b4, x + h * k3)
                x = x + sixth_h * (k1 + (k2 + k2) + (k3 + k3) + k4)
    return x[:, 0, :]


def _adaptive_simpson(
    f: Callable[[float], Array],
    a: float,
    b: float,
) -> Array:
    """Adaptive Simpson rule for vector-valued integrands."""
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    evaluations = 3

    def recurse(a: float, b: float, fa: Array, fm: Array, fb: Array, whole: Array, depth: int) -> Array:
        nonlocal evaluations
        evaluations += 2
        if evaluations > QUADRATURE_MAX_EVALUATIONS:
            raise RuntimeError(
                f"quadrature evaluation budget ({QUADRATURE_MAX_EVALUATIONS}) exceeded on [{a}, {b}]"
            )
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
        # A nonfinite panel never converges (nan <= tol is false); its
        # integral is NaN, which every deviation check rejects.
        if not np.isfinite(left + right).all():
            return np.full_like(whole, np.nan)
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
    A nonfinite integrand gives an all-NaN result.

    Raises:
        ValueError: For an index outside 0..4.
        RuntimeError: If the subdivision depth or evaluation budget is
            exceeded (should not happen since k(tau) is bounded away from zero).
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


def commutator_norm(A1: Array, A2: Array) -> float:
    """Frobenius norm of A1 A2 - A2 A1, for two matrices the caller formed once."""
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


# Narrowest pseudo-time interval of a random instance.
INTERVAL_MIN_WIDTH = 0.05


def random_interval(rng: np.random.Generator) -> tuple[float, float]:
    """A random forward sub-interval (lam0, lam) inside [0, 1], at least INTERVAL_MIN_WIDTH wide."""
    lam0 = rng.uniform(0.0, 1.0 - INTERVAL_MIN_WIDTH)
    lam = rng.uniform(lam0 + INTERVAL_MIN_WIDTH, 1.0)
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


def embed_flow_instance(coeffs: FlowCoefficients, n: int) -> FlowCoefficients:
    """The bundle in dimension n >= its own: block_diag(P, I), and H and xbar padded with zeros.

    The added coordinates have Ph = 0 and w = 0, so the drift never moves
    them, and the leading block follows the original bundle's ODE.
    """
    m = coeffs.P.shape[0]
    P = np.eye(n)
    P[:m, :m] = coeffs.P
    pad = (0, n - m)
    return FlowCoefficients(P, np.pad(coeffs.H, pad), coeffs.r, coeffs.z, np.pad(coeffs.xbar, pad))


@dataclass(frozen=True)
class WorstDeviation:
    """One oracle check's largest deviation and the instance that made it.

    `instance` counts in drawing order from 0; the commutator check draws
    its own instances, and the scalar checks share theirs. For the
    commutator, `dim` is n_x, `interval` the pseudo-time pair (lam, tau)
    and `n_z` the measurement dimension. For the scalar checks, `dim` is
    n, `interval` is (lam0, lam) and `p_over_r` is H P H^T / R; `psi_index`
    names the psi term of psi_vs_quadrature.
    """

    deviation: float
    instance: int
    dim: int
    interval: tuple[float, float]
    n_z: int | None = None
    p_over_r: float | None = None
    psi_index: int | None = None

    def where(self) -> str:
        """The instance in one line, for example `instance 3: n=5, lam 0.1 to 0.9, p/r=1.2e+00`."""
        a, b = self.interval
        if self.n_z is not None:
            return f"instance {self.instance}: n_x={self.dim}, n_z={self.n_z}, lam={a:g}, tau={b:g}"
        text = f"instance {self.instance}: n={self.dim}, lam {a:.6f} to {b:.6f}, p/r={self.p_over_r:.3e}"
        return text if self.psi_index is None else f"{text}, psi {self.psi_index}"


def verify_closed_forms(
    n_instances: int = 100, seed: int = 0, rk4_steps: int = 10_000
) -> dict[str, float]:
    """Max deviations of every closed form from its independent oracle.

    Returns a mapping with the same keys as ORACLE_TOLERANCES; a healthy
    build stays below every tolerance. A NaN deviation is returned as NaN,
    which no tolerance accepts. These are the values of `worst_deviations`.
    """
    worst = worst_deviations(n_instances, seed, rk4_steps)
    return {key: found.deviation for key, found in worst.items()}


def worst_deviations(
    n_instances: int = 100, seed: int = 0, rk4_steps: int = 10_000
) -> dict[str, WorstDeviation]:
    """The largest deviation of each closed form from its oracle, and where it came from.

    Keyed like ORACLE_TOLERANCES. The first NaN deviation, if any, is the
    maximum; otherwise the first of the largest. Rerunning with the same
    arguments draws the same instances.

    A commutator instance forms its five grid matrices once with the general
    `drift_matrix_A`; its norms and ten pairwise commutators read them.

    The full flow maps are checked against one RK4 call per pass: each
    instance is embedded in the pass's largest dimension n_max by
    `embed_flow_instance` and started at [xbar + draw, 0, ...]. The padded
    coordinates have zero drift, so they stay exactly 0, and the leading
    block integrates the instance's own ODE; its result is compared with
    `analytic_flow_map` of the unpadded bundle.

    Raises:
        ValueError: If n_instances < 1, which would check nothing.
    """
    if n_instances < 1:
        raise ValueError(f"n_instances must be >= 1, got {n_instances}")
    from .flow_core import analytic_flow_map, psi_term, transition_matrix

    rng = np.random.default_rng(seed)
    dims = (1, 2, 3, 5, 8, 13)
    # Every deviation is kept with where it came from, and the maximum taken
    # at the end by np.argmax, which returns the first NaN if there is one
    # (a running max() would drop it: max(0.0, nan) is 0.0).
    deviations: dict[str, list[WorstDeviation]] = {key: [] for key in ORACLE_TOLERANCES}

    # Commutator of the general (vector-measurement) drift matrix.
    grid = np.linspace(0.0, 1.0, 5)
    for case in range(n_instances):
        n_x = int(rng.integers(1, 21))
        n_z = int(rng.integers(1, min(n_x, 5) + 1))
        P = random_spd(rng, n_x)
        Hm = rng.standard_normal((n_z, n_x))
        Rm = random_spd(rng, n_z)
        drift = {lam: drift_matrix_A(P, Hm, Rm, lam) for lam in grid}
        norms = {lam: np.linalg.norm(A, "fro") for lam, A in drift.items()}
        for i, lam in enumerate(grid):
            for tau in grid[i + 1:]:
                norm = commutator_norm(drift[lam], drift[tau])
                value = float(norm / (1.0 + norms[lam] * norms[tau]))
                deviations["commutator"].append(
                    WorstDeviation(value, case, n_x, (float(lam), float(tau)), n_z=n_z)
                )

    # Scalar-measurement closed forms against their oracles.
    instances: list[tuple[FlowCoefficients, float, float]] = []
    for i in range(n_instances):
        coeffs = random_flow_instance(rng, dims[i % len(dims)])
        lam0, lam = random_interval(rng)
        instances.append((coeffs, lam0, lam))

    def found(value: float, case: int, interval: tuple[float, float], psi_index: int | None = None):
        """A deviation of scalar instance `case` over `interval`."""
        c = instances[case][0]
        return WorstDeviation(value, case, c.P.shape[0], interval, None, float(c.p / c.r), psi_index)

    for case, (coeffs, lam0, lam) in enumerate(instances):
        phi = transition_matrix(coeffs, lam, lam0)
        integral_a = np.log(k_eval(coeffs, lam0) / k_eval(coeffs, lam)) / (2.0 * coeffs.p) * coeffs.M
        deviations["phi_vs_matrix_exponential"].append(
            found(relative_deviation(phi, matrix_exponential(integral_a)), case, (lam0, lam))
        )
        for index in range(5):
            closed = psi_term(coeffs, index, lam, lam0)
            quad = quadrature_inhomogeneous(coeffs, index, lam, lam0)
            deviations["psi_vs_quadrature"].append(
                found(relative_deviation(closed, quad), case, (lam0, lam), index)
            )

    # Full maps against one batched RK4 call, each instance over its own
    # interval, row = instance. The x0 rows are drawn in ascending dimension
    # by a stable sort, the order in which each seed has always drawn them.
    n_max = max(c.P.shape[0] for c, _, _ in instances)
    x0 = np.zeros((n_instances, n_max))
    for case in sorted(range(n_instances), key=lambda case: instances[case][0].P.shape[0]):
        c = instances[case][0]
        n = c.P.shape[0]
        x0[case, :n] = c.xbar + rng.standard_normal(n)
    numeric = integrate_flow_batch(
        [embed_flow_instance(c, n_max) for c, _, _ in instances],
        x0,
        np.array([l0 for _, l0, _ in instances]),
        np.array([l1 for _, _, l1 in instances]),
        rk4_steps,
    )
    for case, (c, l0, l1) in enumerate(instances):
        n = c.P.shape[0]
        phi, d = analytic_flow_map(c, l1, l0)
        closed = np.zeros(n_max)  # the padded coordinates must come back exactly 0
        closed[:n] = phi @ x0[case, :n] + d
        deviations["flow_map_vs_rk4"].append(
            found(relative_deviation(closed, numeric[case]), case, (l0, l1))
        )

    # Kalman exactness of the full-interval map.
    for case, (coeffs, _, _) in enumerate(instances):
        phi, d = analytic_flow_map(coeffs, 1.0, 0.0)
        posterior = kalman_posterior(
            coeffs.P, coeffs.H, np.array([[coeffs.r]]), np.array([coeffs.z]), coeffs.xbar
        )
        deviations["kalman_mean"].append(
            found(relative_deviation(phi @ coeffs.xbar + d, posterior.mean), case, (0.0, 1.0))
        )
        deviations["kalman_covariance"].append(
            found(relative_deviation(phi @ coeffs.P @ phi.T, posterior.covariance), case, (0.0, 1.0))
        )
    return {
        key: entries[int(np.argmax([entry.deviation for entry in entries]))]
        for key, entries in deviations.items()
    }

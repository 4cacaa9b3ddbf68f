"""Extended Kalman filter recursion.

The EKF runs in parallel with every particle-flow variant to supply the
predicted covariance the flow drift needs, and doubles as the baseline
estimator in the benchmarks.

A scalar measurement makes S = H P H^T + R 1x1, and a 1-D state the
covariance. The helpers decide that case by shape and do only the
arithmetic np.linalg and np.matmul would, without their per-call
overhead: `model._cholesky`, the factor rule, takes the square root;
`_whiten` multiplies by the factor's reciprocal, as OpenBLAS's solve does
(dividing would round differently in about half the cases); and
`model._matmul`, the product rule, forms every product with inner
dimension 1 (H P, H P H^T, W^T e and W^T W when n_z = 1, and all of them
when n_x = 1) by broadcasting, since each entry then has one term. So
every result equals the general path's, bit for bit but for the sign of a
zero product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemModel, _cholesky, _matmul

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class GaussianBelief:
    """Gaussian state estimate: mean (n_x,) and covariance (n_x, n_x).

    From a symmetric start the operations below keep the covariance
    exactly symmetric: the prediction symmetrizes G P G^T + Q, and the
    update subtracts an exactly symmetric W^T W from the prior. Positive
    definiteness is detected and repaired, not guaranteed: the update
    passes its result through `_ensure_positive_definite`, which leaves an
    SPD covariance untouched and lifts a round-off-negative eigenvalue to
    a small floor.
    """

    mean: Array
    covariance: Array


def _symmetrize(P: Array) -> Array:
    return 0.5 * (P + P.T)


def _whiten(L: Array, HP: Array, innovation: Array) -> tuple[Array, Array]:
    """W = L^-1 H P and e = L^-1 innovation for a lower-triangular L.

    A 1x1 L multiplies both by 1 / l, as OpenBLAS's solve does; a larger L
    solves for both in one call, as one right-hand-side block.
    """
    if L.shape[-1] == 1:
        inverse = 1.0 / L[0, 0]
        return HP * inverse, innovation * inverse
    whitened = np.linalg.solve(L, np.concatenate((HP, innovation[:, np.newaxis]), axis=1))
    return whitened[:, :-1], whitened[:, -1]


_PD_JITTER = 1e-12


def _ensure_positive_definite(P: Array) -> Array:
    """Restore the covariance invariant when round-off breaks it.

    The update P - W^T W subtracts a nearly equal matrix when the predicted
    measurement variance H P H^T dwarfs R, or when P is ill conditioned
    (a diverging run); round-off can then leave eigenvalues a hair below
    zero, which the dynamics amplify and the next Cholesky rejects. A
    covariance that factors is returned as the same object. Otherwise the
    eigenvalues are clipped at 1e-12 times the largest (at least 1e-12) and
    the result is symmetrized.
    """
    try:
        _cholesky(P)
        return P
    except np.linalg.LinAlgError:
        pass
    eigenvalues, vectors = np.linalg.eigh(P)
    floor = _PD_JITTER * max(1.0, float(eigenvalues.max()))
    repaired = (vectors * np.maximum(eigenvalues, floor)) @ vectors.T
    return _symmetrize(repaired)


def ekf_predict(belief: GaussianBelief, model: SystemModel, k: int) -> GaussianBelief:
    """Time update: mean through g, covariance G P G^T + Q.

    G is the transition Jacobian evaluated at the current mean.
    """
    G = np.atleast_2d(model.transition_jacobian(belief.mean, k))
    mean = model.transition(belief.mean, k)
    covariance = _symmetrize(_matmul(_matmul(G, belief.covariance), G.T) + model.Q)
    return GaussianBelief(mean=mean, covariance=covariance)


def ekf_update(belief: GaussianBelief, model: SystemModel, z: Array) -> GaussianBelief:
    """Measurement update with h linearized at the predicted mean.

    With S = H P H^T + R = L L^T (Cholesky), W = L^-1 H P and whitened
    innovation e = L^-1 (z - h(mean)), the Kalman update is
    mean += W^T e and covariance = P - W^T W. This is the textbook
    K = P H^T S^-1, covariance (I - K H) P written through the factor of S
    (Bierman 1977): O(n_x^2 n_z) work, one formula for every n_z, and an
    exactly symmetric result when P is. The result still passes through
    `_ensure_positive_definite`, because the subtraction can round a
    near-singular posterior to a slightly indefinite one.

    Raises:
        np.linalg.LinAlgError: If the innovation covariance is not
            positive definite (R was not SPD - a construction bug).
        ValueError: If z - h(mean) does not have one entry per
            measurement row (a mis-shaped model or measurement).
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    H = np.atleast_2d(model.measurement_jacobian(belief.mean))
    P = belief.covariance

    HP = _matmul(H, P)
    S = _matmul(HP, H.T) + model.R
    try:
        L = _cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "innovation covariance is not positive definite; check that R is SPD"
        ) from exc

    innovation = z - model.measurement(belief.mean)
    if innovation.shape != HP.shape[:1]:
        raise ValueError(
            f"innovation z - h(mean) has shape {innovation.shape}, expected {HP.shape[:1]}"
        )
    W, e = _whiten(L, HP, innovation)
    mean = belief.mean + _matmul(W.T, e)
    covariance = _ensure_positive_definite(P - _matmul(W.T, W))
    return GaussianBelief(mean=mean, covariance=covariance)

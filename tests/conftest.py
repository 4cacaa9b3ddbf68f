"""Shared test helpers."""

import numpy as np

from pflow.model import SystemModel


def linear_model(F, Q, H, R) -> SystemModel:
    """A linear-Gaussian system model from plain matrices.

    g and h accept one state or a row stack, as SystemModel requires.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    return SystemModel(
        transition=lambda x, k: np.matmul(F, x[..., np.newaxis])[..., 0],
        measurement=lambda x: np.matmul(H, x[..., np.newaxis])[..., 0],
        transition_jacobian=lambda x, k: F,
        measurement_jacobian=lambda x: H,
        Q=np.atleast_2d(np.asarray(Q, dtype=float)),
        R=np.atleast_2d(np.asarray(R, dtype=float)),
    )


def matmul_times_S_inverse(L, S, B):
    """L S^-1 B as the drift helpers formed it with np.matmul: a 1x1 S
    divides, a larger one goes through np.linalg.solve."""
    return L @ (B / S if S.shape[-1] == 1 else np.linalg.solve(S, B))

"""Synthetic data generators: power-law-spectrum matrices and cluster datasets."""

from __future__ import annotations

import numpy as np

from ..linalg import RandomSource, qr_thin
from ..train import Dataset

# Names the bits the generators produce; bumped when a kernel change alters
# them on purpose. v2: qr_thin runs LAPACK geqrf, which flips the sign of the
# smallest component of a non-square spectral matrix.
DATA_VERSION = "spectral-v2"

# Each class centroid sits this far out along its own coordinate axis.
_CENTROID_SCALE = 3.0


def generate_spectral_matrix(m: int, n: int, alpha: float,
                             seed: int) -> np.ndarray:
    """Random matrix with a power-law spectrum sigma_i = i^-alpha.

    Orthonormal factors come from thin QR of Gaussian matrices, so the
    output's exact SVD recovers the prescribed spectrum.
    """
    if not alpha >= 0:  # NaN fails too
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    rng = RandomSource(seed)
    k = min(m, n)
    u, _ = qr_thin(rng.spawn(0).normal((m, k)))
    v, _ = qr_thin(rng.spawn(1).normal((n, k)))
    sigma = np.arange(1, k + 1, dtype=np.float64) ** (-alpha)
    return (u * sigma) @ v.T


def generate_cluster_dataset(classes: int, dim: int, per_class: int,
                             noise_std: float, seed: int) -> Dataset:
    """Gaussian clusters with fixed centroids on scaled coordinate directions."""
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if classes > dim:
        raise ValueError("need dim >= classes for coordinate centroids")
    gen = RandomSource(seed).generator()
    features = np.empty((classes * per_class, dim))
    labels = np.empty(classes * per_class, dtype=np.int64)
    for c in range(classes):
        centroid = np.zeros(dim)
        centroid[c] = _CENTROID_SCALE
        block = slice(c * per_class, (c + 1) * per_class)
        features[block] = centroid + noise_std * gen.standard_normal((per_class, dim))
        labels[block] = c
    order = gen.permutation(classes * per_class)
    return Dataset(features[order], labels[order])

"""Synthetic data generators and IDX image/label ingestion."""

from __future__ import annotations

import struct

import numpy as np

from ..linalg import RandomSource, qr_thin
from ..train import Dataset

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# Names the bits the generators produce; bumped when a kernel change alters
# them on purpose. v2: qr_thin runs LAPACK geqrf, which flips the sign of the
# smallest component of a non-square spectral matrix.
DATA_VERSION = "spectral-v2"


def generate_spectral_matrix(m: int, n: int, alpha: float,
                             seed: int) -> np.ndarray:
    """Random matrix with a power-law spectrum sigma_i = i^-alpha.

    Orthonormal factors come from thin QR of Gaussian matrices, so the
    output's exact SVD recovers the prescribed spectrum.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    rng = RandomSource(seed)
    k = min(m, n)
    u, _ = qr_thin(rng.spawn(0).normal((m, k)))
    v, _ = qr_thin(rng.spawn(1).normal((n, k)))
    sigma = np.arange(1, k + 1, dtype=np.float64) ** (-alpha)
    return (u * sigma) @ v.T


def generate_cluster_dataset(classes: int, dim: int, per_class: int,
                             noise_std: float, seed: int,
                             centroid_scale: float = 3.0) -> Dataset:
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
        centroid[c] = centroid_scale
        block = slice(c * per_class, (c + 1) * per_class)
        features[block] = centroid + noise_std * gen.standard_normal((per_class, dim))
        labels[block] = c
    order = gen.permutation(classes * per_class)
    return Dataset(features[order], labels[order])


class IdxFormatError(ValueError):
    """Malformed IDX payload; message carries the byte offset."""


def _read_exact(f, count: int, offset: int) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise IdxFormatError(
            f"truncated IDX file at byte {offset}: wanted {count} bytes, "
            f"got {len(data)}")
    return data


def load_idx_images(path) -> np.ndarray:
    """Parse an IDX image file into an N x (rows*cols) array scaled to [0, 1]."""
    with open(path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, 0))
        if magic != IDX_IMAGES_MAGIC:
            raise IdxFormatError(
                f"bad image magic at byte 0: expected {IDX_IMAGES_MAGIC:#010x}, "
                f"got {magic:#010x}")
        payload = _read_exact(f, count * rows * cols, 16)
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    return pixels.reshape(count, rows * cols)


def load_idx_labels(path) -> np.ndarray:
    """Parse an IDX label file into an int array."""
    with open(path, "rb") as f:
        magic, count = struct.unpack(">II", _read_exact(f, 8, 0))
        if magic != IDX_LABELS_MAGIC:
            raise IdxFormatError(
                f"bad label magic at byte 0: expected {IDX_LABELS_MAGIC:#010x}, "
                f"got {magic:#010x}")
        payload = _read_exact(f, count, 8)
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def load_idx(images_path, labels_path) -> Dataset:
    """Load a paired IDX image/label dataset."""
    features = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if features.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"image count {features.shape[0]} != label count {labels.shape[0]}")
    return Dataset(features, labels)

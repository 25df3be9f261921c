"""Low-rank adapter construction and algebra.

A DecomposedLayer pairs a frozen base matrix (full precision or quantized)
with a trainable rank-r adapter (A, B). Initializers cover the Gaussian/zero
baseline and the SVD split of any window of singular components named in
WINDOWS: principal (PiSSA), medium or minor. The one layer product (for
inference, training and gradcheck), analytic gradients, merging, and the
lossless conversion of a trained adapter into a delta on the original
weights live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (RandomSource, ShapeError, SvdFactors, _check_rank, as_matrix,
                     exact_svd, leading_svd, relative_error)


@dataclass
class AdapterPair:
    """Trainable factors a (m x r) and b (r x n) with a scalar multiplier.

    scale defaults to 1 (alpha equal to the rank); it is stored explicitly
    so alpha != r configurations remain possible.
    """

    a: np.ndarray
    b: np.ndarray
    rank: int
    scale: float = 1.0

    def __post_init__(self):
        if self.a.shape[1] != self.rank or self.b.shape[0] != self.rank:
            raise ShapeError(
                f"adapter factor shapes {self.a.shape}, {self.b.shape} "
                f"inconsistent with rank {self.rank}")
        if not 0 < self.scale < np.inf:  # also rejects NaN
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.a.shape[0], self.b.shape[1])

    def delta(self) -> np.ndarray:
        return self.scale * (self.a @ self.b)

    def copy(self) -> "AdapterPair":
        return AdapterPair(self.a.copy(), self.b.copy(), self.rank, self.scale)


@dataclass
class DecomposedLayer:
    """Frozen base (dense or quantized) plus a trainable adapter."""

    base: object  # np.ndarray or quant.QuantizedMatrix
    adapter: AdapterPair
    origin: str

    def __post_init__(self):
        if self.base.shape != self.adapter.shape:
            raise ShapeError(
                f"base shape {self.base.shape} != adapter shape {self.adapter.shape}")
        _check_origin(self.origin)

    @property
    def shape(self) -> tuple[int, int]:
        return self.adapter.shape


def dense_base(layer: DecomposedLayer) -> np.ndarray:
    """The base as a dense matrix, dequantizing when needed."""
    if isinstance(layer.base, np.ndarray):
        return layer.base
    from .quant import dequantize
    return dequantize(layer.base)


def _split(f: SvdFactors, lo: int, hi: int) -> AdapterPair:
    # Square-root split of components [lo, hi). A and B are C-contiguous like a
    # reloaded checkpoint's, so both train to the same bits (layout sets rounding).
    root = np.sqrt(f.s[lo:hi])
    a = np.ascontiguousarray(f.u[:, lo:hi] * root)
    b = np.ascontiguousarray(root[:, None] * f.v[:, lo:hi].T)
    return AdapterPair(a, b, hi - lo)


def _gaussian_zero(shape: tuple[int, int], r: int, rng: RandomSource) -> AdapterPair:
    a = rng.normal((shape[0], r)) * np.sqrt(1.0 / r)
    return AdapterPair(a, np.zeros((r, shape[1]), dtype=np.float64), r)


def pissa_init(w: np.ndarray, r: int) -> DecomposedLayer:
    """Split w into a rank-r principal adapter and a frozen residual base.

    A and B carry the square-root-weighted top singular vectors and the
    base is w - A B, so base + A B reproduces w up to floating point.
    """
    return variant_init(w, r, "pissa")


def lora_init(w: np.ndarray, r: int, rng: RandomSource) -> DecomposedLayer:
    """Gaussian A, zero B on top of the unchanged base.

    A entries are N(0, 1/r); with B zero the adapter contributes nothing at
    initialization, so the forward pass equals X w exactly.
    """
    w = as_matrix(w)
    _check_rank(w, r)
    return DecomposedLayer(base=w.copy(), adapter=_gaussian_zero(w.shape, r, rng),
                           origin="lora")


# Window name -> (k, r) -> [lo, hi): the singular components, of k =
# min(m, n), that an SVD initializer puts into a rank-r adapter. pissa and
# principal are the same window; ablation reports name it principal.
WINDOWS = {
    "pissa": lambda k, r: (0, r),
    "principal": lambda k, r: (0, r),
    "medium": lambda k, r: ((k - r) // 2, (k - r) // 2 + r),
    "minor": lambda k, r: (k - r, k),
}

# Every origin a DecomposedLayer may carry: the name of the initializer
# that built it, a singular window or one of the Gaussian/zero and quantized
# initializers. train.STRATEGIES has one initializer per name.
ORIGINS = (*WINDOWS, "lora", "qlora", "loftq", "qpissa")


def _check_origin(origin) -> None:
    if not isinstance(origin, str) or origin not in ORIGINS:
        raise ValueError(f"origin {origin!r} is not an init strategy")


def variant_init(w: np.ndarray, r: int, window: str) -> DecomposedLayer:
    """Adapter built from a named window of singular components.

    principal (or pissa) takes the top r indices, medium a centered window,
    minor the bottom r. The base is the residual w - A B, which holds the
    other components, so the sum always reconstructs w.
    """
    w = as_matrix(w)
    _check_rank(w, r)
    if window not in WINDOWS:
        raise ValueError(f"unknown singular window: {window}")
    lo, hi = WINDOWS[window](min(w.shape), r)
    # A window at the top needs only the leading triplets, not a full SVD.
    pair = _split(leading_svd(w, hi) if lo == 0 else exact_svd(w), lo, hi)
    return DecomposedLayer(base=w - pair.a @ pair.b, adapter=pair, origin=window)


def _layer_product(layer, x: np.ndarray, transpose: bool = False,
                   x_base: np.ndarray | None = None):
    """(x W, x A), or (x W^T, x B^T), for a plain matrix W (x A is None) or
    a DecomposedLayer, whose W = base + scale A B is never formed: x base +
    scale (x A) B, or x base^T + scale (x B^T) A^T, with rank-r intermediates
    (x A serves the rank-first gradients). x_base, if given, is x base
    (x base^T when transposed), taken ahead by the caller.

    The result is a new array that the product writes in place: (x A) B, then
    times scale unless scale is 1, then plus x base. Sums and products
    commute, so its bits are those of x base + scale ((x A) B). Unchecked, so
    a diverged (non-finite) activation reaches the training loss.
    """
    if not isinstance(layer, DecomposedLayer):
        return x @ (layer.T if transpose else layer), None
    p = layer.adapter
    a, b = (p.b.T, p.a.T) if transpose else (p.a, p.b)
    if x_base is None:
        x_base = x @ (dense_base(layer).T if transpose else dense_base(layer))
    x_a = x @ a
    y = x_a @ b
    if p.scale != 1:
        y *= p.scale
    y += x_base
    return y, x_a


def forward(layer: DecomposedLayer, x: np.ndarray) -> np.ndarray:
    """Y = X base + scale (X A) B, dequantizing the base when needed."""
    x = as_matrix(x)
    if x.shape[1] != layer.shape[0]:
        raise ShapeError(f"input cols {x.shape[1]} != layer rows {layer.shape[0]}")
    return _layer_product(layer, x)[0]


def adapter_gradients(x: np.ndarray, d_y: np.ndarray,
                      adapter: AdapterPair) -> tuple[np.ndarray, np.ndarray]:
    """Analytic loss gradients of the adapter factors given dL/dY.

    Both contract with the rank first (batch x r intermediates), so the
    m x n product X^T dY is never formed.
    """
    m, n = adapter.shape
    if x.shape[1] != m or d_y.shape[1] != n or x.shape[0] != d_y.shape[0]:
        raise ShapeError(
            f"gradient shapes x={x.shape}, dY={d_y.shape} inconsistent with "
            f"adapter {adapter.shape}")
    return _adapter_gradients(x, d_y, adapter, x @ adapter.a)


def _adapter_gradients(x: np.ndarray, d_y: np.ndarray, adapter: AdapterPair,
                       x_a: np.ndarray, out_a: np.ndarray | None = None,
                       out_b: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    # adapter_gradients without its shape check, given x A (training takes it
    # from the forward pass): scale X^T (dY B^T) and scale (X A)^T dY, written
    # into out_a and out_b when given and scaled in place unless scale is 1.
    d_a = np.matmul(x.T, d_y @ adapter.b.T, out=out_a)
    d_b = np.matmul(x_a.T, d_y, out=out_b)
    if adapter.scale != 1:
        d_a *= adapter.scale
        d_b *= adapter.scale
    return d_a, d_b


def merge(layer: DecomposedLayer) -> np.ndarray:
    """Fold the adapter back into a plain dense matrix."""
    return dense_base(layer) + layer.adapter.delta()


def to_lora_delta(initial: AdapterPair,
                  trained: AdapterPair) -> tuple[np.ndarray, np.ndarray]:
    """Express the training update as a rank-2r delta on the original weights.

    Stacking [A' A] against [B'; -B] gives delta A delta B = A'B' - AB
    exactly, so the original w plus the delta matches the trained layer.
    """
    if initial.shape != trained.shape or initial.rank != trained.rank:
        raise ShapeError("initial and trained adapters must share dims and rank")
    if initial.scale != trained.scale:
        raise ValueError("initial and trained adapters must share the same scale")
    delta_a = np.hstack([trained.a, initial.a])
    delta_b = np.vstack([trained.b, -initial.b])
    return delta_a, delta_b


def _layer_matrix(w, layer: DecomposedLayer) -> np.ndarray:
    """w as a matrix; ShapeError unless w - merge(layer) needs no broadcast."""
    w = as_matrix(w)
    if w.shape != layer.shape:
        raise ShapeError(f"shape mismatch {w.shape} vs {layer.shape}")
    return w


def reconstruction_error(w: np.ndarray, layer: DecomposedLayer) -> float:
    """Relative Frobenius distance between w and the merged layer."""
    w = _layer_matrix(w, layer)
    return relative_error(w - merge(layer), w)

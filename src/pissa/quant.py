"""4-bit NormalFloat block quantization and quantized adapter initializers.

The 16-level codebook is a fixed table of standard-normal quantiles,
applied block-wise with absmax scaling. On top of it sit the three quantized
initializers (direct quantization with a zero adapter, alternating
error-matrix SVD, and principal-component extraction before quantization)
plus the nuclear-norm error metrics used to compare them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import adapter
from .linalg import (RandomSource, _check_rank, as_matrix, frobenius_norm,
                     leading_svd, nuclear_norm)


# The one codebook every quantized matrix is coded in; PSQ4 files store
# codes and scales only, so a second codebook could not be reloaded.
# NormalFloat levels (QLoRA): standard-normal quantiles at 8 (negative side)
# and 9 evenly spaced probabilities from 0.5 to 1 - (1/32 + 1/30)/2, zero
# shared, over the largest. Tests re-derive these bits from scipy's ppf.
NF4_LEVELS = np.array([
    -1.0, -0.696192805632343, -0.5250729594465005, -0.3949174259199071,
    -0.28444130892108205, -0.1847734028004556, -0.09104997598578049, 0.0,
    0.07958031495840909, 0.1609301443802907, 0.2461122513474594,
    0.3379151367131279, 0.44070973186421625, 0.5626168879699849,
    0.7229566441594734, 1.0])
NF4_LEVELS.flags.writeable = False


@dataclass(frozen=True)
class QuantConfig:
    block_size: int = 64

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")


@dataclass
class QuantizedMatrix:
    """Block-quantized matrix: one index into NF4_LEVELS per entry plus
    per-block absmax scales over the row-major entries."""

    codes: np.ndarray    # uint8, rows x cols
    scales: np.ndarray   # float64, one per block
    block_size: int

    def __post_init__(self):
        if self.block_size < 1 or self.scales.size != math.ceil(
                self.codes.size / self.block_size):
            raise ValueError(
                f"{self.scales.size} scales do not match {self.codes.size} "
                f"entries in blocks of {self.block_size}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes.shape


def quantize(m: np.ndarray, cfg: QuantConfig = QuantConfig()) -> QuantizedMatrix:
    """Block-wise nearest-level quantization with absmax scaling.

    Each entry is divided by its block's absmax and coded as the nearer of
    the two levels that bracket it. Ties between two equally near levels
    resolve toward the smaller index, bit for bit as an argmin over all
    levels would. A block of zeros gets scale 0 and zero-level codes.
    """
    m = as_matrix(m)
    flat = m.ravel()
    bs = cfg.block_size
    nblocks = math.ceil(flat.size / bs)
    # Whole blocks are a view of the input; a ragged last block is zero-padded
    # into a copy, which keeps its absmax. A matrix under one block is that block.
    width = min(bs, flat.size)
    pad = nblocks * width - flat.size
    blocks = (np.pad(flat, (0, pad)) if pad else flat).reshape(nblocks, width)
    scales = np.abs(blocks).max(axis=1, initial=0.0)
    # A zero block divides by 1, which maps it onto the zero level.
    x = blocks / np.where(scales == 0.0, 1.0, scales)[:, None]
    # x lies in [-1, 1], so levels[lo] <= x <= levels[lo + 1] once lo
    # counts the inner levels at or below x; 14 vectorized comparisons
    # beat a binary search (np.searchsorted) about fivefold here.
    lo = np.zeros(x.shape, dtype=np.uint8)
    for level in NF4_LEVELS[1:-1]:
        lo += x >= level
    # Any level outside the bracket is farther by at least one level gap,
    # so the strict comparison reproduces argmin's tie rule exactly.
    # Comparing x with precomputed midpoints would not. The bracket fixes
    # both distances' signs, and fl(a - x) = -fl(x - a), so no abs is needed.
    codes = lo + (NF4_LEVELS[lo + 1] - x < x - NF4_LEVELS[lo])
    return QuantizedMatrix(codes.ravel()[:flat.size].reshape(m.shape), scales, bs)


def _entry_scales(q: QuantizedMatrix) -> np.ndarray:
    """Each entry's block scale, in one float per entry, rows x cols.

    Whole blocks are repeated, so at most one block past the last entry is
    formed, and none when one block holds the matrix, however large the
    block size (a PSQ4 header may claim one far larger than the matrix).
    """
    size = q.codes.size
    return np.repeat(q.scales, min(q.block_size, size))[:size].reshape(q.shape)


def dequantize(q: QuantizedMatrix) -> np.ndarray:
    """Map codes back through the codebook and per-block scales."""
    return NF4_LEVELS[q.codes] * _entry_scales(q)


def quantization_error_bound(q: QuantizedMatrix) -> np.ndarray:
    """Per-entry bound on |m - dequantize(quantize(m))|: block scale times
    half the widest level gap, rounded up by one ulp of the scale.

    The ulp covers floating point: dividing an entry by its scale and
    multiplying its level back by it each move the result by at most half
    an ulp of the scale, since the scaled entry and the level lie in [-1, 1].
    """
    scales = _entry_scales(q)
    return scales * (np.max(np.diff(NF4_LEVELS)) / 2.0) + np.spacing(scales)


def qlora_error(w: np.ndarray, cfg: QuantConfig = QuantConfig()) -> float:
    """Nuclear norm of the direct-quantization error matrix."""
    return nuclear_norm(w - dequantize(quantize(w, cfg)))


def qlora_init(w: np.ndarray, r: int, rng: RandomSource,
               cfg: QuantConfig = QuantConfig()):
    """Quantize the base directly; Gaussian A, zero B (the zero-adapter baseline)."""
    w = as_matrix(w)
    _check_rank(w, r)
    return adapter.DecomposedLayer(base=quantize(w, cfg),
                                   adapter=adapter._gaussian_zero(w.shape, r, rng),
                                   origin="qlora")


def _alternating_init(w: np.ndarray, r: int, T: int, cfg: QuantConfig,
                      quantize_first: bool, origin: str):
    """T rounds each of fitting (A, B) to w minus the dequantized base and of
    quantizing w - AB into the base. quantize_first (LoftQ) starts by
    quantizing w and ends on a fit; otherwise (QPiSSA) the first fit is to w.
    """
    w = as_matrix(w)
    _check_rank(w, r)
    if T < 1:
        raise ValueError("T must be >= 1")
    base = quantize(w, cfg) if quantize_first else None
    for t in range(T):
        target = w if base is None else w - dequantize(base)
        pair = adapter._split(leading_svd(target, r), 0, r)
        if quantize_first and t == T - 1:
            break
        base = quantize(w - pair.a @ pair.b, cfg)
    return adapter.DecomposedLayer(base=base, adapter=pair, origin=origin)


def qpissa_init(w: np.ndarray, r: int, T: int = 1,
                cfg: QuantConfig = QuantConfig()):
    """Principal-component adapter with a quantized residual base.

    T = 1 takes the principal factors of w and quantizes w - AB. Further
    iterations alternate: refit (A, B) from the SVD of w minus the
    dequantized base, then re-quantize w - AB.
    """
    return _alternating_init(w, r, T, cfg, quantize_first=False, origin="qpissa")


def loftq_init(w: np.ndarray, r: int, T: int = 1,
               cfg: QuantConfig = QuantConfig()):
    """Alternating quantization / error-matrix SVD initialization.

    Starts from the directly quantized base and fits the adapter to the
    quantization error; further iterations re-quantize w - AB before
    refitting.
    """
    return _alternating_init(w, r, T, cfg, quantize_first=True, origin="loftq")


# ((digest of w, shape, cfg), qlora_error) of the last matrix a ratio was
# taken on. Reports on the variants of one matrix come in a row, so one
# entry serves them all; the digest costs about a tenth of the baseline.
_baseline_memo: tuple = (None, 0.0)


def _baseline_error(w: np.ndarray, cfg: QuantConfig) -> float:
    """qlora_error(w, cfg), computed once for consecutive calls on one matrix."""
    global _baseline_memo
    data = np.ascontiguousarray(as_matrix(w))
    key = (hashlib.blake2b(data, digest_size=16).digest(), data.shape, cfg)
    if _baseline_memo[0] != key:
        _baseline_memo = (key, qlora_error(w, cfg))
    return _baseline_memo[1]


@dataclass
class QuantReport:
    """Error summary for one quantized initialization."""

    nuclear_error: float
    frobenius_error: float
    reduction_ratio_percent: float


def quant_report(w: np.ndarray, layer, cfg: QuantConfig = QuantConfig()) -> QuantReport:
    """Nuclear and Frobenius norms of w minus the merged layer, and the
    percent drop in nuclear error against quantizing w directly (exactly 0
    for the zero-adapter baseline). A w that quantizes without error, such
    as a zero matrix, has no ratio: ZeroDivisionError. A w of another shape
    than the layer's: ShapeError. A quantized base of another block size
    than cfg's, whose baseline would come from another quantizer: ValueError."""
    w = adapter._layer_matrix(w, layer)
    base = layer.base
    if isinstance(base, QuantizedMatrix) and base.block_size != cfg.block_size:
        raise ValueError(f"layer quantized at block size {base.block_size}, "
                         f"baseline at block size {cfg.block_size}")
    err_matrix = w - adapter.merge(layer)
    nuclear, frobenius = nuclear_norm(err_matrix), frobenius_norm(err_matrix)
    baseline = _baseline_error(w, cfg)
    if baseline == 0.0:
        raise ZeroDivisionError("direct quantization error is zero; ratio undefined")
    return QuantReport(nuclear, frobenius, (1.0 - nuclear / baseline) * 100.0)


def error_reduction_ratio(w: np.ndarray, layer, cfg: QuantConfig = QuantConfig()) -> float:
    """quant_report's reduction_ratio_percent; ZeroDivisionError for a w
    that quantizes without error, such as a zero matrix."""
    return quant_report(w, layer, cfg).reduction_ratio_percent


_DOF_GRID = tuple(range(1, 31)) + (math.inf,)


def distribution_diagnostics(m: np.ndarray) -> tuple[float, float]:
    """Fit the entry distribution: (sample std, best Student-t dof).

    The dof is chosen by profile likelihood over a fixed grid with the scale
    matched to the sample variance (falling back to the raw std where the
    t variance is undefined). A constant matrix reports std 0 and the grid
    maximum (infinity, i.e. Gaussian).
    """
    x = as_matrix(m).ravel()
    if x.size < 2:
        raise ValueError("need at least 2 entries")
    std = float(np.std(x, ddof=1))
    if std == 0.0:
        return 0.0, math.inf
    centered = x - np.mean(x)
    best_dof, best_ll = math.inf, -math.inf
    for dof in _DOF_GRID:
        ll = _log_likelihood(centered, std, dof)
        if ll > best_ll:
            best_ll, best_dof = ll, dof
    return std, float(best_dof)


def _log_likelihood(centered: np.ndarray, std: float, dof: float) -> float:
    """Summed zero-mean Student-t log-density (Gaussian at dof infinity)."""
    scale = std * math.sqrt((dof - 2) / dof) if 2 < dof < math.inf else std
    z2 = (centered / scale) ** 2
    if dof == math.inf:
        return float(np.sum(-z2 / 2 - math.log(math.sqrt(2 * math.pi)) - math.log(scale)))
    c = (math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)
         - 0.5 * math.log(dof * math.pi) - math.log(scale))
    return float(np.sum(c - (dof + 1) / 2 * np.log1p(z2 / dof)))

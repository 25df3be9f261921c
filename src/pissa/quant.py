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
    """Block-quantized matrix: one index into NF4_LEVELS per entry and one
    absmax scale per block. Entry i of the row-major matrix lies in block
    i // block_size, so only the last block may be short."""

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


def _switch_point(a: float, b: float) -> float:
    """The smallest float x in [a, b] that quantize codes up, the one where
    b - x < x - a first holds in float64; the search starts at the rounded
    midpoint, within one ulp of it."""
    x = (a + b) / 2
    while b - x < x - a:
        x = math.nextafter(x, a)
    while not b - x < x - a:
        x = math.nextafter(x, b)
    return x


# fl(b - x) never rises and fl(x - a) never falls as x grows, so the strict
# nearest-level test b - x < x - a for a gap [a, b] switches from false to
# true exactly once, at its switch point. A scaled entry x in [-1, 1] then
# codes as the number of switch points at or below it, bit for bit as an
# argmin over all levels with ties toward the smaller index would. The
# rounded midpoints are not these points: 12 of the 15 lie one ulp off.
_SWITCH_POINTS = tuple(_switch_point(a, b)
                       for a, b in zip(NF4_LEVELS[:-1].tolist(), NF4_LEVELS[1:].tolist()))

# quantize codes whole blocks this many entries at a time, so each chunk's
# temporaries stay in cache (chunks of 4096 blocks of 64 ran slower).
_CHUNK_ENTRIES = 65536


def _code_blocks(blocks: np.ndarray, codes: np.ndarray, scales: np.ndarray) -> None:
    """Writes the absmax of each row of blocks into scales and the rows'
    codes into codes, of blocks' shape."""
    np.abs(blocks).max(axis=1, initial=0.0, out=scales)
    # A zero block divides by 1, which maps it onto the zero level.
    x = blocks / np.where(scales == 0.0, 1.0, scales)[:, None]
    codes[...] = 0
    for point in _SWITCH_POINTS:
        codes += x >= point


def quantize(m: np.ndarray, cfg: QuantConfig = QuantConfig()) -> QuantizedMatrix:
    """Block-wise nearest-level quantization with absmax scaling.

    Each entry is divided by its block's absmax and coded as the nearest
    level. Ties between two equally near levels resolve toward the smaller
    index, bit for bit as an argmin over all levels would. A block of zeros
    gets scale 0 and zero-level codes. Whole blocks are coded in chunks of
    about _CHUNK_ENTRIES entries, so no temporary is as large as m.
    """
    m = as_matrix(m)
    flat = m.ravel()
    bs = cfg.block_size
    whole = flat.size // bs
    codes = np.empty(flat.size, dtype=np.uint8)
    scales = np.empty(math.ceil(flat.size / bs))
    step = max(1, _CHUNK_ENTRIES // bs)
    for start in range(0, whole, step):
        stop = min(start + step, whole)
        span = slice(start * bs, stop * bs)
        _code_blocks(flat[span].reshape(-1, bs), codes[span].reshape(-1, bs),
                     scales[start:stop])
    if whole < scales.size:
        _code_blocks(flat[whole * bs:][None], codes[whole * bs:][None], scales[whole:])
    return QuantizedMatrix(codes.reshape(m.shape), scales, bs)


def dequantize(q: QuantizedMatrix) -> np.ndarray:
    """Map codes back through the codebook, scaling the levels in place by
    their blocks' scales."""
    # Row-major, whatever the layout of codes, so that the blocks are views.
    # np.take gathers the same bits as NF4_LEVELS[codes] in about half the time.
    flat = np.take(NF4_LEVELS, q.codes.ravel())
    whole = flat.size // q.block_size
    blocks = flat[:whole * q.block_size].reshape(whole, q.block_size)
    blocks *= q.scales[:whole, None]
    flat[whole * q.block_size:] *= q.scales[whole:]
    return flat.reshape(q.shape)


def quantization_error_bound(q: QuantizedMatrix) -> np.ndarray:
    """Per-entry bound on |m - dequantize(quantize(m))|: block scale times
    half the widest level gap, rounded up by one ulp of the scale.

    The ulp covers floating point: dividing an entry by its scale and
    multiplying its level back by it each move the result by at most half
    an ulp of the scale, since the scaled entry and the level lie in [-1, 1].
    """
    # Each entry's block scale, bit for bit: the top level is exactly 1.0.
    scales = dequantize(QuantizedMatrix(np.full(q.shape, NF4_LEVELS.size - 1, np.uint8),
                                        q.scales, q.block_size))
    return scales * (np.max(np.diff(NF4_LEVELS)) / 2.0) + np.spacing(scales)


def _direct_error(w: np.ndarray, cfg: QuantConfig) -> np.ndarray:
    """The direct-quantization error matrix w - dequantize(quantize(w))."""
    return w - dequantize(quantize(w, cfg))


def qlora_error(w: np.ndarray, cfg: QuantConfig = QuantConfig()) -> float:
    """Nuclear norm of the direct-quantization error matrix."""
    return nuclear_norm(_direct_error(w, cfg))


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


def _baseline_error(w: np.ndarray, cfg: QuantConfig, err_matrix: np.ndarray,
                    nuclear: float) -> float:
    """qlora_error(w, cfg) for the matrix w that quant_report has
    validated, computed once for consecutive calls on one matrix: nuclear,
    the nuclear norm of the report's error matrix, when that matrix holds
    the bits of the direct-quantization error (a zero-adapter layer's does)."""
    global _baseline_memo
    data = np.ascontiguousarray(w)
    key = (hashlib.sha256(data).digest(), data.shape, cfg)
    if _baseline_memo[0] != key:
        direct = _direct_error(w, cfg)
        # Compared as integers, bit for bit: as floats -0.0 would equal 0.0.
        same = np.array_equal(direct.view(np.int64), err_matrix.view(np.int64))
        _baseline_memo = (key, nuclear if same else nuclear_norm(direct))
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
    baseline = _baseline_error(w, cfg, err_matrix, nuclear)
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

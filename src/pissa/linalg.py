"""Dense matrix kernels: norms, thin QR, exact, leading and randomized SVD.

All routines operate on 2-D float64 numpy arrays ("matrices") and are pure
functions of their inputs. The exact SVD is the accuracy reference for the
rest of the package; the leading SVD gives its top r triplets from the
Gram eigenproblem without a full SVD; the randomized SVD trades accuracy
for speed via a Gaussian block Krylov range finder.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

PRNG_NAME = "pcg64-v1"


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy contract."""


def as_matrix(data) -> np.ndarray:
    """Validate and convert input to a 2-D float64 matrix.

    Rejects non-2-D shapes and any NaN/Inf entry.
    """
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


@dataclass(frozen=True)
class RandomSource:
    """Deterministic stream of standard-normal samples.

    Identical seeds yield bit-identical streams. The underlying generator
    (numpy PCG64) is named by ``PRNG_NAME`` so reports can record it.
    """

    seed: int

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape) -> np.ndarray:
        return self.generator().standard_normal(shape)

    def spawn(self, index: int) -> "RandomSource":
        """Derive an independent child stream (splitmix64 of seed + index)."""
        return RandomSource(_splitmix64((self.seed + index) & 0xFFFFFFFFFFFFFFFF))


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


@dataclass
class SvdFactors:
    """Economy SVD triple: u (m x k), s (k,) descending, v (n x k)."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return self.s.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T

    def truncate(self, r: int) -> "SvdFactors":
        return SvdFactors(self.u[:, :r].copy(), self.s[:r].copy(), self.v[:, :r].copy())


def _pow2_scaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """(m / 2^e, e) for the exponent e of max|m|, so that every entry of the
    scaled matrix lies in (-1, 1) and its sums of squares neither overflow
    nor underflow. The scale only moves exponents: norms of the scaled
    matrix times 2^e keep their bits."""
    e = math.frexp(float(np.max(np.abs(m), initial=0.0)))[1]
    return np.ldexp(m, -e), e


def frobenius_norm(m: np.ndarray) -> float:
    """sqrt of the sum of squares. When that sum overflows (entries above
    about 1e154) or underflows (below about 1e-162) it is taken again on
    the _pow2_scaled matrix."""
    with np.errstate(over="ignore"):  # an overflow is caught and redone below
        total = np.sum(np.square(m))
    if np.isinf(total) or total < np.finfo(np.float64).tiny:
        scaled, e = _pow2_scaled(m)
        return float(np.ldexp(np.sqrt(np.sum(np.square(scaled))), e))
    return float(np.sqrt(total))


# The reconstruction contract: a factorization (or split) of ref is exact
# when relative_error(its residual, ref) <= TOLERANCE.
TOLERANCE = 1e-10


def relative_error(diff: np.ndarray, ref: np.ndarray) -> float:
    """||diff||_F / ||ref||_F, the same at every scale of ref; ||diff||_F
    at ref = 0."""
    d, r = frobenius_norm(diff), frobenius_norm(ref)
    return d / r if r else d


def _check_rank(w: np.ndarray, r: int) -> None:
    if not 1 <= r <= min(w.shape):
        raise ValueError(f"rank {r} out of range for matrix of shape {w.shape}")


def _fix_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Force the largest-magnitude entry of each u column non-negative;
    # propagate the flip to v so the product is unchanged. The flip is in
    # place (callers pass arrays they own): a second copy of exact_svd's
    # factors, and of its residual below, left 8 MB heap holes at 1024^2
    # that lifted peak RSS by 16 MB.
    if u.shape[1] == 0:
        return u, v
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    u *= signs
    v *= signs
    return u, v


def _signed_factors(w: np.ndarray, u, s, vt) -> tuple[SvdFactors, float]:
    # Factors in the sign convention plus their relative reconstruction residual.
    u, v = _fix_signs(u, vt.T)
    factors = SvdFactors(u, s, v)
    resid = factors.reconstruct()
    resid -= w
    return factors, relative_error(resid, w)


def exact_svd(w: np.ndarray) -> SvdFactors:
    """Economy SVD with descending singular values and a fixed sign convention.

    numpy's gesdd runs first; when it fails or misses the contract (as on
    some near-degenerate spectra), LAPACK dgesvd runs once (_gesvd). The
    reconstruction residual's relative_error is within TOLERANCE (1e-10);
    a miss raises NumericalError with the achieved residual.
    """
    w = as_matrix(w)
    try:
        factors, resid = _signed_factors(w, *np.linalg.svd(w, full_matrices=False))
    except np.linalg.LinAlgError:
        resid = np.inf
    # Written as "not <=", so that a NaN residual misses the contract too.
    if not resid <= TOLERANCE:
        factors, resid = _signed_factors(w, *_gesvd(w))
        if not resid <= TOLERANCE:
            raise NumericalError(
                f"SVD reconstruction residual {resid:.3e} exceeds {TOLERANCE:g}")
    return factors


def _bind(name: str, *argtypes):
    """LAPACKE name (int64 integers) from numpy's OpenBLAS, or None if absent."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    fn = (getattr(lib, f"scipy_LAPACKE_{name}64_", None)
          or getattr(lib, f"LAPACKE_{name}64_", None))
    if fn is not None:
        fn.restype, fn.argtypes = ctypes.c_int64, argtypes
    return fn


_I64, _PTR, _DBL, _CHAR = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double, ctypes.c_char
# layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz
_DSYEVR = _bind("dsyevr", ctypes.c_int, _CHAR, _CHAR, _CHAR, _I64, _PTR, _I64, _DBL,
                _DBL, _I64, _I64, _DBL, ctypes.POINTER(_I64), _PTR, _PTR, _I64, _PTR)
# layout, jobu, jobvt, m, n, a, lda, s, u, ldu, vt, ldvt, superb
_DGESVD = _bind("dgesvd", ctypes.c_int, _CHAR, _CHAR, _I64, _I64, _PTR, _I64, _PTR,
                _PTR, _I64, _PTR, _I64, _PTR)


def _gesvd(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy (u, s, vt) from LAPACK dgesvd; NumericalError if it fails or is unbound."""
    if _DGESVD is None:
        raise NumericalError("SVD retry needs LAPACK dgesvd, not bound in numpy's LAPACK")
    (m, n), k = w.shape, min(w.shape)
    a, s, u, vt = np.array(w, order="C"), np.empty(k), np.empty((m, k)), np.empty((k, n))
    superb = np.empty(max(1, k - 1))
    info = _DGESVD(101, b"S", b"S", m, n, a.ctypes.data, n, s.ctypes.data,
                   u.ctypes.data, k, vt.ctypes.data, n, superb.ctypes.data)
    if info != 0:
        raise NumericalError(f"SVD did not converge: dgesvd info {info}")
    return u, s, vt


def _eigh_range(g: np.ndarray, il: int, iu: int, vectors: bool):
    """Eigenvalues il..iu (1-based, ascending) of the symmetric matrix g from
    LAPACK dsyevr and, with vectors, their eigenvectors as the rows of an
    (iu - il + 1) x n array; None when dsyevr is not bound or fails.

    Overwrites g. IL = 1, IU = n takes dsyevr's all-eigenvalues path.
    """
    if _DSYEVR is None:
        return None
    n = g.shape[0]
    found, values = ctypes.c_int64(), np.empty(n)
    # z is the n x count column-major eigenvector block; without vectors
    # dsyevr does not reference it.
    z = np.empty((iu - il + 1, n) if vectors else 1)
    support = np.empty(2 * n, np.int64)
    # g is symmetric, so its C-order buffer is also its column-major one.
    info = _DSYEVR(102, b"V" if vectors else b"N", b"I", b"L", n, g.ctypes.data,
                   n, 0.0, 0.0, il, iu, 0.0, found, values.ctypes.data,
                   z.ctypes.data, n, support.ctypes.data)
    if info != 0 or found.value != iu - il + 1:
        return None
    return values[:found.value], z


def _gram(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(t / 2^e, its Gram matrix, e) for the tall matrix t. The Gram product
    overflows or underflows past about 2^+-500, so e is _pow2_scaled's
    exponent when max|t| lies outside [2^-400, 2^400], and 0 otherwise."""
    e = 0
    if not 2.0**-400 <= max(np.max(t, initial=0.0), -np.min(t, initial=0.0)) <= 2.0**400:
        t, e = _pow2_scaled(t)
    return t, t.T @ t, e


def _gram_basis(t: np.ndarray, r: int) -> np.ndarray | None:
    """Eigenvectors of t^T t for its r largest eigenvalues, largest first,
    from LAPACK dsyevr, which computes only those r; None when dsyevr is not
    bound or fails."""
    n = t.shape[1]
    eig = _eigh_range(_gram(t)[1], n - r + 1, n, vectors=True)
    return None if eig is None else eig[1][::-1].T


# The bound nuclear_norm keeps on the error estimate of the roots it sums
# from the Gram spectrum, relative to their sum. A report's LoftQ ratio
# moves about five times its nuclear error, so ratios stay within 1e-13.
_GRAM_RTOL = 2e-14


def _gram_nuclear(t: np.ndarray) -> float | None:
    """Nuclear norm of the tall matrix t from its Gram spectrum, or None
    when nuclear_norm must take the full SVD instead."""
    t, gram, e = _gram(t)
    n = t.shape[1]
    # dsyevr overwrites its input; gram is kept for the eigenvectors below.
    eig = _eigh_range(gram.copy(), 1, n, vectors=False) if n else None
    if eig is None:
        return None
    lam = eig[0]
    eps_top = np.finfo(np.float64).eps * lam[-1]
    k = int(np.count_nonzero(lam <= n * eps_top))
    roots = np.sqrt(lam[k:])
    # Error estimates of the roots' sums from each root up, smallest root first.
    tail = np.cumsum((eps_top / (2.0 * roots))[::-1])[::-1]
    j = int(np.count_nonzero(tail > _GRAM_RTOL * np.sum(roots)))
    k += j
    if k > n // 8:
        return None
    total = float(np.sum(roots[j:]))
    if k:
        low = _eigh_range(gram, 1, k, vectors=True)
        if low is None:
            return None
        total += float(np.sum(np.linalg.svd(t @ low[1].T, compute_uv=False)))
    return float(np.ldexp(total, e))


def nuclear_norm(m: np.ndarray) -> float:
    """Sum of singular values (trace norm): within 1e-12 relative of
    np.sum(np.linalg.svd(m, compute_uv=False)), the sum it returns when the
    fast path does not apply. A zero matrix gives exactly 0.0.

    The fast path takes the eigenvalues lambda of the Gram matrix of m's
    shorter side (_gram). The root of lambda_i is off by up to eps *
    lambda_max / (2 sqrt(lambda_i)), its error estimate. The k smallest
    eigenvalues are resolved instead by the SVD of m times their k
    eigenvectors: those at or below n * eps * lambda_max, which hold no
    digits (an exact rank-deficient fit, such as LoftQ's last step, leaves
    such zeros), and then as many more as it takes to bring the estimate of
    the summed roots within 2e-14 of their sum. The full SVD runs when k >
    n / 8, or when dsyevr is not bound or fails. No u or v of m is formed,
    so exact_svd's reconstruction check does not apply.
    """
    m = as_matrix(m)
    total = _gram_nuclear(m.T if m.shape[0] < m.shape[1] else m)
    if total is None:
        return float(np.sum(np.linalg.svd(m, compute_uv=False)))
    return total


# _cholesky_qr2's bounds. CholeskyQR2 is proven stable for cond(p) up to
# about eps^-1/2 (6.7e7); the spread of the Cholesky factor's diagonal is a
# lower bound on cond(p), so a wider spread gives up, as does a q with
# max |q^T q - I| above 1e-14 (measured within 1e-15 up to 2048 x 80).
_COND_MAX = np.finfo(np.float64).eps ** -0.5
_ORTH_TOL = 1e-14


def _cholesky_qr2(p: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Thin QR of the tall matrix p by CholeskyQR2: the Gram matrix, its
    Cholesky factor R and p R^-1, all taken twice, as BLAS-3 products
    (Fukaya, Nakatsukasa, Yanagisawa and Yamamoto, ScalA 2014). p is scaled
    as _gram scales it. (q, r) with p = q r up to rounding, or None when a
    Cholesky factorization fails or misses _COND_MAX (as for a rank-deficient
    p), or q misses _ORTH_TOL."""
    q, gram, e = _gram(p)
    r = np.ldexp(np.eye(p.shape[1]), e)
    try:
        for _ in range(2):
            low = np.linalg.cholesky(gram)
            diag = np.diagonal(low)
            # NaN (from an overflowed Gram matrix) fails the comparisons, too.
            if not diag.max() <= _COND_MAX * diag.min():
                return None
            q, r = q @ np.linalg.inv(low).T, low.T @ r
            gram = q.T @ q
    except np.linalg.LinAlgError:
        return None
    gram[np.diag_indices_from(gram)] -= 1.0
    return (q, r) if np.max(np.abs(gram)) <= _ORTH_TOL else None


def _ritz(p: np.ndarray, basis: np.ndarray, swap: bool) -> SvdFactors:
    """Rayleigh-Ritz step: w's signed triplets within span(basis), from the
    thin product p = w @ basis, or p = w^T @ basis (swap) when the basis
    spans w's column space. p's SVD is taken as the exact SVD of the small
    factor r of its CholeskyQR2 p = q r, with q mapping the left vectors
    back, or as exact_svd(p) when _cholesky_qr2 gives up. The signs are
    fixed once, on w's u."""
    q, r = _cholesky_qr2(p) or (None, p)
    small = exact_svd(r)
    u, v = (small.u if q is None else q @ small.u), basis @ small.v
    if swap:
        u, v = v, u
    u, v = _fix_signs(u, v)
    return SvdFactors(u, small.s, v)


def leading_svd(w: np.ndarray, r: int) -> SvdFactors:
    """Top r singular triplets: exact_svd(w).truncate(r) up to rounding.

    The basis comes from the top r eigenvectors of the Gram matrix of w's
    shorter side (_gram_basis), and one Rayleigh-Ritz step on the tall
    r-column product (_ritz) turns it into singular triplets, so no full
    m x n SVD is taken. The one fallback, exact_svd(w).truncate(r), runs
    when dsyevr is unbound or fails or the residual that the Ritz step does
    not zero for any basis, w^T u - v s (tall or square w) or w v - u s
    (wide w), has a relative_error above TOLERANCE.
    """
    w = as_matrix(w)
    _check_rank(w, r)
    wide = w.shape[0] < w.shape[1]
    basis = _gram_basis(w.T if wide else w, r)
    # w^T @ basis and w^T @ u are taken as (basis^T w)^T and (u^T w)^T: with
    # w^T on the left OpenBLAS ran these products up to 3x slower.
    f = None if basis is None else _ritz((basis.T @ w).T if wide else w @ basis,
                                         basis, swap=wide)
    if f is None or not relative_error(w @ f.v - f.u * f.s if wide
                                       else (f.u.T @ w).T - f.v * f.s, w) <= TOLERANCE:
        return exact_svd(w).truncate(r)
    return f


def qr_thin(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR via LAPACK's Householder geqrf; requires rows >= cols.

    Each reflected column gets r_jj = -sign(x_0) * ||x||. A column already
    zero below the diagonal (the last column of a square input, or an
    exactly-zero column) is left unreflected, so its r_jj keeps its sign
    and a zero column leaves a zero on the diagonal of r.
    """
    m = as_matrix(m)
    if m.shape[0] < m.shape[1]:
        raise ShapeError(f"qr_thin needs rows >= cols, got {m.shape}")
    return np.linalg.qr(m, mode="reduced")


def randomized_svd(w: np.ndarray, r: int, niter: int,
                   rng: RandomSource) -> SvdFactors:
    """Truncated rank-r SVD from a Gaussian block Krylov range finder.

    The basis spans W Omega, (W W^T) W Omega, ..., (W W^T)^q W Omega for a
    Gaussian n x r Omega and the Krylov depth q = ``niter``, in 2q + 2
    passes over w with a block of columns each. Block width r: at rank 16
    and niter 4 at 1024^2 on 2 vCPUs, r took 25 ms and r + 2 (more
    accurate) 30 ms, as long as subspace iteration with 10 extra columns
    (30 ms). Each new block, w (w^T Q) for the last block Q, is projected
    twice off the earlier blocks, QR'd and projected once more. Deflation
    drops a column that the two projections shrink below 1e-10 of its norm
    (w has exact rank); no block follows once none survives or the basis
    has min(m, n) columns (the last block cut to fit), where the Ritz step
    (leading_svd's; no fallback of its own here) is the exact SVD. The
    Ritz step's product w^T basis is the blocks' Q^T w, which the passes
    take anyway. Deterministic given ``rng``.
    """
    w = as_matrix(w)
    _check_rank(w, r)
    if niter < 0:
        raise ValueError("niter must be non-negative")
    # One buffer for all blocks: a new, wider array per block left heap holes
    # that lifted peak RSS by 8 MB in a 1024^2 run. Row block j of rows is
    # block j's q^T w: the next pass starts from it, and together the rows
    # are the Ritz step's product, so that step takes no pass of its own.
    width = min(*w.shape, r * (niter + 1))
    basis, rows = np.empty((w.shape[0], width)), np.empty((width, w.shape[1]))
    q, _ = qr_thin(w @ rng.normal((w.shape[1], r)))
    basis[:, :r], k = q, r
    for depth in range(niter + 1):
        rows[k - q.shape[1]:k] = qtw = q.T @ w
        if depth == niter:
            break
        # w (w^T q), taken as ((q^T w) w^T)^T: with w^T on the left OpenBLAS
        # ran this pass 2x slower (2048^2, 16 columns, 2 vCPUs). It is of
        # order |w|^2, so both factors are _pow2_scaled; that moves only
        # exponents, and no column norm overflows or underflows to 0.
        z = _pow2_scaled((_pow2_scaled(qtw)[0] @ w.T).T)[0]
        before = np.linalg.norm(z, axis=0)
        done = basis[:, :k]
        for _ in range(2):
            z -= done @ (done.T @ z)
        # Deflate, then cut to the columns left: a full basis ends the loop too.
        z = z[:, np.linalg.norm(z, axis=0) > 1e-10 * before][:, :width - k]
        if not z.shape[1]:
            break
        q, _ = qr_thin(z)
        q -= done @ (done.T @ q)
        basis[:, k:k + q.shape[1]] = q
        k += q.shape[1]
    return _ritz(rows[:k].T, basis[:, :k], swap=True).truncate(r)

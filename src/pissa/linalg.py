"""Dense matrix kernels: norms, thin QR, exact, leading and randomized SVD.

All routines operate on 2-D float64 numpy arrays ("matrices") and are pure
functions of their inputs. The exact SVD is the accuracy reference for the
rest of the package; the leading SVD gives its top r triplets without a
full SVD, from a block Krylov basis where sigma_r has a gap and from the
Gram eigenproblem otherwise; the randomized SVD trades accuracy for speed
via the same Gaussian block Krylov range finder at a depth it is given.
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


# _pow2_scaled leaves a matrix alone within 2^+-100 of 1: there every product
# the kernels take stays in range, Gram matrices within 2^-485 to 2^255.5,
# where dstemr would not rescale (dsytrd and dsterf never do), and gesdd
# runs unscaled (it rescales entries outside about 2^+-459).
_POW2_WINDOW = 100


def _pow2_scaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """(m, 0) when the exponent e of max|m| has |e| <= _POW2_WINDOW, else
    (m / 2^e, e). Results of m / 2^e times 2^e keep the bits of m's own
    results, except where an entry of m / 2^e turns subnormal."""
    e = math.frexp(max(np.max(m, initial=0.0), -np.min(m, initial=0.0)))[1]
    return (m, 0) if abs(e) <= _POW2_WINDOW else (np.ldexp(m, -e), e)


def _unscaled(x, e: int):
    """x * 2^e; NumericalError when that overflows float64."""
    with np.errstate(over="ignore"):  # an overflow is raised below
        x = np.ldexp(x, e)
    if not np.isfinite(x).all():
        raise NumericalError(f"result overflows float64 at scale 2^{e}")
    return x


def frobenius_norm(m: np.ndarray) -> float:
    """sqrt of the sum of squares of the _pow2_scaled matrix, times its
    scale, so that the sum neither overflows nor underflows."""
    scaled, e = _pow2_scaled(m)
    return float(np.ldexp(np.sqrt(np.sum(np.square(scaled))), e))


# The reconstruction contract: a factorization (or split) of ref is exact
# when relative_error(its residual, ref) <= TOLERANCE.
TOLERANCE = 1e-10


def relative_error(diff: np.ndarray, ref: np.ndarray) -> float:
    """||diff||_F / ||ref||_F, the same at every scale of ref; ||diff||_F
    at ref = 0. Both are divided by ref's _pow2_scaled power of two, so
    the ratio stays finite where ||ref||_F overflows."""
    ref, e = _pow2_scaled(ref)
    d, r = frobenius_norm(np.ldexp(diff, -e) if e else diff), frobenius_norm(ref)
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

    LAPACK dgesdd runs first (_gesdd, np.linalg.svd's bits with u and v
    in the column-major layout it writes); when it fails or misses the
    contract (as on some near-degenerate spectra), LAPACK dgesvd runs once
    (_gesvd). The reconstruction residual's relative_error is within
    TOLERANCE (1e-10); a miss raises NumericalError with the achieved
    residual.
    """
    w, e = _pow2_scaled(as_matrix(w))
    try:
        factors, resid = _signed_factors(w, *_gesdd(w, "S"))
    except np.linalg.LinAlgError:
        resid = np.inf
    # Written as "not <=", so that a NaN residual misses the contract too.
    if not resid <= TOLERANCE:
        factors, resid = _signed_factors(w, *_gesvd(w))
        if not resid <= TOLERANCE:
            raise NumericalError(
                f"SVD reconstruction residual {resid:.3e} exceeds {TOLERANCE:g}")
    factors.s = _unscaled(factors.s, e)
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
_I64P = ctypes.POINTER(_I64)
# layout, jobz, m, n, a, lda, s, u, ldu, vt, ldvt
_DGESDD = _bind("dgesdd", ctypes.c_int, _CHAR, _I64, _I64, _PTR, _I64, _PTR, _PTR, _I64,
                _PTR, _I64)
# layout, jobu, jobvt, m, n, a, lda, s, u, ldu, vt, ldvt, superb
_DGESVD = _bind("dgesvd", ctypes.c_int, _CHAR, _CHAR, _I64, _I64, _PTR, _I64, _PTR,
                _PTR, _I64, _PTR, _I64, _PTR)
# The tridiagonal steps of both Gram kernels (_tridiagonal, _eigenvectors).
# layout, uplo, n, a, lda, d, e, tau, work, lwork
_DSYTRD = _bind("dsytrd_work", ctypes.c_int, _CHAR, _I64, _PTR, _I64, _PTR, _PTR, _PTR,
                _PTR, _I64)
# n, d, e
_DSTERF = _bind("dsterf", _I64, _PTR, _PTR)
# layout, jobz, range, n, d, e, vl, vu, il, iu, m, w, z, ldz, nzc, isuppz, tryrac
_DSTEMR = _bind("dstemr", ctypes.c_int, _CHAR, _CHAR, _I64, _PTR, _PTR, _DBL, _DBL, _I64,
                _I64, _I64P, _PTR, _PTR, _I64, _I64, _PTR, _I64P)
# layout, side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork
_DORMTR = _bind("dormtr_work", ctypes.c_int, _CHAR, _CHAR, _CHAR, _I64, _I64, _PTR, _I64,
                _PTR, _PTR, _I64, _PTR, _I64)


def _gesdd(w: np.ndarray, jobz: str):
    """np.linalg.svd(w, full_matrices=False) for jobz "S", and its values
    alone (compute_uv=False) for "N", bit for bit: LAPACK dgesdd on one
    column-major copy of w, with u and vt left in the column-major layout
    it writes (numpy copies both to row-major). LinAlgError when dgesdd
    fails; numpy's own SVD when it is not bound."""
    if _DGESDD is None:
        return np.linalg.svd(w, full_matrices=False, compute_uv=jobz == "S")
    (m, n), k = w.shape, min(w.shape)
    cols = k if jobz == "S" else 0
    u, s, vt = np.empty((m, cols), order="F"), np.empty(k), np.empty((cols, n), order="F")
    if k:
        a = np.array(w, order="F")  # dgesdd overwrites its input
        info = _DGESDD(102, jobz.encode(), m, n, a.ctypes.data, m, s.ctypes.data,
                       u.ctypes.data, m, vt.ctypes.data, k)
        if info:
            raise np.linalg.LinAlgError(f"SVD did not converge: dgesdd info {info}")
    return (u, s, vt) if jobz == "S" else s


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


def _tridiagonal(t: np.ndarray):
    """dsytrd's reduction of the Gram matrix t^T t, as (reduced, d, e, tau,
    work) for _eigenvectors; None when t has no columns, when one of the
    four tridiagonal routines is not bound or when dsytrd fails."""
    n = t.shape[1]
    if not n or None in (_DSYTRD, _DSTERF, _DSTEMR, _DORMTR):
        return None
    # dsyevr's workspace is (nb + 1) n for LAPACK's block size nb = 32; it
    # gives dsytrd all but 5 n of it and dormtr all but 2 n. The same sizes
    # here keep dsyevr's blocking, and so the bits of its all-values and
    # all-vectors calls (dsterf; dstemr and dormtr).
    reduced, work = t.T @ t, np.empty(31 * n)
    # e's last entry is dstemr's workspace, unset by dsytrd; some LAPACKE
    # releases reject a NaN there.
    d, e, tau = np.empty(n), np.zeros(n), np.empty(n)
    # reduced is symmetric, so its C-order buffer is also its column-major one.
    if _DSYTRD(102, b"L", n, reduced.ctypes.data, n, d.ctypes.data, e.ctypes.data,
               tau.ctypes.data, work.ctypes.data, 28 * n):
        return None
    return reduced, d, e, tau, work


def _eigenvectors(tri, il: int, iu: int) -> np.ndarray | None:
    """Eigenvectors of the il-th to iu-th smallest eigenvalues (from 1) of
    the matrix that _tridiagonal reduced to tri, as the rows of an
    (iu - il + 1) x n array, smallest first; None when a step fails. MRRR
    (dstemr; Dhillon, Parlett and Voemel, ACM TOMS 2006) on the tridiagonal
    matrix, then dormtr on the kept reflectors."""
    reduced, d, e, tau, work = tri
    n, k = d.size, iu - il + 1
    d, e = d.copy(), e.copy()  # dstemr overwrites both
    found, values, z = _I64(), np.empty(n), np.empty((k, n))
    support = np.empty(2 * k, np.int64)
    if _DSTEMR(102, b"V", b"I", n, d.ctypes.data, e.ctypes.data, 0.0, 0.0, il, iu, found,
               values.ctypes.data, z.ctypes.data, n, k, support.ctypes.data, _I64(1)) \
            or found.value != k:
        return None
    if _DORMTR(102, b"L", b"L", b"N", n, k, reduced.ctypes.data, n, tau.ctypes.data,
               z.ctypes.data, n, work.ctypes.data, work.size):
        return None
    return z


def _gram_basis(t: np.ndarray, r: int) -> np.ndarray | None:
    """Eigenvectors of t^T t for its r largest eigenvalues, largest first,
    as columns; None when a tridiagonal step is not bound or fails."""
    n, tri = t.shape[1], _tridiagonal(t)
    z = None if tri is None else _eigenvectors(tri, n - r + 1, n)
    return None if z is None else z[::-1].T


# The bound nuclear_norm keeps on the error estimate of the roots it sums
# from the Gram spectrum, relative to their sum. A report's LoftQ ratio
# moves about five times its nuclear error, so ratios stay within 1e-13.
_GRAM_RTOL = 2e-14


def _gram_nuclear(t: np.ndarray) -> float | None:
    """Nuclear norm of the tall matrix t from its Gram spectrum, or None
    when nuclear_norm must take the full SVD instead."""
    tri = _tridiagonal(t)
    if tri is None:
        return None
    # dsterf overwrites its (d, e): dsyevr's all-values path, on copies.
    n, lam, scratch = t.shape[1], tri[1].copy(), tri[2].copy()
    if _DSTERF(n, lam.ctypes.data, scratch.ctypes.data):
        return None
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
        low = _eigenvectors(tri, 1, k)
        if low is None:
            return None
        total += float(np.sum(_gesdd(t @ low.T, "N")))
    return total


def nuclear_norm(m: np.ndarray) -> float:
    """Sum of singular values (trace norm): within 1e-12 relative of
    np.sum(np.linalg.svd(m, compute_uv=False)), the sum it returns, from
    dgesdd's values alone (_gesdd), when the fast path does not apply. A
    zero matrix gives exactly 0.0.

    The fast path takes the eigenvalues lambda of the Gram matrix of m's
    shorter side. The root of lambda_i is off by up to eps *
    lambda_max / (2 sqrt(lambda_i)), its error estimate. The k smallest
    eigenvalues are resolved instead by the SVD of m times their k
    eigenvectors: those at or below n * eps * lambda_max, which hold no
    digits (an exact rank-deficient fit, such as LoftQ's last step, leaves
    such zeros), and then as many more as it takes to bring the estimate of
    the summed roots within 2e-14 of their sum. The full SVD runs when k >
    n / 8, or when a tridiagonal step is not bound or fails. No u or v of
    m is formed, so exact_svd's reconstruction check does not apply.
    """
    m, e = _pow2_scaled(as_matrix(m))
    total = _gram_nuclear(m.T if m.shape[0] < m.shape[1] else m)
    if total is None:
        total = float(np.sum(_gesdd(m, "N")))
    return float(_unscaled(total, e))


# _cholesky_qr2's bounds. CholeskyQR2 is proven stable for cond(p) up to
# about eps^-1/2 (6.7e7); the spread of the Cholesky factor's diagonal is a
# lower bound on cond(p), so a wider spread gives up, as does a q with
# max |q^T q - I| above 1e-14 (measured within 1e-15 up to 2048 x 80).
_COND_MAX = np.finfo(np.float64).eps ** -0.5
_ORTH_TOL = 1e-14


def _cholesky_qr2(p: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Thin QR of the tall matrix p by CholeskyQR2: the Gram matrix, its
    Cholesky factor R and p R^-1, all taken twice, as BLAS-3 products
    (Fukaya, Nakatsukasa, Yanagisawa and Yamamoto, ScalA 2014). (q, r) with
    p = q r up to rounding, or None when a Cholesky factorization fails or
    misses _COND_MAX (as for a rank-deficient p), or q misses _ORTH_TOL."""
    q, gram, r = p, p.T @ p, np.eye(p.shape[1])
    try:
        for _ in range(2):
            low = np.linalg.cholesky(gram)
            diag = np.diagonal(low)
            # A NaN factor fails the comparison, too.
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


def _gram_svd(w: np.ndarray, r: int) -> SvdFactors:
    """leading_svd's Gram path on the scaled w, with its exact_svd fallback,
    which also serves every r within k^2 / (2 max(m, n)) of k = min(m, n)."""
    (m, n), k = w.shape, min(w.shape)
    wide = m < n
    # The measured crossover: past it the full SVD costs less than the Gram
    # path (r/k about 0.5 square, 0.7 at 2:1 and 0.85 at 4:1, on 2 vCPUs).
    past = 2 * (k - r) * max(m, n) < k * k
    basis = None if past else _gram_basis(w.T if wide else w, r)
    # w^T @ basis and w^T @ u are taken as (basis^T w)^T and (u^T w)^T: with
    # w^T on the left OpenBLAS ran these products up to 3x slower.
    f = None if basis is None else _ritz((basis.T @ w).T if wide else w @ basis,
                                         basis, swap=wide)
    if f is None or not relative_error(w @ f.v - f.u * f.s if wide
                                       else (f.u.T @ w).T - f.v * f.s, w) <= TOLERANCE:
        f = exact_svd(w).truncate(r)
    return f


# leading_svd's Krylov path: its depth, give-up share and fixed source.
_KRYLOV_DEPTH, _KRYLOV_GIVE_UP, _KRYLOV_SOURCE = 3, 0.05, RandomSource(12345)


def leading_svd(w: np.ndarray, r: int) -> SvdFactors:
    """Top r singular triplets: exact_svd(w).truncate(r) up to rounding.

    Two paths, neither of which takes a full m x n SVD; each result must
    meet the contract on the residual its Ritz step does not zero for any
    basis, w v - u s for a basis of w's column space and w^T u - v s for
    one of its row space: relative_error(residual, w) <= TOLERANCE.

    The Krylov path runs first, when 4 r < min(m, n), so its basis never
    fills the space: the block Krylov loop (_krylov) at depth 3 from a
    fixed internal RandomSource, then one Rayleigh-Ritz step (_ritz). It
    converges at a rate set by the gap sigma_r / sigma_(r+1), so it gives
    up after depth 1 when a column of the new block keeps more than 0.05
    of its norm after its projections off the basis: about (sigma_(r+1) /
    sigma_r)^2 where a gap exists, a large share where the spectrum runs
    on flat past sigma_r. As the residual cannot see a triplet the basis
    misses, it also gives up unless no triplet outside the basis can
    belong to the top r (the separation test below), which a near tie
    at r never passes. The Gram path runs otherwise: the top r
    eigenvectors of the Gram matrix of w's shorter side (_gram_basis) and
    one Ritz step on the tall r-column product. Its fallback,
    exact_svd(w).truncate(r), runs when a tridiagonal step is unbound or
    fails or it misses the contract, and in its place for r past the
    crossover where the full SVD costs less (_gram_svd).
    """
    w, e = _pow2_scaled(as_matrix(w))
    _check_rank(w, r)
    f = None
    if (_KRYLOV_DEPTH + 1) * r < min(w.shape):
        passes = _krylov(w, _KRYLOV_SOURCE.normal((w.shape[1], r)), _KRYLOV_DEPTH)
        for depth, (basis, rows, before, after) in enumerate(passes):
            if depth == 1 and np.any(after > _KRYLOV_GIVE_UP * before):
                del passes, basis, rows  # the Gram path runs without their buffers
                break
        else:
            f = _ritz(rows.T, basis, swap=True)
            # Weyl: sigma_(r+1)(w) <= theta_(r+1) + ||w - Q Q^T w||_2 for the Ritz
            # values theta, so when that sum stays below theta_r no triplet outside
            # the basis belongs in the top r. The difference is formed, since
            # ||w||^2 - ||Q^T w||^2 cancels to rounding where the basis holds w.
            outside = frobenius_norm(basis @ rows - w)
            theta_next = f.s[r] if f.rank > r else 0.0
            f = f.truncate(r) if (outside <= TOLERANCE * frobenius_norm(w)
                                  or theta_next + outside < f.s[r - 1]) else None
    if f is None or not relative_error(w @ f.v - f.u * f.s, w) <= TOLERANCE:
        f = _gram_svd(w, r)
    f.s = _unscaled(f.s, e)
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
    """Truncated rank-r SVD: every pass of _krylov to depth ``niter`` from
    an n x r Gaussian start block drawn from ``rng``, then the Ritz step
    (_ritz; no fallback of its own here). Block width r: at rank 16 and
    niter 4 at 1024^2 on 2 vCPUs, r took 25 ms and r + 2 (more accurate)
    30 ms, as long as subspace iteration with 10 extra columns (30 ms).
    Deterministic given ``rng``."""
    w, e = _pow2_scaled(as_matrix(w))
    _check_rank(w, r)
    if niter < 0:
        raise ValueError("niter must be non-negative")
    for basis, rows, _, _ in _krylov(w, rng.normal((w.shape[1], r)), niter):
        pass
    f = _ritz(rows.T, basis, swap=True).truncate(r)
    f.s = _unscaled(f.s, e)
    return f


def _krylov(w: np.ndarray, start: np.ndarray, niter: int):
    """Block Krylov range finder (Halko, Martinsson and Tropp, SIAM Review
    2011, section 4; Musco and Musco, NeurIPS 2015) on the scaled w from
    the n x r block start: Q spans W S, (W W^T) W S, ..., (W W^T)^q W S for
    q = niter, in 2q + 2 passes over w with r columns each. Each new block,
    w (w^T Q) for the last block Q, is projected twice off the earlier
    blocks, QR'd and projected once more. Deflation drops a column that the
    two projections shrink below 1e-10 of its norm (w has exact rank); no
    block follows once none survives or the basis has min(m, n) columns
    (the last block cut to fit). Yields after each pass (Q, Q^T w, the next
    block's column norms before its projections, the same after them),
    both norms None after the last pass; a caller that stops iterating
    stops the passes."""
    # One buffer for all blocks: a new, wider array per block left heap holes
    # that lifted peak RSS by 8 MB in a 1024^2 run. Row block j of rows is
    # block j's q^T w: the next pass starts from it, and together the rows
    # are the Ritz step's product, so that step takes no pass of its own.
    width = min(*w.shape, start.shape[1] * (niter + 1))
    basis, rows = np.empty((w.shape[0], width)), np.empty((width, w.shape[1]))
    q, _ = qr_thin(w @ start)
    basis[:, :q.shape[1]], k = q, q.shape[1]
    for depth in range(niter + 1):
        rows[k - q.shape[1]:k] = qtw = q.T @ w
        done = basis[:, :k]
        if depth == niter:
            yield done, rows[:k], None, None
            return
        # w (w^T q), taken as ((q^T w) w^T)^T: with w^T on the left OpenBLAS
        # ran this pass 2x slower (2048^2, 16 columns, 2 vCPUs).
        z = (qtw @ w.T).T
        before = np.linalg.norm(z, axis=0)
        for _ in range(2):
            z -= done @ (done.T @ z)
        after = np.linalg.norm(z, axis=0)
        yield done, rows[:k], before, after
        # Deflate, then cut to the columns left: a full basis ends the loop too.
        z = z[:, after > 1e-10 * before][:, :width - k]
        if not z.shape[1]:
            return
        q, _ = qr_thin(z)
        q -= done @ (done.T @ q)
        basis[:, k:k + q.shape[1]] = q
        k += q.shape[1]

import ctypes
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from pissa import linalg
from pissa.adapter import merge, pissa_init
from pissa.harness.data import generate_spectral_matrix
from pissa.linalg import (NumericalError, RandomSource, ShapeError, as_matrix,
                          exact_svd, frobenius_norm, leading_svd, nuclear_norm,
                          qr_thin, randomized_svd)
from pissa.quant import (QuantConfig, dequantize, loftq_init, qpissa_init,
                         quantization_error_bound, quantize)
from pissa.train import STRATEGIES


def _svd_sum(m):
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def _nf4_error(w):
    return w - dequantize(quantize(w))


def _nf4_noise(shape):
    return _nf4_error(RandomSource(21).normal(shape))


def _loftq_residual(n):
    # LoftQ ends on an exact rank-4 fit, which leaves 4 zero singular values.
    w = generate_spectral_matrix(n, n, 1.0, 22)
    return w - merge(loftq_init(w, 4, T=1))


def _small_tail():
    # Gram eigenvalues give the singular values 3e-7 and 2e-7 only to about
    # 4e-10 and lose 4e-9 and 1e-9 entirely; the sum is 45.
    src = RandomSource(27)
    u, _ = np.linalg.qr(src.normal((64, 64)))
    v, _ = np.linalg.qr(src.spawn(1).normal((64, 64)))
    s = np.concatenate([np.linspace(1.0, 0.5, 60), [3e-7, 2e-7, 4e-9, 1e-9]])
    return (u * s) @ v.T


# LAPACK's symmetric eigensolver driver: the bits reference where it runs the
# Gram kernels' steps (dsterf for all values; dstemr and dormtr for all
# vectors). layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m,
# w, z, ldz, isuppz
_I64, _PTR, _DBL, _CHAR = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double, ctypes.c_char
_DSYEVR = linalg._bind("dsyevr", ctypes.c_int, _CHAR, _CHAR, _CHAR, _I64, _PTR, _I64,
                       _DBL, _DBL, _I64, _I64, _DBL, ctypes.POINTER(_I64), _PTR, _PTR,
                       _I64, _PTR)
# The routines whose one unbound condition selects the full-SVD fallbacks.
_TRIDIAGONAL_STEPS = ("_DSYTRD", "_DSTERF", "_DSTEMR", "_DORMTR")


def _steps_bound():
    return None not in (getattr(linalg, name) for name in _TRIDIAGONAL_STEPS)


def _dsyevr(g, il, iu, jobz):
    # Eigenvalues il..iu of g from LAPACK dsyevr and, for jobz b"V", their
    # eigenvectors as rows.
    n, g = g.shape[0], g.copy()
    found, values = ctypes.c_int64(), np.empty(n)
    z, support = np.empty((iu - il + 1, n)), np.empty(2 * n, np.int64)
    info = _DSYEVR(102, jobz, b"I", b"L", n, g.ctypes.data, n, 0.0, 0.0, il, iu, 0.0,
                   found, values.ctypes.data, z.ctypes.data, n, support.ctypes.data)
    assert info == 0 and found.value == iu - il + 1
    return values[:found.value], z


def _assert_eigenvectors(g, z, values):
    # The rows of z are orthonormal eigenvectors of the symmetric g for the
    # given eigenvalues, to within rounding: a residual of each column of
    # g z^T - z^T diag(values) below 1e-13 ||g||_2.
    k = z.shape[0]
    np.testing.assert_allclose(z @ z.T, np.eye(k), rtol=0, atol=1e-13)
    resid = np.linalg.norm(g @ z.T - z.T * values, axis=0)
    assert resid.max() <= 1e-13 * max(np.linalg.norm(g, 2), np.finfo(float).tiny)


def _product(m, k, n):
    src = RandomSource(23)
    return src.normal((m, k)) @ src.spawn(1).normal((k, n))


NUCLEAR_CASES = {
    "nf4_noise": lambda: _nf4_noise((64, 64)),
    "nf4_error_96x64": lambda: _nf4_error(generate_spectral_matrix(96, 64, 1.0, 0)),
    "loftq_residual": lambda: _loftq_residual(64),
    "small_tail": _small_tail,
    "rank1": lambda: _product(48, 1, 40),
    "rank16": lambda: _product(64, 16, 64),
    "alpha2": lambda: generate_spectral_matrix(64, 64, 2.0, 24),
    "alpha3": lambda: generate_spectral_matrix(64, 64, 3.0, 24),
    "wide": lambda: RandomSource(25).normal((20, 90)),
    "tall": lambda: RandomSource(25).normal((90, 20)),
    "1xn": lambda: RandomSource(26).normal((1, 30)),
    "nx1": lambda: RandomSource(26).normal((30, 1)),
    "times_1e160": lambda: _nf4_noise((48, 40)) * 1e160,
    "times_1e-160": lambda: _nf4_noise((48, 40)) * 1e-160,
    "times_1e300": lambda: _nf4_noise((48, 40)) * 1e300,
}


class TestNorms:
    def test_frobenius_zero(self):
        assert frobenius_norm(np.zeros((4, 4))) == 0.0

    def test_frobenius_345(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0

    def test_frobenius_scalar_loop(self):
        m = RandomSource(3).normal((6, 9))
        total = 0.0
        for x in m.ravel():
            total += x * x
        assert frobenius_norm(m) == pytest.approx(np.sqrt(total), rel=1e-14)

    def test_nuclear_diagonal(self):
        assert nuclear_norm(np.diag([3.0, 2.0, 1.0])) == pytest.approx(6.0)

    def test_nuclear_rank_one(self):
        u = np.array([[0.6], [0.8]])
        v = np.array([[1.0], [0.0], [0.0]])
        assert nuclear_norm(5.0 * u @ v.T) == pytest.approx(5.0, rel=1e-12)

    def test_nuclear_2x2_characteristic_polynomial(self):
        # Singular values of [[1,1],[0,1]] are sqrt of the roots of
        # lambda^2 - 3 lambda + 1 (char. poly of W^T W).
        roots = np.roots([1.0, -3.0, 1.0])
        expected = np.sum(np.sqrt(roots))
        w = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert nuclear_norm(w) == pytest.approx(expected, rel=1e-10)
        assert nuclear_norm(w) == pytest.approx(2.2360679, rel=1e-6)

    def test_nuclear_at_least_frobenius(self):
        for seed in range(10):
            m = RandomSource(seed).normal((12, 8))
            assert nuclear_norm(m) >= frobenius_norm(m) - 1e-12

    @pytest.mark.parametrize("shape,rank", [((40, 40), 40), ((50, 30), 30),
                                            ((30, 50), 7), ((64, 64), 3)])
    def test_nuclear_matches_exact_svd(self, shape, rank):
        # Random inputs, full rank and numerically rank deficient.
        src = RandomSource(rank)
        m = src.normal((shape[0], rank)) @ src.spawn(1).normal((rank, shape[1]))
        expected = float(np.sum(exact_svd(m).s))
        assert nuclear_norm(m) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300])
    def test_frobenius_outside_the_squared_range(self, scale):
        # The plain sum of squares overflows or underflows at these scales.
        m = RandomSource(3).normal((6, 9))
        assert frobenius_norm(m) == float(np.sqrt(np.sum(np.square(m))))
        assert frobenius_norm(m * scale) == pytest.approx(
            frobenius_norm(m) * scale, rel=1e-14)

    @pytest.mark.parametrize("case", NUCLEAR_CASES)
    def test_nuclear_within_contract_of_svd_sum(self, case):
        m = NUCLEAR_CASES[case]()
        assert nuclear_norm(m) == pytest.approx(_svd_sum(m), rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", ["nf4_noise", "nf4_error_96x64",
                                      "loftq_residual", "small_tail"])
    def test_nuclear_takes_the_gram_path(self, case, monkeypatch):
        # These matrices must be summed from their Gram spectrum, without
        # their full SVD, to within 1e-13 (the root estimates stop at 2e-14).
        m = NUCLEAR_CASES[case]()
        expected, gesdd = _svd_sum(m), linalg._gesdd

        def thin_only(a, jobz):
            if a.shape == m.shape:
                raise AssertionError("nuclear_norm took the full SVD")
            return gesdd(a, jobz)

        monkeypatch.setattr(linalg, "_gesdd", thin_only)
        assert nuclear_norm(m) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_one_tridiagonal_reduction_per_call(self, monkeypatch):
        # The values (dsterf) and the bottom vectors (dstemr, dormtr) come
        # from one dsytrd reduction of the Gram matrix.
        m = NUCLEAR_CASES["loftq_residual"]()
        calls = []
        for name in ("_DSYTRD", "_DSTEMR", "_DORMTR"):
            routine = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda *args, name=name, routine=routine:
                                calls.append(name) or routine(*args))
        assert nuclear_norm(m) == pytest.approx(_svd_sum(m), rel=1e-13, abs=0)
        assert calls == ["_DSYTRD", "_DSTEMR", "_DORMTR"]

    @pytest.mark.parametrize("n", [64, 160, 512])
    def test_tridiagonal_steps_keep_dsyevr_bits(self, n, monkeypatch):
        # With dsyevr's workspaces, the steps give the bits of its
        # all-values call (JOBZ = 'N') and of its all-vectors call (JOBZ =
        # 'V', IL = 1, IU = n), where dsyevr itself runs dstemr and dormtr;
        # at n = 64 dormtr runs unblocked. For part of the spectrum dsyevr
        # runs dstebz and dstein instead, so nuclear_norm's bottom-k vectors
        # and leading_svd's top-r basis are held to dsyevr's eigenvalues by
        # their residuals, and to orthonormality.
        m = _loftq_residual(n)
        seen = {}
        dsterf = linalg._DSTERF

        def values(size, d, e):
            info = dsterf(size, d, e)
            seen["values"] = np.ctypeslib.as_array(
                ctypes.cast(d, ctypes.POINTER(ctypes.c_double)), (size,)).copy()
            return info

        monkeypatch.setattr(linalg, "_DSTERF", values)
        vectors = _spy(monkeypatch, "_eigenvectors")
        nuclear_norm(m)
        assert len(vectors) == 1
        k = vectors[0].shape[0]
        assert k >= 4  # LoftQ's exact rank-4 fit leaves four zero roots
        g = m.T @ m
        assert np.array_equal(seen["values"], _dsyevr(g, 1, n, b"N")[0])
        _assert_eigenvectors(g, vectors[0], _dsyevr(g, 1, k, b"N")[0])
        for w in (m, generate_spectral_matrix(n, n, 1.0, 10)):
            g = w.T @ w
            tri = linalg._tridiagonal(w)
            every = linalg._eigenvectors(tri, 1, n)
            assert np.array_equal(every, _dsyevr(g, 1, n, b"V")[1])
            # tri is left as it was: a second call gives the same bits.
            assert np.array_equal(linalg._eigenvectors(tri, 1, n), every)
            for r in (1, 16):
                top = _dsyevr(g, n - r + 1, n, b"N")[0]
                _assert_eigenvectors(g, linalg._gram_basis(w, r).T[::-1], top)

    def test_dsterf_failure_takes_the_full_svd_sum(self, monkeypatch):
        m, calls = NUCLEAR_CASES["nf4_noise"](), []
        monkeypatch.setattr(linalg, "_DSTERF", lambda *args: calls.append(args) or 1)
        assert nuclear_norm(m) == _svd_sum(m)
        assert len(calls) == 1

    def test_nuclear_zero_matrix_is_exactly_zero(self):
        assert nuclear_norm(np.zeros((5, 3))) == 0.0

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)], ids=["0x3", "3x0", "0x0"])
    def test_nuclear_empty_matrix_is_exactly_zero(self, shape):
        assert nuclear_norm(np.zeros(shape)) == 0.0

    def test_nuclear_rejects_nan_and_vectors(self):
        with pytest.raises(ValueError):
            nuclear_norm(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ShapeError):
            nuclear_norm(np.ones(4))


class TestExactSvd:
    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)], ids=["0x5", "5x0", "0x0"])
    def test_empty_matrix_gives_empty_factors(self, shape):
        f = exact_svd(np.zeros(shape))
        assert (f.u.shape, f.s.shape, f.v.shape) == ((shape[0], 0), (0,), (shape[1], 0))

    def test_identity(self):
        f = exact_svd(np.eye(3))
        np.testing.assert_allclose(f.s, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        f = exact_svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(f.s, [3.0, 2.0, 1.0])
        # Signed permutations of the identity, sign-fixed to be exact.
        np.testing.assert_allclose(np.abs(f.u), np.eye(3), atol=1e-14)
        np.testing.assert_allclose(np.abs(f.v), np.eye(3), atol=1e-14)

    def test_2x2_derived_values(self):
        f = exact_svd(np.array([[1.0, 1.0], [0.0, 1.0]]))
        expected = np.sqrt(np.roots([1.0, -3.0, 1.0]))
        np.testing.assert_allclose(f.s, sorted(expected, reverse=True),
                                   rtol=1e-10)
        np.testing.assert_allclose(f.s, [1.6180339, 0.6180339], rtol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction_and_orthonormality(self, seed):
        gen = RandomSource(seed).generator()
        m = int(gen.integers(2, 129))
        n = int(gen.integers(2, 129))
        w = gen.standard_normal((m, n))
        f = exact_svd(w)
        assert (np.diff(f.s) <= 0).all() and (f.s >= 0).all()
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(f.rank), atol=1e-8)
        np.testing.assert_allclose(f.v.T @ f.v, np.eye(f.rank), atol=1e-8)
        err = frobenius_norm(f.reconstruct() - w) / max(1.0, frobenius_norm(w))
        assert err <= 1e-10

    def test_sign_convention(self):
        f = exact_svd(RandomSource(5).normal((9, 9)))
        idx = np.argmax(np.abs(f.u), axis=0)
        assert (f.u[idx, np.arange(9)] >= 0).all()

    def test_contract_miss_falls_back_then_raises(self, monkeypatch):
        w = generate_spectral_matrix(12, 10, 1.0, 0)
        good = exact_svd(w)
        gesdd, gesvd, retries = linalg._gesdd, linalg._gesvd, []

        def spy(m):
            retries.append(m.shape)
            return gesvd(m)

        def off(m, *jobz):
            # A driver that returns but misses the reconstruction contract.
            u, s, vt = gesdd(m, "S")
            return u, s * (1 + 1e-6), vt

        monkeypatch.setattr(linalg, "_gesdd", off)
        monkeypatch.setattr(linalg, "_gesvd", spy)
        fallback = exact_svd(w)
        assert retries == [w.shape]
        assert frobenius_norm(fallback.reconstruct() - w) <= 1e-10
        np.testing.assert_allclose(fallback.s, good.s, rtol=1e-12)
        monkeypatch.setattr(linalg, "_gesvd", off)
        with pytest.raises(NumericalError, match="residual"):
            exact_svd(w)

    @staticmethod
    def _gesdd_fails(monkeypatch):
        def failing(m, jobz):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(linalg, "_gesdd", failing)

    def test_unbound_dgesvd_raises_named_error(self, monkeypatch):
        # numpy on another LAPACK (no LAPACKE dgesvd symbol): a gesdd
        # failure is a typed error naming the missing driver, not a retry.
        self._gesdd_fails(monkeypatch)
        monkeypatch.setattr(linalg, "_DGESVD", None)
        with pytest.raises(NumericalError, match="dgesvd"):
            exact_svd(generate_spectral_matrix(12, 10, 1.0, 0))

    def test_dgesvd_failure_raises(self, monkeypatch):
        self._gesdd_fails(monkeypatch)
        monkeypatch.setattr(linalg, "_DGESVD", lambda *args: 3)
        with pytest.raises(NumericalError, match="did not converge: dgesvd info 3"):
            exact_svd(generate_spectral_matrix(12, 10, 1.0, 0))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            exact_svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_nan_residual_misses_the_contract(self, monkeypatch):
        # Drivers that return NaN singular values give a NaN residual, which
        # must miss the contract as a residual above TOLERANCE does.
        gesdd = linalg._gesdd

        def nan_values(m, *jobz):
            u, s, vt = gesdd(m, "S")
            return u, np.full_like(s, np.nan), vt

        monkeypatch.setattr(linalg, "_gesdd", nan_values)
        monkeypatch.setattr(linalg, "_gesvd", nan_values)
        with pytest.raises(NumericalError, match="nan"):
            exact_svd(generate_spectral_matrix(12, 10, 1.0, 0))


GESVD_CASES = {
    "tall": RandomSource(11).normal((40, 24)),
    "wide": RandomSource(12).normal((24, 40)),
    "row": RandomSource(13).normal((1, 9)),
    "column": RandomSource(14).normal((9, 1)),
    "empty": np.zeros((0, 5)),
    "rank_deficient": (RandomSource(4).normal((30, 4))
                       @ RandomSource(5).normal((4, 25))),
    "transposed_view": RandomSource(15).normal((24, 40)).T,
}


@pytest.mark.parametrize("name", sorted(GESVD_CASES))
def test_gesvd_reconstructs(name):
    w = GESVD_CASES[name]
    original = w.copy()
    u, s, vt = linalg._gesvd(w)
    k = min(w.shape)
    assert u.shape == (w.shape[0], k) and s.shape == (k,) and vt.shape == (k, w.shape[1])
    assert np.array_equal(w, original)  # dgesvd overwrites a copy only
    assert (np.diff(s) <= 0).all() and (s >= 0).all()
    np.testing.assert_allclose(u.T @ u, np.eye(k), atol=1e-12)
    np.testing.assert_allclose(vt @ vt.T, np.eye(k), atol=1e-12)
    assert linalg.relative_error((u * s) @ vt - w, w) <= linalg.TOLERANCE


GESDD_CASES = {
    **GESVD_CASES,
    "square": RandomSource(16).normal((48, 48)),
    "empty_wide": np.zeros((5, 0)),
    "empty_square": np.zeros((0, 0)),
    "strided_view": RandomSource(17).normal((80, 60))[::2, ::3],
}


@pytest.mark.parametrize("name", sorted(GESDD_CASES))
def test_gesdd_keeps_numpys_bits(name, monkeypatch):
    # Bound or not, _gesdd returns np.linalg.svd's economy factors and
    # values bit for bit, and dgesdd overwrites a copy of w only.
    w = GESDD_CASES[name]
    original = w.copy()
    want = (*np.linalg.svd(w, full_matrices=False), np.linalg.svd(w, compute_uv=False))
    for binding in (linalg._DGESDD, None):
        monkeypatch.setattr(linalg, "_DGESDD", binding)
        got = (*linalg._gesdd(w, "S"), linalg._gesdd(w, "N"))
        for x, y in zip(got, want):
            assert x.shape == y.shape and np.array_equal(x, y)
        assert np.array_equal(w, original)


def test_dgesdd_failure_takes_the_gesvd_retry(monkeypatch):
    # dgesdd's info != 0 is numpy's LinAlgError, on which exact_svd runs
    # dgesvd once.
    w = generate_spectral_matrix(12, 10, 1.0, 0)
    monkeypatch.setattr(linalg, "_DGESDD", lambda *args: 4)
    with pytest.raises(np.linalg.LinAlgError, match="dgesdd info 4"):
        linalg._gesdd(w, "N")
    retries = _spy(monkeypatch, "_gesvd")
    f = exact_svd(w)
    assert len(retries) == 1
    assert linalg.relative_error(f.reconstruct() - w, w) <= linalg.TOLERANCE


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the resident set from /proc/self/status")
def test_exact_svd_working_memory():
    # One exact_svd of a 1024^2 Gaussian lifts a fresh interpreter's peak
    # resident set over its resident set by 6.2 matrix sizes: w's
    # column-major copy, dgesdd's work, the factors and the residual.
    # numpy's SVD wrapper also kept row-major copies of u and vt: 8.2.
    # The peak is VmHWM: ru_maxrss carries the parent's peak across exec,
    # and pytest's own resident set can exceed the child's.
    script = textwrap.dedent("""
        from pissa.linalg import RandomSource, exact_svd

        def kib(field):
            with open("/proc/self/status") as f:
                return next(int(line.split()[1]) for line in f
                            if line.startswith(field + ":"))

        exact_svd(RandomSource(1).normal((64, 64)))  # BLAS and LAPACK set-up
        w = RandomSource(0).normal((1024, 1024))
        resident = kib("VmRSS")
        exact_svd(w)
        print((kib("VmHWM") - resident) * 1024 / w.nbytes)
    """)
    src = str(Path(linalg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) <= 7.0


# (matrix, r) pairs with 4 r >= min(m, n), so the Krylov path does not run:
# tall, wide, r = min(m, n), rank deficient (rank 4, asked for 6), zero, and
# a single row. All but r = min(m, n) and the single row take the Gram path;
# those two lie past the high-rank crossover, where exact_svd serves.
PAST_CROSSOVER = ("full", "row")
LEADING_CASES = {
    "tall": (generate_spectral_matrix(40, 24, 1.0, 1), 6),
    "wide": (generate_spectral_matrix(24, 40, 1.0, 2), 6),
    "full": (RandomSource(3).normal((20, 12)), 12),
    "rank_deficient": (RandomSource(4).normal((30, 4))
                       @ RandomSource(5).normal((4, 24)), 6),
    "zero": (np.zeros((7, 5)), 3),
    "row": (RandomSource(6).normal((1, 9)), 1),
}


def _forbid_full_svd(monkeypatch, w):
    # linalg._gesdd raises on a matrix of w's shape: the full SVD of
    # exact_svd(w), the fallback, must not run, whatever power of two
    # exact_svd has scaled w by. Thin products such as the Ritz step's pass.
    gesdd = linalg._gesdd

    def thin_only(a, jobz):
        if a.shape == w.shape:
            raise AssertionError("the full SVD ran")
        return gesdd(a, jobz)

    monkeypatch.setattr(linalg, "_gesdd", thin_only)


def _assert_same_bits(f, ref):
    for x, y in ((f.u, ref.u), (f.s, ref.s), (f.v, ref.v)):
        assert np.array_equal(x, y)


class TestLeadingSvd:
    @pytest.mark.parametrize("case", LEADING_CASES)
    def test_matches_truncated_exact_svd(self, case, monkeypatch):
        # The basis comes from the tridiagonal steps where numpy's LAPACK
        # exports them, so the full SVD must not run there short of the
        # high-rank crossover.
        w, r = LEADING_CASES[case]
        ref = exact_svd(w).truncate(r)
        if _steps_bound() and case not in PAST_CROSSOVER:
            _forbid_full_svd(monkeypatch, w)
        f = leading_svd(w, r)
        assert f.u.shape == ref.u.shape and f.v.shape == ref.v.shape
        tol = 1e-12 * max(1.0, ref.s[0])
        # Relative for nonzero singular values, absolute for the zero ones.
        np.testing.assert_allclose(f.s, ref.s, rtol=1e-12, atol=tol)
        # Projectors onto the nonzero components; the vectors of zero
        # singular values are arbitrary, so only their product is compared.
        k = int(np.sum(ref.s > tol))
        for a, b in ((f.u[:, :k], ref.u[:, :k]), (f.v[:, :k], ref.v[:, :k])):
            np.testing.assert_allclose(a @ a.T, b @ b.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(f.reconstruct(), ref.reconstruct(),
                                   rtol=0, atol=tol)
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(r), atol=1e-12)
        np.testing.assert_allclose(f.v.T @ f.v, np.eye(r), atol=1e-12)
        idx = np.argmax(np.abs(f.u), axis=0)
        assert (f.u[idx, np.arange(r)] >= 0).all()

    @pytest.mark.parametrize("case", LEADING_CASES)
    def test_without_dsyevr_returns_truncated_exact_svd(self, case, monkeypatch):
        # Without any one of the five tridiagonal routines there is no
        # eigenvector basis: leading_svd returns its one fallback,
        # exact_svd(w).truncate(r), bit for bit.
        w, r = LEADING_CASES[case]
        ref = exact_svd(w).truncate(r)
        for name in _TRIDIAGONAL_STEPS:
            monkeypatch.setattr(linalg, name, None)
            _assert_same_bits(leading_svd(w, r), ref)
            monkeypatch.undo()

    def test_deterministic(self):
        w = generate_spectral_matrix(48, 32, 1.0, 7)
        a, b = leading_svd(w, 8), leading_svd(w, 8)
        for x, y in ((a.u, b.u), (a.s, b.s), (a.v, b.v)):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("info,short", [(1, 0), (0, 1)])
    def test_failed_dsyevr_falls_back_to_exact_svd(self, monkeypatch, wide, info, short):
        # Each tridiagonal step of the basis in turn fails after it has run,
        # with info != 0, or (dstemr, the one that counts) with one vector
        # short. No step runs after it, and the result is
        # exact_svd(w).truncate(r), bit for bit.
        w = generate_spectral_matrix(30, 20, 1.0, 8)
        w = w.T if wide else w
        ref = exact_svd(w).truncate(5)
        steps = ["_DSYTRD", "_DSTEMR", "_DORMTR"]
        for failing in steps if info else ["_DSTEMR"]:
            calls = []
            for name in steps:
                def step(*args, name=name, routine=getattr(linalg, name)):
                    calls.append(name)
                    got = routine(*args)
                    if name != failing:
                        return got
                    if short:
                        args[10].value -= short  # dstemr's count of vectors found
                    return info or got

                monkeypatch.setattr(linalg, name, step)
            f = leading_svd(w, 5)
            monkeypatch.undo()
            assert calls == steps[:steps.index(failing) + 1]
            _assert_same_bits(f, ref)

    @pytest.mark.parametrize("scale", [1e150, 1e160, 1e-160, 1e-170, 1e300])
    @pytest.mark.parametrize("shape", [(32, 32), (8, 8)], ids=["spectral", "ones"])
    def test_extreme_scales_take_the_dsyevr_path(self, monkeypatch, scale, shape):
        # Out of the Gram product's range the tridiagonal basis must still serve:
        # the full SVD does not run, and the triplets match exact_svd's up to
        # rounding. An 8x8 matrix of ones has rank 1, so three of the four
        # singular values asked for are zero.
        w = scale * (generate_spectral_matrix(32, 32, 1.0, 0)
                     if shape == (32, 32) else np.ones(shape))
        ref = exact_svd(w).truncate(4)
        if _steps_bound():
            _forbid_full_svd(monkeypatch, w)
        reduced = _spy(monkeypatch, "_tridiagonal")
        got = leading_svd(w, 4)
        # The Gram path ran; on the 32 x 32 matrix the Krylov path gave up.
        assert len(reduced) == 1
        tol = 1e-12 * ref.s[0]
        np.testing.assert_allclose(got.s, ref.s, rtol=1e-12, atol=tol)
        np.testing.assert_allclose(got.reconstruct(), ref.reconstruct(),
                                   rtol=0, atol=tol)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-170, 1e-160, 1e-150,
                                       1e150, 1e160, 1e200, 1e300])
    def test_extreme_scales_match_exact_svd(self, scale):
        # The Gram product squares the exponents. Relative checks only: an
        # absolute tolerance would pass anything at 1e-300.
        w = scale * generate_spectral_matrix(32, 32, 1.0, 0)
        f, ref = leading_svd(w, 4), exact_svd(w).truncate(4)
        np.testing.assert_allclose(f.s, ref.s, rtol=1e-12)
        for a, b in ((f.u, ref.u), (f.v, ref.v)):
            np.testing.assert_allclose(a @ a.T, b @ b.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("init", [pissa_init, qpissa_init])
    def test_init_of_1e300_signs_matches_exact_svd(self, init):
        # Its Gram product overflows, and eigh failed on it.
        w = np.sign(RandomSource(1).normal((4, 4))) * 1e300
        layer, ref = init(w, 2), exact_svd(w).truncate(2)
        np.testing.assert_allclose(layer.adapter.delta(), ref.reconstruct(),
                                   rtol=0, atol=1e-12 * ref.s[0])
        err = w - merge(layer)
        if init is pissa_init:
            assert linalg.relative_error(err, w) <= linalg.TOLERANCE
        else:
            assert (np.abs(err) <= quantization_error_bound(layer.base)).all()

    # Wide input checks w v - u s: its Ritz step zeroes w^T u - v s for any basis.
    @pytest.mark.parametrize("m, n", [(30, 20), (20, 30)])
    def test_bad_basis_falls_back_to_exact_svd(self, monkeypatch, m, n):
        w = generate_spectral_matrix(m, n, 1.0, 8)
        ref = exact_svd(w).truncate(5)

        def bad_basis(t, r):
            # An orthonormal basis that spans no invariant subspace.
            q, _ = np.linalg.qr(RandomSource(0).normal((t.shape[1], r)))
            return q

        monkeypatch.setattr(linalg, "_gram_basis", bad_basis)
        _assert_same_bits(leading_svd(w, 5), ref)

    @pytest.mark.parametrize("r", [0, 11])
    def test_rank_out_of_range(self, r):
        with pytest.raises(ValueError):
            leading_svd(np.ones((10, 12)), r)

    @pytest.mark.parametrize("shape", [(20, 12), (12, 20), (16, 16), (1, 9), (9, 1),
                                       (2, 2)])
    def test_full_rank_returns_exact_svd_bits(self, shape):
        w = RandomSource(17).normal(shape)
        _assert_same_bits(leading_svd(w, min(shape)), exact_svd(w))

    @pytest.mark.parametrize("m, n", [(64, 64), (128, 64), (64, 256)])
    def test_high_rank_crossover(self, m, n, monkeypatch):
        # exact_svd serves r once k - r < k^2 / (2 max(m, n)) for k =
        # min(m, n): r > 32 of 64^2, r > 48 of 128 x 64 and r > 56 of
        # 64 x 256. The last r short of it still takes the Gram path.
        w = generate_spectral_matrix(m, n, 1.0, 19)
        k = min(m, n)
        last = k - k * k // (2 * max(m, n))
        reduced = _spy(monkeypatch, "_tridiagonal")
        _assert_same_bits(leading_svd(w, last + 1), exact_svd(w).truncate(last + 1))
        assert not reduced
        f, ref = leading_svd(w, last), exact_svd(w).truncate(last)
        assert len(reduced) == 1
        np.testing.assert_allclose(f.s, ref.s, rtol=1e-12, atol=0)


def _orthogonal(n, seed):
    return np.linalg.qr(RandomSource(seed).normal((n, n)))[0]


def _tied_block(m, n, r, seed):
    # sigma_r = sigma_(r+1) = sigma_(r+2): the tie straddles r.
    s = np.concatenate([np.geomspace(8.0, 2.0, r - 1), [1.0, 1.0, 1.0],
                        np.geomspace(0.5, 0.01, min(m, n) - r - 2)])
    return _with_spectrum(m, n, s, seed)


# MRRR's hard inputs for the Gram eigenvectors, as (matrix, r): ties at r
# (an orthogonal matrix, whose Gram matrix is I up to rounding, and a tie
# across r and r + 1), LoftQ's exact rank-4 residual (four zero Gram
# eigenvalues), the smallest shapes, and tall and wide ones.
HARD_CASES = {
    "orthogonal_krylov": (lambda: _orthogonal(48, 28), 8),
    "orthogonal_gram": (lambda: _orthogonal(48, 28), 16),
    "tied_block": (lambda: _tied_block(64, 48, 4, 29), 4),
    "tied_block_wide": (lambda: _tied_block(40, 72, 12, 30), 12),
    "loftq_residual": (lambda: _loftq_residual(64), 8),
    "1xn": (lambda: RandomSource(26).normal((1, 30)), 1),
    "nx1": (lambda: RandomSource(26).normal((30, 1)), 1),
    "2x2": (lambda: RandomSource(31).normal((2, 2)), 1),
    "tall": (lambda: RandomSource(25).normal((90, 20)), 6),
    "wide": (lambda: RandomSource(25).normal((20, 90)), 6),
}


@pytest.mark.parametrize("case", HARD_CASES)
def test_hard_inputs_meet_the_contracts(case):
    w, r = HARD_CASES[case][0](), HARD_CASES[case][1]
    ref, f = exact_svd(w), leading_svd(w, r)
    scale = ref.s[0]
    assert f.u.shape == (w.shape[0], r) and f.v.shape == (w.shape[1], r)
    np.testing.assert_allclose(f.s, ref.s[:r], rtol=1e-12, atol=1e-12 * scale)
    for a in (f.u, f.v):
        np.testing.assert_allclose(a.T @ a, np.eye(r), rtol=0, atol=1e-12)
    for resid in (w @ f.v - f.u * f.s, (f.u.T @ w).T - f.v * f.s):
        assert linalg.relative_error(resid, w) <= linalg.TOLERANCE
    idx = np.argmax(np.abs(f.u), axis=0)
    assert (f.u[idx, np.arange(r)] >= 0).all()
    assert nuclear_norm(w) == pytest.approx(_svd_sum(w), rel=1e-12, abs=0)
    # The Gram basis itself, past the crossover too: top-r eigenvectors of
    # the Gram matrix of w's shorter side.
    t = w.T if w.shape[0] < w.shape[1] else w
    if _steps_bound():
        g = t.T @ t
        top = np.linalg.eigvalsh(g)[::-1][:r]
        _assert_eigenvectors(g, linalg._gram_basis(t, r).T, top)


def test_failed_dstemr_in_nuclear_norm_takes_the_svd_sum(monkeypatch):
    # A dstemr failure (info != 0, or one vector short) on nuclear_norm's
    # bottom vectors gives the full-SVD sum, and dormtr does not run.
    m = _loftq_residual(64)
    for info, short in ((1, 0), (0, 1)):
        calls = []

        def dstemr(*args, routine=linalg._DSTEMR):
            calls.append("_DSTEMR")
            got = routine(*args)
            args[10].value -= short
            return info or got

        monkeypatch.setattr(linalg, "_DSTEMR", dstemr)
        monkeypatch.setattr(linalg, "_DORMTR", lambda *args: calls.append("_DORMTR"))
        assert nuclear_norm(m) == _svd_sum(m)
        monkeypatch.undo()
        assert calls == ["_DSTEMR"]


def _with_spectrum(m, n, s, seed):
    # An m x n matrix with singular values s and Gaussian singular vectors.
    src = RandomSource(seed)
    u, _ = np.linalg.qr(src.normal((m, s.size)))
    v, _ = np.linalg.qr(src.spawn(1).normal((n, s.size)))
    return (u * s) @ v.T


def _gapped(m, n, r, gap=20.0):
    # sigma_r / sigma_(r+1) = gap, then a slow tail.
    k = min(m, n)
    return _with_spectrum(m, n, np.concatenate([np.geomspace(8.0, 4.0, r),
                                                np.geomspace(4.0 / gap, 0.01, k - r)]), 43)


def _qpissa_second_target(n):
    # QPiSSA's second-round target, w minus its quantized residual base:
    # the adapter plus NF4 noise, with sigma_16 / sigma_17 far from 1.
    w = generate_spectral_matrix(n, n, 1.0, 31)
    return w - dequantize(qpissa_init(w, 16).base)


def _without_top_direction(r, s, n=256):
    # An n x n matrix with singular values s (zeros past them) whose top
    # right singular vector is orthogonal to the r columns leading_svd's
    # Krylov path starts from: w Omega holds no u_1 component.
    omega = linalg._KRYLOV_SOURCE.normal((n, r))
    src = RandomSource(18)
    x = src.normal((n, 1))
    x -= omega @ np.linalg.lstsq(omega, x, rcond=None)[0]
    v, _ = np.linalg.qr(np.hstack([x, src.spawn(1).normal((n, n - 1))]))
    u, _ = np.linalg.qr(src.spawn(2).normal((n, n)))
    return (u * np.concatenate([s, np.zeros(n - len(s))])) @ v.T


MISSING_TOP_CASES = {
    # The depth-1 block deflates away: the basis is an invariant subspace
    # without u_1, and its four triplets are exact, so the w v - u s
    # residual is zero.
    "exact_rank": (4, [10.0, 5.0, 4.0, 3.0, 2.0]),
    # Full rank and full-width blocks, and still no u_1 in the basis.
    "full_rank_tail": (4, np.concatenate([[10.0, 5.0, 4.0, 3.0, 2.0],
                                          0.1 * 0.8 ** np.arange(251)])),
    "r16": (16, np.concatenate([[10.0], np.linspace(5.0, 2.0, 16)])),
}


# Targets leading_svd's Krylov path serves, with the rank asked for. (At
# rank 4 the gapped 300 x 200 target misses the contract.)
ONE_LOOP_TARGETS = {
    **{f"qpissa_{n}": (lambda n=n: _qpissa_second_target(n), 16) for n in (256, 512, 300, 200)},
    **{f"gapped_{m}x{n}_r{r}": (lambda m=m, n=n, r=r: _gapped(m, n, r), r)
       for m, n, r in ((64, 48, 4), (48, 64, 4), (300, 200, 8), (200, 300, 8), (256, 256, 4))},
}


class TestLeadingSvdKrylov:
    # The Krylov path: 4 r < min(m, n), and a gap after sigma_r.

    @pytest.mark.parametrize("target", ONE_LOOP_TARGETS)
    def test_served_call_is_randomized_svd_at_the_krylov_depth(self, target, monkeypatch):
        # One Krylov loop serves both kernels: where the Krylov path serves
        # leading_svd, its triplets are randomized_svd's at depth 3 from the
        # path's fixed source, bit for bit.
        make, r = ONE_LOOP_TARGETS[target]
        w = make()
        gram = _spy(monkeypatch, "_gram_svd")
        _assert_same_bits(leading_svd(w, r), randomized_svd(w, r, linalg._KRYLOV_DEPTH,
                                                            linalg._KRYLOV_SOURCE))
        assert not gram

    @staticmethod
    def _assert_top_triplets(f, w, ref, projector_atol):
        r = ref.rank
        np.testing.assert_allclose(f.s, ref.s, rtol=1e-12, atol=0)
        for a, b in ((f.u, ref.u), (f.v, ref.v)):
            np.testing.assert_allclose(a @ a.T, b @ b.T, rtol=0, atol=projector_atol)
            np.testing.assert_allclose(a.T @ a, np.eye(r), rtol=0, atol=1e-12)
        assert linalg.relative_error(w @ f.v - f.u * f.s, w) <= linalg.TOLERANCE

    @pytest.mark.parametrize("tail", ["gap", "flat"])
    @pytest.mark.parametrize("tie", [1e-3, 1e-8])
    def test_near_tie_matches_exact_svd(self, tie, tail, monkeypatch):
        # sigma_r / sigma_(r+1) = 1 + tie. A residual check cannot see a
        # missing triplet: had the basis missed u_r, s_r would read
        # sigma_(r+1), off by tie relative. A near tie at r cannot pass the
        # Krylov path's separation test, so the Gram path serves the call;
        # with a flat tail the Krylov path gives up before it, after two
        # blocks. The pair's vectors mix by up to about eps / tie, hence the
        # projectors' tolerance.
        r = 8
        rest = np.geomspace(1e-2, 1e-3, 70) if tail == "gap" else np.linspace(0.99, 0.5, 70)
        w = _with_spectrum(96, 80, np.concatenate([np.geomspace(8.0, 2.0, r - 1),
                                                   [1.0, 1.0 / (1.0 + tie)], rest]), 41)
        ref = exact_svd(w).truncate(r)
        widths, ritz = _qr_widths(monkeypatch), _ritz_calls(monkeypatch)
        gram = _spy(monkeypatch, "_gram_svd")
        f = leading_svd(w, r)
        assert len(gram) == 1
        if tail == "gap":
            assert widths == [r] * 4 and _basis_widths(ritz) == [4 * r, r]
            assert not _separates(w, r, ritz[0])
        else:
            assert widths == [r, r] and _basis_widths(ritz) == [r]
        self._assert_top_triplets(f, w, ref, 1e-14 / tie)

    def test_gapped_target_takes_the_krylov_path(self, monkeypatch):
        # No Gram matrix is reduced and no full SVD runs; the triplets are
        # exact_svd's, sign convention included, to within the residual
        # contract over the gap (vectors read 1e-11 off, against 1e-14 for
        # the Gram path's).
        w = _qpissa_second_target(256)
        ref = exact_svd(w).truncate(16)
        gram, reduced = _spy(monkeypatch, "_gram_svd"), _spy(monkeypatch, "_tridiagonal")
        widths, ritz = _qr_widths(monkeypatch), _ritz_calls(monkeypatch)
        _forbid_full_svd(monkeypatch, w)
        f = leading_svd(w, 16)
        assert not gram and not reduced
        assert widths == [16] * 4 and _basis_widths(ritz) == [64]
        self._assert_top_triplets(f, w, ref, 1e-10)
        for got, want in ((f.u, ref.u), (f.v, ref.v)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_flat_target_gives_up_with_the_gram_bits(self, monkeypatch):
        # LoftQ's first target, the NF4 error of w, runs on flat past
        # sigma_16: the path gives up after depth 1 (two blocks QR'd), and
        # the result is the Gram path's, bit for bit.
        w = generate_spectral_matrix(256, 256, 1.0, 31)
        w = w - dequantize(quantize(w))
        ref = linalg._gram_svd(w, 16)
        gram, widths = _spy(monkeypatch, "_gram_svd"), _qr_widths(monkeypatch)
        _assert_same_bits(leading_svd(w, 16), ref)
        assert len(gram) == 1 and widths == [16, 16]

    def test_missed_contract_takes_the_gram_bits(self, monkeypatch):
        # At sigma_r / sigma_(r+1) = 4 the path runs to depth 3 (the new
        # block keeps under 0.05 of its norm) and its basis passes the
        # separation test, but its residual, about 1e-7, misses the
        # contract: the result is the Gram path's, bit for bit.
        w = _gapped(64, 48, 4, gap=4.0)
        ref = linalg._gram_svd(w, 4)
        widths, ritz = _qr_widths(monkeypatch), _ritz_calls(monkeypatch)
        gram = _spy(monkeypatch, "_gram_svd")
        _assert_same_bits(leading_svd(w, 4), ref)
        assert len(gram) == 1 and widths == [4] * 4 and _basis_widths(ritz) == [16, 4]
        assert _separates(w, 4, ritz[0])

    def test_rank_deficient_past_its_rank(self, monkeypatch):
        # Rank 4 asked for 6: the depth-1 block is deflated away, so the
        # Ritz step runs on the first block, and its two extra triplets
        # have zero singular values.
        w = RandomSource(4).normal((30, 4)) @ RandomSource(5).normal((4, 25))
        ref = exact_svd(w).truncate(6)
        gram, widths = _spy(monkeypatch, "_gram_svd"), _qr_widths(monkeypatch)
        ritz = _ritz_calls(monkeypatch)
        f = leading_svd(w, 6)
        assert not gram and widths == [6] and _basis_widths(ritz) == [6]
        tol = 1e-12 * ref.s[0]
        np.testing.assert_allclose(f.s, ref.s, rtol=1e-12, atol=tol)
        for a, b in ((f.u[:, :4], ref.u[:, :4]), (f.v[:, :4], ref.v[:, :4])):
            np.testing.assert_allclose(a @ a.T, b @ b.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(f.reconstruct(), ref.reconstruct(), rtol=0, atol=tol)

    @pytest.mark.parametrize("case", MISSING_TOP_CASES)
    def test_basis_without_the_top_triplet(self, case):
        # The Ritz triplets of a basis that misses u_1 read sigma_2..sigma_(r+1)
        # and meet the residual contract. The separation test refuses them:
        # theta_(r+1) plus ||w - Q Q^T w||_F, at least sigma_1 = 10, is not
        # below theta_r.
        r, s = MISSING_TOP_CASES[case]
        w = _without_top_direction(r, s)
        np.testing.assert_allclose(leading_svd(w, r).s, exact_svd(w).truncate(r).s,
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shape", [(64, 48), (48, 64)], ids=["tall", "wide"])
    def test_deterministic(self, shape, monkeypatch):
        w = _gapped(*shape, 4)
        gram, ritz = _spy(monkeypatch, "_gram_svd"), _ritz_calls(monkeypatch)
        a, b = leading_svd(w, 4), leading_svd(w, 4)
        assert not gram and _basis_widths(ritz) == [16, 16]
        _assert_same_bits(a, b)


def test_every_initializer_runs_without_dsyevr(monkeypatch):
    # numpy on another LAPACK (no LAPACKE tridiagonal symbols):
    # leading_svd takes the full SVD and nuclear_norm the SVD sum, and every
    # initializer gives the layer it gives with them, up to rounding. At
    # rank 8 of 40 x 32, 4 r is not below min(m, n): no call takes the
    # Krylov path, which needs no tridiagonal step.
    w = generate_spectral_matrix(40, 32, 1.0, 3)
    inits = {name: lambda w, init=init: init(w, 8, RandomSource(1), QuantConfig())
             for name, init in STRATEGIES.items()}
    inits["qpissa_T3"] = lambda w: qpissa_init(w, 8, T=3)
    inits["loftq_T3"] = lambda w: loftq_init(w, 8, T=3)
    with_dsyevr = {name: init(w) for name, init in inits.items()}
    err = w - merge(with_dsyevr["loftq_T3"])
    nuclear = nuclear_norm(err)
    for name in _TRIDIAGONAL_STEPS:
        monkeypatch.setattr(linalg, name, None)
    for name, init in inits.items():
        layer, ref = init(w), with_dsyevr[name]
        assert layer.origin == ref.origin
        np.testing.assert_allclose(merge(layer), merge(ref), rtol=0, atol=1e-12)
        np.testing.assert_allclose(layer.adapter.delta(), ref.adapter.delta(),
                                   rtol=0, atol=1e-12)
    assert nuclear_norm(err) == _svd_sum(err)
    assert nuclear_norm(err) == pytest.approx(nuclear, rel=1e-12, abs=0)


def test_numpy_exports_every_lapack_routine_linalg_binds():
    # numpy's OpenBLAS wheels export all six; a wheel that drops one fails
    # here by name rather than silently taking numpy's SVD or a full-SVD
    # fallback.
    missing = [name for name in ("_DGESDD", "_DGESVD") + _TRIDIAGONAL_STEPS
               if getattr(linalg, name) is None]
    assert not missing


def test_nan_filled_buffers_keep_both_gram_paths(monkeypatch):
    # dsytrd sets n - 1 of e's n entries; the last is dstemr's workspace,
    # which some LAPACKE releases check for NaN. With np.empty handing out
    # NaN-filled float buffers, as reused memory may, both Gram kernels
    # keep their path (no full SVD) and their bits.
    m, w = _loftq_residual(64), generate_spectral_matrix(64, 64, 1.0, 9)
    total, bases = nuclear_norm(m), {r: leading_svd(w, r) for r in (1, 16)}
    empty = np.empty

    def nan_filled(*args, **kwargs):
        a = empty(*args, **kwargs)
        if a.dtype.kind == "f":
            a.fill(np.nan)
        return a

    monkeypatch.setattr(np, "empty", nan_filled)
    _forbid_full_svd(monkeypatch, m)  # m and w share their shape
    assert nuclear_norm(m) == total
    for r, ref in bases.items():
        _assert_same_bits(leading_svd(w, r), ref)


def householder_qr(m):
    # Reference: textbook Householder QR with r_jj = -sign(x_0) * ||x||,
    # reflecting every column. qr_thin agrees with it wherever each column
    # has a nonzero entry below the diagonal, as tall Gaussian inputs do.
    rows, cols = m.shape
    r, q = m.copy(), np.eye(rows)
    for j in range(cols):
        v = r[j:, j].copy()
        v[0] += np.copysign(np.linalg.norm(v), v[0])
        v /= np.linalg.norm(v)
        r[j:, j:] -= 2.0 * np.outer(v, v @ r[j:, j:])
        q[:, j:] -= 2.0 * np.outer(q[:, j:] @ v, v)
    return q[:, :cols], np.triu(r[:cols])


class TestQrThin:
    @pytest.mark.parametrize("shape", [(6, 4), (40, 13), (128, 26)])
    def test_matches_householder_reference(self, shape):
        m = RandomSource(4).normal(shape)
        q, r = qr_thin(m)
        q_ref, r_ref = householder_qr(m)
        np.testing.assert_allclose(q, q_ref, atol=1e-13)
        np.testing.assert_allclose(r, r_ref, atol=1e-12)

    def test_orthonormal_input(self):
        q0, _ = qr_thin(RandomSource(1).normal((6, 4)))
        q, r = qr_thin(q0)
        np.testing.assert_allclose(np.abs(np.diag(r)), np.ones(4), atol=1e-12)
        np.testing.assert_allclose(q @ r, q0, atol=1e-12)

    def test_single_column(self):
        # A reflected column gets r_jj = -sign(x_0) * ||x||.
        q, r = qr_thin(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(q, [[-0.6], [-0.8]], atol=1e-14)
        np.testing.assert_allclose(r, [[-5.0]], atol=1e-14)
        np.testing.assert_allclose(q @ r, [[3.0], [4.0]], atol=1e-14)

    def test_square_last_column_unreflected(self):
        # The last column of a square input is already zero below the
        # diagonal, so it is not reflected and r_nn keeps its sign.
        q, r = qr_thin(np.array([[3.0, 1.0], [4.0, 2.0]]))
        np.testing.assert_allclose(r, [[-5.0, -2.2], [0.0, 0.4]], atol=1e-14)
        np.testing.assert_allclose(q @ r, [[3.0, 1.0], [4.0, 2.0]], atol=1e-14)

    def test_random_8x3(self):
        m = RandomSource(2).normal((8, 3))
        q, r = qr_thin(m)
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(q @ r, m, atol=1e-10)
        assert np.allclose(r, np.triu(r))

    def test_zero_column(self):
        m = RandomSource(3).normal((5, 3))
        m[:, 1] = 0.0
        q, r = qr_thin(m)
        np.testing.assert_allclose(q @ r, m, atol=1e-12)
        assert r[1, 1] == 0.0

    def test_wide_rejected(self):
        with pytest.raises(ShapeError):
            qr_thin(np.zeros((2, 5)))


class TestRandomizedSvd:
    def test_exact_rank_one(self):
        u = RandomSource(0).normal((10, 1))
        v = RandomSource(1).normal((7, 1))
        w = u @ v.T
        f = randomized_svd(w, 1, 1, RandomSource(2))
        err = frobenius_norm(f.reconstruct() - w) / frobenius_norm(w)
        assert err <= 1e-8

    def test_axis_aligned_diagonal(self):
        w = np.diag([3.0, 2.0, 1.0, 0.0])
        f = randomized_svd(w, 2, 2, RandomSource(0))
        np.testing.assert_allclose(f.s, [3.0, 2.0], atol=1e-10)

    def test_more_iterations_not_worse(self):
        w = generate_spectral_matrix(64, 64, 1.0, 11)
        exact_err = frobenius_norm(exact_svd(w).truncate(16).reconstruct() - w)
        e1 = frobenius_norm(
            randomized_svd(w, 16, 1, RandomSource(0)).reconstruct() - w)
        e16 = frobenius_norm(
            randomized_svd(w, 16, 16, RandomSource(1)).reconstruct() - w)
        assert exact_err <= e16 <= e1

    @pytest.mark.parametrize("seed", range(5))
    def test_singular_values_match_exact(self, seed):
        w = generate_spectral_matrix(48, 40, 1.0, seed)
        exact = exact_svd(w).truncate(8)
        fast = randomized_svd(w, 8, 16, RandomSource(seed + 100))
        np.testing.assert_allclose(fast.s, exact.s, rtol=1e-4)
        np.testing.assert_allclose(fast.u.T @ fast.u, np.eye(8), atol=1e-8)
        np.testing.assert_allclose(fast.v.T @ fast.v, np.eye(8), atol=1e-8)

    @pytest.mark.parametrize("shape", [(40, 24), (24, 40), (30, 30)],
                             ids=["tall", "wide", "square"])
    def test_exact_rank_matches_exact_svd_with_signs(self, shape):
        # On a matrix of exact rank r the range finder captures the whole
        # range, so the shared Ritz step must give exact_svd's triplets,
        # sign convention included.
        r = 5
        u, _ = np.linalg.qr(RandomSource(1).normal((shape[0], r)))
        v, _ = np.linalg.qr(RandomSource(2).normal((shape[1], r)))
        w = (u * [9.0, 7.0, 5.0, 3.0, 1.0]) @ v.T
        fast = randomized_svd(w, r, 1, RandomSource(3))
        ref = exact_svd(w).truncate(r)
        for got, want in ((fast.u, ref.u), (fast.s, ref.s), (fast.v, ref.v)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("shape,r", [((128, 128), 16), ((64, 48), 4), ((48, 64), 5)])
    @pytest.mark.parametrize("seed", range(3))
    def test_ritz_values_never_shrink_with_depth(self, shape, r, seed):
        # For one draw the Krylov spaces are nested, so by Cauchy interlacing
        # each Ritz value can only grow with niter.
        w = generate_spectral_matrix(*shape, 1.0, 100 + seed)
        s = [randomized_svd(w, r, niter, RandomSource(seed)).s for niter in range(10)]
        for low, high in zip(s, s[1:]):
            assert np.all(high >= low * (1 - 1e-12)), (low, high)

    @staticmethod
    def _assert_exact_triplets(w, r, niter):
        fast = randomized_svd(w, r, niter, RandomSource(3))
        ref = exact_svd(w).truncate(r)
        for got, want in ((fast.u, ref.u), (fast.s, ref.s), (fast.v, ref.v)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        for f in (fast.u, fast.v):
            np.testing.assert_allclose(f.T @ f, np.eye(r), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("niter", [1, 4])
    def test_rank_one_past_its_rank(self, niter):
        u = RandomSource(0).normal((10, 1))
        v = RandomSource(1).normal((7, 1))
        self._assert_exact_triplets(u @ v.T, 1, niter)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_diagonal_with_a_zero_past_its_rank(self, r):
        # The blocks after the first span nothing new in w's range (rank 3);
        # without deflation their noise columns corrupted the top value.
        self._assert_exact_triplets(np.diag([3.0, 2.0, 1.0, 0.0]), r, 4)

    @pytest.mark.parametrize("r", [1, 2, 5])
    @pytest.mark.parametrize("shape", [(40, 24), (24, 40), (30, 30)],
                             ids=["tall", "wide", "square"])
    def test_rank_five_past_its_rank(self, shape, r, monkeypatch):
        u, _ = np.linalg.qr(RandomSource(1).normal((shape[0], 5)))
        v, _ = np.linalg.qr(RandomSource(2).normal((shape[1], 5)))
        widths = _qr_widths(monkeypatch)
        self._assert_exact_triplets((u * [9.0, 7.0, 5.0, 3.0, 1.0]) @ v.T, r, 8)
        # Once the blocks span the rank-5 range, the next one is deflated
        # away and no block follows.
        assert widths == [r] * -(-5 // r)

    @pytest.mark.parametrize("shape,r,niter", [((64, 48), 4, 16), ((48, 64), 4, 11),
                                                ((40, 40), 7, 8), ((30, 20), 3, 19)])
    def test_full_basis_is_exact_svd(self, shape, r, niter):
        # The basis stops at min(m, n) columns, where the Ritz step is the
        # exact SVD.
        w = generate_spectral_matrix(*shape, 1.0, 7)
        fast = randomized_svd(w, r, niter, RandomSource(3))
        ref = exact_svd(w).truncate(r)
        for got, want in ((fast.u, ref.u), (fast.s, ref.s), (fast.v, ref.v)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_rank_out_of_range(self):
        w = RandomSource(0).normal((4, 4))
        with pytest.raises(ValueError):
            randomized_svd(w, 5, 1, RandomSource(0))
        with pytest.raises(ValueError):
            randomized_svd(w, 0, 1, RandomSource(0))

    def test_negative_niter_rejected(self):
        with pytest.raises(ValueError, match="niter must be non-negative"):
            randomized_svd(RandomSource(0).normal((4, 4)), 2, -1, RandomSource(0))

    @pytest.mark.parametrize("k", [3, -3, 200, -200, 300, -300, 700, -700, 1000, -1000])
    @pytest.mark.parametrize("shape", [(64, 48), (48, 64), (48, 48), "gapped"],
                             ids=["tall", "wide", "square", "gapped"])
    def test_extreme_scales_keep_the_krylov_depth(self, shape, k, monkeypatch):
        # The equivariance of every SVD entry, randomized_svd's Krylov depth
        # included: on 2^k w each kernel gives the scale-1 call's u and v
        # and its s (or sum) times 2^k, bit for bit wherever 2^k w holds the
        # bits of w. pissa_init's factors carry sqrt(s), so its reference is
        # the call on 2^(k mod 2) w. The cases: 2^+-3 runs unscaled, at
        # 2^+-200 dsyevr would rescale the Gram matrix, at 2^+-300 the Krylov
        # blocks w (w^T q) overflowed or underflowed to 0 and the call lost
        # its depth, at 2^+-700 gesdd rescales, and 2^+-1000 nears the limits.
        # leading_svd's Krylov path serves the gapped case only.
        w = (_gapped(64, 48, 4) if shape == "gapped"
             else generate_spectral_matrix(*shape, 1.0, 3))
        gram = _spy(monkeypatch, "_gram_svd")
        wk, odd = np.ldexp(w, k), k & 1
        exact = np.array_equal(np.ldexp(wk, -k), w)

        def same(a, b):
            assert (np.array_equal(a, b) if exact
                    else np.allclose(a, b, rtol=1e-12, atol=1e-12))

        for kernel in (exact_svd, lambda m: leading_svd(m, 4),
                       lambda m: randomized_svd(m, 4, 4, RandomSource(1))):
            got, ref = kernel(wk), kernel(w)
            for a, b in ((got.u, ref.u), (np.ldexp(got.s, -k), ref.s), (got.v, ref.v)):
                same(a, b)
        same(np.ldexp(nuclear_norm(wk), -k), nuclear_norm(w))
        got, ref = pissa_init(wk, 4), pissa_init(np.ldexp(w, odd), 4)
        half = (k - odd) // 2
        for a, b in ((np.ldexp(got.adapter.a, -half), ref.adapter.a),
                     (np.ldexp(got.adapter.b, -half), ref.adapter.b),
                     (np.ldexp(got.base, odd - k), ref.base)):
            same(a, b)
        assert (not gram) == (shape == "gapped")


# sigma_1 of 1.7e308 times ones (3.4e308 at 2 x 2) lies past the largest float64.
OVERFLOWING = {
    "exact": lambda: exact_svd(1.7e308 * np.ones((2, 2))),
    "leading": lambda: leading_svd(1.7e308 * np.ones((2, 2)), 1),
    "nuclear": lambda: nuclear_norm(1.7e308 * np.ones((2, 2))),
    "randomized": lambda: randomized_svd(1.7e308 * np.ones((3, 2)), 1, 2,
                                         RandomSource(0)),
}


@pytest.mark.parametrize("kernel", OVERFLOWING)
def test_overflowing_singular_value_raises(kernel):
    with pytest.raises(NumericalError, match="overflow"):
        OVERFLOWING[kernel]()


def test_pissa_init_near_the_largest_float_is_exact():
    # sigma_1 = 1.15e308 is finite, so the split meets the contract.
    w = 1e308 * np.array([[1, .5], [.25, .125]])
    assert linalg.relative_error(w - merge(pissa_init(w, 1)), w) <= linalg.TOLERANCE


def test_entries_subnormal_after_scaling_cost_at_most_eps_sigma1():
    # Scaled by 2^-1001, 2^-100 turns 2^-1101 and flushes to 0: sigma_2 is
    # lost, but only to eps sigma_1, and every split still reconstructs w.
    w = np.diag([2.0**1000, 2.0**-100])
    bound = np.finfo(np.float64).eps * 2.0**1000
    for f in (exact_svd(w), leading_svd(w, 2), randomized_svd(w, 2, 2, RandomSource(0))):
        assert np.all(np.abs(f.s - np.diag(w)) <= bound)
        assert linalg.relative_error(f.reconstruct() - w, w) <= linalg.TOLERANCE
    assert abs(nuclear_norm(w) - np.trace(w)) <= bound
    assert linalg.relative_error(w - merge(pissa_init(w, 1)), w) <= linalg.TOLERANCE


def _ritz_inputs(shape, swap, k=12):
    # A Ritz step's (product, basis) as its callers form them: for swap the
    # basis spans w's column space and the product is w^T basis.
    w = generate_spectral_matrix(*shape, 1.0, 5)
    side = w.shape[0] if swap else w.shape[1]
    basis, _ = np.linalg.qr(RandomSource(6).normal((side, k)))
    return ((basis.T @ w).T if swap else w @ basis), basis


def _spy(monkeypatch, name):
    # Record each call's return value of linalg.<name>.
    seen, fn = [], getattr(linalg, name)
    monkeypatch.setattr(linalg, name, lambda *a: seen.append(fn(*a)) or seen[-1])
    return seen


def _qr_widths(monkeypatch):
    # The column count of each linalg.qr_thin input: one per Krylov block.
    widths, qr = [], linalg.qr_thin
    monkeypatch.setattr(linalg, "qr_thin", lambda m: widths.append(m.shape[1]) or qr(m))
    return widths


def _ritz_calls(monkeypatch):
    # Each linalg._ritz call as (product, basis, result).
    seen, ritz = [], linalg._ritz
    monkeypatch.setattr(linalg, "_ritz", lambda p, basis, swap: seen.append(
        (p, basis, ritz(p, basis, swap))) or seen[-1][2])
    return seen


def _basis_widths(ritz):
    return [basis.shape[1] for _, basis, _ in ritz]


def _separates(w, r, call):
    # leading_svd's separation test, recomputed from the Krylov path's Ritz
    # call: its product p = w^T Q, its basis Q and its Ritz values theta.
    # Weyl: sigma_(r+1)(w) <= theta_(r+1) + ||w - Q Q^T w||.
    p, basis, f = call
    outside = frobenius_norm(basis @ p.T - w)
    theta_next = f.s[r] if f.rank > r else 0.0
    return outside <= linalg.TOLERANCE * frobenius_norm(w) or theta_next + outside < f.s[r - 1]


RITZ_SHAPES = {"tall": ((60, 40), False), "wide": ((40, 60), True),
               "square": ((48, 48), True)}


class TestCholeskyQr2Ritz:
    @pytest.mark.parametrize("case", RITZ_SHAPES)
    def test_fast_path_matches_exact_svd_of_product(self, case, monkeypatch):
        p, basis = _ritz_inputs(*RITZ_SHAPES[case])
        fast = linalg._ritz(p, basis, RITZ_SHAPES[case][1])
        monkeypatch.setattr(linalg, "_cholesky_qr2", lambda p: None)
        ref = linalg._ritz(p, basis, RITZ_SHAPES[case][1])
        np.testing.assert_allclose(fast.s, ref.s, rtol=1e-13, atol=0)
        for got, want in ((fast.u, ref.u), (fast.v, ref.v)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
            np.testing.assert_allclose(got.T @ got, np.eye(12), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("scale", [1.0, 1e-30, 1e30])
    def test_helper_factors_the_product(self, scale):
        # p is taken as it comes: its callers' entry scaling keeps max|w|
        # within 2^+-100 (about 1e+-30) of 1, where p's Gram product is in range.
        p = scale * _ritz_inputs((60, 40), False)[0]
        q, r = linalg._cholesky_qr2(p)
        np.testing.assert_allclose(q.T @ q, np.eye(12), rtol=0, atol=1e-14)
        assert np.array_equal(r, np.triu(r))
        assert linalg.relative_error(q @ r - p, p) <= 1e-14

    def test_missed_orthogonality_bound_gives_up(self, monkeypatch):
        p = _ritz_inputs((60, 40), False)[0]
        monkeypatch.setattr(linalg, "_ORTH_TOL", 0.0)
        assert linalg._cholesky_qr2(p) is None

    def test_failed_cholesky_takes_exact_svd_of_product(self, monkeypatch):
        p, basis = _ritz_inputs((60, 40), False)
        ref = linalg._ritz(p, basis, False)

        def fail(g):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        svds = []
        monkeypatch.setattr(linalg, "exact_svd",
                            lambda a, svd=linalg.exact_svd: svds.append(a) or svd(a))
        f = linalg._ritz(p, basis, False)
        assert len(svds) == 1 and svds[0] is p
        np.testing.assert_allclose(f.s, ref.s, rtol=1e-13, atol=0)
        np.testing.assert_allclose(f.reconstruct(), ref.reconstruct(), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("shape", [(30, 30), (40, 24), (24, 40)])
    def test_rank_deficient_product_takes_exact_svd(self, shape, monkeypatch):
        # Rank 5 asked for 8: the first block holds three directions outside
        # w's range, so the product w^T basis has rank 5 and no Cholesky factor.
        u, _ = np.linalg.qr(RandomSource(1).normal((shape[0], 5)))
        v, _ = np.linalg.qr(RandomSource(2).normal((shape[1], 5)))
        w = (u * [9.0, 7.0, 5.0, 3.0, 1.0]) @ v.T
        helper = _spy(monkeypatch, "_cholesky_qr2")
        f = randomized_svd(w, 8, 2, RandomSource(3))
        assert helper == [None]
        ref = exact_svd(w).truncate(8)
        np.testing.assert_allclose(f.s, ref.s, rtol=0, atol=1e-12)
        np.testing.assert_allclose(f.reconstruct(), w, rtol=0, atol=1e-12)
        for g in (f.u, f.v):
            np.testing.assert_allclose(g.T @ g, np.eye(8), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(96, 64), (64, 96)])
    @pytest.mark.parametrize("fast", ["randomized", "leading"])
    def test_no_thin_svd_on_spectral_matrices(self, shape, fast, monkeypatch):
        # The fast path runs: the SVD sees only the small k x k factor.
        w = generate_spectral_matrix(*shape, 1.0, 0)
        ref, gesdd, seen = exact_svd(w).truncate(8), linalg._gesdd, []

        def square_only(a, jobz):
            if a.shape[0] != a.shape[1]:
                raise AssertionError(f"SVD of a {a.shape} matrix")
            seen.append(a.shape)
            return gesdd(a, jobz)

        monkeypatch.setattr(linalg, "_gesdd", square_only)
        helper = _spy(monkeypatch, "_cholesky_qr2")
        f = (randomized_svd(w, 8, 2, RandomSource(0)) if fast == "randomized"
             else leading_svd(w, 8))
        assert len(helper) == 1 and helper[0] is not None and seen
        rtol = 1e-2 if fast == "randomized" else 1e-12
        np.testing.assert_allclose(f.s, ref.s, rtol=rtol, atol=0)

    @pytest.mark.parametrize("niter", [0, 2, 4])
    def test_randomized_svd_replays_bit_for_bit(self, niter):
        w = generate_spectral_matrix(80, 64, 1.0, 4)
        a, b = (randomized_svd(w, 8, niter, RandomSource(9)) for _ in range(2))
        _assert_same_bits(a, b)


class TestRandomSource:
    def test_determinism(self):
        a = RandomSource(42).normal((5, 5))
        b = RandomSource(42).normal((5, 5))
        assert np.array_equal(a, b)

    def test_spawn_streams_differ(self):
        rng = RandomSource(42)
        assert not np.array_equal(rng.spawn(0).normal(8), rng.spawn(1).normal(8))


def test_as_matrix_rejects_inf():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.inf]])

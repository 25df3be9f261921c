import ctypes

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
        # These matrices must be summed from dsyevr's Gram spectrum, without
        # their full SVD, to within 1e-13 (the root estimates stop at 2e-14).
        m = NUCLEAR_CASES[case]()
        expected, svd = _svd_sum(m), np.linalg.svd

        def thin_only(a, *args, **kwargs):
            if a.shape == m.shape:
                raise AssertionError("nuclear_norm took the full SVD")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", thin_only)
        assert nuclear_norm(m) == pytest.approx(expected, rel=1e-13, abs=0)

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
        svd, gesvd, retries = np.linalg.svd, linalg._gesvd, []

        def spy(m):
            retries.append(m.shape)
            return gesvd(m)

        def off(m, **kwargs):
            # A driver that returns but misses the reconstruction contract.
            u, s, vt = svd(m, full_matrices=False)
            return u, s * (1 + 1e-6), vt

        monkeypatch.setattr(np.linalg, "svd", off)
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
        def failing(m, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)

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

    def test_nan_residual_misses_the_contract(self):
        # The true singular values are 3.4e308, which overflows, and 0; the
        # drivers return inf, and the residual is NaN.
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="nan"):
            exact_svd(1.7e308 * np.ones((2, 2)))


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


# (matrix, r) pairs for leading_svd: tall, wide, r = min(m, n), rank
# deficient (rank 4, asked for 6), zero, and a single row.
LEADING_CASES = {
    "tall": (generate_spectral_matrix(40, 24, 1.0, 1), 6),
    "wide": (generate_spectral_matrix(24, 40, 1.0, 2), 6),
    "full": (RandomSource(3).normal((20, 12)), 12),
    "rank_deficient": (RandomSource(4).normal((30, 4))
                       @ RandomSource(5).normal((4, 25)), 6),
    "zero": (np.zeros((7, 5)), 3),
    "row": (RandomSource(6).normal((1, 9)), 1),
}


def _forbid_full_svd(monkeypatch, w):
    # np.linalg.svd raises on w itself: the full SVD of exact_svd(w), the
    # fallback, must not run. Thin products such as the Ritz step's pass.
    svd = np.linalg.svd

    def thin_only(a, *args, **kwargs):
        if a.shape == w.shape and np.array_equal(a, w):
            raise AssertionError("leading_svd fell back to the full SVD")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", thin_only)


def _assert_same_bits(f, ref):
    for x, y in ((f.u, ref.u), (f.s, ref.s), (f.v, ref.v)):
        assert np.array_equal(x, y)


class TestLeadingSvd:
    @pytest.mark.parametrize("case", LEADING_CASES)
    def test_matches_truncated_exact_svd(self, case, monkeypatch):
        # The basis comes from dsyevr where numpy's LAPACK exports it, so the
        # full SVD must not run there.
        w, r = LEADING_CASES[case]
        ref = exact_svd(w).truncate(r)
        if linalg._DSYEVR is not None:
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
        # Without dsyevr there is no eigenvector basis: leading_svd returns
        # its one fallback, exact_svd(w).truncate(r), bit for bit.
        w, r = LEADING_CASES[case]
        monkeypatch.setattr(linalg, "_DSYEVR", None)
        _assert_same_bits(leading_svd(w, r), exact_svd(w).truncate(r))

    def test_deterministic(self):
        w = generate_spectral_matrix(48, 32, 1.0, 7)
        a, b = leading_svd(w, 8), leading_svd(w, 8)
        for x, y in ((a.u, b.u), (a.s, b.s), (a.v, b.v)):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("info,short", [(1, 0), (0, 1)])
    def test_failed_dsyevr_falls_back_to_exact_svd(self, monkeypatch, wide, info, short):
        # A failed call (info != 0, or fewer than r values) may have
        # overwritten the Gram matrix, as LAPACK does: dsyevr is not called
        # again, and the result is exact_svd(w).truncate(r), bit for bit.
        w = generate_spectral_matrix(30, 20, 1.0, 8)
        w = w.T if wide else w
        ref = exact_svd(w).truncate(5)
        calls = []

        def failing(layout, jobz, rng, uplo, n, a, lda, vl, vu, il, iu,
                    abstol, found, *rest):
            calls.append((n, il, iu))
            ctypes.memset(a, 0, n * n * 8)
            found.value = iu - il + 1 - short
            return info

        monkeypatch.setattr(linalg, "_DSYEVR", failing)
        f = leading_svd(w, 5)
        assert calls == [(20, 16, 20)]
        _assert_same_bits(f, ref)

    @pytest.mark.parametrize("scale", [1e150, 1e160, 1e-160, 1e-170, 1e300])
    @pytest.mark.parametrize("shape", [(32, 32), (4, 4)], ids=["spectral", "ones"])
    def test_extreme_scales_take_the_dsyevr_path(self, monkeypatch, scale, shape):
        # Out of the Gram product's range the dsyevr basis must still serve:
        # the full SVD does not run, and the triplets match exact_svd's up to
        # rounding. A 4x4 matrix of ones has rank 1, so three of its four
        # singular values are zero.
        w = scale * (generate_spectral_matrix(32, 32, 1.0, 0)
                     if shape == (32, 32) else np.ones(shape))
        ref = exact_svd(w).truncate(4)
        if linalg._DSYEVR is not None:
            _forbid_full_svd(monkeypatch, w)
        got = leading_svd(w, 4)
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


def test_every_initializer_runs_without_dsyevr(monkeypatch):
    # numpy on another LAPACK (no LAPACKE dsyevr symbol): leading_svd takes
    # the full SVD and nuclear_norm the SVD sum, and every initializer gives
    # the layer it gives with dsyevr, up to rounding.
    w = generate_spectral_matrix(40, 32, 1.0, 3)
    inits = {name: lambda w, init=init: init(w, 4, RandomSource(1), QuantConfig())
             for name, init in STRATEGIES.items()}
    inits["qpissa_T3"] = lambda w: qpissa_init(w, 4, T=3)
    inits["loftq_T3"] = lambda w: loftq_init(w, 4, T=3)
    with_dsyevr = {name: init(w) for name, init in inits.items()}
    err = w - merge(with_dsyevr["loftq_T3"])
    nuclear = nuclear_norm(err)
    monkeypatch.setattr(linalg, "_DSYEVR", None)
    for name, init in inits.items():
        layer, ref = init(w), with_dsyevr[name]
        assert layer.origin == ref.origin
        np.testing.assert_allclose(merge(layer), merge(ref), rtol=0, atol=1e-12)
        np.testing.assert_allclose(layer.adapter.delta(), ref.adapter.delta(),
                                   rtol=0, atol=1e-12)
    assert nuclear_norm(err) == _svd_sum(err)
    assert nuclear_norm(err) == pytest.approx(nuclear, rel=1e-12, abs=0)


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
        widths = []
        monkeypatch.setattr(linalg, "qr_thin",
                            lambda m, qr=linalg.qr_thin: widths.append(m.shape[1]) or qr(m))
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

    @pytest.mark.parametrize("k", [300, -300, 700, -700])
    @pytest.mark.parametrize("shape", [(64, 48), (48, 64)], ids=["tall", "wide"])
    def test_extreme_scales_keep_the_krylov_depth(self, shape, k):
        # Each new block w (w^T q) is of order |w|^2. Unscaled, past about
        # 2^+-250 its column norms overflowed or underflowed to 0, every
        # column was deflated, and the call returned its niter-0 answer.
        w = generate_spectral_matrix(*shape, 1.0, 3)
        ref = randomized_svd(w, 4, 4, RandomSource(1))
        got = randomized_svd(np.ldexp(w, k), 4, 4, RandomSource(1))
        for a, b in ((np.ldexp(got.s, -k), ref.s), (got.u, ref.u), (got.v, ref.v)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


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

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    def test_helper_factors_the_product(self, scale):
        # Outside the Gram product's range p is scaled as _gram scales it.
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
        # The fast path runs: np.linalg.svd sees only the small k x k factor.
        w = generate_spectral_matrix(*shape, 1.0, 0)
        ref, svd = exact_svd(w).truncate(8), np.linalg.svd

        def square_only(a, *args, **kwargs):
            if a.shape[0] != a.shape[1]:
                raise AssertionError(f"SVD of a {a.shape} matrix")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", square_only)
        helper = _spy(monkeypatch, "_cholesky_qr2")
        f = (randomized_svd(w, 8, 2, RandomSource(0)) if fast == "randomized"
             else leading_svd(w, 8))
        assert len(helper) == 1 and helper[0] is not None
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

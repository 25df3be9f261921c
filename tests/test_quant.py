import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import pissa
from pissa import linalg, quant
from pissa.adapter import merge, pissa_init
from pissa.harness.data import generate_spectral_matrix
from pissa.harness.matrix_io import load_quantized, save_quantized
from pissa.linalg import (RandomSource, ShapeError, exact_svd, frobenius_norm,
                          nuclear_norm)
from pissa.quant import (NF4_LEVELS, QuantConfig, QuantizedMatrix,
                         dequantize, distribution_diagnostics,
                         error_reduction_ratio, loftq_init, qlora_error,
                         qlora_init, qpissa_init, quant_report,
                         quantization_error_bound, quantize)

# 128x128 power-law matrices whose LoftQ residual is numerically rank
# deficient; see test_report_on_rank_deficient_residual.
RANK_DEFICIENT_SEEDS = (9, 34, 53)

# Frozen output of the quantile construction (see the oracle test below).
GOLDEN_LEVELS = (
    -1.0, -0.696192805632343, -0.5250729594465005, -0.3949174259199071,
    -0.28444130892108205, -0.1847734028004556, -0.09104997598578049, 0.0,
    0.07958031495840909, 0.1609301443802907, 0.2461122513474594,
    0.3379151367131279, 0.44070973186421625, 0.5626168879699849,
    0.7229566441594734, 1.0,
)


class TestCodebook:
    def test_golden_values(self):
        assert tuple(NF4_LEVELS) == GOLDEN_LEVELS
        assert not NF4_LEVELS.flags.writeable
        assert pissa.NF4_LEVELS is NF4_LEVELS

    def test_quantile_oracle(self):
        # Recompute from scratch: evenly spaced normal quantiles, eight on
        # the negative side and nine on the non-negative side (zero shared),
        # normalized by the largest magnitude.
        offset = 1.0 - (1.0 / 32 + 1.0 / 30) / 2
        pos = [stats.norm.ppf(p) for p in np.linspace(0.5, offset, 9)]
        neg = [-stats.norm.ppf(p) for p in np.linspace(offset, 0.5, 8)]
        oracle = sorted(set(v / pos[-1] for v in neg[:-1] + pos) | {0.0})
        np.testing.assert_allclose(GOLDEN_LEVELS, oracle, atol=1e-15)

    def test_structure(self):
        lv = NF4_LEVELS
        assert lv.shape == (16,)
        assert (np.diff(lv) > 0).all()
        assert lv[0] == -1.0 and lv[-1] == 1.0
        assert lv[7] == 0.0


class TestQuantizeDequantize:
    @pytest.mark.parametrize("shape", [(8, 16), (5, 7)], ids=["tiled", "ragged"])
    def test_input_is_never_written(self, shape):
        # Whole blocks are a view of the input, so a write would reach it.
        w = RandomSource(4).normal(shape)
        before = w.copy()
        w.flags.writeable = False
        quantize(w, QuantConfig(block_size=16))
        assert np.array_equal(w, before)

    def test_zero_matrix(self):
        q = quantize(np.zeros((8, 8)))
        assert (q.scales == 0.0).all()
        assert (q.codes.ravel() == 7).all()  # index of the zero level
        assert np.array_equal(dequantize(q), np.zeros((8, 8)))

    def test_empty_matrix(self):
        q = quantize(np.zeros((0, 4)), QuantConfig(block_size=3))
        assert q.scales.size == 0 and q.codes.size == 0
        assert dequantize(q).shape == (0, 4)

    def test_known_block(self):
        cfg = QuantConfig(block_size=4)
        m = np.array([[1.0, -1.0, 0.0, 0.5]])
        q = quantize(m, cfg)
        expected = [15, 0, 7, int(np.argmin(np.abs(NF4_LEVELS - 0.5)))]
        assert list(q.codes.ravel()) == expected
        assert q.scales[0] == 1.0

    def test_nearest_level_brute_force(self):
        cfg = QuantConfig(block_size=16)
        m = RandomSource(0).normal((6, 8))
        q = quantize(m, cfg)
        codes = q.codes.ravel()
        flat = m.ravel()
        for i, x in enumerate(flat):
            scale = q.scales[i // 16]
            best = min(range(16), key=lambda j: (abs(x / scale - NF4_LEVELS[j]), j))
            assert codes[i] == best

    def test_tie_toward_lower_index(self):
        levels = NF4_LEVELS
        midpoint = (levels[7] + levels[8]) / 2  # exactly between 0 and next
        m = np.array([[1.0, midpoint]])
        codes = quantize(m, QuantConfig(block_size=2)).codes.ravel()
        assert codes[1] == 7
        # The rounded midpoint of levels j and j+1 is an exact tie for nine
        # pairs (lower index wins) and lies nearer one side for the other
        # six. Pairs 3 and 13 rule out either midpoint comparison: 3 goes
        # up although x is not above the midpoint, 13 stays down although
        # x is not below it.
        # The end levels +-1 (x on the bracket's outer edge) code as 15 and 0.
        midpoints = (levels[:-1] + levels[1:]) / 2
        m = np.concatenate([[1.0, -1.0], midpoints])[None, :]
        codes = quantize(m, QuantConfig(block_size=17)).codes.ravel()
        assert list(codes[:2]) == [15, 0]
        assert list(codes[2:]) == [0, 1, 2, 4, 5, 5, 6, 7, 8, 10, 10, 11,
                                   13, 13, 14]

    @pytest.mark.parametrize("shape,block", [((8, 8), 64), ((7, 9), 16),
                                             ((1, 5), 64), ((13, 3), 4)])
    def test_idempotence(self, shape, block):
        cfg = QuantConfig(block_size=block)
        m = RandomSource(99).normal(shape)
        m[0, :] = 0.0  # include a zero run
        q1 = quantize(m, cfg)
        q2 = quantize(dequantize(q1), cfg)
        assert np.array_equal(q1.codes, q2.codes)
        assert np.array_equal(q1.scales, q2.scales)

    def test_extremes_roundtrip_exact(self):
        cfg = QuantConfig(block_size=4)
        m = np.array([[0.75, -0.75, 0.1, 0.2]])
        d = dequantize(quantize(m, cfg))
        assert d[0, 0] == 0.75 and d[0, 1] == -0.75

    @pytest.mark.parametrize("shape,block", [((7, 9), 16), ((13, 3), 4),
                                             ((4, 4), 16), ((1, 5), 64)])
    def test_dequantize_uses_each_entrys_block_scale(self, shape, block):
        q = quantize(RandomSource(4).normal(shape), QuantConfig(block_size=block))
        scale = q.scales[np.arange(q.codes.size) // block]
        expected = NF4_LEVELS[q.codes.ravel()] * scale
        assert np.array_equal(dequantize(q).ravel(), expected)
        half_gap = np.max(np.diff(NF4_LEVELS)) / 2.0
        assert np.array_equal(quantization_error_bound(q).ravel(),
                              scale * half_gap + np.spacing(scale))

    @pytest.mark.parametrize("nscales,block_size", [(2, 4), (4, 3), (4, 0)],
                             ids=["missing_scales", "other_block_size", "zero_block_size"])
    def test_scales_must_match_blocks(self, nscales, block_size):
        # Scales for other blocks would dequantize without error, some
        # entries by the wrong scale; the matrix refuses them when built.
        q = quantize(RandomSource(5).normal((4, 4)), QuantConfig(block_size=4))
        with pytest.raises(ValueError, match="scales do not match"):
            QuantizedMatrix(q.codes, q.scales[:nscales], block_size)

    @pytest.mark.parametrize("block_size", [0, -4])
    def test_config_rejects_block_size_below_one(self, block_size):
        with pytest.raises(ValueError, match="block_size must be >= 1"):
            QuantConfig(block_size=block_size)

    def test_block_larger_than_matrix_bounded_memory(self):
        # One float of scale per entry, not one per padded block slot: a
        # 4x4 matrix in one block of 10^6 must not cost megabytes.
        q = quantize(RandomSource(5).normal((4, 4)), QuantConfig(block_size=10**6))
        tracemalloc.start()
        try:
            values = dequantize(q)
            bound = quantization_error_bound(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        scale = q.scales[0]
        assert np.array_equal(values.ravel(), NF4_LEVELS[q.codes.ravel()] * scale)
        assert (bound == scale * np.max(np.diff(NF4_LEVELS)) / 2.0
                + np.spacing(scale)).all()

    @pytest.mark.parametrize("seed", range(10))
    def test_per_entry_error_bound(self, seed):
        cfg = QuantConfig(block_size=32)
        m = RandomSource(seed).normal((16, 16)) * (seed + 1)
        q = quantize(m, cfg)
        err = np.abs(m - dequantize(q))
        assert (err <= quantization_error_bound(q)).all()

    def test_bound_covers_rounding_past_half_the_widest_gap(self):
        # The second entry sits near the middle of the widest gap and codes
        # as -1; with the division and product rounded it lands 2e-26 past
        # scale * half_gap (1.7053324202350853e-10), within one ulp of the scale.
        m = np.array([[1.1226412355273921e-09, -9.521079935038836e-10]])
        q = quantize(m, QuantConfig(block_size=2))
        err = np.abs(m - dequantize(q))
        assert q.codes[0, 1] == 0
        assert err[0, 1] == 1.7053324202350855e-10
        assert (err <= quantization_error_bound(q)).all()


def argmin_quantize(flat, block_size, levels):
    """Reference quantizer: a per-block argmin over all levels."""
    nblocks = math.ceil(flat.size / block_size)
    zero_idx = int(np.where(levels == 0.0)[0][0])
    scales = np.zeros(nblocks)
    codes = np.full(flat.size, zero_idx, dtype=np.uint8)
    for b in range(nblocks):
        block = flat[b * block_size:(b + 1) * block_size]
        scale = float(np.max(np.abs(block)))
        scales[b] = scale
        if scale == 0.0:
            continue
        dist = np.abs(block[:, None] / scale - levels[None, :])
        codes[b * block_size:b * block_size + block.size] = np.argmin(dist, axis=1)
    return scales, codes


_LEVELS = np.asarray(GOLDEN_LEVELS)
_MIDPOINTS = (_LEVELS[:-1] + _LEVELS[1:]) / 2
# Rounded level midpoints and their neighbours one ulp either side.
_ENTRY_POOL = np.concatenate([_MIDPOINTS, np.nextafter(_MIDPOINTS, -2.0),
                              np.nextafter(_MIDPOINTS, 2.0)])
# Unscaled entries: the pool above, the levels themselves, zeros and
# arbitrary values in [-1, 1].
_ENTRIES = st.one_of(st.sampled_from(_ENTRY_POOL.tolist()),
                     st.sampled_from(GOLDEN_LEVELS), st.just(0.0),
                     st.floats(-1.0, 1.0))


class TestQuantizeMatchesArgminLoop:
    @staticmethod
    def check(flat, shape, bs):
        scales, codes = argmin_quantize(flat, bs, _LEVELS)
        m = flat.reshape(shape)
        q = quantize(m, QuantConfig(block_size=bs))
        assert np.array_equal(q.scales, scales)
        assert np.array_equal(q.codes.ravel(), codes)
        assert (np.abs(m - dequantize(q)) <= quantization_error_bound(q)).all()
        with tempfile.TemporaryDirectory() as d:
            save_quantized(Path(d) / "q.psq4", q)
            back = load_quantized(Path(d) / "q.psq4")
        assert np.array_equal(back.codes, q.codes) and back.shape == q.shape
        assert np.array_equal(back.scales, q.scales)
        assert back.block_size == q.block_size

    @pytest.mark.parametrize("shape", [(1, 67), (67, 1)])
    @pytest.mark.parametrize("bs", [16, 1])
    @pytest.mark.parametrize("exponent", [-997, 0, 997])  # about 1e-300 and 1e300
    def test_midpoints_zero_block_ragged_tail(self, shape, bs, exponent):
        # At block size 16: three blocks of a unit anchor and 15 pool
        # entries, one all-zero block, then a ragged tail of three.
        anchored = np.hstack([np.ones((3, 1)), _ENTRY_POOL.reshape(3, 15)])
        flat = np.concatenate([anchored.ravel(), np.zeros(16),
                               [-1.0, _MIDPOINTS[3], _MIDPOINTS[13]]])
        self.check(np.ldexp(flat, exponent), shape, bs)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_inputs(self, data):
        bs = data.draw(st.integers(1, 70), label="block_size")
        n = data.draw(st.integers(1, 150), label="n")
        shape = data.draw(st.sampled_from([(1, n), (n, 1), (n, 2), (2, n)]),
                          label="shape")
        size = shape[0] * shape[1]
        nblocks = math.ceil(size / bs)
        flat = np.array(data.draw(st.lists(_ENTRIES, min_size=size, max_size=size),
                                  label="entries"))
        # A unit anchor makes the block's scale a power of two, so midpoints
        # and their ulp neighbours survive the division by it.
        for b in data.draw(st.lists(st.integers(0, nblocks - 1), max_size=nblocks),
                           label="anchored blocks"):
            flat[b * bs] = data.draw(st.sampled_from([-1.0, 1.0]))
        for b in data.draw(st.lists(st.integers(0, nblocks - 1), max_size=3),
                           label="zero blocks"):
            flat[b * bs:(b + 1) * bs] = 0.0
        exponent = data.draw(st.integers(-1000, 1000), label="exponent")
        self.check(np.ldexp(flat, exponent), shape, bs)


class TestQloraError:
    def test_exact_representable_is_zero(self):
        cfg = QuantConfig(block_size=4)
        m = 2.5 * NF4_LEVELS[[15, 3, 7, 12, 0, 9, 1, 14]].reshape(2, 4)
        assert qlora_error(m, cfg) <= 1e-12

    def test_matches_svd_oracle(self):
        cfg = QuantConfig()
        w = generate_spectral_matrix(48, 48, 1.0, 0)
        err_matrix = w - dequantize(quantize(w, cfg))
        oracle = float(np.sum(exact_svd(err_matrix).s))
        assert qlora_error(w, cfg) == pytest.approx(oracle, rel=1e-12)

    def test_zero_adapter_ratio_exactly_zero(self):
        cfg = QuantConfig()
        w = generate_spectral_matrix(64, 64, 1.0, 1)
        baseline = qlora_init(w, 8, RandomSource(5), cfg)
        assert error_reduction_ratio(w, baseline, cfg) == 0.0


class TestQpissaInit:
    def test_t1_is_pissa_with_quantized_residual(self):
        cfg = QuantConfig()
        w = generate_spectral_matrix(48, 32, 0.5, 3)
        layer = qpissa_init(w, 4, T=1, cfg=cfg)
        ref = pissa_init(w, 4)
        np.testing.assert_allclose(layer.adapter.a, ref.adapter.a, atol=1e-12)
        np.testing.assert_allclose(layer.adapter.b, ref.adapter.b, atol=1e-12)
        ref_q = quantize(w - ref.adapter.delta(), cfg)
        assert np.array_equal(layer.base.codes, ref_q.codes)
        assert np.array_equal(layer.base.scales, ref_q.scales)

    @pytest.mark.parametrize("seed", range(5))
    def test_more_iterations_reduce_error(self, seed):
        cfg = QuantConfig()
        w = generate_spectral_matrix(96, 96, 1.0, seed + 50)
        e1 = nuclear_norm(w - merge(qpissa_init(w, 8, T=1, cfg=cfg)))
        e5 = nuclear_norm(w - merge(qpissa_init(w, 8, T=5, cfg=cfg)))
        assert e5 <= e1

    @pytest.mark.parametrize("seed", range(5))
    def test_frobenius_objective_monotone(self, seed):
        cfg = QuantConfig()
        w = generate_spectral_matrix(64, 64, 1.0, seed + 70)
        errs = [frobenius_norm(w - merge(qpissa_init(w, 8, T=t, cfg=cfg)))
                for t in range(1, 6)]
        for before, after in zip(errs, errs[1:]):
            assert after <= before + 1e-12, f"seed {seed}: {errs}"

    def test_exact_low_rank_near_zero_error(self):
        rng = RandomSource(7)
        w = rng.spawn(0).normal((24, 3)) @ rng.spawn(1).normal((3, 18))
        layer = qpissa_init(w, 3, T=1)
        # Residual is exactly zero, so the quantized base stores zeros.
        assert frobenius_norm(w - merge(layer)) <= 1e-10

    def test_invalid_args(self):
        w = RandomSource(0).normal((8, 8))
        with pytest.raises(ValueError):
            qpissa_init(w, 0)
        with pytest.raises(ValueError):
            qpissa_init(w, 2, T=0)


class TestLoftqInit:
    @pytest.mark.parametrize("rank", [4, 16])
    def test_t1_tail_identity(self, rank):
        cfg = QuantConfig()
        w = generate_spectral_matrix(96, 96, 1.0, 9)
        layer = loftq_init(w, rank, T=1, cfg=cfg)
        err = nuclear_norm(w - merge(layer))
        tail = float(np.sum(exact_svd(w - dequantize(quantize(w, cfg))).s[rank:]))
        assert err == pytest.approx(tail, rel=1e-8)

    def test_full_rank_absorbs_error(self):
        cfg = QuantConfig()
        w = generate_spectral_matrix(24, 24, 1.0, 4)
        layer = loftq_init(w, 24, T=1, cfg=cfg)
        assert nuclear_norm(w - merge(layer)) <= 1e-10

    def test_invalid_args(self):
        w = RandomSource(0).normal((8, 8))
        with pytest.raises(ValueError):
            loftq_init(w, 9)
        with pytest.raises(ValueError):
            loftq_init(w, 2, T=-1)


class TestErrorReductionRatio:
    def test_half_error_is_fifty_percent(self):
        # Synthetic layer whose merged error has exactly half the nuclear norm.
        cfg = QuantConfig()
        w = generate_spectral_matrix(32, 32, 1.0, 2)
        baseline = qlora_error(w, cfg)
        layer = qlora_init(w, 4, RandomSource(0), cfg)
        err_matrix = w - merge(layer)
        # Move half the error into the adapter: merge becomes w - err/2.
        half = pissa_init(err_matrix / 2.0, min(err_matrix.shape))
        layer.adapter.a = half.adapter.a
        layer.adapter.b = half.adapter.b
        layer.adapter.rank = min(err_matrix.shape)
        ratio = error_reduction_ratio(w, layer, cfg)
        assert ratio == pytest.approx(50.0, rel=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_method_ordering(self, seed):
        cfg = QuantConfig()
        w = generate_spectral_matrix(128, 128, 1.0, seed + 30)
        qp = error_reduction_ratio(w, qpissa_init(w, 8, 1, cfg), cfg)
        lq = error_reduction_ratio(w, loftq_init(w, 8, 1, cfg), cfg)
        base = error_reduction_ratio(w, qlora_init(w, 8, RandomSource(seed), cfg), cfg)
        assert qp > lq > base == 0.0

    def test_zero_denominator_reported(self):
        w = np.zeros((4, 4))
        layer = qlora_init(np.ones((4, 4)), 2, RandomSource(0))
        with pytest.raises(ZeroDivisionError):
            error_reduction_ratio(w, layer)

    @pytest.mark.parametrize("score", [quant_report, error_reduction_ratio])
    @pytest.mark.parametrize("cut", [np.s_[:1], np.s_[:, :1]], ids=["1xn", "mx1"])
    def test_w_of_another_shape_rejected(self, score, cut, monkeypatch):
        # w - merge(layer) would broadcast a (1, n) or (m, 1) w over the
        # layer and score a matrix that is neither.
        w = generate_spectral_matrix(8, 6, 1.0, 0)
        layer = qpissa_init(w, 2)

        def no_work(*args):
            raise AssertionError("scored before the shape check")

        monkeypatch.setattr(quant, "nuclear_norm", no_work)
        monkeypatch.setattr(quant, "qlora_error", no_work)
        message = re.escape(f"shape mismatch {w[cut].shape} vs (8, 6)")
        with pytest.raises(ShapeError, match=message):
            score(w[cut], layer)

    @pytest.mark.parametrize("method", ["qlora", "loftq", "qpissa"])
    def test_report_ratio_matches_standalone_ratio(self, method):
        cfg = QuantConfig()
        w = generate_spectral_matrix(32, 32, 1.0, 5)
        layer = {"qlora": lambda: qlora_init(w, 4, RandomSource(0), cfg),
                 "loftq": lambda: loftq_init(w, 4, 2, cfg),
                 "qpissa": lambda: qpissa_init(w, 4, 2, cfg)}[method]()
        rep = quant_report(w, layer, cfg)
        # Bit for bit: float.hex also tells 0.0 from -0.0.
        assert (rep.reduction_ratio_percent.hex()
                == error_reduction_ratio(w, layer, cfg).hex())
        assert rep.nuclear_error == nuclear_norm(w - merge(layer))

    @pytest.mark.parametrize("seed", RANK_DEFICIENT_SEEDS)
    def test_report_on_rank_deficient_residual(self, seed):
        # The error matrix left by LoftQ is numerically rank deficient: its
        # last 16 singular values are below 1e-10 of the first. gesdd
        # decomposes all three to about 1.7e-16, inside the 1e-10 contract;
        # the test below drives the gesvd retry on them.
        w = generate_spectral_matrix(128, 128, 1.0, seed)
        rep = quant_report(w, loftq_init(w, 16, 1))
        assert 0.0 < rep.reduction_ratio_percent < 100.0

    def test_rank_deficient_seeds_exercise_gesvd_retry(self, monkeypatch):
        # A spy makes gesdd's first answer on each residual miss the
        # contract, so the retry runs whatever the data bits: exact_svd must
        # call LAPACK dgesvd once and return factors that meet the contract.
        svd, dgesvd = np.linalg.svd, linalg._DGESVD
        misses, drivers = [], []

        def off_once(m, **kwargs):
            # The miss is consumed before gesdd runs, so a first attempt
            # that raises (LinAlgError) uses it up as well.
            miss = misses.pop() if misses else False
            u, s, vt = svd(m, **kwargs)
            return u, s * (1 + 1e-6) if miss else s, vt

        def spy(*args):
            drivers.append("gesvd")
            return dgesvd(*args)

        monkeypatch.setattr(np.linalg, "svd", off_once)
        monkeypatch.setattr(linalg, "_DGESVD", spy)
        for seed in RANK_DEFICIENT_SEEDS:
            w = generate_spectral_matrix(128, 128, 1.0, seed)
            residual = w - merge(loftq_init(w, 16, 1))
            expected = np.sum(svd(residual, compute_uv=False))
            misses.append(True)
            drivers.clear()
            f = exact_svd(residual)
            assert drivers == ["gesvd"] and not misses
            err = frobenius_norm(f.reconstruct() - residual)
            assert err / max(1.0, frobenius_norm(residual)) <= 1e-10
            assert np.sum(f.s) == pytest.approx(expected, rel=1e-12)

    def test_baseline_computed_once_per_matrix(self, monkeypatch):
        calls = []
        qlora_error_real = quant.qlora_error

        def spy(w, cfg):
            calls.append(w.shape)
            return qlora_error_real(w, cfg)

        monkeypatch.setattr(quant, "qlora_error", spy)
        monkeypatch.setattr(quant, "_baseline_memo", (None, 0.0))
        cfg = QuantConfig(block_size=16)
        w = generate_spectral_matrix(24, 32, 1.0, 6)
        baseline = qlora_error_real(w, cfg)
        reports = [quant_report(w, init(w), cfg) for init in (
            lambda w: qlora_init(w, 4, RandomSource(0), cfg),
            lambda w: qpissa_init(w, 4, 2, cfg),
            lambda w: loftq_init(w, 4, 2, cfg))]
        assert len(calls) == 1
        assert reports[0].reduction_ratio_percent == 0.0
        for rep in reports:
            assert rep.reduction_ratio_percent == (
                1.0 - rep.nuclear_error / baseline) * 100.0
        layer = qpissa_init(w, 4, 1, cfg)
        error_reduction_ratio(w, layer, cfg)
        assert len(calls) == 1
        # Another matrix, the same bytes in another shape, or another
        # block size is a new baseline.
        changed = w.copy()
        changed[0, 0] += 1e-3
        error_reduction_ratio(changed, layer, cfg)
        tall = w.reshape(32, 24)
        error_reduction_ratio(tall, qpissa_init(tall, 4, 1, cfg), cfg)
        cfg8 = QuantConfig(block_size=8)
        error_reduction_ratio(w, qpissa_init(w, 4, 1, cfg8), cfg8)
        assert calls == [(24, 32)] * 2 + [(32, 24), (24, 32)]

    def test_block_size_mismatch_rejected(self):
        # A layer quantized at 16 against a baseline quantized at 64 would
        # compare two quantizers.
        w = generate_spectral_matrix(24, 32, 1.0, 6)
        layer = qpissa_init(w, 4, 1, QuantConfig(block_size=16))
        with pytest.raises(ValueError, match="block size 16.*block size 64"):
            quant_report(w, layer, QuantConfig(block_size=64))

    @pytest.mark.parametrize("seed", RANK_DEFICIENT_SEEDS)
    def test_nuclear_norm_matches_exact_svd_on_residual(self, seed):
        w = generate_spectral_matrix(128, 128, 1.0, seed)
        residual = w - merge(loftq_init(w, 16, 1))
        expected = float(np.sum(exact_svd(residual).s))
        assert nuclear_norm(residual) == pytest.approx(expected, rel=1e-12)


class TestDistributionDiagnostics:
    def test_gaussian_std(self):
        samples = RandomSource(0).normal((500, 200))
        std, dof = distribution_diagnostics(samples)
        assert std == pytest.approx(1.0, rel=0.02)
        assert dof > 20

    def test_residual_is_narrower(self):
        w = generate_spectral_matrix(128, 128, 1.0, 0)
        layer = pissa_init(w, 16)
        std_w, _ = distribution_diagnostics(w)
        std_res, _ = distribution_diagnostics(layer.base)
        assert std_res < std_w

    def test_heavy_tail_low_dof(self):
        gen = RandomSource(3).generator()
        heavy = gen.standard_t(3, size=(200, 200))
        _, dof_heavy = distribution_diagnostics(heavy)
        _, dof_gauss = distribution_diagnostics(RandomSource(1).normal((200, 200)))
        assert dof_heavy < dof_gauss
        assert dof_heavy <= 6

    def test_constant_matrix(self):
        std, dof = distribution_diagnostics(np.full((3, 3), 2.5))
        assert std == 0.0 and math.isinf(dof)

    def test_too_small(self):
        with pytest.raises(ValueError):
            distribution_diagnostics(np.ones((1, 1)))


def _scipy_log_likelihoods(centered, std):
    """Each grid dof's summed log-density, scored by scipy.stats."""
    out = {}
    for dof in quant._DOF_GRID:
        if dof == math.inf:
            out[dof] = float(np.sum(stats.norm.logpdf(centered, scale=std)))
        else:
            scale = std * math.sqrt((dof - 2) / dof) if dof > 2 else std
            out[dof] = float(np.sum(stats.t.logpdf(centered, df=dof, scale=scale)))
    return out


@pytest.mark.parametrize("draw", [
    lambda: RandomSource(0).normal((60, 50)),
    lambda: RandomSource(3).generator().standard_t(3, size=(60, 50)),
    lambda: pissa_init(generate_spectral_matrix(64, 48, 1.0, 2), 8).base,
], ids=["gaussian", "student_t3", "pissa_residual"])
def test_log_likelihood_matches_scipy(draw):
    m = draw()
    x = m.ravel()
    std = float(np.std(x, ddof=1))
    centered = x - np.mean(x)
    expected = _scipy_log_likelihoods(centered, std)
    for dof, ll in expected.items():
        assert quant._log_likelihood(centered, std, dof) == pytest.approx(ll, rel=1e-12)
    # The first grid dof with the largest scipy likelihood, as a strict scan picks.
    best = max(quant._DOF_GRID, key=expected.get)
    assert distribution_diagnostics(m) == (std, float(best))

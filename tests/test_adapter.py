from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pissa.adapter import (ORIGINS, WINDOWS, AdapterPair, adapter_gradients,
                           forward, lora_init, merge, pissa_init,
                           reconstruction_error, to_lora_delta, variant_init)
from pissa.linalg import (TOLERANCE, RandomSource, ShapeError, exact_svd,
                          frobenius_norm, relative_error)
from pissa.quant import qpissa_init
from pissa.train import STRATEGIES


def rel_err(a, b):
    return frobenius_norm(a - b) / max(1.0, frobenius_norm(b))


class TestPissaInit:
    def test_exactly_rank_one(self):
        u = np.array([[0.6], [0.8]])
        v = np.array([[0.8], [0.0], [0.6]])
        w = 5.0 * u @ v.T
        layer = pissa_init(w, 1)
        np.testing.assert_allclose(layer.base, np.zeros_like(w), atol=1e-12)
        np.testing.assert_allclose(layer.adapter.delta(), w, atol=1e-12)

    def test_diagonal(self):
        layer = pissa_init(np.diag([3.0, 2.0, 1.0]), 1)
        np.testing.assert_allclose(layer.adapter.a.ravel(),
                                   [np.sqrt(3.0), 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(layer.adapter.b.ravel(),
                                   [np.sqrt(3.0), 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(layer.base, np.diag([0.0, 2.0, 1.0]),
                                   atol=1e-12)

    def test_reconstruction_random(self):
        w = RandomSource(0).normal((32, 48))
        layer = pissa_init(w, 8)
        assert rel_err(merge(layer), w) <= 1e-10

    def test_factor_structure_diagonal_gram(self):
        w = RandomSource(1).normal((20, 16))
        r = 5
        layer = pissa_init(w, r)
        s = exact_svd(w).s[:r]
        np.testing.assert_allclose(layer.adapter.a.T @ layer.adapter.a,
                                   np.diag(s), atol=1e-8)
        np.testing.assert_allclose(layer.adapter.b @ layer.adapter.b.T,
                                   np.diag(s), atol=1e-8)

    def test_full_rank_leaves_zero_base(self):
        w = RandomSource(2).normal((6, 9))
        layer = pissa_init(w, 6)
        np.testing.assert_allclose(layer.base, np.zeros_like(w), atol=1e-12)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            pissa_init(np.eye(4), 5)


class TestLoraInit:
    def test_zero_product(self):
        w = RandomSource(0).normal((10, 6))
        layer = lora_init(w, 3, RandomSource(1))
        assert np.array_equal(layer.adapter.delta(), np.zeros_like(w))

    def test_forward_identity_at_init(self):
        w = RandomSource(0).normal((10, 6))
        layer = lora_init(w, 3, RandomSource(1))
        x = RandomSource(2).normal((4, 10))
        assert np.array_equal(forward(layer, x), x @ w)

    def test_seed_determinism(self):
        w = RandomSource(0).normal((10, 6))
        l1 = lora_init(w, 3, RandomSource(9))
        l2 = lora_init(w, 3, RandomSource(9))
        assert np.array_equal(l1.adapter.a, l2.adapter.a)


class TestVariantInit:
    def test_principal_matches_pissa(self):
        w = RandomSource(0).normal((12, 10))
        a = variant_init(w, 4, "principal")
        b = pissa_init(w, 4)
        np.testing.assert_allclose(a.adapter.a, b.adapter.a, atol=1e-12)
        np.testing.assert_allclose(a.base, b.base, atol=1e-12)

    def test_minor_diagonal(self):
        layer = variant_init(np.diag([4.0, 3.0, 2.0, 1.0]), 1, "minor")
        np.testing.assert_allclose(layer.adapter.delta(),
                                   np.diag([0.0, 0.0, 0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(layer.base, np.diag([4.0, 3.0, 2.0, 0.0]),
                                   atol=1e-12)

    def test_medium_window_diagonal(self):
        # k=4, r=2: centered window starts at (4-2)//2 = 1, indices {1, 2}.
        layer = variant_init(np.diag([4.0, 3.0, 2.0, 1.0]), 2, "medium")
        np.testing.assert_allclose(layer.adapter.delta(),
                                   np.diag([0.0, 3.0, 2.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("window", ["principal", "medium", "minor"])
    def test_reconstruction(self, window):
        w = RandomSource(3).normal((18, 14))
        layer = variant_init(w, 5, window)
        assert rel_err(merge(layer), w) <= 1e-10

    @pytest.mark.parametrize("window", sorted(WINDOWS))
    def test_base_holds_the_other_components(self, window):
        # The base is w - A B; its spectrum must be w's with the window cut out.
        w = RandomSource(4).normal((18, 14))
        layer = variant_init(w, 5, window)
        lo, hi = WINDOWS[window](14, 5)
        s = exact_svd(w).s
        expected = np.sort(np.concatenate([s[:lo], s[hi:], np.zeros(5)]))[::-1]
        got = np.linalg.svd(layer.base, compute_uv=False)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
        assert layer.origin == window

    def test_unknown_window_rejected(self):
        with pytest.raises(ValueError, match="unknown singular window: bogus"):
            variant_init(np.eye(4), 2, "bogus")


class TestForward:
    def test_pissa_identity(self):
        w = RandomSource(0).normal((8, 5))
        layer = pissa_init(w, 3)
        x = RandomSource(1).normal((6, 8))
        np.testing.assert_allclose(forward(layer, x), x @ w, rtol=1e-9,
                                   atol=1e-12)

    def test_identity_probe_recovers_rows(self):
        w = RandomSource(0).normal((8, 5))
        layer = pissa_init(w, 3)
        out = forward(layer, np.eye(8))
        np.testing.assert_allclose(
            out, layer.base + layer.adapter.delta(), atol=1e-12)

    def test_shape_mismatch(self):
        layer = pissa_init(RandomSource(0).normal((8, 5)), 2)
        with pytest.raises(ShapeError):
            forward(layer, np.zeros((3, 7)))


class TestAdapterGradients:
    def test_zero_b_gives_zero_da(self):
        w = RandomSource(0).normal((6, 5))
        layer = lora_init(w, 2, RandomSource(1))
        x = RandomSource(2).normal((4, 6))
        dy = RandomSource(3).normal((4, 5))
        da, db = adapter_gradients(x, dy, layer.adapter)
        assert np.array_equal(da, np.zeros_like(da))
        assert not np.array_equal(db, np.zeros_like(db))

    def test_zero_upstream(self):
        adapter = pissa_init(RandomSource(0).normal((6, 5)), 2).adapter
        da, db = adapter_gradients(np.ones((4, 6)), np.zeros((4, 5)), adapter)
        assert not da.any() and not db.any()

    def test_finite_differences(self):
        b, m, n, r = 4, 6, 5, 2
        rng = RandomSource(17)
        x = rng.spawn(0).normal((b, m))
        adapter = AdapterPair(rng.spawn(1).normal((m, r)),
                              rng.spawn(2).normal((r, n)), r)

        def loss(a_mat, b_mat):
            return float(np.sum(x @ a_mat @ b_mat * adapter.scale))

        dy = np.ones((b, n)) / 1.0  # dL/dY for L = sum of entries
        da, db = adapter_gradients(x, dy, adapter)
        eps = 1e-6
        for arr, grad in ((adapter.a, da), (adapter.b, db)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ij = it.multi_index
                orig = arr[ij]
                arr[ij] = orig + eps
                up = loss(adapter.a, adapter.b)
                arr[ij] = orig - eps
                down = loss(adapter.a, adapter.b)
                arr[ij] = orig
                numeric = (up - down) / (2 * eps)
                assert grad[ij] == pytest.approx(numeric, rel=1e-5, abs=1e-8)

    def test_shape_mismatch(self):
        adapter = pissa_init(RandomSource(0).normal((6, 5)), 2).adapter
        with pytest.raises(ShapeError):
            adapter_gradients(np.zeros((4, 7)), np.zeros((4, 5)), adapter)


class TestMergeAndConversion:
    def test_merge_recovers_original(self):
        w = RandomSource(0).normal((16, 12))
        assert rel_err(merge(pissa_init(w, 4)), w) <= 1e-10
        assert np.array_equal(merge(lora_init(w, 4, RandomSource(1))), w)

    def test_merged_forward_agrees(self):
        w = RandomSource(0).normal((16, 12))
        layer = pissa_init(w, 4)
        # Simulate training: move the factors.
        layer.adapter.a += 0.1 * RandomSource(2).normal(layer.adapter.a.shape)
        layer.adapter.b += 0.1 * RandomSource(3).normal(layer.adapter.b.shape)
        x = RandomSource(4).normal((5, 16))
        assert rel_err(x @ merge(layer), forward(layer, x)) <= 1e-10

    def test_delta_of_untrained_adapter_is_zero(self):
        adapter = pissa_init(RandomSource(0).normal((9, 7)), 3).adapter
        da, db = to_lora_delta(adapter, adapter.copy())
        np.testing.assert_allclose(da @ db, np.zeros((9, 7)), atol=1e-12)

    def test_delta_shape(self):
        init = pissa_init(RandomSource(0).normal((9, 7)), 3).adapter
        trained = init.copy()
        trained.a += RandomSource(1).normal(trained.a.shape)
        trained.b += RandomSource(2).normal(trained.b.shape)
        da, db = to_lora_delta(init, trained)
        assert da.shape == (9, 6) and db.shape == (6, 7)
        assert np.linalg.matrix_rank(da @ db) <= 6

    def test_delta_product_identity(self):
        rng = RandomSource(5)
        m, n, r = 11, 9, 3
        init = AdapterPair(rng.spawn(0).normal((m, r)),
                           rng.spawn(1).normal((r, n)), r)
        trained = AdapterPair(rng.spawn(2).normal((m, r)),
                              rng.spawn(3).normal((r, n)), r)
        da, db = to_lora_delta(init, trained)
        expected = trained.a @ trained.b - init.a @ init.b
        np.testing.assert_allclose(da @ db, expected, atol=1e-12)

    def test_conversion_lossless_forward(self):
        w = RandomSource(0).normal((16, 12))
        layer = pissa_init(w, 4)
        init = layer.adapter.copy()
        layer.adapter.a += 0.2 * RandomSource(1).normal(layer.adapter.a.shape)
        layer.adapter.b += 0.2 * RandomSource(2).normal(layer.adapter.b.shape)
        da, db = to_lora_delta(init, layer.adapter)
        x = RandomSource(3).normal((6, 16))
        lhs = x @ (w + da @ db)
        assert rel_err(lhs, forward(layer, x)) <= 1e-10

    def test_conversion_lossless_on_quantized_base_at_scale_two(self):
        from pissa.quant import qpissa_init
        layer = qpissa_init(RandomSource(0).normal((16, 12)), 4)
        layer.adapter.scale = 2.0
        init = layer.adapter.copy()
        original = merge(layer)  # the quantized base plus the initial adapter
        layer.adapter.a += 0.2 * RandomSource(1).normal(layer.adapter.a.shape)
        layer.adapter.b += 0.2 * RandomSource(2).normal(layer.adapter.b.shape)
        da, db = to_lora_delta(init, layer.adapter)
        x = RandomSource(3).normal((6, 16))
        lhs = x @ (original + layer.adapter.scale * (da @ db))
        assert rel_err(lhs, forward(layer, x)) <= 1e-10

    def test_mismatched_adapters_rejected(self):
        a = pissa_init(RandomSource(0).normal((9, 7)), 3).adapter
        b = pissa_init(RandomSource(0).normal((9, 7)), 2).adapter
        with pytest.raises(ShapeError):
            to_lora_delta(a, b)


class TestReconstructionError:
    def test_pissa_tiny(self):
        w = RandomSource(0).normal((20, 20))
        assert reconstruction_error(w, pissa_init(w, 5)) <= 1e-10

    def test_lora_zero(self):
        w = RandomSource(0).normal((20, 20))
        assert reconstruction_error(w, lora_init(w, 5, RandomSource(1))) == 0.0

    def test_quantized_base_positive(self):
        from pissa.quant import qpissa_init
        w = RandomSource(0).normal((64, 64))
        err = reconstruction_error(w, qpissa_init(w, 4))
        assert 0.0 < err < 1.0


@pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
def test_adapter_pair_rejects_bad_scale(scale):
    with pytest.raises(ValueError, match="scale"):
        AdapterPair(np.ones((3, 2)), np.ones((2, 4)), 2, scale)


@pytest.mark.parametrize("origin", ["bogus", None, ["pissa"]],
                         ids=["bogus", "null", "list"])
def test_layer_rejects_origin_not_a_strategy(origin):
    # So no layer in memory can be saved as a checkpoint that will not load.
    with pytest.raises(ValueError, match="origin"):
        replace(pissa_init(np.eye(4), 2), origin=origin)


def test_origins_are_the_strategy_names():
    assert sorted(ORIGINS) == sorted(STRATEGIES)


@pytest.mark.parametrize("seed", range(8))
def test_every_full_precision_init_reconstructs(seed):
    gen = RandomSource(seed).generator()
    m = int(gen.integers(4, 40))
    n = int(gen.integers(4, 40))
    r = int(gen.integers(1, min(m, n) + 1))
    w = gen.standard_normal((m, n))
    layers = [pissa_init(w, r), lora_init(w, r, RandomSource(seed))]
    layers += [variant_init(w, r, window) for window in WINDOWS]
    for layer in layers:
        assert reconstruction_error(w, layer) <= 1e-10
        # The layout of a reloaded checkpoint, so both train identically.
        assert layer.adapter.a.flags.c_contiguous
        assert layer.adapter.b.flags.c_contiguous


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lora_delta_exact_at_any_scale_and_base(data):
    # merge(init) + scale * deltaA deltaB is the trained layer, whatever the
    # scale and whether the frozen base is dense or NF4-quantized.
    m, n = data.draw(st.integers(2, 24), label="m"), data.draw(st.integers(2, 24), label="n")
    r = data.draw(st.integers(1, min(m, n)), label="r")
    scale = data.draw(st.floats(1 / 64, 64).filter(lambda s: s != 1.0), label="scale")
    init_fn = data.draw(st.sampled_from([pissa_init, qpissa_init]), label="init")
    step = data.draw(st.floats(1e-3, 10.0), label="step")
    rng = RandomSource(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    layer = init_fn(rng.normal((m, n)), r)
    layer = replace(layer, adapter=replace(layer.adapter, scale=scale))
    init = layer.adapter.copy()
    original = merge(layer)
    layer.adapter.a += step * rng.spawn(1).normal((m, r))
    layer.adapter.b += step * rng.spawn(2).normal((r, n))
    da, db = to_lora_delta(init, layer.adapter)
    assert da.shape == (m, 2 * r) and db.shape == (2 * r, n)
    x = rng.spawn(3).normal((4, m))
    rhs = forward(layer, x)
    assert relative_error(x @ (original + scale * (da @ db)) - rhs, rhs) <= TOLERANCE

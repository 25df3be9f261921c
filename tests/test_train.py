import dataclasses
import math

import numpy as np
import pytest

import pissa.quant
import pissa.train
from pissa.adapter import adapter_gradients, merge
from pissa.linalg import NumericalError, RandomSource
from pissa.quant import QuantizedMatrix
from pissa.train import (WARMUP_RATIO, AdamState, Dataset, DivergenceError,
                         MlpModel, TrainConfig, adamw_step, adapter_grad_norm,
                         cosine_warmup_lr, cross_entropy_with_grad, gradcheck,
                         inject_adapters, model_forward_backward, pretrain_mlp,
                         run_finetune, train_model)


def toy_model(seed=0, d=6, h=5, c=4):
    rng = RandomSource(seed)
    return MlpModel(rng.spawn(0).normal((d, h)), rng.spawn(1).normal(h) * 0.1,
                    rng.spawn(2).normal((h, c)), rng.spawn(3).normal(c) * 0.1)


def toy_dataset(seed=0, n=40, d=6, c=4):
    gen = RandomSource(seed).generator()
    return Dataset(gen.standard_normal((n, d)), gen.integers(0, c, size=n))


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = cross_entropy_with_grad(np.zeros((5, 8)), np.arange(5) % 8)
        assert loss == pytest.approx(math.log(8), rel=1e-12)

    def test_confident_correct(self):
        logits = np.zeros((2, 3))
        logits[0, 1] = logits[1, 2] = 50.0
        loss, _ = cross_entropy_with_grad(logits, [1, 2])
        assert loss < 1e-12

    def test_gradient_finite_differences(self):
        gen = RandomSource(4).generator()
        logits = gen.standard_normal((5, 6))
        labels = gen.integers(0, 6, size=5)
        _, grad = cross_entropy_with_grad(logits, labels)
        eps = 1e-6
        for i in range(5):
            for j in range(6):
                orig = logits[i, j]
                logits[i, j] = orig + eps
                up, _ = cross_entropy_with_grad(logits, labels)
                logits[i, j] = orig - eps
                down, _ = cross_entropy_with_grad(logits, labels)
                logits[i, j] = orig
                assert grad[i, j] == pytest.approx((up - down) / (2 * eps),
                                                   rel=1e-6, abs=1e-9)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy_with_grad(np.zeros((2, 3)), [0, 3])


class TestModelForwardBackward:
    def test_zero_weight_symmetric(self):
        model = MlpModel(np.zeros((6, 5)), np.zeros(5), np.zeros((5, 4)),
                         np.zeros(4))
        x = RandomSource(0).normal((3, 6))
        loss, grads = model_forward_backward(model, x, [0, 1, 2])
        assert loss == pytest.approx(math.log(4), rel=1e-12)
        assert all(np.isfinite(g).all() for g in grads.values())

    def test_lora_second_layer_da_zero(self):
        model = inject_adapters(toy_model(), 2, "lora", RandomSource(1))
        data = toy_dataset()
        _, grads = model_forward_backward(model, data.features[:8],
                                          data.labels[:8])
        assert not grads["l2.a"].any()
        assert not grads["l1.a"].any()
        assert grads["l2.b"].any()

    def test_frozen_base_gets_no_gradient_entry(self):
        model = inject_adapters(toy_model(), 2, "pissa", RandomSource(1))
        data = toy_dataset()
        _, grads = model_forward_backward(model, data.features[:8],
                                          data.labels[:8])
        assert set(grads) == {"bias1", "bias2", "l1.a", "l1.b", "l2.a", "l2.b"}

    def test_full_model_finite_differences(self):
        model = inject_adapters(toy_model(3), 2, "pissa", RandomSource(2))
        x = RandomSource(5).normal((3, 6))
        labels = [0, 2, 1]
        assert gradcheck(model, x, labels, eps=1e-5) <= 1e-4

    def test_inject_rejects_injected_model_and_unknown_strategy(self):
        model = inject_adapters(toy_model(), 2, "pissa", RandomSource(1))
        with pytest.raises(ValueError, match="already has adapters injected"):
            inject_adapters(model, 2, "pissa", RandomSource(1))
        with pytest.raises(ValueError, match="unknown init strategy: bogus"):
            inject_adapters(toy_model(), 2, "bogus", RandomSource(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_batch_rejected(self, bad):
        model = inject_adapters(toy_model(), 2, "pissa", RandomSource(1))
        x = RandomSource(0).normal((3, 6))
        x[1, 2] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            model_forward_backward(model, x, [0, 1, 2])

    @pytest.mark.parametrize("strategy,batch_size", [(None, 8), ("pissa", 8),
                                                     ("qpissa", 64)])
    def test_training_steps_skip_the_finiteness_pass(self, monkeypatch, strategy,
                                                     batch_size):
        # Dataset checked its features once; no step checks its batch again.
        model = toy_model()
        if strategy:
            model = inject_adapters(model, 2, strategy, RandomSource(1))
        data = toy_dataset()
        calls = []
        monkeypatch.setattr(pissa.train, "as_matrix",
                            lambda x, check=pissa.train.as_matrix: calls.append(1) or check(x))
        train_model(model, data, TrainConfig(batch_size=batch_size, steps=5))
        assert calls == []


def merged_adapter_gradients(x, d_y, adapter):
    # The m x n product X^T dY first, then the contraction with the rank.
    xt_dy = x.T @ d_y
    return (adapter.scale * (xt_dy @ adapter.b.T),
            adapter.scale * (adapter.a.T @ xt_dy))


def merged_forward_backward(model, x, labels):
    """Reference step on the merged weights W = base + scale A B."""
    w1, w2 = merge(model.layer1), merge(model.layer2)
    pre = x @ w1 + model.bias1
    h = np.maximum(pre, 0.0)
    loss, d_logits = cross_entropy_with_grad(h @ w2 + model.bias2, labels)
    d_pre = (d_logits @ w2.T) * (pre > 0)
    grads = {"bias2": d_logits.sum(axis=0), "bias1": d_pre.sum(axis=0)}
    grads["l2.a"], grads["l2.b"] = merged_adapter_gradients(
        h, d_logits, model.layer2.adapter)
    grads["l1.a"], grads["l1.b"] = merged_adapter_gradients(
        x, d_pre, model.layer1.adapter)
    return loss, grads, (x, d_pre, h, d_logits)


def factored_cases():
    data = toy_dataset(1, n=16)
    for strategy in ("pissa", "lora", "qpissa"):
        yield strategy, inject_adapters(toy_model(1), 2, strategy,
                                        RandomSource(2)), data
    scaled = inject_adapters(toy_model(1), 2, "pissa", RandomSource(2))
    scaled.layer1.adapter.scale = scaled.layer2.adapter.scale = 2.5
    yield "scale 2.5", scaled, data
    # Rank 8 against a 10-column second layer.
    wide = inject_adapters(toy_model(1, d=12, h=9, c=10), 8, "pissa",
                           RandomSource(2))
    yield "rank 8", wide, toy_dataset(1, n=16, d=12, c=10)


def assert_close(a, b, rel=1e-12):
    assert np.linalg.norm(a - b) <= rel * np.linalg.norm(b)


class TestFactoredStep:
    @pytest.mark.parametrize("case", list(factored_cases()), ids=lambda c: c[0])
    def test_matches_merged_weights(self, case):
        _, model, data = case
        loss, grads = model_forward_backward(model, data.features, data.labels)
        ref_loss, ref_grads, _ = merged_forward_backward(model, data.features,
                                                         data.labels)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert set(grads) == set(ref_grads)
        for key in ref_grads:
            assert_close(grads[key], ref_grads[key])

    @pytest.mark.parametrize("case", list(factored_cases()), ids=lambda c: c[0])
    def test_rank_first_adapter_gradients(self, case):
        _, model, data = case
        x, d_pre, h, d_logits = merged_forward_backward(model, data.features,
                                                        data.labels)[2]
        for inp, d_y, layer in ((x, d_pre, model.layer1),
                                (h, d_logits, model.layer2)):
            d_a, d_b = adapter_gradients(inp, d_y, layer.adapter)
            ref_a, ref_b = merged_adapter_gradients(inp, d_y, layer.adapter)
            assert_close(d_a, ref_a)
            assert_close(d_b, ref_b)

    def test_quantized_base_dequantized_once_per_run(self, monkeypatch):
        model, data = toy_model(2), toy_dataset(2, n=40)
        cfg = TrainConfig(lr=1e-2, batch_size=16, steps=5, seed=3)
        calls = []
        original = pissa.quant.dequantize

        def spy(q):
            calls.append(q)
            return original(q)

        monkeypatch.setattr(pissa.quant, "dequantize", spy)
        _, tuned = run_finetune(model, data, cfg, "qpissa", rank=2)
        assert len(calls) == 2
        fresh = inject_adapters(model, 2, "qpissa", RandomSource(cfg.seed))
        for layer, init in ((tuned.layer1, fresh.layer1),
                            (tuned.layer2, fresh.layer2)):
            assert isinstance(layer.base, QuantizedMatrix)
            assert np.array_equal(layer.base.codes, init.base.codes)
            assert np.array_equal(layer.base.scales, init.base.scales)
            assert not np.array_equal(layer.adapter.b, init.adapter.b)


class TestAdamW:
    def test_zero_gradient_no_motion(self):
        p = np.ones((3, 3))
        adamw_step(AdamState(np.zeros((3, 3)), np.zeros((3, 3))), p,
                   np.zeros((3, 3)), 0.1)
        assert np.array_equal(p, np.ones((3, 3)))

    def test_constant_gradient_step_approaches_lr(self):
        p = np.zeros(1)
        state = AdamState(np.zeros(1), np.zeros(1))
        g = np.full(1, 3.7)
        for _ in range(500):
            prev = p.copy()
            adamw_step(state, p, g, 0.01)
        assert state.t == 500
        assert abs(prev - p)[0] == pytest.approx(0.01, rel=1e-3)

    def test_scalar_quadratic_matches_reference(self):
        # Independent scalar re-derivation of the update equations.
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        x_ref, m, v = 1.0, 0.0, 0.0
        trajectory = []
        for t in range(1, 11):
            g = 2.0 * x_ref  # d/dx of x^2
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x_ref -= lr * (m / (1 - b1 ** t)) / (
                math.sqrt(v / (1 - b2 ** t)) + eps)
            trajectory.append(x_ref)

        p = np.array([1.0])
        state = AdamState(np.zeros(1), np.zeros(1))
        for t in range(10):
            adamw_step(state, p, 2.0 * p, 0.05)
            assert p[0] == pytest.approx(trajectory[t], rel=1e-12)


class TestCosineWarmupLr:
    # Ramp steps of a 100-step run.
    warmup = math.ceil(WARMUP_RATIO * 100)

    def cfg(self):
        return TrainConfig(lr=1.0, steps=100)

    def test_first_ramp_tick(self):
        assert self.warmup == 3
        assert cosine_warmup_lr(0, self.cfg()) == pytest.approx(1.0 / self.warmup)

    def test_warmup_end_hits_peak(self):
        assert cosine_warmup_lr(self.warmup, self.cfg()) == pytest.approx(1.0)

    def test_final_step_near_zero(self):
        assert cosine_warmup_lr(99, self.cfg()) <= 1e-12

    def test_monotone_decay_after_warmup(self):
        cfg = self.cfg()
        values = [cosine_warmup_lr(s, cfg) for s in range(self.warmup, 100)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_warmup_lr(100, self.cfg())


class TestTrainConfig:
    @pytest.mark.parametrize("kw", [{"steps": 0}, {"steps": -3},
                                    {"batch_size": 0}, {"batch_size": -1},
                                    {"lr": -1e-3}, {"lr": math.nan},
                                    {"lr": math.inf}, {"seed": -1}])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    def test_settable_values(self):
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "lr", "batch_size", "steps", "seed"]


class TestTraining:
    def finetune_setup(self, seed=0):
        data = toy_dataset(seed, n=60)
        model = toy_model(seed)
        return model, data

    def test_lr_zero_constant_trace(self):
        model, data = self.finetune_setup()
        cfg = TrainConfig(lr=0.0, batch_size=1000, steps=5, seed=0)
        trace, _ = run_finetune(model, data, cfg, "pissa", rank=2)
        assert np.all(trace.losses == trace.losses[0])

    def test_same_seed_identical_traces(self):
        model, data = self.finetune_setup()
        cfg = TrainConfig(lr=1e-3, batch_size=16, steps=20, seed=7)
        t1, _ = run_finetune(model, data, cfg, "pissa", rank=2)
        t2, _ = run_finetune(model, data, cfg, "pissa", rank=2)
        assert np.array_equal(t1.losses, t2.losses)
        assert np.array_equal(t1.grad_norms, t2.grad_norms)
        assert np.array_equal(t1.lrs, t2.lrs)

    def test_trace_lengths(self):
        model, data = self.finetune_setup()
        cfg = TrainConfig(lr=1e-3, batch_size=16, steps=12, seed=0)
        trace, _ = run_finetune(model, data, cfg, "lora", rank=2)
        assert len(trace) == 12
        assert trace.lrs[0] == cosine_warmup_lr(0, cfg)

    def test_frozen_base_bit_identical(self):
        model, data = self.finetune_setup()
        injected = inject_adapters(model, 2, "pissa", RandomSource(0))
        base1 = injected.layer1.base.copy()
        base2 = injected.layer2.base.copy()
        train_model(injected, data, TrainConfig(lr=1e-2, batch_size=16,
                                                steps=30, seed=0))
        assert np.array_equal(injected.layer1.base, base1)
        assert np.array_equal(injected.layer2.base, base2)

    def test_adapters_do_move(self):
        model, data = self.finetune_setup()
        injected = inject_adapters(model, 2, "pissa", RandomSource(0))
        a_before = injected.layer1.adapter.a.copy()
        train_model(injected, data, TrainConfig(lr=1e-2, batch_size=16,
                                                steps=30, seed=0))
        assert not np.array_equal(injected.layer1.adapter.a, a_before)

    def test_step1_grad_norm_pissa_exceeds_lora(self):
        model, data = self.finetune_setup()
        x, y = data.features[:16], data.labels[:16]
        pissa = inject_adapters(model, 2, "pissa", RandomSource(0))
        lora = inject_adapters(model, 2, "lora", RandomSource(0))
        _, gp = model_forward_backward(pissa, x, y)
        _, gl = model_forward_backward(lora, x, y)
        assert adapter_grad_norm(gp) > adapter_grad_norm(gl)

    def test_divergence_reported_with_step(self):
        model, data = self.finetune_setup()
        cfg = TrainConfig(lr=1e200, batch_size=16, steps=50, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                run_finetune(model, data, cfg, "pissa", rank=2)
        assert err.value.step >= 0

    def test_divergence_reported_with_step_quantized_base(self):
        # A non-finite activation must reach the loss check, not an input
        # check on the way.
        model, data = self.finetune_setup()
        cfg = TrainConfig(lr=1e200, batch_size=16, steps=50, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                run_finetune(model, data, cfg, "qpissa", rank=2)
        assert err.value.step >= 0

    def test_pretrain_reduces_loss(self):
        # Separable data: class c shifts coordinate c of the features.
        gen = RandomSource(1).generator()
        labels = np.repeat(np.arange(4), 50)
        features = gen.standard_normal((200, 6)) * 0.3
        features[np.arange(200), labels] += 3.0
        data = Dataset(features, labels)
        cfg = TrainConfig(lr=1e-2, batch_size=32, steps=100, seed=0)
        model = pretrain_mlp(data, hidden=8, num_classes=4, cfg=cfg)
        loss, _ = model_forward_backward(model, data.features, data.labels)
        assert loss < math.log(4) * 0.8

    def test_optimizer_monotone_on_quadratic_after_warmup(self):
        # Convex surrogate: linear model, full batch, small lr.
        data = toy_dataset(2, n=50, d=6, c=4)
        model = inject_adapters(toy_model(2), 2, "pissa", RandomSource(1))
        cfg = TrainConfig(lr=1e-3, batch_size=1000, steps=40, seed=0)
        trace = train_model(model, data, cfg)
        warmup = math.ceil(WARMUP_RATIO * cfg.steps)
        diffs = np.diff(trace.losses[warmup:])
        assert (diffs <= 1e-3).all()


def reference_train(model, dataset, cfg):
    """The training loop without the run-wide layer-1 product and the flat
    update: model_forward_backward on each batch (dequantizing a quantized
    base every call) and one adamw_step per array, each with its own state."""
    gen = RandomSource(cfg.seed).generator()
    params = {"bias1": model.bias1, "bias2": model.bias2}
    if model.has_adapters:
        params.update({"l1.a": model.layer1.adapter.a,
                       "l1.b": model.layer1.adapter.b,
                       "l2.a": model.layer2.adapter.a,
                       "l2.b": model.layer2.adapter.b})
    else:
        params.update({"l1.w": model.layer1, "l2.w": model.layer2})
    states = {key: AdamState(np.zeros_like(p), np.zeros_like(p))
              for key, p in params.items()}
    losses, norms, lrs = [], [], []
    n = len(dataset)
    for step in range(cfg.steps):
        if cfg.batch_size >= n:
            xb, yb = dataset.features, dataset.labels
        else:
            idx = gen.integers(0, n, size=cfg.batch_size)
            xb, yb = dataset.features[idx], dataset.labels[idx]
        loss, grads = model_forward_backward(model, xb, yb)
        lr_t = cosine_warmup_lr(step, cfg)
        losses.append(loss)
        norms.append(adapter_grad_norm(grads))
        lrs.append(lr_t)
        for key, p in params.items():
            adamw_step(states[key], p, grads[key], lr_t)
    return losses, norms, lrs


def trained_arrays(model):
    arrays = [model.bias1, model.bias2]
    if model.has_adapters:
        for layer in (model.layer1, model.layer2):
            arrays += [layer.adapter.a, layer.adapter.b]
    else:
        arrays += [model.layer1, model.layer2]
    return arrays


class TestTrainingMatchesReferenceLoop:
    """train_model takes x base1 once per run and makes one AdamW update on a
    flat buffer per step; both must leave every bit as a plain loop does."""

    @pytest.mark.parametrize("batch_size", [16, 1000])
    @pytest.mark.parametrize("strategy", ["pissa", "qpissa", "lora"])
    def test_finetune(self, strategy, batch_size):
        model, data = toy_model(4, d=12, h=16, c=4), toy_dataset(4, n=60, d=12)
        cfg = TrainConfig(lr=1e-2, batch_size=batch_size, steps=25, seed=3)
        tuned = inject_adapters(model, 3, strategy, RandomSource(cfg.seed))
        ref = inject_adapters(model, 3, strategy, RandomSource(cfg.seed))
        trace = train_model(tuned, data, cfg)
        losses, norms, lrs = reference_train(ref, data, cfg)
        assert np.array_equal(trace.losses, losses)
        assert np.array_equal(trace.grad_norms, norms)
        assert np.array_equal(trace.lrs, lrs)
        for got, want in zip(trained_arrays(tuned), trained_arrays(ref)):
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous

    def test_pretrain(self):
        data = toy_dataset(5, n=60, d=12)
        cfg = TrainConfig(lr=1e-2, batch_size=16, steps=25, seed=2)
        model = pretrain_mlp(data, hidden=16, num_classes=4, cfg=cfg)
        # pretrain_mlp's initial weights, trained by the reference loop.
        rng = RandomSource(cfg.seed)
        ref = MlpModel(rng.spawn(11).normal((12, 16)) * math.sqrt(2.0 / 12),
                       np.zeros(16),
                       rng.spawn(12).normal((16, 4)) * math.sqrt(1.0 / 16),
                       np.zeros(4))
        reference_train(ref, data, cfg)
        for got, want in zip(trained_arrays(model), trained_arrays(ref)):
            assert np.array_equal(got, want)


class TestGradcheck:
    def test_generic_model(self):
        model = inject_adapters(toy_model(5), 2, "pissa", RandomSource(0))
        x = RandomSource(9).normal((3, 6))
        assert gradcheck(model, x, [0, 1, 3], eps=1e-5) <= 1e-4

    def test_linear_region_is_tight(self):
        # Push every hidden unit far into the active region: exact chain rule.
        model = inject_adapters(toy_model(6), 2, "pissa", RandomSource(0))
        model.bias1[:] = 50.0
        x = RandomSource(10).normal((3, 6)) * 0.01
        assert gradcheck(model, x, [0, 1, 2], eps=1e-4) <= 1e-6

    @pytest.mark.parametrize("strategy", ["pissa", "qpissa"])
    def test_linear_region_is_tight_at_scale_two(self, strategy):
        model = inject_adapters(toy_model(6), 2, strategy, RandomSource(0))
        model.layer1.adapter.scale = model.layer2.adapter.scale = 2.0
        model.bias1[:] = 50.0
        x = RandomSource(10).normal((3, 6)) * 0.01
        assert gradcheck(model, x, [0, 1, 2], eps=1e-4) <= 1e-6

    def test_requires_adapters(self):
        with pytest.raises(ValueError):
            gradcheck(toy_model(), np.zeros((2, 6)), [0, 1])

    def test_bad_eps(self):
        model = inject_adapters(toy_model(), 2, "pissa", RandomSource(0))
        for eps in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                gradcheck(model, np.zeros((2, 6)), [0, 1], eps=eps)

    def test_nan_adapter_is_an_error_not_a_pass(self):
        # max(worst, nan) is worst: unchecked, a NaN gradient reads as 0.0.
        model = inject_adapters(toy_model(5), 2, "pissa", RandomSource(0))
        model.layer1.adapter.a[0, 0] = np.nan
        with pytest.raises(NumericalError):
            gradcheck(model, RandomSource(9).normal((3, 6)), [0, 1, 3])


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), [0, -1, 2])
    with pytest.raises(Exception):
        Dataset(np.zeros((3, 2)), [0, 1])

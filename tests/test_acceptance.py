"""End-to-end acceptance checks.

Each test covers one numbered claim about the toolkit, prints a single
PASS/FAIL line, and enforces the stated tolerance and time budget.
Expensive shared setups (the matrix ensemble, the toy fine-tuning runs)
are computed once per module and reused.
"""

import time

import numpy as np
import pytest

from pissa.adapter import (AdapterPair, adapter_gradients, forward, lora_init,
                           pissa_init, to_lora_delta)
from pissa.harness.data import generate_spectral_matrix
from pissa.harness.experiments import ExperimentSpec, toy_pretrained
from pissa.linalg import (RandomSource, exact_svd, frobenius_norm,
                          nuclear_norm, randomized_svd)
from pissa.quant import (NF4_LEVELS, QuantConfig, dequantize,
                         distribution_diagnostics, error_reduction_ratio,
                         loftq_init, qlora_init, qpissa_init,
                         quantization_error_bound, quantize)
from pissa.train import (MlpModel, TrainConfig, gradcheck, inject_adapters,
                         model_forward_backward, run_finetune, train_model)

GOLDEN_LEVELS = (
    -1.0, -0.696192805632343, -0.5250729594465005, -0.3949174259199071,
    -0.28444130892108205, -0.1847734028004556, -0.09104997598578049, 0.0,
    0.07958031495840909, 0.1609301443802907, 0.2461122513474594,
    0.3379151367131279, 0.44070973186421625, 0.5626168879699849,
    0.7229566441594734, 1.0,
)


def _report(capsys, num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {name}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def ensemble():
    """Ten 256 x 256 matrices with a 1/i spectrum, fixed seeds."""
    return [generate_spectral_matrix(256, 256, 1.0, seed)
            for seed in range(10)]


@pytest.fixture(scope="module")
def toy_runs():
    """Fine-tuning traces for four adapter inits over ten toy seeds."""
    spec = ExperimentSpec(kind="converge")
    start = time.perf_counter()
    runs = []
    for seed in range(10):
        model, fine = toy_pretrained(spec, seed)
        cfg = TrainConfig(lr=spec.lr, batch_size=spec.batch_size,
                          steps=spec.steps, seed=seed)
        traces = {}
        for strategy in ("pissa", "lora", "medium", "minor"):
            traces[strategy], _ = run_finetune(model, fine, cfg, strategy,
                                               rank=spec.adapter_rank)
        runs.append({"model": model, "fine": fine, "traces": traces})
    return runs, time.perf_counter() - start


def test_criterion_01_principal_split_reconstructs(capsys):
    start = time.perf_counter()
    gen = RandomSource(101).generator()
    worst = 0.0
    for _ in range(100):
        m = int(gen.integers(2, 257))
        n = int(gen.integers(2, 257))
        r = int(gen.integers(1, min(m, n) + 1))
        w = gen.standard_normal((m, n))
        layer = pissa_init(w, r)
        err = frobenius_norm(layer.base + layer.adapter.delta() - w)
        worst = max(worst, err / frobenius_norm(w))
    elapsed = time.perf_counter() - start
    _report(capsys, 1, "principal split reconstructs the weight",
            worst <= 1e-10 and elapsed < 30.0,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_gradients_match_finite_differences(capsys):
    start = time.perf_counter()
    gen = RandomSource(202).generator()
    worst = 0.0
    for _ in range(25):  # direct adapter-gradient configurations
        b = int(gen.integers(1, 6))
        m = int(gen.integers(2, 9))
        n = int(gen.integers(2, 9))
        r = int(gen.integers(1, min(m, n) + 1))
        x = gen.standard_normal((b, m))
        dy = gen.standard_normal((b, n))
        pair = AdapterPair(gen.standard_normal((m, r)),
                           gen.standard_normal((r, n)), r)
        da, db = adapter_gradients(x, dy, pair)
        eps = 1e-6
        for arr, grad in ((pair.a, da), (pair.b, db)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ij = it.multi_index
                orig = arr[ij]
                arr[ij] = orig + eps
                up = float(np.sum(x @ pair.a @ pair.b * dy))
                arr[ij] = orig - eps
                down = float(np.sum(x @ pair.a @ pair.b * dy))
                arr[ij] = orig
                numeric = (up - down) / (2 * eps)
                denom = max(abs(grad[ij]), abs(numeric), 1e-6)
                worst = max(worst, abs(grad[ij] - numeric) / denom)
    for i in range(25):  # full-model configurations
        rng = RandomSource(1000 + i)
        d, h, c = 5, 4, 3
        model = MlpModel(rng.spawn(0).normal((d, h)),
                         rng.spawn(1).normal(h) * 0.1,
                         rng.spawn(2).normal((h, c)),
                         rng.spawn(3).normal(c) * 0.1)
        model = inject_adapters(model, 2, "pissa", rng.spawn(4))
        x = rng.spawn(5).normal((3, d))
        labels = rng.spawn(6).generator().integers(0, c, size=3)
        worst = max(worst, gradcheck(model, x, labels))
    elapsed = time.perf_counter() - start
    _report(capsys, 2, "analytic gradients match finite differences",
            worst <= 1e-4 and elapsed < 60.0,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_zero_adapter_reduces_nothing(capsys, ensemble):
    cfg = QuantConfig()
    ratios = [error_reduction_ratio(w, qlora_init(w, 16, RandomSource(s), cfg),
                                    cfg)
              for s, w in enumerate(ensemble)]
    ok = all(r == 0.0 for r in ratios)
    _report(capsys, 3, "zero-adapter baseline gives exactly 0% reduction",
            ok, f"{sum(r == 0.0 for r in ratios)}/10 exact zeros")


def test_criterion_04_alternating_init_tail_identity(capsys):
    cfg = QuantConfig()
    gen = RandomSource(404).generator()
    worst = 0.0
    for i in range(20):
        m = int(gen.integers(80, 129))
        n = int(gen.integers(80, 129))
        w = generate_spectral_matrix(m, n, 1.0, 4000 + i)
        tail_sv = exact_svd(w - dequantize(quantize(w, cfg))).s
        for r in (4, 16, 64):
            layer = loftq_init(w, r, T=1, cfg=cfg)
            err = nuclear_norm(w - (dequantize(layer.base)
                                    + layer.adapter.delta()))
            expected = float(np.sum(tail_sv[r:]))
            worst = max(worst, abs(err - expected) / expected)
    _report(capsys, 4, "one-round alternating init leaves exactly the "
            "spectral tail", worst <= 1e-8, f"max rel dev {worst:.2e}")


def test_criterion_05_reduction_ratio_ordering(capsys, ensemble):
    start = time.perf_counter()
    cfg = QuantConfig()
    order_hits = {1: 0, 5: 0}
    mono_hits = 0
    for seed, w in enumerate(ensemble):
        ratios = {}
        for t in (1, 5):
            ratios["qpissa", t] = error_reduction_ratio(
                w, qpissa_init(w, 16, T=t, cfg=cfg), cfg)
            ratios["loftq", t] = error_reduction_ratio(
                w, loftq_init(w, 16, T=t, cfg=cfg), cfg)
        base = error_reduction_ratio(
            w, qlora_init(w, 16, RandomSource(seed), cfg), cfg)
        for t in (1, 5):
            if ratios["qpissa", t] > ratios["loftq", t] > base == 0.0:
                order_hits[t] += 1
        if (ratios["qpissa", 5] >= ratios["qpissa", 1]
                and ratios["loftq", 5] >= ratios["loftq", 1]):
            mono_hits += 1
    elapsed = time.perf_counter() - start
    ok = (order_hits[1] >= 9 and order_hits[5] >= 9 and mono_hits >= 9
          and elapsed < 300.0)
    _report(capsys, 5, "reduction-ratio ordering and iteration gains", ok,
            f"order {order_hits[1]}/10 and {order_hits[5]}/10, "
            f"monotone {mono_hits}/10, {elapsed:.1f}s")


def test_criterion_06_residual_distribution_narrower(capsys, ensemble):
    hits = 0
    for w in ensemble:
        layer = pissa_init(w, 16)
        std_w, _ = distribution_diagnostics(w)
        std_res, _ = distribution_diagnostics(layer.base)
        hits += std_res < std_w
    _report(capsys, 6, "frozen residual is narrower than the full weight",
            hits == 10, f"{hits}/10 seeds")


def test_criterion_07_principal_init_converges_faster(capsys, toy_runs):
    runs, setup_elapsed = toy_runs
    start = time.perf_counter()
    loss_hits = 0
    norm_hits = 0
    for run in runs:
        pissa = run["traces"]["pissa"]
        lora = run["traces"]["lora"]
        if all(pissa.losses[i] < lora.losses[i] for i in (49, 149, 299)):
            loss_hits += 1
        if pissa.grad_norms[0] > lora.grad_norms[0]:
            norm_hits += 1
    elapsed = setup_elapsed + time.perf_counter() - start
    ok = loss_hits >= 8 and norm_hits == 10 and elapsed < 180.0
    _report(capsys, 7, "principal init trains faster than Gaussian-zero", ok,
            f"loss {loss_hits}/10, step-1 grad norm {norm_hits}/10, "
            f"{elapsed:.1f}s")


def test_criterion_08_window_ablation_ordering(capsys, toy_runs):
    runs, _ = toy_runs
    hits = 0
    for run in runs:
        final = {s: run["traces"][s].losses[-1]
                 for s in ("pissa", "medium", "minor")}
        if final["pissa"] <= final["medium"] and final["pissa"] <= final["minor"]:
            hits += 1
    _report(capsys, 8, "principal window beats medium and minor windows",
            hits >= 8, f"{hits}/10 seeds")


def test_criterion_09_subspace_iterations_pay_off(capsys):
    start = time.perf_counter()
    trend_hits = 0
    worst_sv = 0.0
    for seed in range(10):
        w = generate_spectral_matrix(128, 128, 1.0, 9000 + seed)
        exact = exact_svd(w).truncate(16)
        f1 = randomized_svd(w, 16, 1, RandomSource(seed))
        f16 = randomized_svd(w, 16, 16, RandomSource(seed + 500))
        e1 = frobenius_norm(w - f1.reconstruct())
        e16 = frobenius_norm(w - f16.reconstruct())
        trend_hits += e16 <= e1
        worst_sv = max(worst_sv, float(np.max(np.abs(f16.s - exact.s)
                                              / exact.s)))
    elapsed = time.perf_counter() - start
    ok = trend_hits == 10 and worst_sv <= 1e-4 and elapsed < 60.0
    _report(capsys, 9, "more subspace iterations never hurt the fast SVD", ok,
            f"trend {trend_hits}/10, max sv rel err {worst_sv:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_10_conversion_is_lossless(capsys, toy_runs):
    runs, _ = toy_runs
    model, fine = runs[0]["model"], runs[0]["fine"]
    w1, w2 = model.layer1.copy(), model.layer2.copy()
    tuned = inject_adapters(model, 8, "pissa", RandomSource(0))
    init1 = tuned.layer1.adapter.copy()
    init2 = tuned.layer2.adapter.copy()
    cfg = TrainConfig(lr=2e-4, batch_size=128, steps=100, seed=0)
    train_model(tuned, fine, cfg)
    worst = 0.0
    for probe_seed in range(10):
        for w, layer, init in ((w1, tuned.layer1, init1),
                               (w2, tuned.layer2, init2)):
            da, db = to_lora_delta(init, layer.adapter)
            x = RandomSource(7000 + probe_seed).normal((16, w.shape[0]))
            via_delta = x @ (w + layer.adapter.scale * (da @ db))
            via_adapter = forward(layer, x)
            rel = (frobenius_norm(via_delta - via_adapter)
                   / max(1.0, frobenius_norm(via_adapter)))
            worst = max(worst, rel)
    _report(capsys, 10, "trained adapter converts losslessly to a weight "
            "delta", worst <= 1e-10, f"max probe err {worst:.2e}")


def test_criterion_11_quantizer_bit_exactness(capsys):
    # The one codebook quantize and dequantize index.
    levels_ok = tuple(NF4_LEVELS) == GOLDEN_LEVELS
    cfg = QuantConfig()
    gen = RandomSource(111).generator()
    blocks = gen.standard_normal((1000, 64)) * np.exp(
        gen.uniform(-3, 3, size=(1000, 1)))
    q = quantize(blocks, cfg)
    bound_ok = bool(
        (np.abs(blocks - dequantize(q))
         <= quantization_error_bound(q) + 1e-15).all())
    idem_ok = True
    for seed in range(5):
        m = RandomSource(seed).normal((33, 17))
        q1 = quantize(m, cfg)
        q2 = quantize(dequantize(q1), cfg)
        idem_ok = idem_ok and np.array_equal(q1.codes, q2.codes) \
            and np.array_equal(q1.scales, q2.scales)
    # The tie rule: each rounded level midpoint and its neighbours one ulp
    # either side, in blocks anchored by +-1.0 (scale 1), code as an argmin
    # over the levels, which takes the smaller index on a tie.
    mid = (NF4_LEVELS[:-1] + NF4_LEVELS[1:]) / 2
    ties = np.concatenate([np.nextafter(mid, -2.0), mid, np.nextafter(mid, 2.0)])
    ties = np.stack([np.r_[1.0, ties], np.r_[-1.0, ties]])
    tie_codes = quantize(ties, QuantConfig(block_size=ties.shape[1])).codes
    ties_ok = np.array_equal(
        tie_codes, np.argmin(np.abs(ties[..., None] - NF4_LEVELS), axis=-1))
    _report(capsys, 11, "quantizer is idempotent with golden codebook and "
            "tight error bound", levels_ok and bound_ok and idem_ok and ties_ok,
            f"levels {levels_ok}, bound {bound_ok}, idempotent {idem_ok}, "
            f"ties {ties_ok}")

"""Toy fine-tuning harness: a two-layer MLP with injected low-rank adapters.

The protocol mirrors the convergence demo: pretrain the MLP on one half of
the classes with full-parameter updates, inject adapters into both linear
layers, freeze the bases, and fine-tune on the other half while recording
loss, adapter gradient norm, and learning rate per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .adapter import (WINDOWS, DecomposedLayer, _adapter_gradients, _layer_product,
                      dense_base, lora_init, variant_init)
from .linalg import NumericalError, RandomSource, ShapeError, as_matrix
from .quant import QuantConfig, loftq_init, qlora_init, qpissa_init


class DivergenceError(RuntimeError):
    """Training loss became non-finite; carries the offending step index."""

    def __init__(self, step: int):
        super().__init__(f"loss diverged at step {step}")
        self.step = step


@dataclass
class Dataset:
    features: np.ndarray  # N x d
    labels: np.ndarray    # N ints in [0, num_classes)

    def __post_init__(self):
        self.features = as_matrix(self.features)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        rows = self.features.shape[0]
        if self.labels.shape != (rows,):
            raise ShapeError(f"need one label per feature row ({rows}), got labels "
                             f"of shape {self.labels.shape}")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("negative label")

    def __len__(self) -> int:
        return self.labels.shape[0]

    def subset(self, mask: np.ndarray) -> "Dataset":
        return Dataset(self.features[mask], self.labels[mask])


@dataclass
class TrainConfig:
    lr: float = 2e-3
    batch_size: int = 128
    steps: int = 300
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"lr must be finite and non-negative, got {self.lr}")
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class TrainTrace:
    losses: np.ndarray
    grad_norms: np.ndarray
    lrs: np.ndarray

    def __len__(self) -> int:
        return self.losses.shape[0]


@dataclass
class MlpModel:
    """Two-layer rectifier MLP; both layers plain matrices or both adapter layers."""

    layer1: object  # np.ndarray (d x h) or DecomposedLayer
    bias1: np.ndarray
    layer2: object  # np.ndarray (h x c) or DecomposedLayer
    bias2: np.ndarray

    def __post_init__(self):
        if self.has_adapters != isinstance(self.layer2, DecomposedLayer):
            raise TypeError("layer1 and layer2 must both be plain or both adapters")

    @property
    def has_adapters(self) -> bool:
        return isinstance(self.layer1, DecomposedLayer)


def cross_entropy_with_grad(logits: np.ndarray,
                            labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. the logits."""
    labels = np.asarray(labels, dtype=np.int64)
    b, c = logits.shape
    if b == 0:
        raise ValueError("cross-entropy of an empty batch")
    # Labels of shape (b, 1) would broadcast against the rows below and give
    # a wrong loss and gradient without an error.
    if labels.shape != (b,):
        raise ShapeError(f"need one label per logit row ({b}), got labels of shape "
                         f"{labels.shape}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label out of range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    rows = np.arange(b)
    loss = float(np.mean(log_z - shifted[rows, labels]))
    probs = np.exp(shifted - log_z[:, None])
    probs[rows, labels] -= 1.0
    return loss, probs / b


def _dense_view(model: MlpModel) -> MlpModel:
    """The model with each frozen base dequantized once, for a whole run.

    The view shares the adapter and bias arrays, so in-place updates reach
    the model, which keeps its quantized bases (and saves them as such).
    """
    if not model.has_adapters:
        return model
    return replace(model,
                   layer1=replace(model.layer1, base=dense_base(model.layer1)),
                   layer2=replace(model.layer2, base=dense_base(model.layer2)))


def model_forward_backward(model: MlpModel, x: np.ndarray, labels: np.ndarray):
    """Loss plus gradients for every trainable parameter.

    With adapters injected only (A, B) of each layer and the biases receive
    gradients; the frozen bases are never touched. For a plain-matrix model
    (pretraining) the full weight gradients are returned instead. A quantized
    base is dequantized on every call; train_model and gradcheck call the
    core, _forward_backward, on a view whose bases are already dense and on
    an x they checked once, not per call.
    """
    return _forward_backward(model, as_matrix(x), labels)


def _forward_backward(model: MlpModel, x: np.ndarray, labels: np.ndarray,
                      x_base1: np.ndarray | None = None, out: dict | None = None):
    # model_forward_backward without its NaN/Inf pass over x. x_base1, if
    # given, is x times the adapter layer 1's base: train_model takes it once
    # per run, since the base and the data do not change. out, if given, maps
    # each gradient key to the array that takes that gradient.
    out = {} if out is None else out
    # Every array below is new to this call, so the biases, the rectifier
    # mask and the scales go in place; x A1 and h A2 of the forward pass serve
    # the rank-first gradients.
    pre, x_a1 = _layer_product(model.layer1, x, x_base=x_base1)
    pre += model.bias1
    h = np.maximum(pre, 0.0)
    logits, h_a2 = _layer_product(model.layer2, h)
    logits += model.bias2
    loss, d_logits = cross_entropy_with_grad(logits, labels)

    grads: dict[str, np.ndarray] = {
        "bias2": d_logits.sum(axis=0, out=out.get("bias2"))}
    d_pre = _layer_product(model.layer2, d_logits, transpose=True)[0]
    np.multiply(d_pre, pre > 0, out=d_pre)
    grads["bias1"] = d_pre.sum(axis=0, out=out.get("bias1"))
    if isinstance(model.layer2, DecomposedLayer):
        grads["l2.a"], grads["l2.b"] = _adapter_gradients(
            h, d_logits, model.layer2.adapter, h_a2, out.get("l2.a"), out.get("l2.b"))
        grads["l1.a"], grads["l1.b"] = _adapter_gradients(
            x, d_pre, model.layer1.adapter, x_a1, out.get("l1.a"), out.get("l1.b"))
    else:
        grads["l2.w"] = np.matmul(h.T, d_logits, out=out.get("l2.w"))
        grads["l1.w"] = np.matmul(x.T, d_pre, out=out.get("l1.w"))
    return loss, grads


# Adam moment decay rates and denominator floor, the usual published values.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Share of every run's steps on cosine_warmup_lr's linear ramp.
WARMUP_RATIO = 0.03


@dataclass
class AdamState:
    """Moment accumulators of one array, and the step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adamw_step(state: AdamState, p: np.ndarray, g: np.ndarray,
               lr_t: float) -> None:
    """One adaptive-moment update of p in place (AdamW, zero weight decay).

    g, state.m and state.v must have p's shape (ShapeError otherwise): none
    broadcasts. The update writes into the moments and two work arrays of
    p's shape. It runs the textbook ufuncs in the textbook order,
        m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g^2,
        p -= lr_t (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps),
    with the scalar products commuted, so p gets the textbook bits.
    """
    bad = [f"{name} has {arr.shape}"
           for name, arr in (("g", g), ("state.m", state.m), ("state.v", state.v))
           if arr.shape != p.shape]
    if bad:
        raise ShapeError(f"adamw_step: p has shape {p.shape}, but {', '.join(bad)}")
    state.t += 1
    m, v, s1, s2 = state.m, state.v, np.empty(p.shape), np.empty(p.shape)
    m *= ADAM_BETA1
    m += np.multiply(g, 1 - ADAM_BETA1, out=s1)
    v *= ADAM_BETA2
    np.square(g, out=s1)
    s1 *= 1 - ADAM_BETA2
    v += s1
    np.divide(m, 1 - ADAM_BETA1 ** state.t, out=s1)  # m_hat
    s1 *= lr_t
    np.divide(v, 1 - ADAM_BETA2 ** state.t, out=s2)  # v_hat
    np.sqrt(s2, out=s2)
    s2 += ADAM_EPS
    s1 /= s2
    p -= s1


def cosine_warmup_lr(step: int, cfg: TrainConfig) -> float:
    """Linear ramp over the warmup steps, then cosine decay to 0 at the end.

    The first ramp tick is nonzero (lr / warmup_steps) so tiny runs do not
    waste step 0.
    """
    if not 0 <= step < cfg.steps:
        raise ValueError(f"step {step} outside [0, {cfg.steps})")
    warmup = math.ceil(WARMUP_RATIO * cfg.steps)
    if step < warmup:
        return cfg.lr * (step + 1) / warmup
    span = max(1, cfg.steps - 1 - warmup)
    return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * (step - warmup) / span))


# Strategy name -> initializer(w, rank, rng, quant_cfg): one per singular
# window, then the Gaussian/zero and quantized initializers (one
# alternating round). The lambdas look the initializers up at call time,
# so patched module attributes apply.
STRATEGIES = {
    **{name: lambda w, r, rng, cfg, name=name: variant_init(w, r, name)
       for name in WINDOWS},
    "lora": lambda w, r, rng, cfg: lora_init(w, r, rng),
    "qpissa": lambda w, r, rng, cfg: qpissa_init(w, r, cfg=cfg),
    "loftq": lambda w, r, rng, cfg: loftq_init(w, r, cfg=cfg),
    "qlora": lambda w, r, rng, cfg: qlora_init(w, r, rng, cfg=cfg),
}


def inject_adapters(model: MlpModel, rank: int, strategy: str,
                    rng: RandomSource,
                    quant_cfg: QuantConfig = QuantConfig()) -> MlpModel:
    """Replace both plain weight matrices with frozen-base adapter layers."""
    if model.has_adapters:
        raise ValueError("model already has adapters injected")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown init strategy: {strategy}")
    init = STRATEGIES[strategy]
    l1 = init(model.layer1, rank, rng.spawn(1), quant_cfg)
    l2 = init(model.layer2, rank, rng.spawn(2), quant_cfg)
    return MlpModel(l1, model.bias1.copy(), l2, model.bias2.copy())


def _pack_trainable(model: MlpModel) -> tuple[np.ndarray, np.ndarray, dict]:
    """Copy the trainable arrays into one flat buffer and point the model at
    C-contiguous views of it; return the buffer, a gradient buffer of its
    layout and that buffer's views by gradient key.

    The update is elementwise, so one AdamW step on the buffer gives each
    array the bits a step per array would.
    """
    slots = {"bias1": (model, "bias1"), "bias2": (model, "bias2")}
    if model.has_adapters:
        p1, p2 = model.layer1.adapter, model.layer2.adapter
        slots.update({"l1.a": (p1, "a"), "l1.b": (p1, "b"),
                      "l2.a": (p2, "a"), "l2.b": (p2, "b")})
    else:
        slots.update({"l1.w": (model, "layer1"), "l2.w": (model, "layer2")})
    arrays = [getattr(owner, attr) for owner, attr in slots.values()]
    flat = np.concatenate(arrays, axis=None)
    grad = np.empty_like(flat)
    grad_views, offset = {}, 0
    for (key, (owner, attr)), arr in zip(slots.items(), arrays):
        setattr(owner, attr, flat[offset:offset + arr.size].reshape(arr.shape))
        grad_views[key] = grad[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return flat, grad, grad_views


def adapter_grad_norm(grads: dict) -> float:
    """Global L2 norm over adapter (or full-weight) gradients, biases excluded."""
    return math.sqrt(sum(float(np.sum(np.square(g))) for key, g in grads.items()
                         if not key.startswith("bias")))


def train_model(model: MlpModel, dataset: Dataset, cfg: TrainConfig) -> TrainTrace:
    """Train the model's trainable arrays; return the per-step trace.

    The model's trainable arrays are replaced by views of one flat buffer,
    with the same values, which takes one AdamW update per step. Each step
    writes its gradients into views of a second flat buffer of that layout.
    With adapters, the frozen layer-1 base and the data stay fixed for the
    run, so their product is taken once and each step gathers its batch rows;
    layer 2's input moves with the adapter. An empty dataset raises
    ValueError before any step.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset (0 rows)")
    gen = RandomSource(cfg.seed).generator()
    flat, grad, grad_views = _pack_trainable(model)
    view = _dense_view(model)
    x_base1 = dataset.features @ view.layer1.base if model.has_adapters else None
    state = AdamState(np.zeros_like(flat), np.zeros_like(flat))
    losses = np.empty(cfg.steps)
    norms = np.empty(cfg.steps)
    lrs = np.empty(cfg.steps)
    n = len(dataset)
    for step in range(cfg.steps):
        if cfg.batch_size >= n:
            xb, yb, xb_base1 = dataset.features, dataset.labels, x_base1
        else:
            idx = gen.integers(0, n, size=cfg.batch_size)
            xb = np.take(dataset.features, idx, axis=0)
            yb = np.take(dataset.labels, idx)
            xb_base1 = None if x_base1 is None else np.take(x_base1, idx, axis=0)
        loss, grads = _forward_backward(view, xb, yb, xb_base1, grad_views)
        if not math.isfinite(loss):
            raise DivergenceError(step)
        lr_t = cosine_warmup_lr(step, cfg)
        losses[step] = loss
        norms[step] = adapter_grad_norm(grads)
        lrs[step] = lr_t
        adamw_step(state, flat, grad, lr_t)
    return TrainTrace(losses, norms, lrs)


def pretrain_mlp(dataset: Dataset, hidden: int, num_classes: int,
                 cfg: TrainConfig) -> MlpModel:
    """Full-parameter training of a fresh two-layer MLP."""
    d = dataset.features.shape[1]
    rng = RandomSource(cfg.seed)
    w1 = rng.spawn(11).normal((d, hidden)) * math.sqrt(2.0 / d)
    w2 = rng.spawn(12).normal((hidden, num_classes)) * math.sqrt(1.0 / hidden)
    model = MlpModel(w1, np.zeros(hidden), w2, np.zeros(num_classes))
    train_model(model, dataset, cfg)
    return model


def run_finetune(model: MlpModel, dataset: Dataset, cfg: TrainConfig,
                 strategy: str, rank: int = 8,
                 quant_cfg: QuantConfig = QuantConfig()
                 ) -> tuple[TrainTrace, MlpModel]:
    """Inject adapters per strategy into a pretrained model and fine-tune.

    Deterministic given cfg.seed; returns the per-step trace and the tuned
    model. The frozen bases are bit-identical before and after training.
    """
    tuned = inject_adapters(model, rank, strategy, RandomSource(cfg.seed),
                            quant_cfg=quant_cfg)
    trace = train_model(tuned, dataset, cfg)
    return trace, tuned


def gradcheck(model: MlpModel, x: np.ndarray, labels: np.ndarray,
              eps: float = 1e-5) -> float:
    """Max relative error of analytic adapter gradients vs central differences.

    While any hidden pre-activation of the batch sits within 1e-3 of the
    rectifier kink, the whole batch x is shifted by 1e-3, at most 8 times;
    the differences are taken on the last shift whether or not it cleared
    the kink. A non-finite loss or analytic gradient raises NumericalError.
    """
    if not 0 < eps < math.inf:  # also rejects NaN
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not model.has_adapters:
        raise ValueError("gradcheck expects an adapter-injected model")
    x = as_matrix(x).copy()
    view = _dense_view(model)
    for _ in range(8):
        pre = _layer_product(view.layer1, x)[0] + view.bias1
        if np.min(np.abs(pre)) >= 1e-3:
            break
        x += 1e-3

    def loss_at() -> float:
        return _forward_backward(view, x, labels)[0]

    _, grads = _forward_backward(view, x, labels)
    arrays = {
        "l1.a": model.layer1.adapter.a, "l1.b": model.layer1.adapter.b,
        "l2.a": model.layer2.adapter.a, "l2.b": model.layer2.adapter.b,
    }
    worst = 0.0
    for key, arr in arrays.items():
        analytic = grads[key]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ij = it.multi_index
            orig = arr[ij]
            arr[ij] = orig + eps
            up = loss_at()
            arr[ij] = orig - eps
            down = loss_at()
            arr[ij] = orig
            numeric = (up - down) / (2 * eps)
            # Floor keeps difference roundoff (~1e-11 absolute) from
            # dominating when both gradients are essentially zero.
            denom = max(abs(analytic[ij]), abs(numeric), 1e-6)
            err = abs(analytic[ij] - numeric) / denom
            if not math.isfinite(err):  # max() would drop a NaN
                raise NumericalError(f"non-finite loss or {key} gradient at {ij}")
            worst = max(worst, err)
    return worst

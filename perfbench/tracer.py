"""In-memory span recorder that wraps the package's public functions.

``Tracer.install`` replaces every listed function at every ``pissa.*``
module attribute bound to that function object, so calls made inside the
package (``pissa.quant.exact_svd``, ``pissa.adapter.exact_svd``, ...) are
caught as well as calls from outside. ``uninstall`` puts the originals back.
Spans are kept as tuples in a list and written out when the run ends.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# Layer -> traced public functions. Harness functions are looked up on
# ``pissa.harness``, the rest on ``pissa.<layer>``.
LAYERS = {
    "linalg": ("exact_svd", "nuclear_norm", "qr_thin", "randomized_svd"),
    "quant": ("quantize", "dequantize", "qlora_init", "loftq_init",
              "qpissa_init", "quant_report", "error_reduction_ratio",
              "qlora_error"),
    "adapter": ("pissa_init", "variant_init", "lora_init", "merge",
                "dense_base", "adapter_gradients", "to_lora_delta"),
    "train": ("pretrain_mlp", "inject_adapters", "train_model",
              "model_forward_backward", "cross_entropy_with_grad",
              "adamw_step"),
    "harness": ("generate_spectral_matrix", "generate_cluster_dataset",
                "save_adapter_dir", "load_adapter_dir", "save_matrix",
                "load_matrix", "save_quantized", "load_quantized"),
}

FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Counters beyond calls and self time; see README.md for definitions.
EXTRA_METRICS = (
    ("quant.quantize.bytes_in", "B/round", "lower"),
    ("quant.qlora_error.useful_ratio", "1", "higher"),
    ("adapter.merge.per_step", "calls/step", "lower"),
    ("harness.matrix_io.bytes_written", "B/round", "lower"),
    ("harness.matrix_io.bytes_read", "B/round", "lower"),
    ("bench.op.self_ms", "ms/round", "lower"),
    ("bench.check.self_ms", "ms/round", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.uncovered_ms", "ms/round", "lower"),
    ("trace.uncovered_pct", "%", "lower"),
    ("trace.rounds", "count", "higher"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for name in FUNCTIONS:
        out.append((f"{name}.calls", "calls/round", "lower"))
        out.append((f"{name}.self_ms", "ms/round", "lower"))
    out.extend(EXTRA_METRICS)
    out.extend((f"setup.{layer}.self_ms", "ms/setup", "lower") for layer in LAYERS)
    return out


def _resolve(qualname: str):
    layer, fn = qualname.split(".")
    return getattr(importlib.import_module(f"pissa.{layer}"), fn)


class Tracer:
    """Records a span per traced call: name, start, end, parent, op id, phase."""

    def __init__(self):
        self.spans: list = []
        self.phase = "setup"
        self.op_id = -1
        self.round_id = -1
        self._stack: list[int] = []
        self._patched: list = []
        self._counts: dict = defaultdict(int)
        self._qlora_keys: set = set()
        self._targets = {id(_resolve(q)): q for q in FUNCTIONS}

    # -- installation -------------------------------------------------

    def install(self, phase: str, round_id: int = -1) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.phase, self.round_id = phase, round_id
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "pissa" or modname.startswith("pissa.")):
                continue
            for attr, value in list(vars(mod).items()):
                qualname = self._targets.get(id(value))
                if qualname is None:
                    continue
                if qualname not in wrappers:
                    wrappers[qualname] = self._wrap(qualname, value)
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[qualname])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @property
    def active(self) -> bool:
        return bool(self._patched)

    # -- recording ----------------------------------------------------

    def _wrap(self, qualname: str, fn):
        hook = {
            "quant.quantize": self._hook_quantize,
            "quant.qlora_error": self._hook_qlora_error,
            "harness.save_matrix": self._hook_written,
            "harness.save_quantized": self._hook_written,
            "harness.load_matrix": self._hook_read,
            "harness.load_quantized": self._hook_read,
        }.get(qualname)

        def traced(*args, **kwargs):
            # Hooks run outside the span clock, so their cost shows as overhead.
            if hook is not None:
                hook(args, before=True)
            sid = self._open()
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid, qualname, start)
            if hook is not None:
                hook(args, before=False)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around the block while the tracer is installed."""
        if not self.active:
            yield
            return
        sid = self._open()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, name, start)

    def _open(self) -> int:
        sid = len(self.spans)
        # The slot holds the parent id until _close fills in the span.
        self.spans.append(self._stack[-1] if self._stack else -1)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self.spans[sid] = (name, start, end, self.spans[sid], self.op_id, self.phase)

    def _count(self, key: str, value) -> None:
        if self.phase == "timed":
            self._counts[key] += value

    def _hook_quantize(self, args, before):
        if before:
            self._count("quant.quantize.bytes_in", 8 * np.size(args[0]))

    def _hook_qlora_error(self, args, before):
        if before and self.phase == "timed":
            cfg = args[1] if len(args) > 1 else None
            data = np.ascontiguousarray(args[0], dtype=np.float64)
            digest = hashlib.blake2b(data.tobytes(), digest_size=16).digest()
            self._qlora_keys.add((self.round_id, digest,
                                  cfg.block_size if cfg is not None else None))

    def _hook_written(self, args, before):
        if not before:
            self._count("harness.matrix_io.bytes_written", os.path.getsize(args[0]))

    def _hook_read(self, args, before):
        if before:
            self._count("harness.matrix_io.bytes_read", os.path.getsize(args[0]))

    # -- aggregation --------------------------------------------------

    def metrics(self, traced_rounds: list[float], untraced_rounds: list[float],
                setup_reps: int) -> dict[str, float]:
        """Per-layer metrics of the traced timed rounds, per round or per setup."""
        n = len(traced_rounds)
        child_ns = defaultdict(int)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        setup_ns = defaultdict(int)
        top_ns = 0
        steps = merges_in_steps = 0
        for sid, (name, start, end, parent, _, phase) in enumerate(self.spans):
            own = end - start - child_ns[sid]
            if phase == "setup":
                if "." in name:
                    setup_ns[name.split(".")[0]] += own
                continue
            if ":" in name:  # benchmark span, e.g. "op:qpissa_T5"
                self_ns["bench." + name.split(":")[0]] += own
                if parent < 0:
                    top_ns += end - start
                continue
            calls[name] += 1
            self_ns[name] += own
            if name == "train.model_forward_backward":
                steps += 1
            elif (name == "adapter.merge"
                  and self._under(sid, "train.model_forward_backward")):
                merges_in_steps += 1

        out = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = calls[name] / n
            out[f"{name}.self_ms"] = self_ns[name] / n / 1e6
        qcalls = calls["quant.qlora_error"]
        counts = self._counts
        round_ns = sum(traced_rounds) * 1e9
        uncovered_ns = round_ns - top_ns
        out.update({
            "quant.quantize.bytes_in": counts["quant.quantize.bytes_in"] / n,
            "quant.qlora_error.useful_ratio":
                len(self._qlora_keys) / qcalls if qcalls else 1.0,
            "adapter.merge.per_step": merges_in_steps / steps if steps else 0.0,
            "harness.matrix_io.bytes_written":
                counts["harness.matrix_io.bytes_written"] / n,
            "harness.matrix_io.bytes_read": counts["harness.matrix_io.bytes_read"] / n,
            "bench.op.self_ms": self_ns["bench.op"] / n / 1e6,
            "bench.check.self_ms": self_ns["bench.check"] / n / 1e6,
            # Rounds come in pairs on one input: the j-th traced round and
            # the j-th untraced one.
            "trace.overhead_pct": (statistics.median(
                t / u for t, u in zip(traced_rounds, untraced_rounds)) - 1) * 100,
            "trace.uncovered_ms": uncovered_ns / n / 1e6,
            "trace.uncovered_pct": uncovered_ns / round_ns * 100,
            "trace.rounds": float(n),
        })
        for layer in LAYERS:
            out[f"setup.{layer}.self_ms"] = setup_ns[layer] / setup_reps / 1e6
        return out

    def _under(self, sid: int, ancestor: str) -> bool:
        parent = self.spans[sid][3]
        while parent >= 0:
            span = self.spans[parent]
            if span[0] == ancestor:
                return True
            parent = span[3]
        return False

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, one per span."""
        with open(path, "w") as f:
            f.write("id\tname\tstart_ns\tend_ns\tparent\top\tphase\n")
            for sid, (name, start, end, parent, op, phase) in enumerate(self.spans):
                f.write(f"{sid}\t{name}\t{start}\t{end}\t{parent}\t{op}\t{phase}\n")


"""The three benchmark workloads and the loop that runs and checks their ops.

A workload builds its inputs in ``setup`` with the package's own generators
and then runs rounds: one round is the fixed unit of work of the study, on
one of the workload's K inputs (round i uses input i mod K). Each op of a
round is one public call into the package, followed by a check of its
output that is timed with the round but not with the op.
"""

from __future__ import annotations

import math
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

# Package functions are called through their modules, so the tracer's
# wrappers on the module attributes see the benchmark's own calls too.
from pissa import adapter, harness, linalg, quant, train
from pissa.harness.experiments import ExperimentSpec, toy_pretrained
from pissa.linalg import RandomSource
from pissa.quant import QuantConfig
from pissa.train import TrainConfig

TOL = 1e-10  # the exact_svd reconstruction contract


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


def input_seeds(seed: int, count: int) -> list[int]:
    """One seed per input. Mixing the workload seed first keeps the inputs
    of nearby workload seeds apart (spawn alone maps seed + k)."""
    base = RandomSource(RandomSource(seed).spawn(0).seed)
    return [base.spawn(k).seed for k in range(count)]


def _mean(values) -> float:
    """Mean over the inputs whose op succeeded; nan if none did."""
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def _max_orthonormality_error(q: np.ndarray) -> float:
    return float(np.max(np.abs(q.T @ q - np.eye(q.shape[1]))))


class QuantInit:
    """Quantized initializers on 512x512 power-law matrices (quant-bench rows)."""

    name = "quant-init"
    quality_ops = ("loftq_T5", "qpissa_T5")
    quality_from_probe = False
    sizes = {"full": dict(n=512, count=5), "probe": dict(n=512, count=1),
             "tiny": dict(n=32, count=1)}
    rank, alpha, block_size = 16, 1.0, 64

    def __init__(self, size: str, workdir: Path):
        self.n, self.count = self.sizes[size]["n"], self.sizes[size]["count"]
        self.workdir = workdir
        self.ratios: dict = {}

    def setup(self, seed: int) -> None:
        self.cfg = QuantConfig(block_size=self.block_size)
        self.seeds = input_seeds(seed, self.count)
        self.inputs = [harness.generate_spectral_matrix(self.n, self.n, self.alpha, s)
                       for s in self.seeds]

    def ops(self, k: int) -> list[Op]:
        w, cfg, r = self.inputs[k], self.cfg, self.rank

        def report(method, t, init):
            def call():
                layer = init()
                return layer, quant.quant_report(w, layer, cfg)
            return Op(f"{method}_T{t}", call,
                      lambda out: self._check(k, method, t, out))

        return [
            report("qlora", 1, lambda: quant.qlora_init(
                w, r, RandomSource(self.seeds[k]), cfg)),
            report("loftq", 1, lambda: quant.loftq_init(w, r, 1, cfg)),
            report("loftq", 5, lambda: quant.loftq_init(w, r, 5, cfg)),
            report("qpissa", 1, lambda: quant.qpissa_init(w, r, 1, cfg)),
            report("qpissa", 5, lambda: quant.qpissa_init(w, r, 5, cfg)),
        ]

    def _check(self, k, method, t, out) -> list[str]:
        layer, rep = out
        ratio = rep.reduction_ratio_percent
        problems = []
        if method == "qlora":
            if ratio != 0.0:
                problems.append(f"qlora reduction ratio {ratio!r} is not exactly 0")
        elif not math.isfinite(ratio):
            problems.append(f"{method} T={t} reduction ratio is {ratio}")
        if t == 5:
            self.ratios[(method, k)] = ratio
        if method == "qpissa" and t == 5:
            problems += self._check_reload(layer)
        return problems

    def _check_reload(self, layer) -> list[str]:
        path = Path(tempfile.mkdtemp(dir=self.workdir))
        try:
            harness.save_adapter_dir(path, layer)
            back = harness.load_adapter_dir(path)
        finally:
            shutil.rmtree(path)
        if not np.array_equal(quant.dequantize(back.base),
                              quant.dequantize(layer.base)):
            return ["reloaded PSQ4 base does not dequantize bit-identically"]
        if not (np.array_equal(back.adapter.a, layer.adapter.a)
                and np.array_equal(back.adapter.b, layer.adapter.b)):
            return ["reloaded adapter factors differ"]
        return []

    def quality(self) -> dict[str, float]:
        def mean(method):
            return _mean(v for (m, _), v in self.ratios.items() if m == method)
        return {"qpissa_ratio_pct": mean("qpissa"), "loftq_ratio_pct": mean("loftq")}


class FastSvd:
    """Randomized versus exact SVD on one 1024x1024 power-law matrix."""

    name = "fast-svd"
    quality_ops = ("exact_svd", "rsvd_niter0", "rsvd_niter1", "rsvd_niter2",
                   "rsvd_niter4")
    # At 1024x1024 too few calls fit in a run for a steady accuracy figure,
    # so every workload, this one too, takes it from the 128x128 probe.
    quality_from_probe = True
    sizes = {"full": dict(n=1024, count=3), "probe": dict(n=128, count=48),
             "tiny": dict(n=48, count=1)}
    rank, alpha, niters = 16, 1.0, (0, 1, 2, 4)

    def __init__(self, size: str, workdir: Path):
        self.n, self.count = self.sizes[size]["n"], self.sizes[size]["count"]
        self.sv_errors: dict = {}

    def setup(self, seed: int) -> None:
        seeds = input_seeds(seed, 1 + self.count)
        self.w = harness.generate_spectral_matrix(self.n, self.n, self.alpha, seeds[0])
        # One RandomSource stream per input index.
        self.streams = [RandomSource(s) for s in seeds[1:]]

    def ops(self, k: int) -> list[Op]:
        w, r, ref = self.w, self.rank, {}

        def keep_reference(f):
            ref["s"] = f.s[:r]
            return []

        def rsvd(niter):
            stream = self.streams[k].spawn(niter)
            return Op(f"rsvd_niter{niter}",
                      lambda: linalg.randomized_svd(w, r, niter, stream),
                      lambda f: self._check_rsvd(k, niter, f, ref["s"]))

        return ([Op("exact_svd", lambda: linalg.exact_svd(w), keep_reference)]
                + [rsvd(niter) for niter in self.niters]
                + [Op("pissa_init", lambda: adapter.pissa_init(w, r),
                      self._check_pissa)])

    def _check_rsvd(self, k, niter, f, exact_s) -> list[str]:
        self.sv_errors[(k, niter)] = float(np.max(np.abs(f.s - exact_s) / exact_s))
        worst = max(_max_orthonormality_error(f.u), _max_orthonormality_error(f.v))
        if not worst <= TOL:
            return [f"randomized_svd niter={niter}: factors off orthonormal "
                    f"by {worst:.2e}"]
        return []

    def _check_pissa(self, layer) -> list[str]:
        err = adapter.reconstruction_error(self.w, layer)
        return [] if err <= TOL else [f"pissa_init reconstruction error {err:.2e}"]

    def quality(self) -> dict[str, float]:
        logs = _mean(math.log(e) for e in self.sv_errors.values())
        return {"rsvd_sv_rel_err": math.exp(logs)}


class Finetune:
    """Adapter fine-tuning of the pretrained toy MLP for five init strategies."""

    name = "finetune"
    quality_ops = ("pissa", "qpissa")
    quality_from_probe = False
    sizes = {"full": dict(dim=256, count=4, steps=300),
             "probe": dict(dim=64, count=4, steps=300),
             "tiny": dict(dim=16, count=1, steps=5)}
    strategies = ("pissa", "lora", "qpissa", "loftq", "qlora")
    rank, batch_size = 8, 128

    def __init__(self, size: str, workdir: Path):
        s = self.sizes[size]
        self.dim, self.count, self.steps = s["dim"], s["count"], s["steps"]
        self.workdir = workdir
        self.final_losses: dict = {}

    def setup(self, seed: int) -> None:
        self.spec = ExperimentSpec(kind="converge", dim=self.dim, hidden=self.dim,
                                   batch_size=self.batch_size, steps=self.steps)
        self.quant_cfg = QuantConfig()
        self.seeds = input_seeds(seed, self.count)
        self.inputs = [toy_pretrained(self.spec, s) for s in self.seeds]

    def ops(self, k: int) -> list[Op]:
        model, fine = self.inputs[k]
        cfg = TrainConfig(lr=self.spec.lr, batch_size=self.batch_size,
                          steps=self.steps, seed=self.seeds[k])

        def finetune(strategy):
            return Op(strategy,
                      lambda: train.run_finetune(model, fine, cfg, strategy,
                                                 rank=self.rank,
                                                 quant_cfg=self.quant_cfg),
                      lambda out: self._check(k, strategy, model, cfg, out))

        return [finetune(s) for s in self.strategies]

    def _check(self, k, strategy, model, cfg, out) -> list[str]:
        trace, tuned = out
        if not np.isfinite(trace.losses).all():
            return [f"{strategy}: non-finite training loss"]
        self.final_losses[(strategy, k)] = float(trace.losses[-1])
        if strategy != "pissa":
            return []
        # Save and reload the tuned layer, then check that the trained adapter
        # converts to an exact delta on the original weights.
        init = train.inject_adapters(model, self.rank, strategy, RandomSource(cfg.seed))
        path = Path(tempfile.mkdtemp(dir=self.workdir))
        try:
            harness.save_adapter_dir(path, tuned.layer1)
            back = harness.load_adapter_dir(path)
        finally:
            shutil.rmtree(path)
        da, db = adapter.to_lora_delta(init.layer1.adapter, back.adapter)
        x = RandomSource(cfg.seed).spawn(99).normal((16, self.dim))
        via_delta = x @ (model.layer1 + back.adapter.scale * (da @ db))
        via_adapter = adapter.forward(back, x)
        err = (linalg.frobenius_norm(via_delta - via_adapter)
               / max(1.0, linalg.frobenius_norm(via_adapter)))
        return [] if err <= TOL else [f"to_lora_delta probe error {err:.2e}"]

    def quality(self) -> dict[str, float]:
        def mean(strategy):
            return _mean(v for (s, _), v in self.final_losses.items() if s == strategy)
        return {"pissa_final_loss": mean("pissa"), "qpissa_final_loss": mean("qpissa")}


WORKLOADS = {cls.name: cls for cls in (QuantInit, FastSvd, Finetune)}


class Runner:
    """Runs rounds of ops, counting attempts and failures and timing each op."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        # One entry per timed op: (op name, input, call s, check s).
        self.timed_ops: list[tuple[str, int, float, float]] = []

    def _span(self, name):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def run_round(self, workload, k: int, timed: bool, only=None) -> float:
        """Run the ops of round input k (those named in ``only``, if given);
        return the round's wall time in s."""
        start = perf_counter()
        for op in workload.ops(k):
            if only is not None and op.name not in only:
                continue
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.op_id = self.attempted
            problems = []
            with self._span(f"op:{op.name}"):
                t0 = perf_counter()
                try:
                    result = op.call()
                except Exception:
                    problems.append(traceback.format_exc())
                call_s = perf_counter() - t0
            check_s = 0.0
            if not problems:
                with self._span(f"check:{op.name}"):
                    t0 = perf_counter()
                    try:
                        problems = op.check(result)
                    except Exception:
                        problems.append(traceback.format_exc())
                    check_s = perf_counter() - t0
            if timed:
                self.timed_ops.append((op.name, k, call_s, check_s))
            if problems:
                self.failed += 1
                for p in problems:
                    print(f"FAILED {workload.name}/{op.name} input {k}: {p}",
                          file=sys.stderr)
        return perf_counter() - start

    def op_ms_p50(self) -> float:
        """Median latency of the timed op calls, in ms."""
        return statistics.median(call_s for _, _, call_s, _ in self.timed_ops) * 1e3

    def round_s(self) -> float:
        """Time of one round: the sum over its steps (each op call and each
        check) of the step's median time over the timed rounds.

        Summing per-step medians keeps a few slow rounds out of the figure,
        whether the machine or a slow-path input made them slow, as long as
        each step is slow in fewer than half of the rounds.
        """
        steps = defaultdict(list)
        for name, _, call_s, check_s in self.timed_ops:
            steps[name, "call"].append(call_s)
            steps[name, "check"].append(check_s)
        return sum(statistics.median(v) for v in steps.values())

"""Experiment orchestration: reproducible desk-scale studies over seeds.

Each experiment kind expands into one report row per (seed x configuration).
Rows carry the seed, the PRNG name, and a hash of the spec (output path
excluded) so any report can be replayed bit-for-bit at the same OpenBLAS
thread count; at another count the LAPACK eigensolver may return other
bits. Per-row failures are recorded and the run continues.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from ..linalg import PRNG_NAME, RandomSource, exact_svd, frobenius_norm, randomized_svd
from ..quant import QuantConfig, qlora_init, loftq_init, qpissa_init, quant_report
from ..train import (STRATEGIES, Dataset, MlpModel, TrainConfig, gradcheck,
                     inject_adapters, pretrain_mlp, run_finetune)
from .data import DATA_VERSION, generate_cluster_dataset, generate_spectral_matrix
from .matrix_io import _atomic_write

CLASSES = 10  # the toy MLP's outputs: layer 2 is hidden x CLASSES
PER_CLASS, NOISE_STD = 200, 1.0  # the toy dataset's points per class and their spread
PRETRAIN_CLASSES = (1, 3, 5, 7, 9)
FINETUNE_CLASSES = (0, 2, 4, 6, 8)
TRACE_COLUMNS = ("step", "loss", "grad_norm", "lr")


@dataclass
class ExperimentSpec:
    kind: str
    m: int = 256
    n: int = 256
    ranks: tuple = (16,)
    iters: tuple = (1, 5)       # alternating-refinement counts for quantized inits
    niters: tuple = (1, 16)     # Krylov depths (block count - 1) for the randomized SVD
    seeds: tuple = tuple(range(10))
    alpha: float = 1.0
    block_size: int = 64
    strategies: tuple = ("pissa", "lora")
    steps: int = 300
    lr: float = 2e-4
    batch_size: int = 128
    adapter_rank: int = 8
    hidden: int = 64
    dim: int = 64
    out: str = "report.csv"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind: {self.kind}")
        for name in ("seeds", "ranks", "iters", "niters", "strategies"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            raise ValueError(f"unknown init strategy: {', '.join(unknown)}")
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        for name, low in (("seeds", 0), ("m", 1), ("n", 1), ("ranks", 1), ("iters", 1),
                          ("niters", 0), ("adapter_rank", 1)):
            if np.min(getattr(self, name), initial=low) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if any(r > min(self.m, self.n) for r in self.ranks):
            raise ValueError("rank exceeds min(m, n)")
        # The adapters wrap both toy layers, dim x hidden and hidden x CLASSES.
        most = min(self.dim, self.hidden, CLASSES)
        if self.adapter_rank > most:
            raise ValueError(f"adapter_rank must be <= min(dim, hidden, classes) "
                             f"= {most}, got {self.adapter_rank}")
        # TrainConfig's checks on the fine-tune settings, before any pretraining.
        TrainConfig(lr=self.lr, batch_size=self.batch_size, steps=self.steps)

    def config_hash(self) -> str:
        """Hash of the experiment identity; the output path is left out."""
        identity = {k: v for k, v in asdict(self).items() if k != "out"}
        blob = json.dumps(identity, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return value


def _write_csv(path, columns, rows: list[dict], comment: str = "") -> None:
    """Write rows as CSV with LF line ends, under a `# comment` line if given."""
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(v) for k, v in row.items()})
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(path, buf.getvalue().encode())


def _base_row(spec: ExperimentSpec, seed: int) -> dict:
    return {"seed": seed, "generator": PRNG_NAME,
            "config_hash": spec.config_hash()}


@contextmanager
def _recording_failure(row: dict):
    """Store an exception raised in the block in the row, and keep going."""
    try:
        yield
    except Exception as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"


def matrix_seed(seed: int) -> int:
    # Documented splitter: the experiment seed xor-mixed with index 0.
    return RandomSource(seed).spawn(0).seed


def _rows_quant_bench(spec: ExperimentSpec) -> Iterator[dict]:
    cfg = QuantConfig(block_size=spec.block_size)
    # Method -> initializer(w, rank, T, seed), called inside its own row so
    # that a failing initializer costs only its rows.
    inits = {"qlora": lambda w, r, t, s: qlora_init(w, r, RandomSource(s), cfg),
             "loftq": lambda w, r, t, s: loftq_init(w, r, t, cfg),
             "qpissa": lambda w, r, t, s: qpissa_init(w, r, t, cfg)}
    variants = [("qlora", spec.ranks[0], 1)] + [
        (method, rank, t) for rank in spec.ranks for t in spec.iters
        for method in ("loftq", "qpissa")]
    for seed in spec.seeds:
        w = generate_spectral_matrix(spec.m, spec.n, spec.alpha,
                                     matrix_seed(seed))
        for method, rank, t in variants:
            row = _base_row(spec, seed) | {
                "method": method, "rank": rank, "T": t,
                "block_size": spec.block_size}
            with _recording_failure(row):
                rep = quant_report(w, inits[method](w, rank, t, seed), cfg)
                row |= {"nuclear_err": rep.nuclear_error,
                        "frob_err": rep.frobenius_error,
                        "ratio_percent": rep.reduction_ratio_percent}
            yield row


def _rows_fastsvd(spec: ExperimentSpec) -> Iterator[dict]:
    for seed in spec.seeds:
        w = generate_spectral_matrix(spec.m, spec.n, spec.alpha,
                                     matrix_seed(seed))
        exact = exact_svd(w)
        for rank in spec.ranks:
            trunc = exact.truncate(rank)
            exact_recon = trunc.reconstruct()
            exact_err = frobenius_norm(w - exact_recon)
            for niter in spec.niters:
                row = _base_row(spec, seed) | {"rank": rank, "niter": niter}
                with _recording_failure(row):
                    fast = randomized_svd(w, rank, niter,
                                          RandomSource(seed).spawn(niter))
                    recon = fast.reconstruct()
                    row |= {
                        "l1_error": float(np.sum(np.abs(recon - exact_recon))),
                        "approx_err": frobenius_norm(w - recon),
                        "exact_trunc_err": exact_err,
                        "sv_rel_err": float(np.max(
                            np.abs(fast.s - trunc.s) / trunc.s)),
                    }
                yield row


def toy_pretrained(spec: ExperimentSpec, seed: int) -> tuple[MlpModel, Dataset]:
    """Pretrain the toy MLP on the odd classes; return it with the even half."""
    dataset = generate_cluster_dataset(CLASSES, spec.dim, PER_CLASS, NOISE_STD,
                                       matrix_seed(seed))
    pre_mask = np.isin(dataset.labels, PRETRAIN_CLASSES)
    pre_cfg = TrainConfig(lr=1e-2, batch_size=spec.batch_size, steps=200,
                          seed=seed)
    model = pretrain_mlp(dataset.subset(pre_mask), spec.hidden, CLASSES, pre_cfg)
    fine_mask = np.isin(dataset.labels, FINETUNE_CLASSES)
    return model, dataset.subset(fine_mask)


def _rows_converge(spec: ExperimentSpec) -> Iterator[dict]:
    out = Path(spec.out)
    for seed in spec.seeds:
        model, fine = toy_pretrained(spec, seed)
        cfg = TrainConfig(lr=spec.lr, batch_size=spec.batch_size,
                          steps=spec.steps, seed=seed)
        for strategy in spec.strategies:
            row = _base_row(spec, seed) | {"strategy": strategy}
            with _recording_failure(row):
                trace, _ = run_finetune(model, fine, cfg, strategy,
                                        rank=spec.adapter_rank)
                row |= {"final_loss": float(trace.losses[-1]),
                        "step1_grad_norm": float(trace.grad_norms[0])}
                # Named after the report, so reports in one directory keep their own.
                row["trace_file"] = f"{out.stem}.trace_{strategy}_seed{seed}.csv"
                values = zip(range(len(trace)), trace.losses, trace.grad_norms, trace.lrs)
                _write_csv(out.parent / row["trace_file"], TRACE_COLUMNS,
                           [dict(zip(TRACE_COLUMNS, v)) for v in values])
            yield row


def _rows_gradcheck(spec: ExperimentSpec) -> Iterator[dict]:
    for seed in spec.seeds:
        rng = RandomSource(matrix_seed(seed))
        d, h, c, r = 6, 5, 4, 2
        model = MlpModel(rng.spawn(0).normal((d, h)),
                         rng.spawn(1).normal(h) * 0.1,
                         rng.spawn(2).normal((h, c)),
                         rng.spawn(3).normal(c) * 0.1)
        x = rng.spawn(5).normal((3, d))
        labels = rng.spawn(6).generator().integers(0, c, size=3)
        for strategy in spec.strategies:
            row = _base_row(spec, seed) | {"strategy": strategy}
            with _recording_failure(row):
                tuned = inject_adapters(model, r, strategy, rng.spawn(4))
                row["max_rel_err"] = gradcheck(tuned, x, labels)
            yield row


# Report kind -> (row builder, the ExperimentSpec fields it reads that the CLI
# offers; toy-model sizes are Python-API only). One CLI subcommand per kind;
# the window ablation is `converge` over principal, medium and minor.
KINDS = {
    "quant-bench": (_rows_quant_bench, ("m", "n", "alpha", "ranks", "iters",
                                        "seeds", "block_size")),
    "converge": (_rows_converge, ("seeds", "strategies", "steps", "lr",
                                  "adapter_rank")),
    "fastsvd-bench": (_rows_fastsvd, ("m", "n", "alpha", "ranks", "niters",
                                      "seeds")),
    "gradcheck": (_rows_gradcheck, ("seeds", "strategies")),
}


def run_experiment(spec: ExperimentSpec) -> list[dict]:
    """Run one experiment, write its report, and return the rows."""
    rows = list(KINDS[spec.kind][0](spec))
    header = {"config": asdict(spec), "config_hash": spec.config_hash(),
              "generator": PRNG_NAME, "data_version": DATA_VERSION}
    _write_csv(spec.out, sorted({k for row in rows for k in row}), rows,
               json.dumps(header, sort_keys=True, default=str))
    return rows

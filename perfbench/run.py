#!/usr/bin/env python3
"""Benchmark of the pissa toolkit: one workload per run, checked outputs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload quant-init --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps the package's public functions in a span recorder
and reports per-layer metrics instead. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "qpissa_ratio_pct": "%",
    "loftq_ratio_pct": "%",
    "rsvd_sv_rel_err": "1",
    "pissa_final_loss": "nats",
    "qpissa_final_loss": "nats",
}


def limit_blas_threads() -> int:
    """Cap BLAS at nproc threads before numpy loads; return nproc."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = nproc
    if requested.isdigit() and int(requested) > 0:
        threads = min(nproc, int(requested))
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    os.environ["OMP_NUM_THREADS"] = str(threads)
    return nproc


def import_package() -> None:
    """Put the checkout's own ``src`` first on the path, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "pissa" / "__init__.py").is_file():
        sys.exit(f"perfbench: package source not found at {src / 'pissa'}")
    sys.path.insert(0, str(src))
    import pissa
    if Path(pissa.__file__).resolve().parent != (src / "pissa").resolve():
        sys.exit(f"perfbench: imported pissa from {pissa.__file__}, not {src}")


def blas_threads():
    """Thread count OpenBLAS reports, or the environment's setting."""
    import numpy as np
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_sha():
    """Commit of the checkout read from .git, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """Hash of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pissa").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, nproc: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(), "nproc": nproc,
        "git_sha": git_sha(), "src_digest": src_digest(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> tuple[dict, dict, object]:
    """Set up and run the timed phase; return (result, raw timings, tracer)."""
    from tracer import Tracer, per_layer_metrics
    from workloads import WORKLOADS, Runner

    cls = WORKLOADS[name]
    workdir = OUT_DIR / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    runner = Runner(tracer)

    # Set-up: the inputs plus a warm-up round at tiny size, several times.
    setup_s = []
    for _ in range(SETUP_REPS):
        if tracer:
            tracer.install("setup")
        t0 = perf_counter()
        warm = cls("tiny", workdir)
        warm.setup(seed)
        runner.run_round(warm, 0, timed=False)
        workload = cls(size, workdir)
        workload.setup(seed)
        setup_s.append(perf_counter() - t0)
        if tracer:
            tracer.uninstall()

    # Timed phase: whole rounds until the time is up and every input has run.
    # A traced run pairs each traced round with an untraced one on the same
    # input, alternating which goes first, to measure the tracing overhead.
    untraced, traced = [], []
    start = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - start
        if trace and i >= 2 and i % 2 == 0 and elapsed >= seconds:
            break
        if not trace and i >= workload.count and elapsed >= seconds:
            break
        pair, pos = divmod(i, 2)
        on = trace and pos == pair % 2
        k = pair % workload.count if trace else i % workload.count
        if on:
            tracer.install("timed", round_id=i)
        duration = runner.run_round(workload, k, timed=True)
        if on:
            tracer.uninstall()
        (traced if on else untraced).append(duration)
        i += 1

    if trace:
        units = {n: u for n, u, _ in per_layer_metrics()}
        values = tracer.metrics(traced, untraced, SETUP_REPS)
    else:
        # Every run carries every end-to-end metric: the quality metrics of
        # the other workloads come from an untimed probe that runs only the
        # ops those metrics need.
        quality = {} if cls.quality_from_probe else workload.quality()
        for other in WORKLOADS.values():
            if other is cls and not other.quality_from_probe:
                continue
            probe = other("probe" if size == "full" else size, workdir)
            probe.setup(seed)
            for k in range(probe.count):
                runner.run_round(probe, k, timed=False, only=other.quality_ops)
            quality.update(probe.quality())
        units = END_TO_END
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": runner.round_s(),
            "op_ms_p50": runner.op_ms_p50(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **quality,
        }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": float(values[n]), "unit": units[n]} for n in units},
    }
    raw = {"setup_s": setup_s, "untraced_rounds_s": untraced,
           "traced_rounds_s": traced, "timed_ops_s": runner.timed_ops}
    return result, raw, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    nproc = limit_blas_threads()
    import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    env = environment(args, nproc)
    print("env " + json.dumps(env, sort_keys=True))

    result, raw, tracer = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"env": env, "raw": raw, **result}, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.tsv")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'ops':40s} {result['attempted']:>16d}")
    print(f"{'ops_failed':40s} {result['failed']:>16d}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

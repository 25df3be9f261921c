#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny configuration of every workload.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

Each workload runs untraced and traced at its "tiny" size. The test checks
that no op failed and that each run reports exactly the metrics, with the
units, that BENCHMARK.json declares. It also checks that an op that raises
is counted as failed without stopping the run, and that the benchmark
exits non-zero without a result when the package source is missing.
Finishes in well under a minute and exits non-zero on any problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(name: str, trace: bool, declared: dict) -> list[str]:
    result, _, _ = run.measure(name, seed=0, seconds=0, trace=trace, size="tiny")
    where = f"{name} trace={int(trace)}"
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result['attempted']}, "
                        f"failed {result['failed']}")
    units = {n: m["unit"] for n, m in result["metrics"].items()}
    if units != declared:
        missing = sorted(set(declared) - set(units))
        extra = sorted(set(units) - set(declared))
        wrong = sorted(n for n in set(units) & set(declared) if units[n] != declared[n])
        problems.append(f"{where}: metrics differ from BENCHMARK.json: missing "
                        f"{missing}, extra {extra}, wrong unit {wrong}")
    for n, m in result["metrics"].items():
        if not math.isfinite(m["value"]) or (not trace and m["value"] == 0):
            problems.append(f"{where}: {n} = {m['value']}")
    return problems


def check_failure_is_counted(declared: dict) -> list[str]:
    """An op that raises counts as failed; the run still reports every metric."""
    import pissa.quant

    def broken(*args, **kwargs):
        raise RuntimeError("injected failure")

    original = pissa.quant.qpissa_init
    pissa.quant.qpissa_init = broken
    try:
        # The run reports each failure on stderr; this one is expected.
        with contextlib.redirect_stderr(io.StringIO()):
            result, _, _ = run.measure("quant-init", seed=0, seconds=0,
                                       trace=False, size="tiny")
    finally:
        pissa.quant.qpissa_init = original
    metrics_ok = set(result["metrics"]) == set(declared)
    if result["correct"] or result["failed"] < 1 or not metrics_ok:
        return [f"injected failure: correct {result['correct']}, "
                f"failed {result['failed']}, metrics {sorted(result['metrics'])}"]
    return []


def check_bare_directory() -> list[str]:
    """The benchmark must refuse to run without the package source."""
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload",
             "quant-init", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    run.limit_blas_threads()
    run.import_package()
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads differ from {sorted(WORKLOADS)}")
    for name in WORKLOADS:
        for trace in (False, True):
            problems += check_run(name, trace, declared[trace])
    problems += check_failure_is_counted(declared[False])
    problems += check_bare_directory()
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

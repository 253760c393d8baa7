"""The workload process: runs one workload's passes and checks them.

Started by run.py with the thread caps already in its environment.  It
runs untimed set-up (spec parsing), then untraced passes until
``--seconds`` have elapsed (at least one), then with ``--trace 1`` one
traced pass, all while ``HostSpeed`` samples the host's speed.  It
writes a JSON record of pass times (wall and reference-speed), failures,
oracle errors, peak memory and, when traced, the per-layer table and the
spans.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402

import poincare_lab  # noqa: E402
from poincare_lab.errors import StagnationWarning, StratumTooThinWarning  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402


try:
    _LIBC = ctypes.CDLL(None)
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except AttributeError:  # not glibc
    _LIBC = None


def _release_free_heap():
    """Hand freed heap pages back to the OS, so the process's peak memory
    reflects its largest operation rather than allocator history."""
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def run_pass(ops, seed: int, out_dir: Path, speed: HostSpeed, tracer=None):
    """One pass over every operation; returns (seconds, reference-speed
    seconds, outcomes, per-op seconds, per-op reference-speed seconds,
    per-op peak MB).  The pass times are sums of the operation times, net
    of host-speed sampling."""
    outcomes = []
    op_seconds = []
    op_ref_seconds = []
    peak_mb = []  # process peak after each operation: shows which set it
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        _release_free_heap()
        start = time.perf_counter()
        try:
            out = op.run(seed, out_dir / f"op{i:02d}")
        except Exception:
            out = workloads.Outcome("", [f"raised: {traceback.format_exc(limit=3)}"])
        net, ref = speed.scaled(start, time.perf_counter())
        op_seconds.append(net)
        op_ref_seconds.append(ref)
        outcomes.append(out)
        peak_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return sum(op_seconds), sum(op_ref_seconds), outcomes, op_seconds, op_ref_seconds, peak_mb


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    if Path(poincare_lab.__file__).resolve().parent != SRC / "poincare_lab":
        print(f"imported {poincare_lab.__file__}, not the checkout's", file=sys.stderr)
        return 2
    # both warnings are data here: stagnation is counted per layer
    warnings.simplefilter("ignore", StagnationWarning)
    warnings.simplefilter("ignore", StratumTooThinWarning)

    out_dir = Path(args.out)
    ops = workloads.build(args.workload, args.seed, args.smoke)
    # (label,) + what run_pass returns
    runs = []
    tracer = None
    speed = HostSpeed()
    speed.start()
    try:
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < args.seconds:
            runs.append(("untraced",) + run_pass(ops, args.seed, out_dir, speed))
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                runs.append(("traced",) + run_pass(ops, args.seed, out_dir, speed, tracer))
            finally:
                tracer.uninstall()
    finally:
        speed.stop()

    # every pass, traced or not, must reproduce the first pass's outputs
    first = [o.digest for o in runs[0][3]]
    failures = []
    for k, (label, _, _, outcomes, *_) in enumerate(runs):
        for op, out, ref in zip(ops, outcomes, first):
            problems = list(out.problems)
            if out.digest != ref:
                problems.append(f"{label} pass {k} output differs from pass 0")
            if problems:
                failures.append({"pass": k, "op": op.name, "problems": problems})
    oracle_errs = {k: v for out in runs[0][3] for k, v in out.oracle_errs.items()}
    result = {
        "workload": args.workload,
        "ops": [op.name for op in ops],
        "pass_seconds": [run[1] for run in runs if run[0] == "untraced"],
        "traced_seconds": [run[1] for run in runs if run[0] == "traced"],
        "pass_ref_seconds": [run[2] for run in runs if run[0] == "untraced"],
        "traced_ref_seconds": [run[2] for run in runs if run[0] == "traced"],
        "host_kernel_ms": speed.median_kernel_ms(),
        "host_samples": len(speed.kernel_s),
        "op_seconds": [run[4] for run in runs],
        "op_ref_seconds": [run[5] for run in runs],
        "op_peak_mb": [run[6] for run in runs],
        "attempted": len(ops) * len(runs),
        "failed": len(failures),
        "failures": failures,
        "oracle_errs": oracle_errs,
        "digests": first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.layer_table()
        with open(out_dir / "spans.jsonl", "w") as f:
            for rec in tracer.span_records():
                f.write(json.dumps(rec) + "\n")
    (out_dir / "worker.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

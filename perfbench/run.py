"""poincare-lab benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload p2-family --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Metric names and units come from BENCHMARK.json.  The full
record, with the environment, goes to perfbench/out/.  See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# environment of every process the benchmark starts: one BLAS thread and
# one worker; a fixed hash seed and a fixed glibc mmap threshold (4 MiB)
# make the allocation sequence, and so the peak memory, repeat from run to
# run (with glibc's moving threshold it varied by up to 20%)
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "POINCARE_LAB_JOBS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": "4194304",
}
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0

# a fresh interpreter imports the CLI and parses the workload's specs,
# then prints the monotonic clock, which is shared between processes
_SETUP_PROBE = """
import sys, time
import poincare_lab.cli
from poincare_lab.corpus import load_corpus
for name in sys.argv[1:]:
    load_corpus(name)
print(repr(time.perf_counter()))
"""

# the workloads and the specs each parses; kept here so set-up can be
# timed without importing the package into this process
SPECS = {
    "p2-family": ("interval", "square", "disk", "ellipse", "cusp"),
    "general-p": ("disk", "square"),
    "geometry-cli": (
        "cusp", "ellipse", "disk", "square", "annulus", "slit_disk", "two_disks", "split_disk"
    ),
}


def _env() -> dict:
    env = dict(os.environ, **WORKER_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(workload: str, samples: int) -> list:
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, *SPECS[workload]],
            env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def run_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
               out_dir: Path, budget: float) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out", str(out_dir),
    ] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=budget)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads((out_dir / "worker.json").read_text())


def environment(seed: int, worker: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for f in sorted(SRC.rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            src_hash.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **worker["versions"],
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
        "worker_env": WORKER_ENV,
        "machine": platform.machine(),
    }


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def end_to_end(worker: dict, setup: list) -> dict:
    attempted = worker["attempted"]
    return {
        "wall_ref_s": statistics.median(worker["pass_ref_seconds"]),
        "wall_s": statistics.median(worker["pass_seconds"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": worker["peak_rss_mb"],
        "oracle_rel_err": max(worker["oracle_errs"].values()),
        "ops_ok_share": (attempted - worker["failed"]) / attempted,
    }


def per_layer(worker: dict) -> dict:
    """Flatten the layer table to ``<module>.<function>.<stat>`` names."""
    values = {}
    for row_name, row in worker["layers"].items():
        for stat, val in row.items():
            values[f"{row_name}.{stat}"] = val
    values["trace.overhead_s"] = (
        worker["traced_ref_seconds"][0] - statistics.median(worker["pass_ref_seconds"])
    )
    return values


def run_once(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    started = time.perf_counter()
    setup = measure_setup(workload, 1 if smoke else SETUP_SAMPLES)
    out_dir = OUT / workload
    budget = TIME_LIMIT_S - (time.perf_counter() - started)
    worker = run_worker(workload, seed, seconds, trace, smoke, out_dir, budget)
    values = end_to_end(worker, setup)
    if trace:
        values.update(per_layer(worker))
    return {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "values": values,
        "detail": {
            "workload": workload,
            "trace": trace,
            "smoke": smoke,
            "environment": environment(seed, worker),
            "ops_failed": worker["failed"] / worker["attempted"],
            "wall_s_samples": worker["pass_seconds"],
            "wall_s_quartiles": _quartiles(worker["pass_seconds"]),
            "wall_ref_s_samples": worker["pass_ref_seconds"],
            "wall_ref_s_quartiles": _quartiles(worker["pass_ref_seconds"]),
            "host_kernel_ms": worker["host_kernel_ms"],
            "host_samples": worker["host_samples"],
            "setup_s_samples": setup,
            "traced_seconds": worker["traced_seconds"],
            "traced_ref_seconds": worker["traced_ref_seconds"],
            "oracle_errs": worker["oracle_errs"],
            "failures": worker["failures"],
            "ops": worker["ops"],
            "op_seconds": worker["op_seconds"],
            "op_ref_seconds": worker["op_ref_seconds"],
            "op_peak_mb": worker["op_peak_mb"],
            "digests": worker["digests"],
            "layers": worker.get("layers"),
        },
    }


def select_metrics(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json names under ``kind``, with its units."""
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{kind} metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def report(result: dict, metrics: dict) -> None:
    """Human-readable lines; the caller prints the JSON line last."""
    d = result["detail"]
    print(f"# {d['workload']} trace={d['trace']} env {json.dumps(d['environment'])}")
    n = len(d["wall_s_samples"])
    for name in ("wall_ref_s", "wall_s"):
        q = d[f"{name}_quartiles"]
        print(f"# untraced passes: {n}, {name} quartiles {q[0]:.4f} / {q[1]:.4f} / {q[2]:.4f}")
    print(f"# host kernel median {d['host_kernel_ms']:.4f} ms over {d['host_samples']} samples")
    print(f"wall_s = {result['values']['wall_s']!r} s")
    print(f"# set-up samples: {len(d['setup_s_samples'])}")
    print(f"# ops_failed: {d['ops_failed']:.4f} ({result['failed']} of {result['attempted']})")
    for f in d["failures"]:
        print(f"# FAILED pass {f['pass']} {f['op']}: {'; '.join(f['problems'])}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")


def smoke() -> int:
    """Small sizes: one traced run per workload, which also yields the
    end-to-end metrics.  Every metric BENCHMARK.json names must be
    emitted and every operation must pass."""
    ok = True
    for workload in SPECS:
        result = run_once(workload, 0, 0.0, 1, smoke=True)
        metrics = select_metrics(result["values"], "end_to_end")
        metrics.update(select_metrics(result["values"], "per_layer"))
        report(result, metrics)
        ok &= result["correct"]
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(SPECS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small sizes, all workloads")
    args = ap.parse_args(argv)
    if not (SRC / "poincare_lab" / "cli.py").is_file():
        print(f"no poincare_lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    result = run_once(args.workload, args.seed, args.seconds, args.trace, smoke=False)
    kind = "per_layer" if args.trace else "end_to_end"
    result["metrics"] = select_metrics(result["values"], kind)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    report(result, result["metrics"])
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

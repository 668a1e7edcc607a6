"""Benchmark entry point for qdhahn.

    python3 qdhbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src`` (nothing needs installing).  Every workload runs in fresh
interpreters started one at a time from this process, which imports
neither numpy nor the package and starts no threads; they run with one
BLAS thread.

``--trace 0`` measures set-up in several fresh interpreters, runs the
workload untraced and prints every end-to-end metric.  ``--trace 1``
runs the workload untraced and then traced, and prints every per-layer
metric, including the tracing overhead (traced over untraced wall
time).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list the metrics by name and unit and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 8
DEADLINE_S = 170.0

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("op_p99_ms", "ms"),
    ("error_rate", "ratio"), ("accuracy_margin_digits", "digits"), ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    pass


def child(args, deadline):
    """Run one fresh interpreter and return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # one BLAS thread: on a 2-vCPU VM with one vCPU kept busy, leggauss(4000)
    # took 9 s with two OpenBLAS threads (3.7 s idle) and 6.1 s with one,
    # either way; the timings would otherwise measure the scheduler
    env["OPENBLAS_NUM_THREADS"] = "1"
    # a fixed mmap threshold returns every large array to the system when
    # freed; glibc's default raises the threshold as arrays are freed, and
    # the verify workload's peak RSS then read 59 to 71 MB by run length
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")] + args,
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    from inputs import WORKLOADS  # standard library only

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "qdhahn", "__init__.py")):
        raise BenchError(f"no package source under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + DEADLINE_S
    run_args = ["run", args.workload, str(args.seed), repr(args.seconds)]

    if args.trace:
        untraced = child(run_args + ["0"], deadline)
        result = child(run_args + ["1"], deadline)
        metrics = result["per_layer"]
        metrics["trace.overhead_ratio"] = result["wall_s"] / untraced["wall_s"]
        import tracer

        units = dict(tracer.PER_LAYER)
        ok = untraced["failed"] == 0 and result["failed"] == 0
    else:
        setups = [child(["setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        result = child(run_args + ["0"], deadline)
        setups.append(result["setup_s"])
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": result["wall_s"],
            "op_p50_ms": result["op_p50_ms"],
            "op_p99_ms": result["op_p99_ms"],
            "error_rate": result["failures_all"] / result["attempted"],
            "accuracy_margin_digits": result["accuracy_margin_digits"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        ok = result["failed"] == 0

    bad = [name for name, value in metrics.items() if not math.isfinite(value)]
    if bad:
        raise BenchError(f"non-finite metrics {bad}; unexpected failures: {result['errors']}")
    env = dict(result["env"], cpu=cpu_model(), nproc=os.cpu_count(), git_commit=git_commit())
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"batches={result['batches']} timed_ops={result['ops_timed']} "
          f"attempted={result['attempted']} failed_all={result['failures_all']} "
          f"failed_unexpected={result['failed']} errors={','.join(result['errors']) or '-'}")
    print(f"speed_factor={result['speed_factor']:.4g} (timings are scaled by it to reference "
          f"speed; raw set-up {result['setup_raw_s']:.4g} s)")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": ok,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"qdhbench: {exc}", file=sys.stderr)
        sys.exit(1)

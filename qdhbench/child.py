"""One fresh interpreter of the benchmark: measures set-up, or runs one
workload (optionally traced), and prints one JSON line.

    python3 qdhbench/child.py setup
    python3 qdhbench/child.py run WORKLOAD SEED SECONDS TRACE

``run.py`` starts these with ``src`` on PYTHONPATH; it is the only
caller.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def setup():
    """Import the package, its CLI and their dependencies and build one
    instance of every family: what any first operation needs.  Returns
    the package and the seconds the CLI import (click included) took."""
    import numpy  # noqa: F401

    import qdhahn

    t_cli = time.perf_counter()
    import qdhahn.cli  # noqa: F401

    cli_import_s = time.perf_counter() - t_cli
    qdhahn.CDQHParams(0.5, 0.3, 0.4, 0.35, 0.45)
    for cls in qdhahn.FAMILIES.values():
        cls(0.5, **{name: 0.4 for name in cls.param_names})
    return qdhahn, cli_import_s


def environment(qdhahn):
    """Versions and threading of what the timings depend on."""
    from importlib.metadata import version

    import mpmath
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "click": version("click"),
        "mpmath": mpmath.__version__,
        "qdhahn_path": os.path.relpath(os.path.dirname(qdhahn.__file__)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "QDH_TOL_set": "QDH_TOL" in os.environ,
    }


def _blas_threads(numpy):
    """OpenBLAS's own thread count, from the library numpy loaded."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def scaled_setup():
    """Set-up seconds at reference speed (see calibration.py), raw set-up
    seconds, and the package."""
    qdhahn, cli_import_s = setup()
    raw = time.perf_counter() - T0
    import calibration

    return raw * calibration.speed_factor(), raw, qdhahn, cli_import_s


def run(workload, seed, seconds, trace):
    setup_s, setup_raw_s, qdhahn, cli_import_s = scaled_setup()
    import workloads

    lib = workloads.Library()
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    summary = workloads.run_workload(lib, workload, seed, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rank = workloads.nearest_rank
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "speed_factor": rank(summary.speed_factors, 0.5),
        # lower quartile over batches: on a shared 2-vCPU VM a slow spell
        # of a few seconds moves a median whenever it covers half the run
        "wall_s": rank(summary.batch_seconds, 0.25),
        "batches": len(summary.batch_seconds),
        "op_p50_ms": 1e3 * rank(summary.latencies, 0.5),
        "op_p99_ms": 1e3 * summary.p99(),
        "ops_timed": len(summary.latencies),
        "attempted": summary.attempted,
        "failed": summary.unexpected_failures,
        "failures_all": summary.failures,
        "accuracy_margin_digits": summary.margin_digits(),
        "peak_rss_mb": peak_rss_mb,
        "errors": sorted(summary.errors),
        "env": environment(qdhahn),
    }
    if tracer is not None:
        # run.py fills in the overhead from the untraced run's wall time
        result["per_layer"] = tracer.metrics(import_s=cli_import_s, overhead_ratio=0.0,
                                             batches=len(summary.batch_seconds))
    return result


def main(argv):
    if argv[0] == "setup":
        setup_s, setup_raw_s, _qdhahn, _cli_import_s = scaled_setup()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return
    workload, seed, seconds, trace = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    print(json.dumps(run(workload, seed, seconds, trace)))


if __name__ == "__main__":
    main(sys.argv[1:])

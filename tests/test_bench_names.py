"""The library names the benchmark under ``qdhbench/`` binds.

``qdhbench/tracer.py`` rebinds library functions by name to time each
layer, and ``qdhbench/workloads.py`` calls them as
``lib.<module>.<name>``.  Dropping one of those names breaks the
benchmark, not the library's own tests, so these tests read both files
as they are.
"""

import ast
import importlib
import importlib.util
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "qdhbench")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("qdhbench_tracer",
                                                  os.path.join(BENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload_names():
    """(module, name) of every ``lib.<module>.<name>`` (and, in the
    ``Library`` class, ``self.<module>.<name>``) in workloads.py, where
    <module> is a package module that workloads.py imports."""
    with open(os.path.join(BENCH, "workloads.py")) as source:
        tree = ast.parse(source.read())
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "qdhahn"
               for alias in node.names}
    return {(node.value.attr, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in ("lib", "self") and node.value.attr in modules}


def test_every_library_name_the_workloads_call_exists():
    names = _workload_names()
    # the parse reaches the calls of every workload
    assert {("cdqhahn", "solution"), ("limits", "limit_cf"), ("limits", "FAMILIES"),
            ("recurrence", "forward_eval"), ("verify", "gram_matrix")} <= names
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(f"qdhahn.{module}"), name)]
    assert not missing


def test_the_tracer_installs_records_spans_and_uninstalls():
    from qdhahn import cdqhahn, cli, limits

    originals = (cdqhahn.solution, limits.limit_cf, limits.find_zeros, cli._emit_rows,
                 vars(limits.FourthLimit)["a_coeff"])
    tracer = _tracer_module().Tracer().install()
    try:
        assert cdqhahn.solution is not originals[0]
        params = cdqhahn.CDQHParams(0.5, 0.3, 0.4, 0.35, 0.45)
        cdqhahn.solution(params, 25.0, "minimal", 3)
        limits.limit_cf(limits.FourthLimit(0.5), 2.31, "power-sums")
    finally:
        tracer.uninstall()
    assert (cdqhahn.solution, limits.limit_cf, limits.find_zeros, cli._emit_rows,
            vars(limits.FourthLimit)["a_coeff"]) == originals
    stats = tracer.aggregate()
    assert stats["cdqhahn.solution"]["calls"] == 1
    assert stats["limits.limit_cf"]["calls"] == 1
    assert stats["cdqhahn.spectral_point"]["calls"] >= 1

"""Tests of the benchmark itself (not of the library):

    PYTHONPATH=src python3 -m pytest -q qdhbench
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_union_of_overlapping_children():
    # children overlap (1-3, 2-5, 4-6), one is disjoint (7-8), one pokes
    # past the parent's end (9-12): covered = 5 + 1 + 1
    assert tracer.self_time(0.0, 10.0, [(2.0, 5.0), (1.0, 3.0), (4.0, 6.0), (7.0, 8.0), (9.0, 12.0)]) == 3.0


def test_self_time_nested_child_counts_once():
    # a child lying inside another child adds nothing
    assert tracer.self_time(0.0, 10.0, [(1.0, 9.0), (2.0, 3.0)]) == 2.0
    assert tracer.self_time(0.0, 4.0, []) == 4.0


def test_aggregate_uses_direct_children_only():
    t = tracer.Tracer()
    t.names = ["outer", "mid", "leaf"]
    # outer 0-10 > mid 1-7 > leaf 2-6; a second mid 5-9 overlaps the first
    for start, end, parent, name in ((0, 10, -1, 0), (1, 7, 0, 1), (2, 6, 1, 2), (5, 9, 0, 1)):
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.name.append(name)
        t.op.append(0)
        t.raised.append(0)
        t.note.append(0.0)
    stats = t.aggregate()
    assert stats["outer"]["self_s"] == 2.0  # 10 - |1..9|
    assert stats["mid"]["self_s"] == 2.0 + 4.0  # (6 - 4) + 4
    assert stats["leaf"]["self_s"] == 4.0
    assert stats["mid"]["calls"] == 2


# -- inputs ------------------------------------------------------------------


def _dump(workload, seed, index):
    return json.dumps(workloads.batch(workload, seed, index), sort_keys=True)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = _dump(workload, 11, 2)
    assert first == _dump(workload, 11, 2)
    assert first != _dump(workload, 12, 2)
    assert first != _dump(workload, 11, 3)


def test_inputs_do_not_depend_on_the_hash_seed():
    code = ("import json, sys; sys.path[:0] = [%r]; import workloads; "
            "print(json.dumps(workloads.batch('pointwise-closed-forms', 5, 0), sort_keys=True))" % HERE)
    outs = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           env=dict(os.environ, PYTHONHASHSEED=str(h))).stdout for h in (1, 2)}
    assert len(outs) == 1
    assert outs.pop().strip() == _dump("pointwise-closed-forms", 5, 0)


# -- error accounting --------------------------------------------------------


def _summary(lib, ops):
    timed, _busy, _factor = workloads.run_ops(lib, ops)
    summary = workloads.RunSummary()
    summary.add(workloads.check_ops(lib, timed))
    return summary


def test_one_injected_failure_adds_exactly_one_failed_operation():
    lib = workloads.Library()
    ops = [op for op in workloads.batch("pointwise-closed-forms", 3, 0) if op["kind"] != "zeros"][:40]
    base = _summary(lib, ops)
    broken = [dict(op) for op in ops]
    victim = next(i for i, op in enumerate(broken) if op["kind"] == "solution" and not op.get("defect"))
    broken[victim]["label"] = "no-such-solution"
    injected = _summary(lib, broken)
    assert injected.attempted == base.attempted == len(ops)
    assert injected.failures == base.failures + 1
    assert injected.unexpected_failures == base.unexpected_failures + 1 == 1


def test_known_defect_probes_fail_and_are_not_unexpected():
    lib = workloads.Library()
    ops = [op for op in workloads.batch("pointwise-closed-forms", 3, 0) if op.get("defect")]
    summary = _summary(lib, ops)
    assert summary.failures == len(ops) == 15
    assert summary.unexpected_failures == 0


def test_check_seed_probes_fail_and_are_not_unexpected():
    lib = workloads.Library()
    ops = [op for op in workloads.batch("verify-checks", 3, 0)
           if op.get("defect") and "--fast" not in op["argv"]]
    summary = _summary(lib, ops)
    assert summary.failures == len(ops) == len(workloads.CHECK_FAILS)
    assert summary.unexpected_failures == 0


def test_off_cut_points_suit_their_own_parameters():
    # a point drawn for other parameters than its operation's can break
    # their comfort rules: at seed 1589141636 that left the closed form
    # with no convergent representation
    lib = workloads.Library()
    for index in range(40):
        for op in workloads.batch("recurrence-sweep", 1589141636, index):
            if op["kind"] == "cf_adaptive" and op["p"]["family"] not in inputs.CUT_FAMILIES:
                lib.limits.limit_cf(lib.family(op["p"]), complex(*op["z"]))


def test_p99_is_the_median_over_batches():
    def batch(tail, tails):
        return [workloads.OpResult("x", False, s, [(True, None)]) for s in [1e-3] * (200 - tails) + [tail] * tails]

    summary = workloads.RunSummary()
    summary.add(batch(9.0, 60), busy=1.0)  # one batch with a heavy tail
    summary.add(batch(1.0, 5), busy=1.0)
    summary.add(batch(2.0, 5), busy=1.0, factor=0.5)
    assert summary.p99() == 1.0
    assert workloads.nearest_rank(summary.latencies, 0.99) == 9.0


def test_report_lines_are_operations():
    lines = ("PASS contiguous/a-up: points=100 max_rel_error=1.000e-14 threshold=1.0e-09 seed=1\n"
             "FAIL symmetries: points=5 max_rel_error=1.000e-05 threshold=1.0e-09 seed=1\n")
    outcomes = workloads._check_reports(1, lines)
    assert [ok for ok, _ in outcomes] == [True, False]
    assert outcomes[0][1] == pytest.approx(5.0)


# -- wrapper coverage --------------------------------------------------------


@pytest.mark.parametrize("case, pole_scan", [("reduced", 0), ("associated", 2400)])
def test_traced_orthogonality_reaches_every_call_site(case, pole_scan):
    """check_orthogonality evaluates the weight at n and 2n nodes under
    both quadratures (6n calls, two phi32 each); the associated case
    first scans the transform denominator at 2 x 1200 points.  A loose
    threshold keeps the small node count from tripping the drift gate."""
    from qdhahn import verify

    nodes = 40
    t = tracer.Tracer().install()
    try:
        verify.check_orthogonality(case, nodes=nodes, threshold=1.0)
    finally:
        t.uninstall()
    m = t.metrics(import_s=0.0, overhead_ratio=0.0)
    assert m["cdqhahn.weight.calls"] == 6 * nodes
    assert m["qseries.phi32.calls"] == 12 * nodes + pole_scan
    assert m["verify.nodes.calls"] == 2
    assert m["verify.gram_matrix.calls"] == 4
    assert m["verify.check.orthogonality.s"] > 0
    assert verify.check_orthogonality.__name__ == "check_orthogonality"
    assert not hasattr(verify.check_orthogonality, "__wrapped__")

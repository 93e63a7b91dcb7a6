"""Self-tests of the benchmark, apart from the package's own suite.

    python3 -m pytest -q bench/test_bench.py

They check the oracle against the package on every explore-z4 decision
and on a small trg-dense sample, the self-time arithmetic on a
hand-built span tree, and that a seed always yields the same documents.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import clock  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from matrix import MATRIX  # noqa: E402


def test_oracle_reproduces_hand_written_facts():
    oracle.self_check()


def test_pinned_matrix_is_the_suite_matrix():
    from test_cli import MATRIX as SUITE

    assert MATRIX == SUITE


def test_oracle_agrees_with_every_explore_decision():
    w = workloads.WORKLOADS["explore-z4"]
    cands = w.build(0, ROOT)
    rec = w.run_pass(cands)
    outcomes = w.judge(cands, [rec])
    assert len(cands) == 266
    assert sum(c[0] for c in rec) == 93
    assert outcomes == ["ok"] * 17345
    assert sum(v == "pass" for c in rec for v in c[2]) == 2940


def test_oracle_agrees_on_a_small_trg_dense_sample():
    w = workloads.WORKLOADS["trg-dense"]
    rng = random.Random(5)
    s4 = gen.load_s4(ROOT)
    ops = [gen.make_op(rng, s4, kind, 1 + i % 3, level)
           for kind in gen.BODY for i, level in enumerate(gen.LEVELS)]
    outcomes = w.judge(ops, [w.run_pass(ops)])
    assert outcomes == ["ok"] * len(ops)


def test_same_seed_same_documents():
    a = gen.make_pass(11, ROOT)
    b = gen.make_pass(11, ROOT)
    assert [(op.argv, op.doc, op.expect) for op in a] == \
           [(op.argv, op.doc, op.expect) for op in b]
    c = gen.make_pass(12, ROOT)
    assert [op.doc for op in a] != [op.doc for op in c]


def test_calibrated_clock_scales_by_the_nearby_probes():
    cal = clock.Calibrator()
    cal.at = [float(t) for t in range(10)]
    cal.ends = [t + 0.1 for t in cal.at]
    cal.took = [clock.REF_S] * 5 + [2 * clock.REF_S] * 5   # the host halves its speed at t=5
    assert cal.calibrated([(1.2, 1.5), (7.2, 7.4)]) == pytest.approx([0.3, 0.1])
    # the probes at 1.0 and 2.0 lie inside the span and are left out
    assert cal.calibrated_total([(0.5, 2.5)]) == pytest.approx(1.8)
    assert cal.factor() == pytest.approx(1.5)


def test_self_times_on_a_hand_built_tree():
    rec = tracing.Recorder()
    rec.spans[:] = [
        ["topology.closure", 1.0, 11.0, -1, 1],
        ["trg.verify_trg", 2.0, 5.0, 0, 1],
        ["groups.verify_rough_group", 6.0, 10.0, 0, 1],
        ["approx.upper_approx", 7.0, 8.0, 2, 1],
        ["cli.main", 12.0, 13.0, -1, 2],
    ]
    assert tracing.self_times(rec.spans) == [3.0, 3.0, 3.0, 1.0, 1.0]
    m = tracing.layer_metrics(rec, wall_traced=14.0, wall_untraced=12.5)
    assert m["layer.topology.self_s"] == (3.0, "s")
    assert m["layer.groups.self_s"] == (3.0, "s")
    assert m["trace.glue_s"] == (3.0, "s")
    assert m["trace.overhead_s"] == (1.5, "s")


def test_self_time_check_rejects_a_child_outside_its_parent():
    rec = tracing.Recorder()
    rec.spans[:] = [["cli.main", 0.0, 1.0, -1, 1], ["parser.parse_spec", 0.5, 2.5, 0, 1]]
    with pytest.raises(AssertionError):
        tracing.layer_metrics(rec, wall_traced=3.0, wall_untraced=3.0)


def test_install_sees_calls_inside_the_package_and_restores():
    import roughtop.cli
    import roughtop.topology

    original = roughtop.topology.verify_topology
    rec = tracing.Recorder()
    restore = tracing.install(rec)
    try:
        fixture = str(ROOT / "fixtures" / "zmod3.rg")
        code, _ = workloads.call_cli(
            ["check", "trg", "--table", "TA", "--partition", "PA", "--group", "GA",
             "--topology", "tauA", "--file", fixture], None)
    finally:
        restore()
    assert code == 0
    assert roughtop.topology.verify_topology is original
    names = [s[0] for s in rec.spans]
    assert names[0] == "cli.main"
    # reached through FiniteTopology.from_family's module global
    assert "topology.verify_topology" in names
    assert all(s[3] >= 0 for s in rec.spans[1:])

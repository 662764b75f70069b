"""Tests of the benchmark's own oracles and op accounting.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import run
import workloads


# -- oracles against hand-worked cases --------------------------------------


def test_det_of_a_known_3x3():
    rows = [[6, 1, 1], [4, -2, 5], [2, 8, 7]]
    # 6(-14 - 40) - 1(28 - 10) + 1(32 + 4)
    assert oracles.det(rows) == -306
    assert oracles.det_mod(rows, 7) == -306 % 7
    assert oracles.det([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)
    assert oracles.det([[1, 2], [2, 4]]) == 0


def test_rank_and_products():
    assert oracles.rank([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 2
    assert oracles.rank([[0, 0], [0, 0]]) == 0
    assert oracles.matmul([[1, 2], [3, 4]], [[5, 6], [7, 8]]) == [[19, 22], [43, 50]]
    assert oracles.matmul([[1, 2], [3, 4]], [[5, 6], [7, 8]], 5) == [[4, 2], [3, 0]]


def test_e2_e1_in_a_general_rank_2_space():
    # q(x) = 2 x1^2 + 3 x1 x2 - x2^2, so B(e1, e2) = 3 and
    # e2 e1 = B(e1, e2) - e1 e2 = 3 - e12.
    qrows = [[2, 3], [0, -1]]
    e1, e2 = [1, 0], [0, 1]
    assert oracles.polar(qrows, e1, e2) == 3
    assert oracles.q_value(qrows, [1, 1]) == 4
    e1e2 = {0b11: 1}
    e2e1 = {0: 3, 0b11: -1}
    assert oracles.add(e1e2, e2e1) == oracles.scalar(oracles.polar(qrows, e1, e2))
    assert oracles.add(e1e2, {0b11: -1}) != oracles.scalar(3)


def test_diagonal_closed_form():
    qs = (5, 7)
    assert oracles.reorder_sign(0b10, 0b01) == -1  # e2 e1 = -e1 e2
    assert oracles.diag_mono_product(0b10, 0b01, qs) == (0b11, -1)
    assert oracles.diag_mono_product(0b11, 0b11, qs) == (0, -35)  # e1 e2 e1 e2 = -q1 q2
    assert oracles.diag_mono_product(0b01, 0b01, qs) == (0, 5)
    assert oracles.diag_reversal({0b11: 1, 0b01: 1, 0: 1}) == {0b11: -1, 0b01: -1, 0: 1}


J_BY_N = {
    1: [[1]],
    2: [[0, 1], [-1, 0]],
    3: [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_j_matrices(n):
    rng = random.Random(n)
    pairs = [([rng.randint(-9, 9) for _ in range(n)], [rng.randint(-9, 9) for _ in range(n)]) for _ in range(5)]
    assert oracles.j_conjugates(J_BY_N[n], n, pairs) == []
    if n > 1:
        assert oracles.j_conjugates(oracles.identity(1 << (n - 1)), n, pairs) != []


def test_rank_6_bed_oracles():
    assert oracles.J3 == J_BY_N[3]
    v = [1, -2, 3, 4, 0, -1]
    s = oracles.suslin_int(v[:3], v[3:])[0]
    assert oracles.star3(s) == s  # n = 3 is odd: the involution fixes V
    assert oracles.suslin_coords(s, 3) == v
    assert oracles.suslin_coords(oracles.identity(4), 3) == [1, 0, 0, 1, 0, 0]
    assert oracles.suslin_coords([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3) is None
    assert oracles.hyperbolic_q(v) == 1 * 4 + 0 - 3


def test_suslin_recursion_by_hand():
    s, sbar = oracles.suslin_int([1, 2], [3, 4])
    assert s == [[1, 2], [-4, 3]]
    assert sbar == [[3, -2], [4, 1]]
    assert oracles.matmul(s, sbar) == [[11, 0], [0, 11]]  # dot((1,2),(3,4)) I
    v, w = [1, -2, 3, 4], [2, 0, -1, 5]
    s, sbar = oracles.suslin_int(v, w)
    dot = sum(a * b for a, b in zip(v, w))
    assert oracles.matmul(s, sbar) == [[dot * x for x in row] for row in oracles.identity(8)]


# -- op accounting ------------------------------------------------------------


@pytest.fixture(scope="module")
def linalg():
    wl = workloads.ExactLinalg()
    wl.setup(0)
    return wl


def test_a_clean_round_fails_only_the_known_faults(linalg):
    r = run.Run(linalg, trace=False)
    r.round(linalg.round(0, 0), traced=False)
    assert r.correct
    assert r.failed == len(linalg.fault_ops)
    assert r.attempted == len(linalg.round(0, 0))


def test_a_wrong_answer_is_a_failed_op(linalg, monkeypatch):
    from quadembed.scalars import ScalarMatrix

    real = ScalarMatrix.determinant
    monkeypatch.setattr(ScalarMatrix, "determinant", lambda self: real(self) + 1)
    ops = linalg.round(0, 1)
    r = run.Run(linalg, trace=False)
    r.round(ops, traced=False)
    dets = sum(op.kind == "det" for op in ops)
    assert r.failed == len(linalg.fault_ops) + dets
    assert not r.correct


def test_a_wrong_answer_on_a_fault_op_is_wrong(linalg, monkeypatch):
    import quadembed.scalars

    real = quadembed.scalars.solve_in_ring

    def wrong_on_2x_3y(a, b):
        if (a.rows, a.cols) == (1, 2):  # 2x + 3y = 1: answer (0, 0)
            return [b[0].ring.zero, b[0].ring.zero]
        return real(a, b)

    monkeypatch.setattr(quadembed.scalars, "solve_in_ring", wrong_on_2x_3y)
    r = run.Run(linalg, trace=False)
    r.round(linalg.round(0, 3), traced=False)
    assert r.failed == len(linalg.fault_ops)
    assert not r.correct
    assert any(line.startswith("solve (WRONG)") for line in r.failures)


def test_a_wrong_spin_answer_is_a_failed_op(linalg):
    ops = [op for op in linalg.round(0, 4) if op.kind.startswith("spin_")]
    outs = [linalg.run(op) for op in ops]
    assert linalg.check(ops, outs) == [None] * len(ops)
    i = next(i for i, op in enumerate(ops) if op.kind == "spin_norm")
    d, w = outs[i]
    outs[i] = (d, [x + x.ring.one for x in w])
    j = next(i for i, op in enumerate(ops) if op.kind == "spin_member")
    outs[j] = (False, *outs[j][1:])
    reasons = linalg.check(ops, outs)
    assert "g . v" in reasons[i] and "not in G" in reasons[j]


def test_an_op_that_raises_is_a_failed_op(linalg, monkeypatch):
    import quadembed.scalars

    def broken(a):
        raise RuntimeError("broken rank")

    monkeypatch.setattr(quadembed.scalars, "rank_over_fractions", broken)
    ops = linalg.round(0, 2)
    r = run.Run(linalg, trace=False)
    r.round(ops, traced=False)
    assert r.failed == len(linalg.fault_ops) + sum(op.kind == "rank" for op in ops)
    assert not r.correct
    assert any("broken rank" in line for line in r.failures)


def test_clifford_checks_reject_a_wrong_product():
    wl = workloads.CliffordProducts()
    wl.setup(0)
    ops = wl.round(0, 0)
    outs = [wl.run(op) for op in ops]
    assert wl.check(ops, outs) == [None] * len(ops)
    i = next(i for i, op in enumerate(ops) if op.kind == "product")
    outs[i] = outs[i] + outs[i]
    assert wl.check(ops, outs)[i] is not None


def test_verify_report_check_rejects_a_wrong_count():
    wl = workloads.VerifyCli()
    out = wl.run(workloads.Op("verify", (7,)))
    report = json.loads(out.stdout)
    assert workloads.check_verify_report(report, 7, wl.samples) is None
    for suite in report["suites"]:
        for check in suite["checks"]:
            if check["name"] == "families":
                check["info"]["generators"]["odd2n1:2"] = 4
    assert "catalog counts" in workloads.check_verify_report(report, 7, wl.samples)


def test_tracer_wraps_every_binding_and_restores_it():
    import tracer

    workloads.import_package()
    import quadembed.suites
    from quadembed.algmat import AlgMatrix

    original = sys.modules["quadembed.suslin"].derive_j
    t = tracer.Tracer()
    t.install()
    try:
        assert quadembed.suites.derive_j is not original
        assert sys.modules["quadembed.suslin"].derive_j is quadembed.suites.derive_j
        quadembed.suites.derive_j(2)
    finally:
        t.uninstall()
    assert quadembed.suites.derive_j is original
    assert "__mul__" in vars(AlgMatrix) and vars(AlgMatrix)["__mul__"].__module__ == "quadembed.algmat"
    agg = t.aggregate()
    assert agg["suslin.derive_j"]["calls"] == 1
    # derive_j(2) multiplies scalar matrices: child spans, not self time
    assert agg["scalars.matmul"]["calls"] > 0
    total = agg["suslin.derive_j"]["total_ms"]
    assert agg["suslin.derive_j"]["self_ms"] == pytest.approx(total - agg["scalars.matmul"]["total_ms"])


# -- BENCHMARK.json agrees with what the runner prints -----------------------


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Everything is exact arithmetic; zero tolerance throughout.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import quadembed
from quadembed.clifford import (
    check_graded_iso_sum,
    cl_one,
    embed_vector,
    extend_universal,
    standard_involution,
)
from quadembed.embedding import (
    InvolutionError,
    InvolutionForm,
    build_phi,
    check_alpha_order_two,
    clifford_self_embedding,
    involutions_conflict_check,
    jordan_product,
    lift_involution,
)
from quadembed.qspace import (
    diagonal_space,
    hyperbolic,
    negate,
    orthogonal_sum,
    split_isometry,
)
from quadembed.scalars import QQ, RingError, ScalarMatrix, ZZ, Zmod
from quadembed.spin import SpinContext
from quadembed.suites import random_element, random_pair, random_space
from quadembed.suslin import (
    catalog_generators,
    check_suslin_identities,
    derive_j,
    hyperbolic_clifford_iso,
    suslin,
    suslin_bar,
    suslin_embedding,
)

# a child interpreter started here finds the package the tests import
PACKAGE_ROOT = Path(quadembed.__file__).parent.parent


def report(number: int, label: str, ok: bool):
    print(f"criterion {number:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_suslin_identities():
    rng = random.Random(101)
    ok = True
    for n in (1, 2, 3, 4):
        for _ in range(200):
            p = random_pair(rng, ZZ, n + 1)
            rep = check_suslin_identities(p)
            ok = ok and rep["product_ok"]
            if n <= 3:
                ok = ok and rep["det_ok"] is True
    report(1, "suslin product and determinant identities", ok)


def test_criterion_02_j_derivation():
    rng = random.Random(102)
    start = time.monotonic()
    js = [derive_j(n) for n in (1, 2, 3)]
    elapsed = time.monotonic() - start
    ok = elapsed < 5.0
    for j in js:
        eye = ScalarMatrix.identity(j.size, ZZ)
        ok = ok and j.matrix * j.matrix.transpose() == eye
        for _ in range(200):
            p = random_pair(rng, ZZ, j.n)
            s = suslin(p)
            target = suslin_bar(p) if j.bar_case else s
            ok = ok and j.matrix * s.transpose() * j.matrix.transpose() == target
    report(2, f"signed-permutation conjugators (search {elapsed:.2f}s)", ok)


def test_criterion_03_hyperbolic_matrix_isomorphism():
    ok = hyperbolic_clifford_iso(2, QQ).monomial_rank == 16
    ok = ok and hyperbolic_clifford_iso(3, QQ).monomial_rank == 64
    report(3, "monomial image rank 16/16 and 64/64 over Q", ok)


def test_criterion_04_clifford_core():
    rng = random.Random(104)
    spaces = [
        diagonal_space([-1], ZZ),
        hyperbolic(1, ZZ),
        random_space(rng, ZZ, 3),
        random_space(rng, ZZ, 4),
        random_space(rng, ZZ, 5),
    ]
    ok = True
    for i in range(1000):
        space = spaces[i % len(spaces)]
        a, b, c = (random_element(rng, space) for _ in range(3))
        ok = ok and (a * b) * c == a * (b * c)
    for i in range(200):
        space = spaces[i % len(spaces)]
        u = [ZZ(rng.randint(-5, 5)) for _ in range(space.rank)]
        v = [ZZ(rng.randint(-5, 5)) for _ in range(space.rank)]
        eu, ev = embed_vector(space, u), embed_vector(space, v)
        ok = ok and eu * ev + ev * eu == cl_one(space).scale(space.bilinear(u, v))
    for i in range(200):
        space = spaces[i % len(spaces)]
        a, b = random_element(rng, space), random_element(rng, space)
        sa, sb = standard_involution(a), standard_involution(b)
        ok = ok and standard_involution(a * b) == sb * sa
        ok = ok and standard_involution(sa) == a
    report(4, "associativity, polarised relation, reversal involution", ok)


def test_criterion_05_graded_tensor_splitting():
    ok = check_graded_iso_sum(diagonal_space([-1], QQ), diagonal_space([-1], QQ))
    ok = ok and check_graded_iso_sum(diagonal_space([1], QQ), hyperbolic(1, QQ))
    ok = ok and check_graded_iso_sum(hyperbolic(1, QQ), hyperbolic(1, QQ))
    report(5, "orthogonal sums split into graded tensor factors", ok)


def test_criterion_06_split_form_matrix_algebra():
    ok, certified = True, []
    for ring in (ZZ, QQ, Zmod(2), Zmod(6), Zmod(7)):
        for q in (diagonal_space([1], ring), hyperbolic(1, ring)):
            if not q.is_nonsingular():
                try:
                    split_isometry(q)
                    ok = False
                except RingError:
                    pass
                continue
            n, doubled = q.rank, orthogonal_sum(q, negate(q))
            t = split_isometry(q)
            gens_h = catalog_generators("hyperbolic2n", n, ring)
            images = []
            for i in range(doubled.rank):
                total = ScalarMatrix.zero(gens_h[0].dim, gens_h[0].dim, ring)
                for r, g in enumerate(gens_h):
                    total = total + g.scale(t.entry(r, i))
                images.append(total)
            one = ScalarMatrix.identity(gens_h[0].dim, ring)
            # raises if the transport broke; full rank is C(q _|_ -q) = M_(2^n)
            ok = ok and extend_universal(doubled, images, one).monomial_rank == 4 ** n
            certified.append((ring.name, q.rank))
    ok = ok and certified == [("Z", 2), ("Q", 1), ("Q", 2), ("Z/2", 2), ("Z/6", 2), ("Z/7", 1), ("Z/7", 2)]
    report(6, "doubled forms generate the full matrix algebra", ok)


def test_criterion_07_triple_product_closure():
    rng = random.Random(107)
    beds = [
        clifford_self_embedding(hyperbolic(2, ZZ)),
        suslin_embedding(2, ZZ),
        suslin_embedding(3, ZZ),
    ]
    ok = True
    for bed in beds:
        for _ in range(500):
            v = [ZZ(rng.randint(-4, 4)) for _ in range(bed.space.rank)]
            w = [ZZ(rng.randint(-4, 4)) for _ in range(bed.space.rank)]
            coords = jordan_product(bed, v, w)  # raises on closure failure
            wbar = bed.bar_coords(w)
            bv = bed.space.bilinear(v, wbar)
            qv = bed.space.evaluate_q(v)
            want = [bv * a - qv * b for a, b in zip(v, wbar)]
            ok = ok and coords == want
    report(7, "triple products close in V with bar compatibility", ok)


def test_criterion_08_involution_lifting():
    rng = random.Random(108)
    ok = check_alpha_order_two(suslin_embedding(3, ZZ)) is True
    beds = [suslin_embedding(3, ZZ), suslin_embedding(2, ZZ)]
    assert beds[0].involution.form == 1 and beds[1].involution.form == 2
    for bed in beds:
        star = lift_involution(bed)
        phi = build_phi(bed)
        for img in phi.images:
            ok = ok and star(img) == -img
        dim2 = 2 * bed.dim
        for _ in range(200):
            rows = [
                [ZZ(rng.randint(-3, 3)) for _ in range(dim2)] for _ in range(dim2)
            ]
            m = ScalarMatrix.from_rows(rows)
            rows = [
                [ZZ(rng.randint(-3, 3)) for _ in range(dim2)] for _ in range(dim2)
            ]
            n2 = ScalarMatrix.from_rows(rows)
            ok = ok and star(star(m)) == m
            ok = ok and star(m * n2) == star(n2) * star(m)
    try:
        lift_involution(suslin_embedding(3, ZZ), InvolutionForm(1, ZZ(-1)))
        ok = False
    except InvolutionError:
        pass
    report(8, "involution lifts: order two, anti-automorphism, sign forced", ok)


def test_criterion_09_spin_bed():
    ctx = SpinContext(suslin_embedding(3, QQ))
    ok = all(not r["failures"] for r in ctx.lemma_checks(0, 100))
    rng = random.Random(109)
    for _ in range(100):
        g = ctx.sample_group_element(rng, allow_scaling=True)
        h = ctx.sample_group_element(rng, allow_scaling=True)
        ok = ok and ctx.norm_d(g * h) == ctx.norm_d(g) * ctx.norm_d(h)
    for _ in range(100):
        g = ctx.sample_elementary_product(rng)
        ok = ok and ctx.is_in_g(g)
        ok = ok and ctx.norm_d(g) == QQ(1)
        pair = ctx.chi_inverse(g)
        ok = ok and ctx.is_in_spin(pair)
    report(9, "spin bed: lemma checks, norm homomorphism, elementary family", ok)


def test_criterion_10_involution_conflict():
    bed = suslin_embedding(2, ZZ)
    witness = [1, 0, 1, 1]
    moved = bed.rho_bar_of(witness) != bed.rho_of(witness)
    ok = moved and involutions_conflict_check(bed, witness) is True
    ok = ok and involutions_conflict_check(bed) is True
    report(10, "the two lift forms disagree on a moved diagonal", ok)


def test_criterion_11_generator_catalog():
    ok = True
    for family in ("hyperbolic2n", "odd2n1", "even2n2"):
        for n in (1, 2):
            gens = catalog_generators(family, n, ZZ)  # validates internally
            ok = ok and len(gens) > 0
    report(11, "generator catalog relations and independence", ok)


def test_criterion_12_cli_determinism():
    cmd = [
        sys.executable,
        "-m",
        "quadembed",
        "verify",
        "--suite",
        "all",
        "--seed",
        "0",
        "--samples",
        "100",
    ]
    first = subprocess.run(cmd, capture_output=True, cwd=PACKAGE_ROOT)
    second = subprocess.run(cmd, capture_output=True, cwd=PACKAGE_ROOT)
    ok = first.returncode == 0 and second.returncode == 0
    ok = ok and first.stdout == second.stdout and len(first.stdout) > 0
    ok = ok and json.loads(first.stdout)["passed"] is True
    report(12, "verify --suite all twice: byte-identical, exit 0", ok)

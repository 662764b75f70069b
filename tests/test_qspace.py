"""Quadratic spaces, bilinear forms, and the standard constructions."""

import random
import time

import pytest

from quadembed.qspace import (
    QuadraticSpace,
    diagonal_space,
    hyperbolic,
    negate,
    orthogonal_sum,
    split_isometry,
)
from quadembed.scalars import QQ, RingError, ScalarMatrix, ShapeError, ZZ, Zmod


def rand_space(rng, ring, rank, bound=3):
    rows = [
        [ring(rng.randint(-bound, bound)) if j >= i else ring(0) for j in range(rank)]
        for i in range(rank)
    ]
    return QuadraticSpace(ScalarMatrix.from_rows(rows))


def test_hyperbolic_rank_one_form_matrix():
    h = hyperbolic(1, ZZ)
    assert h.qmatrix == ScalarMatrix.of_ints(ZZ, [[0, 1], [0, 0]])


def test_hyperbolic_evaluation():
    h = hyperbolic(1, ZZ)
    assert h.evaluate_q([2, 3]) == ZZ(6)
    assert h.evaluate_q([0, 0]) == ZZ(0)
    # e1 + f1 pairs to itself once
    assert h.evaluate_q([1, 1]) == ZZ(1)


def test_negative_square_form():
    s = diagonal_space([-1], ZZ)
    assert s.evaluate_q([3]) == ZZ(-9)


def test_bilinear_examples():
    h = hyperbolic(1, ZZ)
    assert h.bilinear([1, 0], [0, 1]) == ZZ(1)
    s = diagonal_space([1, 1], ZZ)
    assert s.bilinear([1, 0], [0, 1]) == ZZ(0)


def test_bilinear_polarisation():
    rng = random.Random(0)
    for _ in range(100):
        s = rand_space(rng, ZZ, rng.randint(1, 4))
        x = [ZZ(rng.randint(-5, 5)) for _ in range(s.rank)]
        assert s.bilinear(x, x) == ZZ(2) * s.evaluate_q(x)


def test_quadratic_scaling():
    rng = random.Random(1)
    for _ in range(200):
        s = rand_space(rng, ZZ, rng.randint(1, 4))
        a = ZZ(rng.randint(-6, 6))
        x = [ZZ(rng.randint(-5, 5)) for _ in range(s.rank)]
        ax = [a * c for c in x]
        assert s.evaluate_q(ax) == a * a * s.evaluate_q(x)


def test_bilinear_symmetry():
    rng = random.Random(2)
    for _ in range(200):
        s = rand_space(rng, ZZ, rng.randint(1, 4))
        x = [ZZ(rng.randint(-5, 5)) for _ in range(s.rank)]
        y = [ZZ(rng.randint(-5, 5)) for _ in range(s.rank)]
        assert s.bilinear(x, y) == s.bilinear(y, x)


def test_form_matrix_is_reproduced_by_bilinear():
    rng = random.Random(3)
    s = rand_space(rng, ZZ, 4)
    for i in range(4):
        assert s.evaluate_q(s.basis_vector(i)) == s.qmatrix.entry(i, i)
        for j in range(i + 1, 4):
            assert s.bilinear(s.basis_vector(i), s.basis_vector(j)) == s.qmatrix.entry(i, j)


def test_nondegenerate_examples():
    for n in (1, 2, 3):
        assert hyperbolic(n, ZZ).is_nondegenerate()
    assert diagonal_space([1], ZZ).is_nondegenerate()
    assert not diagonal_space([0], ZZ).is_nondegenerate()


def test_nonsingular_examples():
    for n in (1, 2, 3, 4):
        assert hyperbolic(n, ZZ).is_nonsingular()
    assert not diagonal_space([1], ZZ).is_nonsingular()  # det B = 2
    assert diagonal_space([1], QQ).is_nonsingular()


def test_nonsingular_implies_nondegenerate():
    rng = random.Random(4)
    spaces = [hyperbolic(2, ZZ), diagonal_space([1, -1], QQ)]
    spaces += [rand_space(rng, ZZ, rng.randint(1, 4)) for _ in range(30)]
    for s in spaces:
        if s.is_nonsingular():
            assert s.is_nondegenerate()


def test_orthogonal_sum_and_negate():
    s = orthogonal_sum(diagonal_space([1], ZZ), diagonal_space([-1], ZZ))
    assert s.qmatrix == ScalarMatrix.of_ints(ZZ, [[1, 0], [0, -1]])
    n = negate(hyperbolic(1, ZZ))
    assert n.qmatrix == ScalarMatrix.of_ints(ZZ, [[0, -1], [0, 0]])
    a = hyperbolic(2, ZZ)
    b = diagonal_space([5], ZZ)
    assert orthogonal_sum(a, b).rank == a.rank + b.rank


def test_rank_zero_rejected():
    with pytest.raises(ShapeError):
        QuadraticSpace(ScalarMatrix.of_ints(ZZ, [[1, 2], [3, 4]]))  # not triangular
    with pytest.raises((ShapeError, IndexError)):
        diagonal_space([], ZZ)


def test_space_json_round_trip():
    for s in (hyperbolic(2, ZZ), diagonal_space([1, -2], QQ)):
        assert QuadraticSpace.from_json(s.to_json()) == s


def test_split_isometry_rank_one():
    q = diagonal_space([1], QQ)
    src, dst = orthogonal_sum(q, negate(q)), hyperbolic(1, QQ)
    t = split_isometry(q)
    rng = random.Random(5)
    for _ in range(50):
        x = [QQ(rng.randint(-5, 5)) for _ in range(2)]
        assert dst.evaluate_q(t.apply(x)) == src.evaluate_q(x)


def test_split_isometry_double_hyperbolic():
    h = hyperbolic(1, QQ)
    src, dst = orthogonal_sum(h, negate(h)), hyperbolic(2, QQ)
    t = split_isometry(h)
    rng = random.Random(6)
    for _ in range(50):
        x = [QQ(rng.randint(-5, 5)) for _ in range(4)]
        assert dst.evaluate_q(t.apply(x)) == src.evaluate_q(x)


def test_split_isometry_refuses_singular_forms():
    # over Z, x^2 - y^2 never takes a value = 2 mod 4 but xy does, so no
    # isometry exists; det B = 2 is not a unit over Z or Z/6
    for ring in (ZZ, Zmod(6)):
        q = diagonal_space([1], ring)
        assert not q.is_nonsingular()
        with pytest.raises(RingError):
            split_isometry(q)


def split_failures(q, t) -> int:
    """Basis checks of q_H(T x) = q'(x), q' = orthogonal_sum(q, negate(q)),
    that T fails: q on every basis vector and the pairing on every basis
    pair.  Both sides are quadratic forms, so no failure proves the identity
    (polarisation)."""
    src, dst = orthogonal_sum(q, negate(q)), hyperbolic(q.rank, q.ring)
    cols = [t.col(i) for i in range(src.rank)]
    bad = sum(dst.evaluate_q(cols[i]) != src.q_generator(i) for i in range(src.rank))
    for i in range(src.rank):
        for j in range(i + 1, src.rank):
            bad += dst.bilinear(cols[i], cols[j]) != src.bilinear_generators(i, j)
    return bad


def test_split_isometry_polarisation_proof_over_every_ring():
    rng = random.Random(7)
    proved = 0
    for ring in (ZZ, QQ, Zmod(2), Zmod(6), Zmod(7)):
        spaces = [hyperbolic(n, ring) for n in (1, 2, 3)] + [diagonal_space([1, 2, 3], ring)]
        if ring is QQ:
            spaces += [rand_space(rng, QQ, rank) for rank in (4, 6, 8)]
        for q in spaces:
            if not q.is_nonsingular():
                with pytest.raises(RingError):
                    split_isometry(q)
                continue
            # over Q, a {-1, 0, 1} backtrack gave up on diag(1, 2, 3) after
            # seconds and never finished hyperbolic(2)
            start = time.perf_counter()
            t = split_isometry(q)
            assert time.perf_counter() - start < 1.0
            assert t.determinant().is_unit()
            assert split_failures(q, t) == 0
            proved += 1
    # hyperbolic(1-3) everywhere, diag(1, 2, 3) over Q and Z/7, random Q forms
    assert proved == 5 * 3 + 2 + 3


def test_split_isometry_proof_sees_a_planted_defect():
    # T without the C correction, [[0, I], [B, -B]]: its F_j are not isotropic
    q = hyperbolic(2, QQ)
    n, b = q.rank, q.bilinear_matrix()
    top = [[QQ(0)] * n + [QQ(int(i == j)) for j in range(n)] for i in range(n)]
    minus_b = -b
    t = ScalarMatrix.from_rows(top + [b.row(i) + minus_b.row(i) for i in range(n)])
    assert t.determinant().is_unit()
    assert split_failures(q, t) == 8

"""Matrices over scalar and Clifford coefficient algebras."""

import random
from fractions import Fraction

import pytest

from quadembed.algmat import (
    AlgMatrix,
    CliffordCoeffs,
    algebra_basis,
    block2,
    lift_scalar_matrix,
    matrix_json,
    parity_of_block_matrix,
    span_coords,
)
from quadembed.clifford import CliffordElement, extend_universal, monomial
from quadembed.qspace import QuadraticSpace, diagonal_space, hyperbolic
from quadembed.scalars import QQ, RingError, ScalarMatrix, SpanSolver, ZZ, Zmod, rank_in_ring, raw_row
from quadembed.suslin import suslin, suslin_embedding, suslin_pair


def int_mat(ring, rows):
    return ScalarMatrix.of_ints(ring, rows)


def rand_mat(rng, ring, dim, bound=4):
    return int_mat(ring, [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim)])


def test_identity_is_neutral():
    rng = random.Random(0)
    for _ in range(20):
        m = rand_mat(rng, ZZ, 3)
        eye = ScalarMatrix.identity(3, ZZ)
        assert eye * m == m
        assert m * eye == m


def test_transpose_is_plain():
    rng = random.Random(1)
    m = rand_mat(rng, ZZ, 4)
    assert m.transpose().transpose() == m
    assert m.transpose().entry(1, 2) == m.entry(2, 1)


def test_noncommutative_entry_order_is_preserved():
    # quaternion-like entries: lam1 * lam2 = -lam2 * lam1 != 0
    space = diagonal_space([-1, -1], ZZ)
    alg = CliffordCoeffs(space)
    lam1, lam2 = monomial(space, 1), monomial(space, 2)
    zero = alg.zero()
    e12 = AlgMatrix(alg, [[zero, lam1], [zero, zero]])
    e21 = AlgMatrix(alg, [[zero, zero], [lam2, zero]])
    prod = e12 * e21
    assert prod.entry(0, 0) == lam1 * lam2
    assert prod.entry(0, 0) == -(lam2 * lam1)


def test_block2_and_parity():
    ring = ZZ
    one = ScalarMatrix.identity(1, ring)
    zero = ScalarMatrix.zero(1, 1, ring)
    v = int_mat(ring, [[7]])
    m = block2(zero, v, one, zero)
    assert m == ScalarMatrix.of_ints(ring, [[0, 7], [1, 0]])
    assert parity_of_block_matrix(m) == 1
    assert parity_of_block_matrix(block2(one, zero, zero, v)) == 0
    assert parity_of_block_matrix(block2(one, v, v, one)) is None
    assert block2(one, zero, zero, one) == ScalarMatrix.identity(2, ring)


def test_parity_algebra():
    rng = random.Random(2)
    zero = ScalarMatrix.zero(2, 2, ZZ)
    for _ in range(100):
        odd1 = block2(zero, rand_mat(rng, ZZ, 2), rand_mat(rng, ZZ, 2), zero)
        odd2 = block2(zero, rand_mat(rng, ZZ, 2), rand_mat(rng, ZZ, 2), zero)
        even = block2(rand_mat(rng, ZZ, 2), zero, zero, rand_mat(rng, ZZ, 2))
        prod = odd1 * odd2
        if not prod.is_zero():
            assert parity_of_block_matrix(prod) == 0
        prod = odd1 * even
        if not prod.is_zero():
            assert parity_of_block_matrix(prod) == 1


def test_mat_mul_associativity():
    rng = random.Random(3)
    space = diagonal_space([-1, -1], ZZ)
    cliff = CliffordCoeffs(space)
    for i in range(500):
        if i % 2:
            dim = rng.choice([2, 4])
            mats = [rand_mat(rng, ZZ, dim) for _ in range(3)]
        else:
            rows = lambda: [
                [
                    monomial(space, rng.randrange(4)).scale(ZZ(rng.randint(-2, 2)))
                    for _ in range(2)
                ]
                for _ in range(2)
            ]
            mats = [AlgMatrix(cliff, rows()) for _ in range(3)]
        a, b, c = mats
        assert (a * b) * c == a * (b * c)


def test_determinant_examples():
    s = suslin(suslin_pair(ZZ, [1, 2], [3, 4]))
    assert s.determinant() == ZZ(11)
    assert ScalarMatrix.identity(3, ZZ).determinant() == ZZ(1)
    repeated = int_mat(ZZ, [[1, 2], [1, 2]])
    assert repeated.determinant() == ZZ(0)


def test_determinant_multiplicative():
    rng = random.Random(4)
    for _ in range(200):
        dim = rng.randint(1, 4)
        a = rand_mat(rng, ZZ, dim)
        b = rand_mat(rng, ZZ, dim)
        assert (a * b).determinant() == a.determinant() * b.determinant()


def test_span_coords_unit_column():
    rng = random.Random(5)
    basis = [rand_mat(rng, ZZ, 2) for _ in range(3)]
    coords = span_coords(basis, basis[0])
    assert coords is not None
    assert coords[0] == ZZ(1)
    recon = basis[0].scale(coords[0]) + basis[1].scale(coords[1]) + basis[2].scale(coords[2])
    assert recon == basis[0]
    # 1x1 matrices 2 and 3 span Z although neither alone does: 1 = -2 + 3
    two, three, one = (int_mat(ZZ, [[v]]) for v in (2, 3, 1))
    coords = span_coords([two, three], one)
    assert coords is not None
    assert two.scale(coords[0]) + three.scale(coords[1]) == one


def test_span_coords_identity_in_hyperbolic_basis():
    e = suslin_embedding(3, ZZ)
    coords = span_coords(list(e.rho), e.identity_matrix())
    assert coords == [ZZ(1), ZZ(0), ZZ(0), ZZ(1), ZZ(0), ZZ(0)]


def test_span_coords_unit_matrix_outside_span():
    e = suslin_embedding(3, ZZ)
    e12 = int_mat(ZZ, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert span_coords(list(e.rho), e12) is None


def test_generated_algebra_rank_examples():
    # the rank of the algebra the images generate: the monomial rank of the
    # map out of the Clifford algebra their relations define
    e12 = int_mat(ZZ, [[0, 1], [0, 0]])
    e21 = int_mat(ZZ, [[0, 0], [1, 0]])
    eye2 = ScalarMatrix.identity(2, ZZ)
    assert extend_universal(hyperbolic(1, ZZ), [e12, e21], eye2).monomial_rank == 4
    eye = ScalarMatrix.identity(3, ZZ)
    assert extend_universal(diagonal_space([1], ZZ), [eye], eye).monomial_rank == 1


def test_generated_algebra_rank_suslin_images():
    from quadembed.embedding import build_phi

    phi = build_phi(suslin_embedding(2, QQ))
    assert phi.monomial_rank == 16


def test_algebra_basis_sizes():
    assert len(algebra_basis(ZZ, 3)) == 9
    space = diagonal_space([-1], ZZ)
    assert len(algebra_basis(CliffordCoeffs(space), 2)) == 8
    alg = CliffordCoeffs(space)
    assert alg == CliffordCoeffs(diagonal_space([-1], ZZ))
    assert hash(alg) == hash(CliffordCoeffs(diagonal_space([-1], ZZ)))
    assert alg != CliffordCoeffs(diagonal_space([1], ZZ)) and alg != space and alg != ZZ


def test_lift_scalar_matrix_embeds_centrally():
    space = diagonal_space([-1], ZZ)
    alg = CliffordCoeffs(space)
    m = ScalarMatrix.of_ints(ZZ, [[1, 2], [3, 4]])
    lifted = lift_scalar_matrix(m, alg)
    lam_eye = AlgMatrix(
        alg,
        [
            [monomial(space, 1) if i == j else alg.zero() for j in range(2)]
            for i in range(2)
        ],
    )
    assert lifted * lam_eye == lam_eye * lifted


def test_matrix_json_shapes():
    m = int_mat(ZZ, [[1, 2], [3, 4]])
    data = matrix_json(m)
    assert data["dim"] == 2
    assert data["algebra"] == {"kind": "scalars", "ring": "Z"}
    assert data["entries"] == [["1", "2"], ["3", "4"]]
    space = diagonal_space([-1], ZZ)
    c = AlgMatrix.identity(CliffordCoeffs(space), 1)
    cdata = matrix_json(c)
    assert cdata["algebra"]["kind"] == "clifford"
    assert cdata["entries"][0][0] == {"terms": [{"mask": 0, "coeff": "1"}]}


def rand_clifford_mat(rng, alg, dim, zero_share=0.5):
    """Entries with at most 3 terms, about `zero_share` of them zero."""
    def entry():
        if rng.random() < zero_share:
            return alg.zero()
        terms = {rng.randrange(1 << alg.space.rank): rng.randint(-3, 3) for _ in range(3)}
        return CliffordElement(alg.space, {m: alg.ring(c) for m, c in terms.items()})
    return AlgMatrix(alg, [[entry() for _ in range(dim)] for _ in range(dim)])


def test_sparse_clifford_entry_product_matches_the_dense_sum():
    rng = random.Random(11)
    for ring in (ZZ, QQ, Zmod(6)):
        general = QuadraticSpace(ScalarMatrix.of_ints(ring, [[-1, 2], [0, 3]]))
        for space in (diagonal_space([-1], ring), general):
            alg = CliffordCoeffs(space)
            for dim in (1, 2, 4):
                for zero_share in (0.0, 0.5, 0.9):
                    a = rand_clifford_mat(rng, alg, dim, zero_share)
                    b = rand_clifford_mat(rng, alg, dim, zero_share)
                    want = [
                        [sum((a.entry(i, k) * b.entry(k, j) for k in range(dim)), alg.zero())
                         for j in range(dim)]
                        for i in range(dim)
                    ]
                    assert (a * b).entries == AlgMatrix(alg, want).entries
    alg = CliffordCoeffs(diagonal_space([-1], ZZ))
    assert (AlgMatrix.zero(alg, 3) * rand_clifford_mat(rng, alg, 3, 0.0)).is_zero()


def test_raw_read_of_a_clifford_entry_matrix_is_its_flattened_values():
    rng = random.Random(12)
    for ring in (ZZ, QQ, Zmod(6)):
        alg = CliffordCoeffs(diagonal_space([-1, 1], ring))
        for zero_share in (0.0, 0.5, 1.0):
            m = rand_clifford_mat(rng, alg, 3, zero_share)
            if ring is QQ:
                m = m.scale(QQ(Fraction(1, 6)))
            flat = m.flatten()
            assert m.raw_values() == [c.value for c in flat]
            assert raw_row(m, ring) == raw_row(flat, ring)


def test_vectors_of_another_clifford_algebra_are_refused():
    # [e1] over Cl(x^2) and [e1] over Cl(-x^2) share the ring Z and their raw
    # values; read as one another's vectors, the solve gave [1] and the rank 1
    plus, minus = diagonal_space([1], ZZ), diagonal_space([-1], ZZ)
    pairs = [
        (AlgMatrix(CliffordCoeffs(plus), [[monomial(plus, 1)]]),
         AlgMatrix(CliffordCoeffs(minus), [[monomial(minus, 1)]])),
        (monomial(plus, 1), monomial(minus, 1)),
    ]
    for a, b in pairs:
        with pytest.raises(RingError, match="coefficient algebras"):
            SpanSolver([a], ZZ).solve(b)
        with pytest.raises(RingError, match="coefficient algebras"):
            SpanSolver([a, b], ZZ)
        with pytest.raises(RingError, match="coefficient algebras"):
            rank_in_ring([a, b], ZZ)
        assert SpanSolver([a], ZZ).solve(a) == [ZZ(1)]
        assert rank_in_ring([a, a.scale(ZZ(2))], ZZ) == 1

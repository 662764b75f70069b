"""The doubling recursion, its identities, the conjugator derivation, the
hyperbolic matrix realisation, and the generator catalog."""

import itertools
import random
import sys
import time
import types
from fractions import Fraction

import pytest

from quadembed.algmat import AlgMatrix, block2, lift_scalar_matrix
from quadembed.clifford import extend_universal, monomial
from quadembed.embedding import build_phi, lift_involution
from quadembed.scalars import QQ, RingError, ScalarMatrix, ShapeError, ZZ, Zmod, rank_over_fractions
from quadembed.suslin import (
    MAX_COORDINATES,
    DerivationError,
    SuslinPair,
    bar_pair,
    catalog_generators,
    catalog_space,
    check_suslin_identities,
    derive_j,
    hyperbolic_clifford_iso,
    suslin,
    suslin_bar,
    suslin_embedding,
    suslin_pair,
)


def rand_pair(rng, ring, length, bound=9):
    return suslin_pair(
        ring,
        [rng.randint(-bound, bound) for _ in range(length)],
        [rng.randint(-bound, bound) for _ in range(length)],
    )


def test_base_case_matrices():
    p = suslin_pair(ZZ, [1, 2], [3, 4])
    assert suslin(p) == ScalarMatrix.of_ints(ZZ, [[1, 2], [-4, 3]])
    assert suslin_bar(p) == ScalarMatrix.of_ints(ZZ, [[3, -2], [4, 1]])


def test_unit_pair_gives_identity():
    p = suslin_pair(ZZ, [1, 0, 0], [1, 0, 0])
    assert suslin(p) == ScalarMatrix.identity(4, ZZ)


def test_linearity():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(1, 3)
        p = rand_pair(rng, ZZ, n + 1)
        q = rand_pair(rng, ZZ, n + 1)
        s = suslin_pair(
            ZZ,
            [a + b for a, b in zip(p.v, q.v)],
            [a + b for a, b in zip(p.w, q.w)],
        )
        assert suslin(s) == suslin(p) + suslin(q)
        assert suslin_bar(s) == suslin_bar(p) + suslin_bar(q)


def test_identity_report_example():
    p = suslin_pair(ZZ, [1, 2], [3, 4])
    report = check_suslin_identities(p)
    assert report["failures"] == []
    assert report["dot"] == "11"
    s, sbar = suslin(p), suslin_bar(p)
    prod = s * sbar
    assert prod == ScalarMatrix.identity(2, ZZ).scale(ZZ(11))
    assert s.determinant() == ZZ(11)


def test_orthogonal_pair_has_zero_determinant():
    for n in (1, 2, 3):
        coords = [1] + [0] * n
        other = [0] * n + [1]
        p = suslin_pair(ZZ, coords, other)
        assert p.dot() == ZZ(0)
        assert suslin(p).determinant() == ZZ(0)


def test_identities_random_large():
    rng = random.Random(1)
    for _ in range(200):
        p = rand_pair(rng, ZZ, 4)
        assert check_suslin_identities(p)["failures"] == []


def test_identities_modular_ring():
    rng = random.Random(2)
    ring = Zmod(7)
    for _ in range(50):
        p = suslin_pair(
            ring,
            [rng.randrange(7) for _ in range(3)],
            [rng.randrange(7) for _ in range(3)],
        )
        assert check_suslin_identities(p)["failures"] == []


def test_bar_pair_involution():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 3)
        p = rand_pair(rng, ZZ, n + 1)
        q = bar_pair(p)
        assert suslin(q) == suslin_bar(p)
        assert bar_pair(q) == p and hash(bar_pair(q)) == hash(p)
        assert p != (p.v, p.w)


def test_derive_j_base_case():
    j = derive_j(1)
    assert j.size == 1
    assert j.matrix == ScalarMatrix.of_ints(ZZ, [[1]])
    assert not j.bar_case


def test_derive_j_size_two():
    j = derive_j(2)
    assert j.matrix == ScalarMatrix.of_ints(ZZ, [[0, 1], [-1, 0]])
    assert j == derive_j(2) and j is not derive_j(2) and hash(j) == hash(derive_j(2))
    assert j != derive_j(3) and j != j.matrix
    assert j.bar_case
    rng = random.Random(4)
    for _ in range(200):
        p = rand_pair(rng, ZZ, 2)
        s = suslin(p)
        jm = j.matrix
        assert jm * s.transpose() * jm.transpose() == suslin_bar(p)


def test_derive_j_size_four():
    start = time.monotonic()
    j = derive_j(3)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    assert j.size == 4
    assert j.candidates_tried <= 384
    jm = j.matrix
    assert jm * jm.transpose() == ScalarMatrix.identity(4, ZZ)
    assert not j.bar_case
    rng = random.Random(5)
    for _ in range(200):
        p = rand_pair(rng, ZZ, 3)
        s = suslin(p)
        assert jm * s.transpose() * jm.transpose() == s


def test_derive_j_out_of_range():
    for n in (0, MAX_COORDINATES + 1):
        with pytest.raises(ShapeError):
            derive_j(n)


def test_derive_j_enumerates_no_permutations(monkeypatch):
    # the J and the counts the lexicographic search over signed
    # permutations found, which the closed form must reproduce without it
    def refuse(*args):
        raise AssertionError("derive_j enumerated permutations")

    monkeypatch.setattr(itertools, "permutations", refuse)
    pinned = {
        1: ([[1]], 1),
        2: ([[0, 1], [-1, 0]], 6),
        3: ([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], 119),
    }
    for n, (rows, tried) in pinned.items():
        j = derive_j(n)
        assert j.matrix == ScalarMatrix.of_ints(ZZ, rows)
        assert j.candidates_tried == tried


def test_derive_j_beyond_the_search():
    rng = random.Random(6)
    for n in (4, 5, 6):
        j = derive_j(n)
        assert j.bar_case == (n % 2 == 0)
        jm, jt = j.matrix, j.matrix.transpose()
        assert jm * jt == ScalarMatrix.identity(j.size, ZZ)
        for _ in range(5):
            p = rand_pair(rng, ZZ, n)
            target = suslin_bar(p) if j.bar_case else suslin(p)
            assert jm * suslin(p).transpose() * jt == target


def test_derive_j_counts_its_lexicographic_rank():
    # the rank a signed-permutation search would have reached, counted here
    # over itertools.permutations without building a matrix
    j = derive_j(4)
    values = j.matrix.values
    rows = [next((c, values[i * 8 + c]) for c in range(8) if values[i * 8 + c]) for i in range(8)]
    perm = tuple(c for c, _ in rows)
    index = next(k for k, q in enumerate(itertools.permutations(range(8))) if q == perm)
    bits = int("".join("1" if sign < 0 else "0" for _, sign in rows), 2)
    assert j.candidates_tried == index * 2**8 + bits + 1 == 7368554


def test_derive_j_doubles_by_the_induction():
    # with J' = J_(n-1): diag(J', -J') for odd n, [[0, J'], [-J', 0]] for even n
    for n in range(2, MAX_COORDINATES + 1):
        prev, j = derive_j(n - 1), derive_j(n)
        h = prev.size
        rows = [list(prev.matrix.values[i * h : (i + 1) * h]) for i in range(h)]
        neg, zero = [[-x for x in row] for row in rows], [0] * h
        if n % 2:
            want = [row + zero for row in rows] + [zero + row for row in neg]
        else:
            want = [zero + row for row in rows] + [row + zero for row in neg]
        assert j.matrix == ScalarMatrix.of_ints(ZZ, want), n


def test_derive_j_certifies_the_closed_form(monkeypatch):
    # the closed-form J_2 sends S^T to Sbar; with Sbar replaced by S the
    # unit-pair products must refuse it
    import quadembed.suslin as module

    monkeypatch.setattr(module, "suslin_bar", lambda p: module.suslin(p))
    with pytest.raises(DerivationError, match="fails the identity"):
        derive_j(2)


def test_suslin_pair_size_is_bounded():
    SuslinPair((ZZ.one,) * MAX_COORDINATES, (ZZ.zero,) * MAX_COORDINATES)
    with pytest.raises(ShapeError, match=f"1 to {MAX_COORDINATES} coordinates"):
        SuslinPair((ZZ.one,) * (MAX_COORDINATES + 1), (ZZ.zero,) * (MAX_COORDINATES + 1))
    with pytest.raises(ShapeError, match="equal length"):
        SuslinPair((ZZ.one,) * 2, (ZZ.zero,) * 3)
    with pytest.raises(RingError, match="share one ring"):
        SuslinPair((ZZ.one, QQ.one), (ZZ.zero, ZZ.zero))


def test_package_does_not_shadow_the_suslin_module():
    import quadembed
    import quadembed.suslin as module

    assert isinstance(module, types.ModuleType)
    assert module.suslin is suslin
    submodules = {
        "scalars", "qspace", "clifford", "algmat", "embedding", "suslin", "spin", "suites", "cli"
    }
    assert not submodules & set(quadembed.__all__)
    assert all(hasattr(quadembed, name) for name in quadembed.__all__)
    # the seven submodules that own the public names resolve as attributes
    for name in submodules - {"suites", "cli"}:
        assert getattr(quadembed, name) is sys.modules[f"quadembed.{name}"]
    assert len(quadembed.__all__) == len(set(quadembed.__all__)) == 50
    bound = {}
    exec("from quadembed import *", bound)
    assert set(bound) - {"__builtins__"} == set(quadembed.__all__)
    assert set(quadembed.__all__) <= set(dir(quadembed))


def test_j_involution_fixes_basis_images():
    e = suslin_embedding(3, ZZ)
    star = e.a_star
    for m in e.rho:
        assert star(m) == m


def test_j_involution_bars_basis_images_in_even_rank():
    e = suslin_embedding(2, ZZ)
    star = e.a_star
    for i, m in enumerate(e.rho):
        assert star(m) == e.rho_bar_of(e.space.basis_vector(i))


def test_star_map_equals_the_matrix_conjugation():
    # the star permutes and signs entries; J M^T J^T is its definition
    rng = random.Random(11)
    for n in (1, 2, 3):
        j = derive_j(n)
        for ring in (ZZ, QQ, Zmod(6)):
            jr = j.as_ring(ring)
            star = j.star_map(ring)
            top = 5 if ring is QQ else 1
            for _ in range(10):
                m = ScalarMatrix.of_ints(ring, [
                    [Fraction(rng.randint(-9, 9), rng.randint(1, top)) for _ in range(j.size)]
                    for _ in range(j.size)
                ])
                assert star(m) == jr * m.transpose() * jr.transpose()
            with pytest.raises(ShapeError):
                star(ScalarMatrix.identity(j.size + 1, ring))


def test_rank_eight_embedding_lifts_its_involution():
    e = suslin_embedding(4, ZZ)
    assert e.involution.form == 2
    lift_involution(e)


def test_embedding_rejected_for_rank_two():
    with pytest.raises(ShapeError):
        suslin_embedding(1, ZZ)


def test_iso_ranks():
    assert hyperbolic_clifford_iso(2, QQ).monomial_rank == 16
    assert hyperbolic_clifford_iso(3, QQ).monomial_rank == 64


def rref_rank(rows):
    """Independent elimination oracle over plain fractions."""
    from fractions import Fraction

    rows = [[Fraction(v.value) for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_iso_rank_against_elimination_oracle():
    phi = hyperbolic_clifford_iso(2, QQ)
    rows = [img.flatten() for img in phi.monomial_images]
    assert rref_rank(rows) == 16


def test_iso_is_unimodular_over_z():
    # determinant 1 makes the monomial images an integral basis of the full
    # matrix algebra, so the realisation is an isomorphism over any base
    # ring, not only over the fraction field
    for n, size in ((2, 16), (3, 64)):
        phi = hyperbolic_clifford_iso(n, ZZ)
        rows = [img.flatten() for img in phi.monomial_images]
        m = ScalarMatrix.from_rows(rows)
        assert m.determinant() == ZZ(1)
        assert len(rows) == size


def test_iso_is_bijective_over_every_ring():
    # the certificate behind `iso`'s "isomorphism" field: over Z the
    # monomial images must have determinant +-1, which unit pivots prove
    for n in (2, 3, 4):
        for ring in (ZZ, QQ, Zmod(6)):
            assert hyperbolic_clifford_iso(n, ring).bijective, (n, ring.name)


def test_iso_states_its_cap_and_cost():
    with pytest.raises(ShapeError, match=r"\{2, 3, 4, 5\}.*about 0\.5 s.*4,096"):
        hyperbolic_clifford_iso(6, QQ)


def test_iso_certifies_rank_1024_at_n_5():
    phi = hyperbolic_clifford_iso(5, ZZ)
    assert phi.monomial_rank == 1024 and phi.injective and phi.bijective


def test_suslin_rank_certificates_never_reach_the_dense_residual(monkeypatch):
    """Unit pivots alone certify the monomial images of the Suslin beds:
    inside the rank certificate the skeleton runs once, with no Bareiss
    call over Z and no split of the modulus over Z/6, so a return to dense
    elimination fails here whatever the timings."""
    import quadembed.clifford as clifford
    import quadembed.scalars as scalars

    real_rank, real_bareiss, real_skeleton = clifford.rank_in_ring, scalars._bareiss, scalars._rank
    inside, residual = [], []

    def rank_in_ring(vectors, ring):
        inside.append(ring)
        try:
            return real_rank(vectors, ring)
        finally:
            inside.pop()

    def bareiss(*args, **kwargs):
        if inside:
            residual.append("bareiss")
        return real_bareiss(*args, **kwargs)

    def skeleton(rows, m=0):
        if inside:
            residual.append(m)
        return real_skeleton(rows, m)

    monkeypatch.setattr(clifford, "rank_in_ring", rank_in_ring)
    monkeypatch.setattr(scalars, "_bareiss", bareiss)
    monkeypatch.setattr(scalars, "_rank", skeleton)
    for n in (3, 4):
        for ring, top in ((ZZ, [0]), (Zmod(6), [6])):
            residual.clear()
            assert build_phi(suslin_embedding(n, ring)).monomial_rank == 4**n
            assert residual == top, (n, ring)


def test_iso_rejects_rank_two():
    with pytest.raises(ShapeError):
        hyperbolic_clifford_iso(1, QQ)


def test_catalog_hyperbolic_reproduces_iso_generators():
    gens = catalog_generators("hyperbolic2n", 2, ZZ)
    phi = build_phi(suslin_embedding(2, ZZ))
    assert gens == phi.images


def test_catalog_odd_family_generator_square():
    gens = catalog_generators("odd2n1", 1, ZZ)
    g0 = gens[0]
    minus_one = AlgMatrix.identity(g0.algebra, g0.dim).scale(ZZ(-1))
    assert g0 * g0 == minus_one
    lam = monomial(g0.algebra.space, 1)
    zero = AlgMatrix.zero(g0.algebra, 1)
    lam_eye = AlgMatrix(g0.algebra, [[lam]])
    assert g0 == block2(lam_eye, zero, zero, -lam_eye)


def test_catalog_even_family_combined_square():
    gens = catalog_generators("even2n2", 1, ZZ)
    space = catalog_space("even2n2", 1, ZZ)
    rng = random.Random(6)
    for _ in range(40):
        coords = [ZZ(rng.randint(-3, 3)) for _ in range(4)]
        total = AlgMatrix.zero(gens[0].algebra, gens[0].dim)
        for c, g in zip(coords, gens):
            total = total + g.scale(c)
        expect = AlgMatrix.identity(gens[0].algebra, gens[0].dim).scale(
            space.evaluate_q(coords)
        )
        assert total * total == expect


def test_catalog_monomial_independence_counts():
    for family, n, count in (
        ("hyperbolic2n", 1, 4),
        ("hyperbolic2n", 2, 16),
        ("odd2n1", 1, 8),
        ("odd2n1", 2, 32),
        ("even2n2", 1, 16),
        ("even2n2", 2, 64),
    ):
        gens = catalog_generators(family, n, QQ)
        space = catalog_space(family, n, QQ)
        one = lift_scalar_matrix(ScalarMatrix.identity(gens[0].dim, QQ), gens[0].algebra)
        phi = extend_universal(space, gens, one)
        rows = [phi.image_of_mask(m).flatten() for m in range(1 << space.rank)]
        assert rank_over_fractions(ScalarMatrix.from_rows(rows)) == count


def test_catalog_relation_failure_reported():
    # feed deliberately inconsistent generators through the same validation
    gens = catalog_generators("hyperbolic2n", 1, ZZ)
    space = catalog_space("hyperbolic2n", 1, ZZ)
    one = ScalarMatrix.identity(gens[0].dim, ZZ)
    from quadembed.clifford import CliffordRelationError

    with pytest.raises(CliffordRelationError):
        extend_universal(space, [one, gens[1]], one)


def test_catalog_suite_reports_only_catalog_errors(monkeypatch):
    import quadembed.suites as suites
    from quadembed.suslin import CatalogError

    def broken(family, n, ring):
        raise CatalogError(f"family {family} at n={n}: relation failure")

    monkeypatch.setattr(suites, "catalog_generators", broken)
    report = suites.run_suite(suites.SuiteConfig(suite="catalog", samples=1))
    families = next(c for c in report["checks"] if c["name"] == "families")
    assert not families["passed"]

    def crashing(family, n, ring):
        raise KeyError("not a catalog failure")

    monkeypatch.setattr(suites, "catalog_generators", crashing)
    with pytest.raises(KeyError):
        suites.run_suite(suites.SuiteConfig(suite="catalog", samples=1))


def test_catalog_guards():
    with pytest.raises(ShapeError):
        catalog_generators("hyperbolic2n", 3, ZZ)
    with pytest.raises(ValueError):
        catalog_generators("nonsense", 1, ZZ)


def test_suslin_suite_counts_a_wrong_size_16_determinant(monkeypatch):
    """The identities check computes det S for size 16 (n = 4) as for the
    smaller sizes; a wrong size-16 determinant must fail it too."""
    import quadembed.suites as suites

    real = ScalarMatrix.determinant

    def planted(m):
        det = real(m)
        return det + m.ring.one if m.rows == 16 else det

    monkeypatch.setattr(ScalarMatrix, "determinant", planted)
    for ring in (ZZ, QQ, Zmod(6)):
        report = suites.run_suite(suites.SuiteConfig(suite="suslin", samples=2, ring=ring))
        identities = next(c for c in report["checks"] if c["name"] == "identities")
        assert not identities["passed"]
        assert {f["n"] for f in identities["failures"]} == {4}
        assert all(f["det_ok"] is False for f in identities["failures"])

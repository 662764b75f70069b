"""Clifford multiplication, involutions, the universal property, and the
graded tensor product."""

import random
import sys
from fractions import Fraction

import pytest

from quadembed.algmat import AlgMatrix, CliffordCoeffs
from quadembed.clifford import (
    CliffordElement,
    CliffordRelationError,
    GradedTensorAlgebra,
    GradedTensorElement,
    check_graded_iso_sum,
    cl_one,
    embed_vector,
    extend_universal,
    grade_component,
    grade_involution,
    is_homogeneous,
    monomial,
    pbw_basis,
    standard_involution,
)
from quadembed.qspace import QuadraticSpace, diagonal_space, hyperbolic
from quadembed.scalars import QQ, RingError, ScalarMatrix, ShapeError, ZZ, Zmod


def rand_space(rng, ring, rank, bound=3):
    rows = [
        [ring(rng.randint(-bound, bound)) if j >= i else ring(0) for j in range(rank)]
        for i in range(rank)
    ]
    return QuadraticSpace(ScalarMatrix.from_rows(rows))


def rand_element(rng, space, max_terms=4, bound=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.randrange(1 << space.rank)] = space.ring(rng.randint(-bound, bound))
    return CliffordElement(space, terms)


# -- an independent straightening oracle on generator words ------------------


def word_multiply(space, word_a, word_b):
    """Multiply two generator words by naive rewriting, no masks involved.

    Words are tuples of generator indices.  The relations used are the
    generator square and the polarised swap; rewriting repeats until every
    word is strictly increasing.
    """
    terms = {word_a + word_b: space.ring.one}
    while True:
        target = None
        for word in terms:
            for k in range(len(word) - 1):
                if word[k] >= word[k + 1]:
                    target = (word, k)
                    break
            if target:
                break
        if target is None:
            break
        word, k = target
        coeff = terms.pop(word)
        i, j = word[k], word[k + 1]
        head, tail = word[:k], word[k + 2 :]
        if i == j:
            c = coeff * space.q_generator(i)
            key = head + tail
            terms[key] = terms.get(key, space.ring.zero) + c
        else:
            c = coeff * space.bilinear_generators(i, j)
            key = head + tail
            terms[key] = terms.get(key, space.ring.zero) + c
            swapped = head + (j, i) + tail
            terms[swapped] = terms.get(swapped, space.ring.zero) - coeff
        terms = {w: c for w, c in terms.items() if not c.is_zero}
    out = {}
    for word, c in terms.items():
        mask = 0
        for i in word:
            mask |= 1 << i
        out[mask] = out.get(mask, space.ring.zero) + c
    return {m: c for m, c in out.items() if not c.is_zero}


def mask_word(mask):
    return tuple(i for i in range(12) if mask >> i & 1)


def test_monomial_products_match_word_oracle():
    rng = random.Random(0)
    spaces = [hyperbolic(1, ZZ), rand_space(rng, ZZ, 3), rand_space(rng, ZZ, 4)]
    spaces.append(rand_space(rng, Zmod(6), 3))
    # over Q with non-integral entries
    spaces.append(QuadraticSpace(ScalarMatrix.from_rows(
        [[QQ(Fraction(rng.randint(-3, 3), rng.randint(1, 4))) if j >= i else QQ(0)
          for j in range(3)] for i in range(3)]
    )))
    for space in spaces:
        n = space.rank
        for m1 in range(1 << n):
            for m2 in range(1 << n):
                got = monomial(space, m1) * monomial(space, m2)
                want = word_multiply(space, mask_word(m1), mask_word(m2))
                assert got.terms == want, (space, m1, m2)
            # the involution reverses the word and scales by (-1)^grade
            sign = space.ring(-1 if bin(m1).count("1") % 2 else 1)
            want = word_multiply(space, mask_word(m1)[::-1], ())
            got = standard_involution(monomial(space, m1))
            assert got.terms == {m: sign * c for m, c in want.items()}, (space, m1)


def oracle_product(space, x, y):
    """The bilinear sum of word-oracle products over the terms of x and y."""
    acc = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            for m, c in word_multiply(space, mask_word(m1), mask_word(m2)).items():
                acc[m] = acc.get(m, space.ring.zero) + c1 * c2 * c
    return {m: c for m, c in acc.items() if not c.is_zero}


def rand_q_space(rng, rank):
    return QuadraticSpace(ScalarMatrix.from_rows(
        [[QQ(Fraction(rng.randint(-3, 3), rng.randint(1, 4))) if j >= i else QQ(0)
          for j in range(rank)] for i in range(rank)]
    ))


def test_dense_products_and_reversals_match_word_oracle():
    # multi-term elements whose words share their low (and high) generators,
    # so the product folds shared prefixes; also the empty element, a mask-0
    # term, and over Z/6 factors whose every product is 0 mod 6.  A left
    # factor with more terms than the right one (12 terms times 1 to 3, a
    # vector times a shorter element, a matrix with denser left entries)
    # runs in the mirror space
    rng = random.Random(5)
    spaces = [rand_space(rng, ring, rank) for rank in (4, 5) for ring in (ZZ, Zmod(6))]
    spaces += [rand_q_space(rng, 4), rand_q_space(rng, 5)]
    spaces += [rand_space(rng, ZZ, 1), rand_space(rng, Zmod(6), 1), rand_q_space(rng, 1)]
    for space in spaces:
        ring, n = space.ring, space.rank
        low = [m for m in range(1 << n) if m & 1] + [m for m in range(1 << n) if m >> n - 1]

        def dense(k, coeffs, pool=low):
            terms = {rng.choice(pool): ring(rng.choice(coeffs)) for _ in range(k)}
            if ring is QQ:
                terms = {m: c * QQ(Fraction(1, rng.randint(1, 5))) for m, c in terms.items()}
            return CliffordElement(space, terms)

        elements = [dense(12, (-3, -2, -1, 1, 2, 3)) for _ in range(3)]
        elements.append(dense(8, (-2, 1, 3)) + cl_one(space).scale(ring(2)))
        elements.append(CliffordElement(space, {}))
        pairs = [(x, y) for x in elements for y in elements[:3]]
        short = [dense(k, (-3, -1, 2), range(1 << n)) for k in (1, 2, 3)]
        vector = CliffordElement(space, {1 << i: ring(rng.choice((-2, -1, 1, 3))) for i in range(n)})
        pairs += [(x, y) for x in elements[:3] + [vector] for y in short]
        if ring == Zmod(6):
            x, y = dense(10, (2, 4)), dense(10, (3,))
            assert (x * y).is_zero and (y * x).is_zero
            pairs += [(x, y), (y, x), (dense(12, (2, 4)), dense(2, (3,)))]
        for x, y in pairs:
            assert (x * y).terms == oracle_product(space, x.terms, y.terms), space
        assert space.mirror is not None
        alg = CliffordCoeffs(space)
        left = [[dense(12, (-3, 1, 2)), dense(6, (1, -2))], [vector, CliffordElement(space, {})]]
        right = [[short[0], short[2]], [short[1], cl_one(space)]]
        product = AlgMatrix(alg, left) * AlgMatrix(alg, right)
        for i in range(2):
            for j in range(2):
                want = {}
                for k in range(2):
                    for m, c in oracle_product(space, left[i][k].terms, right[k][j].terms).items():
                        want[m] = want.get(m, ring.zero) + c
                assert product.entry(i, j).terms == {m: c for m, c in want.items() if not c.is_zero}
        for x in elements:
            want = {}
            for m, c in x.terms.items():
                sign = ring(-1 if bin(m).count("1") % 2 else 1)
                for m2, c2 in word_multiply(space, mask_word(m)[::-1], ()).items():
                    want[m2] = want.get(m2, ring.zero) + sign * c * c2
            want = {m: c for m, c in want.items() if not c.is_zero}
            assert standard_involution(x).terms == want, space


def test_dense_tensor_product_follows_the_sign_rule():
    # (a1 (x) b1)(a2 (x) b2) = (-1)^(|b1| |a2|) a1 a2 (x) b1 b2, summed over
    # the terms of two multi-term elements, each factor product by the oracle
    rng = random.Random(6)
    for ring in (ZZ, Zmod(6)):
        s1, s2 = rand_space(rng, ring, 3), rand_space(rng, ring, 2)
        alg = GradedTensorAlgebra(s1, s2)

        def element():
            return GradedTensorElement(alg, {
                (rng.randrange(8), rng.randrange(4)): ring(rng.randint(-3, 3)) for _ in range(6)
            })

        x, y = element(), element()
        want = {}
        for (a1, b1), c1 in x.terms.items():
            for (a2, b2), c2 in y.terms.items():
                sign = -1 if bin(b1).count("1") * bin(a2).count("1") % 2 else 1
                left = oracle_product(s1, {a1: ring.one}, {a2: ring.one})
                right = oracle_product(s2, {b1: ring.one}, {b2: ring.one})
                for ma, ca in left.items():
                    for mb, cb in right.items():
                        key = (ma, mb)
                        want[key] = want.get(key, ring.zero) + ring(sign) * c1 * c2 * ca * cb
        assert (x * y).terms == {k: c for k, c in want.items() if not c.is_zero}


def test_embed_vector_examples():
    h = hyperbolic(1, ZZ)
    assert embed_vector(h, [1, 0]).terms == {1: ZZ(1)}
    assert embed_vector(h, [0, 0]).terms == {}
    assert embed_vector(h, [2, -3]).terms == {1: ZZ(2), 2: ZZ(-3)}


def test_hyperbolic_product_example():
    h = hyperbolic(1, ZZ)
    e1, e2 = monomial(h, 1), monomial(h, 2)
    assert (e2 * e1).terms == {0: ZZ(1), 3: ZZ(-1)}


def test_vector_squares_to_form_value():
    rng = random.Random(1)
    for _ in range(100):
        space = rand_space(rng, ZZ, rng.randint(1, 4))
        x = [ZZ(rng.randint(-5, 5)) for _ in range(space.rank)]
        v = embed_vector(space, x)
        assert v * v == cl_one(space).scale(space.evaluate_q(x))


def test_idempotent_product_example():
    h = hyperbolic(1, ZZ)
    ef = monomial(h, 3)
    assert (ef * ef) == ef


def test_standard_involution_examples():
    h = hyperbolic(1, ZZ)
    c = cl_one(h).scale(ZZ(5))
    assert standard_involution(c) == c
    v = embed_vector(h, [2, 7])
    assert standard_involution(v) == -v
    assert standard_involution(monomial(h, 3)).terms == {0: ZZ(1), 3: ZZ(-1)}


def test_involution_properties():
    rng = random.Random(2)
    for _ in range(200):
        space = rand_space(rng, ZZ, rng.randint(1, 5))
        a = rand_element(rng, space)
        b = rand_element(rng, space)
        sa, sb = standard_involution(a), standard_involution(b)
        assert standard_involution(a * b) == sb * sa
        assert standard_involution(sa) == a


def test_involution_closed_form_on_orthogonal_bases():
    # for diagonal forms the reversal has the closed-form sign
    # (-1)^(k(k+1)/2) on a grade-k monomial; an independent cross-check of
    # the re-multiplication route
    rng = random.Random(8)
    for _ in range(30):
        rank = rng.randint(1, 5)
        space = diagonal_space([rng.randint(-4, 4) for _ in range(rank)], ZZ)
        for mask in range(1 << rank):
            k = bin(mask).count("1")
            sign = -1 if (k * (k + 1) // 2) % 2 else 1
            want = monomial(space, mask).scale(ZZ(sign))
            assert standard_involution(monomial(space, mask)) == want


def test_grade_operations():
    h = hyperbolic(1, ZZ)
    mixed = cl_one(h) + monomial(h, 1) + monomial(h, 3)
    assert grade_component(mixed, 1) == monomial(h, 1)
    assert is_homogeneous(monomial(h, 1) + monomial(h, 3)) is None
    assert is_homogeneous(monomial(h, 3)) == 0
    assert grade_involution(cl_one(h)) == cl_one(h)
    assert grade_involution(monomial(h, 1)) == -monomial(h, 1)


def test_grading_multiplicative():
    rng = random.Random(3)
    for _ in range(200):
        space = rand_space(rng, ZZ, rng.randint(1, 4))
        par_a, par_b = rng.randint(0, 1), rng.randint(0, 1)
        masks_a = [m for m in range(1 << space.rank) if bin(m).count("1") % 2 == par_a]
        masks_b = [m for m in range(1 << space.rank) if bin(m).count("1") % 2 == par_b]
        a = CliffordElement(
            space, {rng.choice(masks_a): space.ring(rng.randint(-3, 3)) for _ in range(2)}
        )
        b = CliffordElement(
            space, {rng.choice(masks_b): space.ring(rng.randint(-3, 3)) for _ in range(2)}
        )
        prod = a * b
        if not prod.is_zero:
            assert is_homogeneous(prod) == (par_a + par_b) % 2


def test_associativity_torture():
    rng = random.Random(4)
    for _ in range(300):
        space = rand_space(rng, ZZ, rng.randint(1, 5))
        a, b, c = (rand_element(rng, space) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_pbw_basis():
    h = hyperbolic(1, ZZ)
    assert [e.terms for e in pbw_basis(h)] == [
        {0: ZZ(1)},
        {1: ZZ(1)},
        {2: ZZ(1)},
        {3: ZZ(1)},
    ]
    s1 = diagonal_space([5], ZZ)
    assert len(pbw_basis(s1)) == 2
    rng = random.Random(5)
    for n in range(1, 7):
        assert len(pbw_basis(rand_space(rng, ZZ, n))) == 1 << n


def test_pbw_rank_guard():
    big = diagonal_space([1] * 13, ZZ)
    with pytest.raises(ShapeError):
        pbw_basis(big)


def test_extend_universal_identity():
    h = hyperbolic(1, ZZ)
    images = [monomial(h, 1), monomial(h, 2)]
    f = extend_universal(h, images, cl_one(h))
    rng = random.Random(6)
    for _ in range(30):
        a = rand_element(rng, h)
        assert f(a) == a


def test_universal_map_certifies_bijectivity_not_only_injectivity():
    """Over Z, independent monomial images prove det != 0, not a basis.
    On diag(1, 1), e1 -> diag(1, -1) and e2 -> [[0, 1], [1, 0]] satisfy the
    relations and give rank 4 with monomial-image determinant 4: bijective
    over Q and Z/3, injective only over Z.  Fewer images than the target's
    rank are never bijective."""
    for ring in (ZZ, QQ, Zmod(3)):
        e1 = ScalarMatrix.of_ints(ring, [[1, 0], [0, -1]])
        e2 = ScalarMatrix.of_ints(ring, [[0, 1], [1, 0]])
        eye = ScalarMatrix.identity(2, ring)
        phi = extend_universal(diagonal_space([1, 1], ring), [e1, e2], eye)
        assert phi.injective and phi.monomial_rank == 4
        assert phi.bijective is (ring is not ZZ), ring.name
        e12 = ScalarMatrix.of_ints(ring, [[0, 1], [0, 0]])
        assert extend_universal(hyperbolic(1, ring), [e12, e12.transpose()], eye).bijective
        short = extend_universal(diagonal_space([1], ring), [e1], eye)
        assert short.injective and not short.bijective
    z2 = Zmod(2)
    flip = ScalarMatrix.of_ints(z2, [[1, 0], [0, -1]])
    swap = ScalarMatrix.of_ints(z2, [[0, 1], [1, 0]])
    phi = extend_universal(diagonal_space([1, 1], z2), [flip, swap], ScalarMatrix.identity(2, z2))
    assert not phi.injective and not phi.bijective


def test_universal_map_certifies_clifford_element_images():
    """The identity map of Cl(H) is read through `CliffordElement.raw_values`:
    its 4 monomial images are the monomials, a basis over every ring."""
    for ring in (ZZ, QQ, Zmod(5)):
        h = hyperbolic(1, ring)
        phi = extend_universal(h, [monomial(h, 1), monomial(h, 2)], cl_one(h))
        assert phi.monomial_rank == 4, ring.name
        assert phi.injective and phi.bijective, ring.name
        a = CliffordElement(h, {0: ring(2), 3: ring(-1)})
        assert a.ring is ring and a.raw_values() == [s.value for s in a.coefficients()]


def test_extend_universal_rejects_bad_images():
    h = hyperbolic(1, ZZ)
    # e1 squares to 0, so the unit is not a valid image for it
    with pytest.raises(CliffordRelationError) as exc:
        extend_universal(h, [cl_one(h), monomial(h, 2)], cl_one(h))
    assert exc.value.pair == (0, 0)


def test_term_maps_refuse_foreign_operands_and_keep_their_laws():
    """Each refusal raises its package error, or TypeError for an operand
    of another type (a term map or matrix and an int), as for any Python
    number; for tensor elements a - b equals a + (-b), and equal ones built
    over equal algebras hash alike."""
    h, d = hyperbolic(1, ZZ), diagonal_space([1], ZZ)
    e1, e2, f = monomial(h, 1), monomial(h, 2), monomial(d, 1)
    alg, flipped = GradedTensorAlgebra(h, d), GradedTensorAlgebra(d, h)
    phi = extend_universal(h, [e1, e2], cl_one(h))
    refusals = [
        (ShapeError, lambda: cl_one(h) + cl_one(d)),
        (ShapeError, lambda: alg.one() + flipped.one()),
        (ShapeError, lambda: alg.one() * flipped.one()),
        (ShapeError, lambda: monomial(h, 4)),
        (ShapeError, lambda: phi(f)),
        (ShapeError, lambda: extend_universal(h, [e1], cl_one(h))),
        (RingError, lambda: GradedTensorAlgebra(h, hyperbolic(1, QQ))),
        (TypeError, lambda: e1 + 1),
        (TypeError, lambda: e1 - 1),
        (TypeError, lambda: 1 - e1),
        (TypeError, lambda: e1 * 2),
        (TypeError, lambda: alg.one() + 1),
        (TypeError, lambda: alg.one() - 1),
        (TypeError, lambda: ScalarMatrix.identity(2, ZZ) + 1),
        (TypeError, lambda: ScalarMatrix.identity(2, ZZ) - 1),
        (TypeError, lambda: AlgMatrix(CliffordCoeffs(h), [[e1]]) + 1),
        (TypeError, lambda: AlgMatrix(CliffordCoeffs(h), [[e1]]) - 1),
        (ShapeError, lambda: alg.one() + e1),
        (ShapeError, lambda: alg.one() - e1),
        (ShapeError, lambda: e1 - alg.one()),
    ]
    for error, call in refusals:
        with pytest.raises(error):
            call()
    with pytest.raises(CliffordRelationError) as exc:
        extend_universal(h, [e1, e1], cl_one(h))
    assert exc.value.pair == (0, 1)

    a = alg.pure(e1, f) + alg.one().scale(ZZ(3))
    b = alg.left(e2).scale(ZZ(-2)) + alg.right(f)
    assert a - b == a + (-b) and (a - b) + b == a and (a - a).is_zero
    twin_alg = GradedTensorAlgebra(hyperbolic(1, ZZ), diagonal_space([1], ZZ))
    twin = GradedTensorElement(twin_alg, a.terms)
    assert twin is not a and twin == a and hash(twin) == hash(a)
    assert len({a, twin, b}) == 2 and a.ring is ZZ
    for x in (a, e1):
        assert not hasattr(x, "__dict__")


def test_constructors_refuse_foreign_coefficients_and_masks():
    """A constructor refuses a coefficient of another ring, or no Scalar, with
    `RingError` and a key outside the algebra with `ShapeError`; the results
    of +, -, scale and * skip the check but drop residues that reduce to 0."""
    h = hyperbolic(1, ZZ)
    alg = GradedTensorAlgebra(h, h)
    refusals = [
        (ShapeError, "mask 9 is outside 0..3", lambda: CliffordElement(h, {9: ZZ(2)})),
        (ShapeError, "mask -1 is outside 0..3", lambda: CliffordElement(h, {-1: ZZ(2)})),
        (ShapeError, "mask 4 is outside 0..3", lambda: monomial(h, 4)),
        (ShapeError, "mask True is outside 0..3", lambda: CliffordElement(h, {True: ZZ(1)})),
        (RingError, "not an element of Z", lambda: CliffordElement(h, {1: QQ(Fraction(1, 2))})),
        (RingError, "not an element of Z", lambda: CliffordElement(h, {1: 2})),
        (ShapeError, "mask 4 is outside 0..3", lambda: GradedTensorElement(alg, {(0, 4): ZZ(1)})),
        (ShapeError, "not a .left mask, right mask. pair", lambda: GradedTensorElement(alg, {1: ZZ(1)})),
        (RingError, "not an element of Z", lambda: GradedTensorElement(alg, {(1, 0): QQ(1)})),
        (RingError, "Scalars of one ring", lambda: ScalarMatrix.from_rows([[1, 2]])),
        (RingError, "Scalars of one ring", lambda: ScalarMatrix.from_rows([[ZZ(1), 2]])),
        (RingError, "ring mismatch", lambda: ScalarMatrix.identity(2, ZZ).scale(2)),
        (RingError, "denominator is zero", lambda: ScalarMatrix(1, 1, [1], QQ, 0)),
        # a matrix minus an int names -, not the + it had been computed as
        (TypeError, "for -: 'ScalarMatrix' and 'int'", lambda: ScalarMatrix.identity(2, ZZ) - 1),
        (TypeError, "for -: 'AlgMatrix' and 'int'", lambda: AlgMatrix(CliffordCoeffs(h), [[cl_one(h)]]) - 1),
        # an entry must be an element of the matrices' own Clifford algebra
        (RingError, r"entry 1 : Z at \(0, 0\)", lambda: AlgMatrix(CliffordCoeffs(h), [[ZZ(1)]])),
        (RingError, r"entry 1 at \(0, 0\)", lambda: AlgMatrix(CliffordCoeffs(h), [[1]])),
        (RingError, r"entry \(1\)\*e1 at \(0, 0\)",
         lambda: AlgMatrix(CliffordCoeffs(h), [[monomial(diagonal_space([-1], ZZ), 1)]])),
    ]
    for error, text, call in refusals:
        with pytest.raises(error, match=text):
            call()
    ring = Zmod(6)
    x = CliffordElement(hyperbolic(1, ring), {1: ring(2), 2: ring(3)})
    assert x.scale(ring(3)).terms == (x + x + x).terms == {2: ring(3)}
    assert (x * x).terms == (x - x).terms == {}


def test_graded_tensor_sign_rule():
    neg = diagonal_space([-1], ZZ)
    alg = GradedTensorAlgebra(neg, neg)
    lam = monomial(neg, 1)
    left, right = alg.left(lam), alg.right(lam)
    assert right * left == -alg.pure(lam, lam)
    assert left * right == alg.pure(lam, lam)
    x = left + right
    assert x * x == alg.one().scale(ZZ(-2))


def test_graded_tensor_parity_and_assoc():
    rng = random.Random(7)
    s1, s2 = hyperbolic(1, ZZ), diagonal_space([1], ZZ)
    alg = GradedTensorAlgebra(s1, s2)
    for _ in range(200):
        elems = []
        for _ in range(3):
            m1 = rng.randrange(1 << s1.rank)
            m2 = rng.randrange(1 << s2.rank)
            c = ZZ(rng.randint(-3, 3))
            elems.append(alg.pure(monomial(s1, m1), monomial(s2, m2)).scale(c))
        a, b, c = elems
        assert (a * b) * c == a * (b * c)


def test_graded_iso_sum_examples():
    neg = diagonal_space([-1], QQ)
    assert check_graded_iso_sum(neg, neg)
    assert check_graded_iso_sum(diagonal_space([1], QQ), hyperbolic(1, QQ))
    assert check_graded_iso_sum(hyperbolic(1, QQ), hyperbolic(1, QQ))


def test_graded_iso_sum_over_z_mod_6():
    # independence is certified over Z/6 itself, mod 2 and mod 3
    ring = Zmod(6)
    neg = diagonal_space([-1], ring)
    assert check_graded_iso_sum(neg, neg)
    assert check_graded_iso_sum(hyperbolic(1, ring), hyperbolic(1, ring))


def test_graded_iso_sum_rank_guard():
    big = diagonal_space([1] * 5, QQ)
    with pytest.raises(ShapeError):
        check_graded_iso_sum(big, big)


def test_element_json_round_trip():
    h = hyperbolic(1, ZZ)
    a = cl_one(h) - monomial(h, 3).scale(ZZ(2))
    data = a.to_json()
    space = QuadraticSpace.from_json(data["space"])
    from quadembed.scalars import parse_scalar

    terms = {t["mask"]: parse_scalar(t["coeff"], space.ring) for t in data["terms"]}
    assert CliffordElement(space, terms) == a


def test_products_leave_no_reference_to_the_space():
    # the product table and the mirror live on the space, and the mirror
    # holds no reference back, so multiplying and reversing keep nothing
    # elsewhere that would hold the space alive
    for space in (diagonal_space([1, -2, 3], ZZ), hyperbolic(2, ZZ)):
        a = CliffordElement(space, {m: ZZ(m + 1) for m in range(1 << space.rank)})
        b = CliffordElement(space, {1: ZZ(2), 6: ZZ(-1)})
        before = sys.getrefcount(space)
        a * a
        standard_involution(a)
        a * b
        assert sys.getrefcount(space) == before
        assert space.products and space.mirror[0].products


def test_product_table_stays_bounded():
    # the space keeps generator actions, one per (generator, mask), never
    # products of monomial pairs: a full square in rank 8 would fill 4^8.
    # A product whose left factor has more terms fills the mirror's table,
    # which keeps the same bound
    rows = [[ZZ((i + 2 * j) % 5 - 2) if j >= i else ZZ(0) for j in range(8)] for i in range(8)]
    space = QuadraticSpace(ScalarMatrix.from_rows(rows))
    a = CliffordElement(space, {m: ZZ(m % 7 - 3) for m in range(1 << 8)})
    b = CliffordElement(space, {m: ZZ(m % 5 - 2) for m in range(0, 1 << 8, 37)})
    a * a
    assert space.mirror is None
    a * b
    for s in (space, space.mirror[0]):
        assert set(s.products) <= set(range(8))
        assert 0 < sum(map(len, s.products.values())) <= 8 * 2**8


def test_equal_spaces_built_apart_hash_and_multiply_alike():
    s1, s2 = hyperbolic(2, ZZ), hyperbolic(2, ZZ)
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1 != hyperbolic(2, QQ) and s1 != diagonal_space([1, 1, 1, 1], ZZ)
    a1 = CliffordElement(s1, {m: ZZ(m - 7) for m in range(16)})
    a2 = CliffordElement(s2, {m: ZZ(m - 7) for m in range(16)})
    assert a1 * a1 == a2 * a2 and hash(a1 * a1) == hash(a2 * a2)
    assert standard_involution(a1) == standard_involution(a2)
    assert s1.products is not s2.products

"""Embedding validation, the doubled block map, the triple product, and
involution lifting."""

import random

import pytest

from quadembed.algmat import parity_of_block_matrix
from quadembed.clifford import CliffordElement, extend_universal, standard_involution
from quadembed.embedding import (
    ClosureError,
    Embedding,
    EmbeddingError,
    InvolutionError,
    InvolutionForm,
    build_phi,
    check_alpha_order_two,
    clifford_self_embedding,
    involutions_conflict_check,
    jordan_product,
    lift_involution,
    standard_involution_restriction,
    validate_embedding,
)
from quadembed.qspace import QuadraticSpace, diagonal_space, hyperbolic
from quadembed.scalars import QQ, RingError, ScalarMatrix, ShapeError, ZZ, Zmod
from quadembed.suslin import suslin_embedding


def rand_space(rng, ring, rank, bound=3):
    rows = [
        [ring(rng.randint(-bound, bound)) if j >= i else ring(0) for j in range(rank)]
        for i in range(rank)
    ]
    return QuadraticSpace(ScalarMatrix.from_rows(rows))


def rand_element(rng, space, max_terms=3, bound=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.randrange(1 << space.rank)] = space.ring(rng.randint(-bound, bound))
    return CliffordElement(space, terms)


def rand_vector(rng, space, bound=4):
    return [space.ring(rng.randint(-bound, bound)) for _ in range(space.rank)]


def test_validate_suslin_and_self_embeddings():
    assert validate_embedding(suslin_embedding(2, ZZ)) == []
    assert validate_embedding(suslin_embedding(3, ZZ)) == []
    assert validate_embedding(clifford_self_embedding(hyperbolic(2, ZZ))) == []


def test_the_constructor_refuses_each_inconsistent_field():
    """One refusal per field, each on the rank-4 Suslin bed over Z with that
    field spoiled: the image count, an image's dimension, an image over
    another algebra, images over another base ring, the bar matrix's shape
    and its ring."""
    e = suslin_embedding(2, ZZ)
    rho, rank = list(e.rho), e.space.rank
    over_q = [ScalarMatrix(m.rows, m.cols, m.values, QQ) for m in rho]
    cases = [
        (ShapeError, "one image per basis vector", {"rho": rho[1:]}),
        (ShapeError, "declared dimension", {"rho": rho[1:] + [ScalarMatrix.identity(e.dim + 1, ZZ)]}),
        (RingError, "share the coefficient algebra", {"rho": rho[1:] + over_q[:1]}),
        (RingError, "share the base ring", {"algebra": QQ, "rho": over_q}),
        (ShapeError, "rank x rank", {"alpha": ScalarMatrix.identity(rank + 1, ZZ)}),
        (RingError, "live in the base ring", {"alpha": ScalarMatrix.identity(rank, QQ)}),
    ]
    for error, message, spoiled in cases:
        fields = {"space": e.space, "algebra": e.algebra, "dim": e.dim, "rho": rho, "alpha": e.alpha}
        with pytest.raises(error, match=message):
            Embedding(**{**fields, **spoiled})
    assert Embedding(e.space, e.algebra, e.dim, rho, e.alpha).rho == e.rho


def test_validate_rejects_zero_alpha():
    e = suslin_embedding(2, ZZ)
    broken = Embedding(
        e.space,
        e.algebra,
        e.dim,
        e.rho,
        ScalarMatrix.zero(e.space.rank, e.space.rank, ZZ),
    )
    report = validate_embedding(broken)
    assert report != []
    assert report


def test_validate_rejects_dependent_basis_images():
    """Each image outside the span of the others is weaker than independence
    over Z and Z/m.  On q = 4x^2 + 12xy + 9y^2 over Z, rho = ([2], [3]) meets
    every identity, yet 3 rho(e1) = 2 rho(e2); on q = 0 over Z/4, rho = ([2])
    meets them too, yet 2 rho(e1) = 0."""
    q = QuadraticSpace(ScalarMatrix.of_ints(ZZ, [[4, 12], [0, 9]]))
    rho = [ScalarMatrix.of_ints(ZZ, [[2]]), ScalarMatrix.of_ints(ZZ, [[3]])]
    z4 = Zmod(4)
    zero = QuadraticSpace(ScalarMatrix.of_ints(z4, [[0]]))
    for e in (
        Embedding(q, ZZ, 1, rho, ScalarMatrix.identity(2, ZZ)),
        Embedding(zero, z4, 1, [ScalarMatrix.of_ints(z4, [[2]])], ScalarMatrix.identity(1, z4)),
    ):
        report = validate_embedding(e)
        assert report == ["the basis images are dependent over the ring"]
        assert report != []


def test_build_phi_generator_squares():
    e = suslin_embedding(2, ZZ)
    phi = build_phi(e)
    one = ScalarMatrix.identity(2 * e.dim, ZZ)
    for i, img in enumerate(phi.images):
        assert img * img == one.scale(e.space.q_generator(i))


def test_build_phi_graded_and_injective():
    for n, ring in ((2, QQ), (3, QQ), (2, ZZ)):
        phi = build_phi(suslin_embedding(n, ring))
        assert all(
            parity_of_block_matrix(img) == bin(mask).count("1") % 2
            for mask, img in enumerate(phi.monomial_images)
        )
        assert phi.injective
        assert phi.monomial_rank == 1 << (2 * n)


def test_build_phi_over_z_mod_m():
    for ring in (Zmod(7), Zmod(6)):
        phi = build_phi(suslin_embedding(3, ring))
        assert phi.injective
        assert phi.monomial_rank == 64


def test_universal_map_certificate_sees_a_dependent_monomial():
    # e1 -> 0 respects q = 0, but sends the monomial e1 to zero
    ring = Zmod(6)
    space = diagonal_space([0], ring)
    zero, one = ScalarMatrix.zero(1, 1, ring), ScalarMatrix.identity(1, ring)
    phi = extend_universal(space, [zero], one)
    assert phi.monomial_rank == 1
    assert not phi.injective


def test_build_phi_rejects_degenerate_space():
    zero_form = diagonal_space([0], ZZ)
    e = clifford_self_embedding(zero_form)
    with pytest.raises(EmbeddingError):
        build_phi(e)


def test_phi_multiplicative_and_graded_on_samples():
    rng = random.Random(0)
    e = suslin_embedding(2, ZZ)
    phi = build_phi(e)
    for _ in range(300):
        a = rand_element(rng, e.space)
        b = rand_element(rng, e.space)
        assert phi(a * b) == phi(a) * phi(b)
        h = rand_element(rng, e.space)
        h = CliffordElement(
            e.space,
            {m: c for m, c in h.terms.items() if bin(m).count("1") % 2 == 0},
        )
        if not h.is_zero:
            assert parity_of_block_matrix(phi(h)) == 0


def test_jordan_product_in_clifford_embedding():
    h = hyperbolic(1, ZZ)
    e = clifford_self_embedding(h)
    assert jordan_product(e, [1, 0], [0, 1]) == [ZZ(1), ZZ(0)]


def test_jordan_triple_with_equal_arguments_in_clifford_embedding():
    # with v = w the product collapses to q(v) v, as the generators square
    # to their form values inside the Clifford algebra
    rng = random.Random(1)
    for _ in range(50):
        space = rand_space(rng, ZZ, rng.randint(1, 4))
        e = clifford_self_embedding(space)
        v = rand_vector(rng, space)
        zero = [ZZ(0)] * space.rank
        for x in (v, zero):
            got = jordan_product(e, x, x)
            qx = space.evaluate_q(x)
            assert got == [qx * c for c in x]
        assert e.rho_of(zero) + e.rho_of(v) == e.rho_of(v)


def test_jordan_closure_on_suslin_beds():
    rng = random.Random(2)
    for n in (2, 3):
        e = suslin_embedding(n, ZZ)
        zero, unit = [ZZ(0)] * e.space.rank, e.space.basis_vector(0)
        pairs = [(zero, zero), (zero, unit), (unit, zero)]
        pairs += [(rand_vector(rng, e.space), rand_vector(rng, e.space)) for _ in range(100)]
        for v, w in pairs:
            coords = jordan_product(e, v, w)
            assert e.rho_of(coords) == e.rho_of(v) * e.rho_of(w) * e.rho_of(v)


def test_jordan_closure_error_on_broken_embedding():
    e = suslin_embedding(2, ZZ)
    # swap one basis image for a matrix outside the proper span
    bad_rho = list(e.rho)
    bad_rho[0] = ScalarMatrix.of_ints(ZZ, [[0, 1], [0, 0]])
    broken = Embedding(e.space, e.algebra, e.dim, bad_rho, e.alpha)
    with pytest.raises(ClosureError):
        jordan_product(broken, [1, 1, 1, 1], [1, 2, 3, 4])


def test_alpha_order_two():
    assert check_alpha_order_two(suslin_embedding(3, ZZ)) is True
    assert check_alpha_order_two(clifford_self_embedding(hyperbolic(1, ZZ))) is True


def test_alpha_order_two_not_applicable():
    # the check answers nothing when the square fails and the unit is not
    # inside V: build bar data of order 4 on the plane form x^2 + y^2
    space = diagonal_space([1, 1], QQ)
    e = clifford_self_embedding(space)
    rotated = Embedding(
        space,
        e.algebra,
        e.dim,
        e.rho,
        ScalarMatrix.of_ints(QQ, [[0, -1], [1, 0]]),
    )
    assert check_alpha_order_two(rotated) is None


def test_anticommutator_closes_when_unit_in_v():
    # with the unit inside V, (1+v)w(1+v) in V forces vw + wv into V
    rng = random.Random(7)
    for n in (2, 3):
        e = suslin_embedding(n, ZZ)
        for _ in range(100):
            v = rand_vector(rng, e.space)
            w = rand_vector(rng, e.space)
            mv, mw = e.rho_of(v), e.rho_of(w)
            assert e.v_span.solve((mv * mw + mw * mv).flatten()) is not None


def test_unit_plus_bar_is_scalar():
    rng = random.Random(3)
    for n in (2, 3):
        e = suslin_embedding(n, ZZ)
        one = e.identity_matrix()
        from quadembed.scalars import SpanSolver

        solver = SpanSolver([one.flatten()], ZZ)
        for _ in range(200):
            v = rand_vector(rng, e.space)
            trace = e.rho_of(v) + e.rho_bar_of(v)
            assert solver.solve(trace.flatten()) is not None


def test_lift_involution_negates_vectors():
    for bed in (suslin_embedding(2, ZZ), suslin_embedding(3, ZZ)):
        star = lift_involution(bed)
        phi = build_phi(bed)
        for img in phi.images:
            assert star(img) == -img


def test_lift_involution_properties_on_samples():
    rng = random.Random(4)
    for bed in (suslin_embedding(2, ZZ), suslin_embedding(3, ZZ)):
        star = lift_involution(bed)
        dim2 = 2 * bed.dim
        for _ in range(200):
            rows = [[ZZ(rng.randint(-3, 3)) for _ in range(dim2)] for _ in range(dim2)]
            m = ScalarMatrix.from_rows(rows)
            rows = [[ZZ(rng.randint(-3, 3)) for _ in range(dim2)] for _ in range(dim2)]
            n2 = ScalarMatrix.from_rows(rows)
            assert star(star(m)) == m
            assert star(m * n2) == star(n2) * star(m)


def test_lift_with_wrong_sign_rejected():
    e = suslin_embedding(3, ZZ)
    with pytest.raises(InvolutionError) as exc:
        lift_involution(e, InvolutionForm(1, ZZ(-1)))
    assert exc.value.basis_index == 0


def test_lift_requires_matching_form():
    # the rank-4 bed carries a form-2 involution; asking for form 1 fails
    e = suslin_embedding(2, ZZ)
    assert e.involution.form == 2
    with pytest.raises(InvolutionError):
        lift_involution(e, InvolutionForm(1, ZZ(1)))


def _identity_star(bed):
    """`bed` with the identity as entry involution and form 1, u = 1: the
    identity has order 2, fixes every rho(e_i) and negates the doubled
    images, so only the anti-automorphism check can refuse it."""
    return Embedding(bed.space, bed.algebra, bed.dim, bed.rho, bed.alpha,
                     involution=InvolutionForm(1, ZZ(1)), a_star=lambda m: m)


def test_identity_star_on_a_suslin_bed_is_not_an_anti_automorphism():
    bed = suslin_embedding(3, ZZ)
    assert bed.involution.form == 1
    with pytest.raises(InvolutionError, match="not an anti-automorphism"):
        lift_involution(_identity_star(bed))


def test_identity_star_on_the_clifford_self_embedding_is_not_an_anti_automorphism():
    # 1x1 matrices over Cl(H^1): the generators are 1, e_1 and e_2
    bed = clifford_self_embedding(hyperbolic(1, ZZ))
    with pytest.raises(InvolutionError, match="not an anti-automorphism"):
        lift_involution(_identity_star(bed))


def test_build_phi_and_lift_involution_keep_their_result_on_the_embedding():
    for e in (suslin_embedding(2, ZZ), suslin_embedding(3, Zmod(6)),
              clifford_self_embedding(hyperbolic(1, ZZ))):
        assert build_phi(e) is build_phi(e)
        assert lift_involution(e) is lift_involution(e)
        assert lift_involution(e, e.involution) is lift_involution(e)


def test_failed_build_phi_and_lift_involution_raise_on_every_call():
    degenerate = clifford_self_embedding(diagonal_space([0], ZZ))
    e = suslin_embedding(2, ZZ)
    invalid = Embedding(e.space, e.algebra, e.dim, e.rho, ScalarMatrix.zero(4, 4, ZZ))
    for bed in (degenerate, invalid):
        for _ in range(2):
            with pytest.raises(EmbeddingError):
                build_phi(bed)
    e = suslin_embedding(3, ZZ)
    lifted = lift_involution(e)
    for _ in range(2):
        with pytest.raises(InvolutionError):
            lift_involution(e, InvolutionForm(1, ZZ(-1)))
    assert lift_involution(e) is lifted


def test_self_embedding_lift_uses_negative_sign():
    e = clifford_self_embedding(hyperbolic(1, ZZ))
    form = InvolutionForm(1, ZZ(-1))
    assert e.involution == form and e.involution is not form
    assert hash(e.involution) == hash(form)
    assert form != InvolutionForm(2, ZZ(-1)) and form != (1, ZZ(-1))
    star = lift_involution(e)
    assert lift_involution(e, form) is star  # an equal form finds the kept lift
    with pytest.raises(ValueError, match="form must be 1 or 2"):
        InvolutionForm(3, ZZ(1))
    with pytest.raises(ValueError, match="u must square to 1"):
        InvolutionForm(1, ZZ(2))
    phi = build_phi(e)
    for img in phi.images:
        assert star(img) == -img


def test_involution_bridge_matches_clifford_reversal():
    rng = random.Random(5)
    for n in (2, 3):
        bed = suslin_embedding(n, ZZ)
        phi = build_phi(bed)
        star = lift_involution(bed)
        for _ in range(100):
            a = rand_element(rng, bed.space)
            assert phi(standard_involution(a)) == star(phi(a))


def test_involutions_conflict_examples():
    e2 = suslin_embedding(2, ZZ)
    assert involutions_conflict_check(e2) is True
    # S built from ((1,0), (1,1)) moves under bar
    assert involutions_conflict_check(e2, [1, 0, 1, 1]) is True
    # the unit of V is bar-fixed, so it contributes no conflict
    assert involutions_conflict_check(e2, [1, 0, 1, 0]) is False
    # rank-1 self-embedding: bar is the identity, nothing to compare
    rank1 = clifford_self_embedding(diagonal_space([1], ZZ))
    assert involutions_conflict_check(rank1) is None


def test_standard_involution_restriction():
    assert standard_involution_restriction(suslin_embedding(2, ZZ)) is True
    assert standard_involution_restriction(suslin_embedding(3, ZZ)) is True
    for ring in (QQ, Zmod(6)):
        assert standard_involution_restriction(suslin_embedding(2, ring)) is True
        assert standard_involution_restriction(suslin_embedding(3, ring)) is True
    # inside Cl(H) itself, diag(e1, e1) is not in the doubled image
    for ring in (ZZ, QQ, Zmod(6)):
        assert standard_involution_restriction(clifford_self_embedding(hyperbolic(1, ring))) is None


def test_standard_involution_restriction_solves_on_the_even_span(monkeypatch):
    """Two calls on one embedding build one solver between them, the
    embedding's `even_span`, not one over all 2^rank monomial images."""
    import quadembed.scalars as scalars

    built = []
    real_init = scalars.SpanSolver.__init__

    def counting_init(self, columns, ring):
        built.append(len(columns))
        real_init(self, columns, ring)

    e = suslin_embedding(2, ZZ)
    build_phi(e)
    monkeypatch.setattr(scalars.SpanSolver, "__init__", counting_init)
    for _ in range(2):
        assert standard_involution_restriction(e) is True
    assert built == [8] and e.even_span.rank == 8


def test_modular_ring_embedding():
    # the whole validation/closure path also runs over Z/m via the
    # enumerating solver
    from quadembed.scalars import Zmod

    ring = Zmod(7)
    e = suslin_embedding(2, ring)
    assert validate_embedding(e) == []
    rng = random.Random(6)
    for _ in range(20):
        v = [ring(rng.randrange(7)) for _ in range(4)]
        w = [ring(rng.randrange(7)) for _ in range(4)]
        coords = jordan_product(e, v, w)
        assert e.rho_of(coords) == e.rho_of(v) * e.rho_of(w) * e.rho_of(v)


def test_embedding_json_descriptor():
    e = suslin_embedding(2, ZZ)
    data = e.to_json()
    assert data["space"]["rank"] == 4
    assert data["algebra"] == {"kind": "scalars", "dim": 2}
    assert data["involution"] == {"form": 2, "u": "1"}
    assert len(data["rho"]) == 4
    assert data["alpha"] == [
        ["0", "0", "1", "0"],
        ["0", "-1", "0", "0"],
        ["1", "0", "0", "0"],
        ["0", "0", "0", "-1"],
    ]


def test_barred_images_combine_to_the_image_of_the_barred_vector():
    rng = random.Random(21)
    beds = [suslin_embedding(n, ring) for n in (2, 3) for ring in (ZZ, QQ, Zmod(6))]
    beds.append(clifford_self_embedding(rand_space(rng, ZZ, 3)))
    for e in beds:
        assert e.rho_bar is e.rho_bar
        for i in range(e.space.rank):
            assert e.rho_bar[i] == e.rho_of(e.bar_coords(e.space.basis_vector(i)))
        for _ in range(10):
            v = rand_vector(rng, e.space)
            assert e.rho_bar_of(v) == e.rho_of(e.bar_coords(v))
        zero = [e.ring.zero] * e.space.rank
        assert e.rho_bar_of(zero) == e.zero_matrix()


def test_validation_is_kept_on_the_embedding():
    for e in (suslin_embedding(2, ZZ), suslin_embedding(3, Zmod(6)),
              clifford_self_embedding(hyperbolic(1, ZZ))):
        report = validate_embedding(e)
        assert report == [] and validate_embedding(e) is report


def test_build_phi_checks_no_relations_beyond_validation(monkeypatch):
    import quadembed.clifford as clifford
    import quadembed.embedding as embedding

    def refuse(*args):
        raise AssertionError("build_phi re-checked the generator relations")

    monkeypatch.setattr(clifford, "extend_universal", refuse)
    monkeypatch.setattr(embedding, "extend_universal", refuse, raising=False)
    for e in (suslin_embedding(2, ZZ), suslin_embedding(3, QQ), suslin_embedding(3, Zmod(6)),
              clifford_self_embedding(hyperbolic(2, ZZ))):
        phi = build_phi(e)
        assert phi.injective
        one = build_phi(e).one
        for i, g in enumerate(phi.images):
            assert g * g == one.scale(e.space.q_generator(i))


def test_a_perturbed_bar_column_fails_build_phi_with_the_validation_message():
    e = suslin_embedding(2, ZZ)
    n = e.space.rank
    bumped = [v + int(k == 1) for k, v in enumerate(e.alpha.values)]  # column 1 gains e_1
    broken = Embedding(e.space, e.algebra, e.dim, e.rho, ScalarMatrix(n, n, bumped, ZZ),
                       e.involution, e.a_star)
    report = validate_embedding(broken)
    assert report != []
    for _ in range(2):
        with pytest.raises(EmbeddingError) as err:
            build_phi(broken)
        assert str(err.value) == f"embedding axioms fail: {report}"
    assert validate_embedding(broken) is report


def test_bar_map_form_checks_match_q_on_the_barred_basis():
    """The bar map's q and pairing failures are those that q and the
    polarised form, evaluated on the columns of alpha, give."""
    rng = random.Random(22)
    for ring in (ZZ, QQ, Zmod(6)):
        space = rand_space(rng, ring, 3)
        rho = clifford_self_embedding(space).rho
        for _ in range(20):
            alpha = ScalarMatrix(3, 3, [rng.randint(-2, 2) for _ in range(9)], ring)
            e = Embedding(space, rho[0].algebra, 1, rho, alpha)
            cols = [alpha.col(i) for i in range(3)]
            want = [f"bar map does not preserve q(e{i+1})" for i in range(3)
                    if space.evaluate_q(cols[i]) != space.q_generator(i)]
            want += [f"bar map does not preserve <e{i+1},e{j+1}>"
                     for i in range(3) for j in range(i + 1, 3)
                     if space.bilinear(cols[i], cols[j]) != space.bilinear_generators(i, j)]
            got = [f for f in validate_embedding(e) if f.startswith("bar map")]
            assert got == want

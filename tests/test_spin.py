"""Norm-one groups, the twisted conjugation action, and the seeded verifiers
on the rank-6 hyperbolic bed."""

import random
import signal
from fractions import Fraction

import pytest

import quadembed.scalars as scalars
from quadembed.algmat import block2
from quadembed.embedding import Embedding, InvolutionForm, build_phi, lift_involution
from quadembed.qspace import diagonal_space, random_vector
from quadembed.scalars import QQ, ScalarMatrix, ShapeError, SpanSolver, ZZ, Zmod
from quadembed.spin import EvenPair, SpinContext, SpinError
from quadembed.suslin import suslin_embedding


def ctx_q():
    return SpinContext(suslin_embedding(3, QQ))


def ctx_z():
    return SpinContext(suslin_embedding(3, ZZ))


def int_mat(ring, rows):
    return ScalarMatrix.of_ints(ring, rows)


def test_context_requires_form_one():
    with pytest.raises(SpinError):
        SpinContext(suslin_embedding(2, QQ))  # carries a form-2 involution


def test_unit_pair_memberships():
    ctx = ctx_q()
    eye = ctx.embedding.identity_matrix()
    p = EvenPair(eye, eye)
    assert ctx.is_in_u0(p)
    assert ctx.is_in_spin(p)


def test_u0_rejects_pairs_without_norm_one():
    # dilations are star-fixed, so diag(2I, 2I) times its own star is 4I
    ctx = ctx_q()
    g = ctx.embedding.identity_matrix().scale(QQ(2))
    assert not ctx.is_in_u0(EvenPair(g, g))


def test_u0_accepts_inverse_star_pairs():
    ctx = ctx_q()
    rng = random.Random(0)
    for _ in range(25):
        g = ctx.sample_elementary_product(rng)
        ginv_star = ctx.star(g).inverse()
        p = EvenPair(g, ginv_star)
        assert ctx.is_in_u0(p)


def test_bullet_examples():
    ctx = ctx_q()
    eye = ctx.embedding.identity_matrix()
    rng = random.Random(1)
    v = random_vector(rng, ctx.space)
    assert ctx.bullet(eye, v) == ctx.embedding.rho_of(v)
    c = QQ(3)
    assert ctx.bullet(eye.scale(c), v) == ctx.embedding.rho_of(v).scale(c * c)


def plain_mult(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def test_bullet_elementary_frozen_value():
    # oracle: multiply plain integer matrices by hand for g = I + E12
    j2 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    g = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    gt = [list(r) for r in zip(*g)]
    j2t = [list(r) for r in zip(*j2)]
    gstar = plain_mult(plain_mult(j2, gt), j2t)
    rho_e1 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    expected = plain_mult(plain_mult(g, rho_e1), gstar)

    ctx = ctx_q()
    got = ctx.bullet(int_mat(QQ, g), [1, 0, 0, 0, 0, 0])
    assert [[e.value for e in row] for row in map(got.row, range(got.rows))] == [
        [Fraction(v) for v in row] for row in expected
    ]
    assert ctx.v_coords(got) == [QQ(1), QQ(0), QQ(0), QQ(0), QQ(0), QQ(0)]


def test_is_in_g_examples():
    ctx = ctx_q()
    assert ctx.is_in_g(ctx.embedding.identity_matrix())
    rng = random.Random(2)
    for _ in range(25):
        assert ctx.is_in_g(ctx.sample_elementary_product(rng))


def test_is_in_g_rejects_non_units_over_z():
    ctx = ctx_z()
    bad = int_mat(ZZ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    assert not ctx.is_in_g(bad)


def test_elementary_products_in_g_over_z():
    ctx = ctx_z()
    rng = random.Random(3)
    for _ in range(25):
        g = ctx.sample_elementary_product(rng)
        assert ctx.is_in_g(g)
        assert ctx.norm_d(g) == ZZ(1)


def test_norm_examples():
    ctx = ctx_q()
    eye = ctx.embedding.identity_matrix()
    assert ctx.norm_d(eye) == QQ(1)
    assert ctx.norm_d(eye.scale(QQ(2))) == QQ(16)
    for t in range(-2, 3):
        assert ctx.norm_d(ctx.elementary(0, 1, t)) == QQ(1)


def test_norm_total_on_star_fixed_products():
    # g g-star is star-fixed for every g, and on this bed the star-fixed
    # subspace coincides with the embedded space, so the norm always has a
    # value; the undefined-norm guard exists for thinner embeddings
    ctx = ctx_q()
    rng = random.Random(9)
    for _ in range(50):
        rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        g = int_mat(QQ, rows)
        gg = g * ctx.star(g)
        assert ctx.lifted is not None
        assert ctx.star(gg) == gg
        assert ctx.v_coords(gg) is not None


def test_spin_rejects_scalar_dilations():
    ctx = ctx_q()
    eye = ctx.embedding.identity_matrix()
    for c in (2, 3):
        g1 = eye.scale(QQ(c))
        g2 = eye.scale(QQ(Fraction(1, c)))
        p = EvenPair(g1, g2)
        assert ctx.is_in_u0(p)
        assert not ctx.is_in_spin(p)


def test_chi_round_trip():
    ctx = ctx_q()
    rng = random.Random(4)
    for _ in range(50):
        g = ctx.sample_elementary_product(rng)
        pair = ctx.chi_inverse(g)
        assert ctx.is_in_spin(pair)
        assert ctx.chi(pair).matrix == g


def test_chi_inverse_unit_example():
    ctx = ctx_q()
    eye = ctx.embedding.identity_matrix()
    pair = ctx.chi_inverse(eye)
    assert pair == EvenPair(eye, eye) and hash(pair) == hash(EvenPair(eye, eye))
    assert pair != EvenPair(eye, -eye) and pair != (eye, eye)
    g = ctx.group_element(eye)
    assert g == ctx.group_element(eye.scale(QQ(1))) and hash(g) == hash(ctx.group_element(eye))
    assert g != ctx.group_element(-eye) and g != pair
    e13 = ctx.elementary(0, 2, 2)
    assert ctx.is_in_spin(ctx.chi_inverse(e13))


def test_chi_inverse_requires_norm_one():
    ctx = ctx_q()
    with pytest.raises(SpinError):
        ctx.chi_inverse(ctx.embedding.identity_matrix().scale(QQ(2)))


def test_spin_action_is_isometry():
    ctx = ctx_q()
    rng = random.Random(5)
    for _ in range(100):
        pair = ctx.chi_inverse(ctx.sample_elementary_product(rng))
        v = random_vector(rng, ctx.space)
        coords = ctx.conjugation_coords(pair, v)
        assert coords is not None
        assert ctx.space.evaluate_q(coords) == ctx.space.evaluate_q(v)


def test_norm_is_multiplicative():
    ctx = ctx_q()
    rng = random.Random(6)
    for _ in range(100):
        g = ctx.sample_group_element(rng, allow_scaling=True)
        h = ctx.sample_group_element(rng, allow_scaling=True)
        assert ctx.norm_d(g * h) == ctx.norm_d(g) * ctx.norm_d(h)
        assert ctx.norm_d(g) == ctx.norm_d(ctx.star(g))


def test_lemma_checks_seed_zero():
    ctx = ctx_q()
    reports = ctx.lemma_checks(0, 100)
    assert [r["lemma"] for r in reports] == ["4.1", "4.2", "4.3", "4.4"]
    for r in reports:
        assert r["failures"] == [], r


def test_context_over_z_mod_m():
    for ring in (Zmod(6), Zmod(3)):
        ctx = SpinContext(suslin_embedding(3, ring))
        for r in ctx.lemma_checks(0, 10):
            assert r["failures"] == [], (ring, r)
        rng = random.Random(4)
        for _ in range(10):
            pair = ctx.chi_inverse(ctx.sample_elementary_product(rng))
            assert ctx.is_in_spin(pair)


def test_scaled_samples_leave_norm_one_on_every_ring():
    for ring in (ZZ, Zmod(7)):
        ctx = SpinContext(suslin_embedding(3, ring))
        rng = random.Random(9)
        norms = {ctx.norm_d(ctx.sample_group_element(rng, allow_scaling=True)) for _ in range(20)}
        assert norms - {ring.one}


def test_lemma_scalar_case_forced():
    # a central dilation scales both sides of the norm product rule equally
    ctx = ctx_q()
    eye = ctx.embedding.identity_matrix()
    g = eye.scale(QQ(3))
    rng = random.Random(7)
    v = random_vector(rng, ctx.space)
    d = ctx.norm_d(g)
    assert d == QQ(81)
    coords = ctx.v_coords(ctx.bullet(g, v))
    assert ctx.space.evaluate_q(coords) == d * ctx.space.evaluate_q(v)


def test_unit_vector_case_of_translation_identity():
    # with the unit of V as the norm-one vector, the identity reduces to
    # the statement that v + vbar is scalar
    ctx = ctx_q()
    e = ctx.embedding
    rng = random.Random(8)
    one_v = ctx.one_coords
    m2 = e.rho_of(one_v)
    assert m2 == e.identity_matrix()
    for _ in range(50):
        v1 = random_vector(rng, ctx.space)
        target = e.rho_bar_of(v1) + m2 * e.rho_of(v1) * m2
        assert target.is_scalar()


def test_lemma_report_json_shape():
    ctx = ctx_q()
    report = ctx.lemma_checks(1, 5)[3]
    assert report["lemma"] == "4.4"
    assert report["samples"] == 5
    assert report["failures"] == []



def test_chi_and_chi_inverse_reject_non_members_after_a_proof():
    """The membership and norm each check last proved are kept, matched by
    identity: any other value is checked in full."""
    for ring in (ZZ, QQ, Zmod(6)):
        ctx = SpinContext(suslin_embedding(3, ring))
        g = ctx.elementary(0, 2, 1)
        assert ctx.is_in_g(g) is True and ctx.norm_d(g) == ring.one
        pair = ctx.chi_inverse(g)
        assert ctx.is_in_spin(pair) is True and ctx.chi(pair).matrix == g
        # 2I is outside G over Z and Z/6, and has norm 16 over Q
        dilation = ctx.embedding.identity_matrix().scale(ring(2))
        assert ctx.is_in_g(dilation) is (ring is QQ)
        for _ in range(2):
            with pytest.raises(SpinError):
                ctx.chi_inverse(dilation)
            assert ctx.is_in_g(g) is True and ctx.norm_d(g) == ring.one
        bad = EvenPair(g, g)
        for _ in range(2):
            assert ctx.is_in_spin(bad) is False
            with pytest.raises(SpinError):
                ctx.chi(bad)
            assert ctx.is_in_spin(pair) is True


def test_chi_and_chi_inverse_do_not_re_prove_the_value_just_checked(monkeypatch):
    ctx = ctx_z()
    g = ctx.sample_elementary_product(random.Random(8))
    assert ctx.is_in_g(g) and ctx.norm_d(g) == ZZ.one

    def refuse(*args):
        raise AssertionError("re-proved a value the context has just proved")

    for name in ("v_coords", "bullet", "is_in_u0"):
        monkeypatch.setattr(ctx, name, refuse)
    pair = ctx.chi_inverse(g)
    monkeypatch.undo()
    assert ctx.is_in_spin(pair)
    monkeypatch.setattr(ctx, "is_in_u0", refuse)
    assert ctx.chi(pair).matrix == g


def test_elementary_rejects_indices_outside_the_matrix():
    ctx = ctx_z()  # dim 4
    assert ctx.elementary(3, 0, 5) == ScalarMatrix.identity(4, ZZ) + int_mat(
        ZZ, [[0] * 4, [0] * 4, [0] * 4, [5, 0, 0, 0]]
    )
    for i, j in ((0, 4), (4, 0), (-1, 2), (2, -1), (4, 5)):
        with pytest.raises(ShapeError):
            ctx.elementary(i, j, 5)


def test_membership_matches_the_doubled_matrix_definitions():
    """`in_even_image`, `is_in_u0`, `is_in_spin` and `conjugation_coords`
    work on the d x d blocks; here each is rebuilt on the doubled matrices
    x = diag(g1, g2): a solve against the even monomial images, x x* = 1,
    x phi(e_i) x* inside phi(V), and the phi(V) coordinates of
    x phi(v) x*.  Members are chi_inverse of elementary products;
    non-members are (g, g) and pairs with one side scaled."""
    for ring in (ZZ, QQ, Zmod(6)):
        ctx = SpinContext(suslin_embedding(3, ring))
        e = ctx.embedding
        zero, one = e.zero_matrix(), e.identity_matrix()
        one2 = block2(one, zero, zero, one)
        phi_span = SpanSolver(ctx.phi.images, ring)
        even_span = SpanSolver(
            [img for mask, img in enumerate(ctx.phi.monomial_images) if bin(mask).count("1") % 2 == 0],
            ring,
        )

        def doubled(p):
            x = block2(p.g1, zero, zero, p.g2)
            xs = ctx.lifted(x)
            in_even = even_span.solve(x) is not None
            in_u0 = in_even and x * xs == one2
            in_spin = in_u0 and all(phi_span.solve(x * img * xs) is not None for img in ctx.phi.images)
            return x, xs, in_even, in_u0, in_spin

        rng = random.Random(11)
        pairs = []
        for _ in range(6):
            g = ctx.sample_elementary_product(rng)
            member = ctx.chi_inverse(g)
            pairs += [member, EvenPair(g, g), EvenPair(g.scale(ring(2)), member.g2)]
            if ring is QQ:
                pairs.append(EvenPair(g.scale(QQ(3)), member.g2.scale(QQ(Fraction(1, 3)))))
        verdicts = set()
        for p in pairs:
            x, xs, in_even, in_u0, in_spin = doubled(p)
            assert ctx.in_even_image(p) is in_even
            assert ctx.is_in_u0(p) is in_u0
            assert ctx.is_in_spin(p) is in_spin
            verdicts.add((in_u0, in_spin))
            for _ in range(3):
                v = random_vector(rng, ctx.space)
                image = block2(zero, e.rho_of(v), e.rho_bar_of(v), zero)
                assert ctx.conjugation_coords(p, v) == phi_span.solve(x * image * xs)
        assert {(True, True), (False, False)} <= verdicts, ring.name
        if ring is QQ:
            assert (True, False) in verdicts


def test_spin_context_builds_no_solver(monkeypatch):
    """On a certified bed the context builds no span solver: membership
    solves on the embedding's `v_span`, and the even image of the bijective
    rank-6 bed needs no solve at all."""
    built = []
    real_init = scalars.SpanSolver.__init__

    def counting_init(self, columns, ring):
        built.append(len(columns))
        real_init(self, columns, ring)

    for ring in (ZZ, Zmod(6)):
        e = suslin_embedding(3, ring)
        build_phi(e), lift_involution(e), e.v_span
        monkeypatch.setattr(scalars.SpanSolver, "__init__", counting_init)
        ctx = SpinContext(e)
        assert built == []
        pair = ctx.chi_inverse(ctx.elementary(0, 2, 1))
        assert ctx.is_in_spin(pair) and ctx.conjugation_coords(pair, [1, 0, 0, 0, 0, 0]) is not None
        assert built == []  # phi is bijective, so no even span is built
        again = SpinContext(e)
        assert again.is_in_spin(EvenPair(pair.g1, pair.g2)) and built == []
        monkeypatch.undo()
        built.clear()


def rank_one_ctx():
    """A certified bed on the rank-1 space x^2, embedded as its own unit."""
    eye = ScalarMatrix.identity(1, ZZ)
    e = Embedding(
        diagonal_space([1], ZZ), ZZ, 1, [eye], eye,
        involution=InvolutionForm(1, ZZ(1)), a_star=lambda m: m,
    )
    return SpinContext(e)


def test_the_even_image_is_solved_when_phi_is_not_bijective():
    """On the rank-1 bed phi is not bijective: its even part is the scalars,
    so diag(1, 1) is in the even image and diag(1, -1) is not."""
    ctx = rank_one_ctx()
    assert not ctx.phi.bijective
    one = ScalarMatrix.identity(1, ZZ)
    assert ctx.in_even_image(EvenPair(one, one))
    assert not ctx.in_even_image(EvenPair(one, -one))


class Hung(Exception):
    pass


def within(seconds, call):
    """call(), interrupted with Hung if it runs longer than `seconds`."""

    def interrupt(signum, frame):
        raise Hung(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, interrupt)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_lemma_4_1_refuses_a_rank_one_space():
    ctx = rank_one_ctx()
    with pytest.raises(SpinError, match="rank at least 2"):
        within(5, lambda: ctx.lemma_checks(0, 1))


def test_lemma_4_1_draws_a_bounded_number_of_vectors(monkeypatch):
    """A sampler that never leaves the line of the unit ends in SpinError."""
    import quadembed.spin as spin

    ctx = ctx_z()
    monkeypatch.setattr(spin, "random_vector", lambda rng, space: list(ctx.one_coords))
    with pytest.raises(SpinError, match="independent of the unit"):
        within(5, lambda: ctx.lemma_checks(0, 1))


def test_norm_one_vectors_need_the_hyperbolic_form():
    with pytest.raises(SpinError, match="hyperbolic"):
        rank_one_ctx().random_norm_one_vector(random.Random(0))
    rng = random.Random(3)
    ctx = ctx_z()
    for _ in range(20):
        assert ctx.space.evaluate_q(ctx.random_norm_one_vector(rng)) == ZZ.one

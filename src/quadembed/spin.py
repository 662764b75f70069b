"""Norm-one groups and the spin representation over an embedded space.

Everything runs on a SpinContext: an embedding whose entry involution fixes
the embedded vectors pointwise (form 1 with u = 1) and whose algebra unit
sits inside V with bar-fixed coordinates.  The hyperbolic rank-6 Suslin
embedding is the worked test bed.
"""

from __future__ import annotations

import random
from functools import cached_property

from .algmat import block2
from .embedding import Embedding, build_phi, lift_involution
from .qspace import hyperbolic, random_vector
from .scalars import Scalar, ScalarMatrix, ShapeError, SpanSolver, _Value, rank_in_ring


# Lemma 4.1's draws of a vector independent of the unit before it gives up.
_INDEPENDENT_DRAWS = 100
# The most elementary factors in one sampled product.
_MAX_FACTORS = 6


class SpinError(ValueError):
    """A spin-side precondition failed."""


class NormUndefinedError(SpinError):
    """g g* escaped the embedded space, so no norm value exists."""


class EvenPair(_Value):
    """Diagonal pair (g1, g2) standing for the block matrix diag(g1, g2)."""

    __slots__ = ("g1", "g2")

    def __init__(self, g1: ScalarMatrix, g2: ScalarMatrix):
        self.g1, self.g2 = g1, g2


class GroupElement(_Value):
    """An algebra element with a checked invertibility certificate."""

    __slots__ = ("matrix", "det")

    def __init__(self, matrix: ScalarMatrix, det: Scalar):
        self.matrix, self.det = matrix, det


class SpinContext:
    """The doubled map and lifted involution of one embedding over Z, Q or
    Z/m, both kept on the embedding, as are the spans membership tests
    solve against (`v_span`, `even_span`): the context builds no solver.
    `is_in_g`, `norm_d` and `is_in_spin` keep the last member or norm they
    proved, matched by identity, so `chi` and `chi_inverse` do not re-prove
    what the caller just checked."""

    def __init__(self, e: Embedding):
        if not e.scalar_entries:
            raise SpinError("spin machinery needs scalar matrix coefficients")
        if e.involution is None or e.involution.form != 1 or e.involution.u != e.ring.one:
            raise SpinError("need a form-1 involution fixing the embedded vectors")
        self.embedding = e
        self.space = e.space
        self.ring = e.ring
        self.star = e.a_star
        self.phi = build_phi(e)
        self.lifted = lift_involution(e)
        self.one_coords = e.v_span.solve(e.identity_matrix())
        if self.one_coords is None or e.bar_coords(self.one_coords) != self.one_coords:
            raise SpinError("the algebra unit must sit bar-fixed inside V")
        self._in_g, self._in_spin, self._norm = None, None, (None, None)

    @cached_property
    def _hyperbolic(self) -> bool:
        rank = self.space.rank
        return rank % 2 == 0 and self.space == hyperbolic(rank // 2, self.ring)

    # -- membership ---------------------------------------------------

    def v_coords(self, m: ScalarMatrix):
        return self.embedding.v_span.solve(m)

    def in_even_image(self, p: EvenPair) -> bool:
        """Whether diag(g1, g2) lies in the image of the even part."""
        zero = self.embedding.zero_matrix()
        return self.embedding.even_span.solve(block2(p.g1, zero, zero, p.g2)) is not None

    def group_element(self, m: ScalarMatrix) -> GroupElement:
        det = m.determinant()
        if not det.is_unit():
            raise SpinError("matrix determinant is not a unit")
        return GroupElement(m, det)

    @staticmethod
    def _matrix(g) -> ScalarMatrix:
        return g.matrix if isinstance(g, GroupElement) else g

    # -- the norm-one groups -------------------------------------------

    def is_in_u0(self, p: EvenPair) -> bool:
        """diag pair x with x x* = diag(g1 g2*, g2 g1*) = 1, under form 1;
        g1 g2* is the star of g2 g1*, star being a certified order-2
        anti-automorphism, so g2 g1* = 1 settles both (and g1* g2 = 1)."""
        if not self.in_even_image(p):
            return False
        one = self.embedding.identity_matrix()
        s1 = self.star(p.g1)
        return s1 * p.g2 == one and p.g2 * s1 == one

    def bullet(self, g, v) -> ScalarMatrix:
        """The twisted conjugation action g . v = g rho(v) g-star."""
        m = self._matrix(g)
        return m * self.embedding.rho_of(v) * self.star(m)

    def is_in_g(self, g) -> bool:
        """Invertible and the action keeps every basis vector inside V."""
        m = self._matrix(g)
        if m is self._in_g:
            return True
        if not m.determinant().is_unit():
            return False
        for i in range(self.space.rank):
            w = self.bullet(m, self.space.basis_vector(i))
            if self.v_coords(w) is None:
                return False
        self._in_g = m
        return True

    def norm_d(self, g) -> Scalar:
        """q of the V-coordinates of g g-star."""
        m = self._matrix(g)
        if m is not self._norm[0]:
            coords = self.v_coords(m * self.star(m))
            if coords is None:
                raise NormUndefinedError("g g* left the embedded space")
            self._norm = (m, self.space.evaluate_q(coords))
        return self._norm[1]

    def is_in_spin(self, p: EvenPair) -> bool:
        """Norm-one even pair whose conjugation preserves the vector image."""
        if p is self._in_spin:
            return True
        if not self.is_in_u0(p):
            return False
        for i in range(self.space.rank):
            if self.conjugation_coords(p, self.space.basis_vector(i)) is None:
                return False
        self._in_spin = p
        return True

    def conjugation_coords(self, p: EvenPair, v) -> list[Scalar] | None:
        """V-coordinates c of x phi(v) x^{-1} = [[0, g1 . v], [g2 rho(bar v)
        g2*, 0]] for x = diag(p), or None: c solves g1 . v on `v_span`, and
        the other block must be rho(bar c).  That is membership in phi(V)
        whenever V-coordinates are unique, as `norm_d` assumes too."""
        e = self.embedding
        coords = e.v_span.solve(self.bullet(p.g1, v))
        if coords is None or p.g2 * e.rho_bar_of(v) * self.star(p.g2) != e.rho_bar_of(coords):
            return None
        return coords

    def chi(self, p: EvenPair) -> GroupElement:
        """Project a spin pair to its first component."""
        if not self.is_in_spin(p):
            raise SpinError("pair is not in the spin group")
        return self.group_element(p.g1)

    def chi_inverse(self, g) -> EvenPair:
        """Section g -> (g, (g*)^{-1}) of the projection."""
        m = self._matrix(g)
        if not self.is_in_g(m):
            raise SpinError("element is not in the twisted-conjugation group")
        if self.norm_d(m) != self.ring.one:
            raise SpinError("element does not have norm one")
        return EvenPair(m, self.star(m).inverse())

    # -- samplers -------------------------------------------------------

    def elementary(self, i: int, j: int, t) -> ScalarMatrix:
        """I + t E_ij inside the coefficient matrix algebra."""
        if i == j:
            raise ShapeError("off-diagonal indices required")
        t = t if isinstance(t, Scalar) else self.ring(t)
        dim = self.embedding.dim
        if not (0 <= i < dim and 0 <= j < dim):
            raise ShapeError(f"indices must lie in [0, {dim})")
        unit = ScalarMatrix(dim, dim, [int(k == i * dim + j) for k in range(dim * dim)], self.ring)
        return ScalarMatrix.identity(dim, self.ring) + unit.scale(t)

    def sample_elementary_product(self, rng: random.Random) -> ScalarMatrix:
        dim = self.embedding.dim
        out = ScalarMatrix.identity(dim, self.ring)
        for _ in range(rng.randint(1, _MAX_FACTORS)):
            i = rng.randrange(dim)
            j = rng.randrange(dim)
            while j == i:
                j = rng.randrange(dim)
            out = out * self.elementary(i, j, rng.randint(-2, 2))
        return out

    def sample_group_element(self, rng: random.Random, allow_scaling: bool = False) -> ScalarMatrix:
        """An elementary product; with `allow_scaling`, scaled by 2, 3 or 4
        half the time, over every ring: lemma 4.4 and the norm rule need
        g g* in V, not g invertible."""
        g = self.sample_elementary_product(rng)
        if allow_scaling and rng.random() < 0.5:
            g = g.scale(self.ring(rng.choice([2, 3, 4])))
        return g

    def random_norm_one_vector(self, rng: random.Random) -> list[Scalar]:
        """A vector with q = 1: either a coordinate permutation of the unit
        of V, or a sampled pair with a unimodular slot.  Both read q as the
        form of `hyperbolic(rank / 2)`, which the context must have."""
        if not self._hyperbolic:
            raise SpinError("norm-one vectors are drawn only on the hyperbolic form")
        n = self.space.rank // 2
        if rng.random() < 0.25:
            k = rng.randrange(n)
            coords = [0] * (2 * n)
            coords[k] = 1
            coords[n + k] = 1
            return self.space.coordinates(coords)
        slot = rng.randrange(n)
        a = [rng.randint(-3, 3) for _ in range(n)]
        a[slot] = rng.choice([1, -1])
        b = [rng.randint(-3, 3) for _ in range(n)]
        partial = sum(a[i] * b[i] for i in range(n) if i != slot)
        b[slot] = (1 - partial) * a[slot]
        return self.space.coordinates(a + b)

    # -- seeded verifier for the four structural facts -------------------

    def lemma_checks(self, seed: int, samples: int) -> list["LemmaReport"]:
        """Lemmas 4.1-4.4 on `samples` draws each.  Draw i of lemma L has its
        own RNG, seeded "seed:L:i"; a draw that fails is recorded as that
        seed and the witness its lemma returns."""
        reports = []
        for lemma, check in (
            ("4.1", self._bar_characterisation),
            ("4.2", self._norm_one_translation),
            ("4.3", self._star_norm_symmetry),
            ("4.4", self._norm_product_rule),
        ):
            failures = []
            for i in range(samples):
                skey = f"{seed}:{lemma}:{i}"
                witness = check(random.Random(skey))
                if witness is not None:
                    failures.append({"seed": skey, "witness": witness})
            reports.append(LemmaReport(lemma, samples, failures))
        return reports

    def _bar_characterisation(self, rng: random.Random):
        """Perturbing the bar image breaks scalarity; the bar image itself
        is the unique completion making sum and product scalar.  v is drawn
        independent of the unit, which needs rank >= 2, in at most
        `_INDEPENDENT_DRAWS` tries."""
        if self.space.rank < 2:
            raise SpinError("lemma 4.1 needs a space of rank at least 2")
        for _ in range(_INDEPENDENT_DRAWS):
            v = random_vector(rng, self.space)
            if rank_in_ring([self.one_coords, v], self.ring) == 2:
                break
        else:
            raise SpinError(f"no vector independent of the unit in {_INDEPENDENT_DRAWS} draws")
        e = self.embedding
        one = e.identity_matrix()
        # r must be non-zero in the ring, or the perturbation is none
        r = self.ring(rng.choice([x for x in range(-4, 5) if not self.ring(x).is_zero]))
        mv = e.rho_of(v)
        mbar = e.rho_bar_of(v)
        perturbed = mbar + one.scale(r)
        ok = not ((mv + perturbed).is_scalar() and (mv * perturbed).is_scalar())
        if not (ok and (mv + mbar).is_scalar() and mv * mbar == one.scale(self.space.evaluate_q(v))):
            return _coords_json(v)

    def _norm_one_translation(self, rng: random.Random):
        """bar(v1) + v2 v1 v2 is a multiple of v2 whenever q(v2) = 1."""
        e = self.embedding
        v1 = random_vector(rng, self.space)
        v2 = self.random_norm_one_vector(rng)
        m2 = e.rho_of(v2)
        target = e.rho_bar_of(v1) + m2 * e.rho_of(v1) * m2
        if SpanSolver([m2], self.ring).solve(target) is None:
            return [_coords_json(v1), _coords_json(v2)]

    def _star_norm_symmetry(self, rng: random.Random):
        """q(g g*) = 1 forces q(g* g) = 1."""
        g = self.sample_group_element(rng)
        if self.norm_d(g) != self.ring.one:
            return None
        coords = self.v_coords(self.star(g) * g)
        if coords is None or self.space.evaluate_q(coords) != self.ring.one:
            return g.to_json()

    def _norm_product_rule(self, rng: random.Random):
        """q(g . v) = q(g g*) q(v), including non-norm-one g."""
        g = self.sample_group_element(rng, allow_scaling=True)
        v = random_vector(rng, self.space)
        d = self.norm_d(g)
        coords = self.v_coords(self.bullet(g, v))
        if coords is None or self.space.evaluate_q(coords) != d * self.space.evaluate_q(v):
            return _coords_json(v)


class LemmaReport:
    __slots__ = ("lemma", "samples", "failures")

    def __init__(self, lemma: str, samples: int, failures: list):
        self.lemma, self.samples, self.failures = lemma, samples, failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self):
        return {"lemma": self.lemma, "samples": self.samples, "failures": self.failures}


def _coords_json(coords) -> list[str]:
    return [str(c) for c in coords]

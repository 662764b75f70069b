"""Quadratic spaces realised inside an associative algebra.

An embedding carries the images of the space's basis inside a matrix
algebra, the bar isometry as a coordinate matrix, and optionally an entry
involution of the algebra.  From it the package builds the induced map into
doubled block matrices, checks its injectivity, exposes the symmetrised
triple product, and lifts entry involutions to the doubled algebra.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional

from .algmat import AlgMatrix, CliffordCoeffs, algebra_basis, block2, lift_scalar_matrix
from .clifford import CliffordElement, UniversalMap, monomial, standard_involution
from .qspace import QuadraticSpace
from .scalars import RingError, Scalar, ScalarMatrix, ShapeError, SpanSolver, _Value, rank_in_ring


class EmbeddingError(ValueError):
    """The embedding data fails one of its defining identities."""


class InjectivityError(EmbeddingError):
    """Monomial images became linearly dependent."""


class ClosureError(EmbeddingError):
    """A product that must land back in the embedded space did not."""


class InvolutionError(EmbeddingError):
    """Entry involution is inconsistent with the requested lift form."""

    def __init__(self, message: str, basis_index: int | None = None):
        super().__init__(message)
        self.basis_index = basis_index


class InvolutionForm(_Value):
    """Which table row the entry involution follows on embedded vectors.

    Form 1 fixes vectors up to the sign u; form 2 sends them to u times
    their bar image.  In both cases u squares to 1.
    """

    __slots__ = ("form", "u")

    def __init__(self, form: int, u: Scalar):
        if form not in (1, 2):
            raise ValueError("form must be 1 or 2")
        if u * u != u.ring.one:
            raise ValueError("u must square to 1")
        self.form, self.u = form, u


class Embedding:
    """Images of a quadratic space's basis inside a matrix algebra.

    `algebra` is the entry algebra: the base ring itself for ScalarMatrix
    images, a CliffordCoeffs for AlgMatrix images.  An embedding is treated
    as immutable once built: it keeps its span solvers, its barred basis
    images, its validation report, its certified doubled map and its
    involution lifts, each computed on first use."""

    def __init__(
        self,
        space: QuadraticSpace,
        algebra,
        dim: int,
        rho,
        alpha: ScalarMatrix,
        involution: Optional[InvolutionForm] = None,
        a_star: Optional[Callable] = None,
    ):
        rho = tuple(rho)
        if len(rho) != space.rank:
            raise ShapeError("need one image per basis vector")
        for m in rho:
            if m.dim != dim:
                raise ShapeError("basis images must have the declared dimension")
            if m.algebra != algebra:
                raise RingError("basis images must share the coefficient algebra")
        if rho[0].ring is not space.ring:
            raise RingError("algebra and space must share the base ring")
        if alpha.rows != space.rank or alpha.cols != space.rank:
            raise ShapeError("bar matrix must be rank x rank")
        if alpha.ring is not space.ring:
            raise RingError("bar matrix must live in the base ring")
        self.space = space
        self.algebra = algebra
        self.dim = dim
        self.rho = rho
        self.alpha = alpha
        self.involution = involution
        self.a_star = a_star
        self._report = None
        self._phi = None
        self._lifts = {}

    @property
    def ring(self):
        return self.space.ring

    @cached_property
    def v_span(self) -> SpanSolver:
        """The span of the basis images, built on first use."""
        return SpanSolver(self.rho, self.ring)

    @cached_property
    def even_span(self) -> SpanSolver:
        """The span of `build_phi`'s even monomial images, built on first use."""
        phi = build_phi(self)
        return SpanSolver([phi.image_of_mask(m) for m in _even_masks(self.space.rank)], self.ring)

    @property
    def scalar_entries(self) -> bool:
        return self.algebra is self.ring

    def identity_matrix(self):
        return lift_scalar_matrix(ScalarMatrix.identity(self.dim, self.ring), self.algebra)

    def zero_matrix(self):
        if self.scalar_entries:
            return ScalarMatrix.zero(self.dim, self.dim, self.ring)
        return AlgMatrix.zero(self.algebra, self.dim)

    def bar_coords(self, coords) -> list[Scalar]:
        return self.alpha.apply(self.space.coordinates(coords))

    @cached_property
    def rho_bar(self) -> tuple:
        """The images of the barred basis vectors, rho(alpha e_i)."""
        return tuple(self.rho_of(self.alpha.col(i)) for i in range(self.space.rank))

    def _combination(self, coords, images):
        total = None
        for c, m in zip(self.space.coordinates(coords), images):
            if not c.is_zero:
                total = m.scale(c) if total is None else total + m.scale(c)
        return total if total is not None else self.zero_matrix()

    def rho_of(self, coords):
        """Image of the vector with the given coordinates."""
        return self._combination(coords, self.rho)

    def rho_bar_of(self, coords):
        """rho(bar v), as the same combination of the barred basis images."""
        return self._combination(coords, self.rho_bar)

    def to_json(self):
        if self.scalar_entries:
            algebra_json = {"kind": "scalars", "dim": self.dim}
        else:
            algebra_json = {
                "kind": "clifford",
                "dim": self.dim,
                "entry_space": self.algebra.space.to_json(),
            }
        data = {
            "space": self.space.to_json(),
            "algebra": algebra_json,
            "rho": [m.to_json() for m in self.rho],
            "alpha": self.alpha.to_json(),
            "involution": None,
        }
        if self.involution is not None:
            data["involution"] = {"form": self.involution.form, "u": str(self.involution.u)}
        return data

    def __repr__(self):
        return (
            f"Embedding(rank={self.space.rank}, dim={self.dim}, "
            f"algebra={'scalars' if self.scalar_entries else 'clifford'})"
        )


def validate_embedding(e: Embedding) -> list[str]:
    """Check every defining identity of the embedding, exactly.

    Returns the failed identities, empty for a valid embedding; they are
    collected rather than raised.  The list is kept on `e`, so later calls
    return the same object.
    """
    if e._report is not None:
        return e._report
    failures = []
    space = e.space
    n = space.rank
    one = e.identity_matrix()
    rho, rbar = e.rho, e.rho_bar

    for i in range(n):
        q = space.q_generator(i)
        if rho[i] * rbar[i] != one.scale(q):
            failures.append(f"rho(e{i+1})*bar(e{i+1}) != q(e{i+1})")
        if rbar[i] * rho[i] != one.scale(q):
            failures.append(f"bar(e{i+1})*rho(e{i+1}) != q(e{i+1})")
    for i in range(n):
        for j in range(i + 1, n):
            want = one.scale(space.bilinear_generators(i, j))
            if rho[i] * rbar[j] + rho[j] * rbar[i] != want:
                failures.append(f"polarised identity fails at ({i+1},{j+1})")
            if rbar[i] * rho[j] + rbar[j] * rho[i] != want:
                failures.append(f"mirrored polarised identity fails at ({i+1},{j+1})")

    # alpha preserves the form: q(alpha x) = x^T g x, so checking g_ii = q(e_i)
    # and g_ij + g_ji = <e_i, e_j> on basis pairs pins it down for every vector.
    g = e.alpha.transpose() * space.qmatrix * e.alpha
    for i in range(n):
        if g.entry(i, i) != space.q_generator(i):
            failures.append(f"bar map does not preserve q(e{i+1})")
    for i in range(n):
        for j in range(i + 1, n):
            if g.entry(i, j) + g.entry(j, i) != space.bilinear_generators(i, j):
                failures.append(f"bar map does not preserve <e{i+1},e{j+1}>")

    # McCoy rank n is independence over the ring, which also rules out a zero image
    if rank_in_ring(rho, e.ring) < n:
        failures.append("the basis images are dependent over the ring")

    e._report = failures
    return failures


def build_phi(e: Embedding) -> UniversalMap:
    """Map generators to the doubled antidiagonal blocks and extend.

    Requires a validated embedding with a non-degenerate form, over Z, Q
    or Z/m; raises InjectivityError if the monomial images become
    dependent over the ring (which the theory rules out for
    non-degenerate forms).  The generator relations need no check of
    their own: for g_i = [[0, rho_i], [bar_i, 0]], g_i^2 is
    diag(rho_i bar_i, bar_i rho_i) and g_i g_j + g_j g_i is
    diag(rho_i bar_j + rho_j bar_i, bar_i rho_j + bar_j rho_i), so block by
    block they are the four product identities of `validate_embedding`.
    The certified map is kept on `e`, so later calls return the same
    object; a failure is not kept and raises again.
    """
    if e._phi is not None:
        return e._phi
    failures = validate_embedding(e)
    if failures:
        raise EmbeddingError(f"embedding axioms fail: {failures}")
    if not e.space.is_nondegenerate():
        raise EmbeddingError("quadratic space must be non-degenerate")
    zero, one = e.zero_matrix(), e.identity_matrix()
    images = [block2(zero, m, mbar, zero) for m, mbar in zip(e.rho, e.rho_bar)]
    phi = UniversalMap(e.space, images, block2(one, zero, zero, one))
    if not phi.injective:
        raise InjectivityError(
            f"monomial image rank {phi.monomial_rank} < {1 << e.space.rank}"
        )
    e._phi = phi
    return phi


def jordan_product(e: Embedding, v, w) -> list[Scalar]:
    """Coordinates of the symmetrised triple product v w v inside V.

    Also checks that the bar map intertwines the product, i.e. that taking
    bars of the inputs bars the output.
    """
    v = e.space.coordinates(v)
    w = e.space.coordinates(w)
    mv = e.rho_of(v)
    mw = e.rho_of(w)
    coords = e.v_span.solve(mv * mw * mv)
    if coords is None:
        raise ClosureError("triple product left the embedded space")
    mvb = e.rho_bar_of(v)
    mwb = e.rho_bar_of(w)
    bar_coords = e.v_span.solve(mvb * mwb * mvb)
    if bar_coords is None or bar_coords != e.bar_coords(coords):
        raise ClosureError("bar map does not intertwine the triple product")
    return coords


def check_alpha_order_two(e: Embedding) -> bool | None:
    """Whether the bar matrix squares to the identity.

    A holding identity is reported as True outright.  When it fails, the
    verdict depends on the hypothesis that the algebra unit sits bar-fixed
    inside V: with the hypothesis the failure is a genuine False, without
    it nothing is implied and the result is None.
    """
    squared = e.alpha * e.alpha == ScalarMatrix.identity(e.space.rank, e.ring)
    if squared:
        return True
    one_coords = e.v_span.solve(e.identity_matrix())
    if one_coords is None or e.bar_coords(one_coords) != one_coords:
        return None
    return False


class LiftedInvolution:
    """Block-level involution of the doubled algebra induced by an entry
    involution on A."""

    def __init__(self, e: Embedding, form: InvolutionForm):
        self.embedding = e
        self.form = form

    def __call__(self, m):
        if m.dim != 2 * self.embedding.dim:
            raise ShapeError("expected a doubled matrix")
        star = self.embedding.a_star
        a, b, c, d = m.blocks2()
        u = self.form.u
        minus_u = -u
        if self.form.form == 1:
            return block2(
                star(d), star(b).scale(minus_u), star(c).scale(minus_u), star(a)
            )
        return block2(star(a), star(c).scale(minus_u), star(b).scale(minus_u), star(d))


def lift_involution(e: Embedding, form: InvolutionForm | None = None) -> LiftedInvolution:
    """Lift the entry involution of A to the doubled algebra.

    Consistency on basis images is mandatory: form 1 requires star(rho) to
    be u*rho, form 2 requires u*bar(rho).  The entry involution itself is
    verified to be an order-2 anti-automorphism, which carries the same
    properties to the lifted map, on ring generators x of A against a
    module basis y.  The generators are E_11, the e_k E_11 for Clifford
    entries, and for dim d > 1 the cyclic shift P (P e_j = e_(j+1 mod d)):
    every E_ij is P^a E_11 P^b for some a, b >= 0, as P^-1 = P^(d-1), and
    the E_ij and e_k E_11 generate A.  That is exact when star is additive,
    as the signed permutation star of a Suslin bed and the reversal are:
    the x with star(xy) = star(y) star(x) for all y then form a subring,
    which holds the generators and so all of A, and star^2, a ring map, is
    the identity on it.  Finally the lift must negate every doubled image
    of a basis vector.  Each lift is kept on `e` under its form; a rejected
    form is not kept and raises again.
    """
    if e.a_star is None:
        raise InvolutionError("no entry involution available on the algebra")
    if form is None:
        form = e.involution
    if form is None:
        raise InvolutionError("no involution form supplied")
    lifted = e._lifts.get(form)
    if lifted is not None:
        return lifted
    star = e.a_star
    u = form.u

    for i, m in enumerate(e.rho):
        want = (m if form.form == 1 else e.rho_bar[i]).scale(u)
        if star(m) != want:
            raise InvolutionError(
                f"entry involution disagrees with form {form.form} on basis image {i+1}",
                basis_index=i,
            )

    basis = algebra_basis(e.algebra, e.dim)
    d, k = e.dim, len(basis) // e.dim**2  # k entries per matrix position
    gens = [basis[0]] + [basis[1 << t] for t in range((k - 1).bit_length())]
    if d > 1:
        shift = [int(i == (j + 1) % d) for i in range(d) for j in range(d)]
        gens.append(lift_scalar_matrix(ScalarMatrix(d, d, shift, e.ring), e.algebra))
    for x in gens:
        sx = star(x)
        if star(sx) != x:
            raise InvolutionError("entry involution does not have order 2")
        for y in basis:
            if star(x * y) != star(y) * sx:
                raise InvolutionError("entry involution is not an anti-automorphism")

    lifted = LiftedInvolution(e, form)
    zero = e.zero_matrix()
    for i, m in enumerate(e.rho):
        z = block2(zero, m, e.rho_bar[i], zero)
        if lifted(z) != -z:
            raise InvolutionError(
                f"lifted involution does not negate basis image {i+1}", basis_index=i
            )
    e._lifts[form] = lifted
    return lifted


def involutions_conflict_check(e: Embedding, witness=None) -> bool | None:
    """Whether the two lift forms are forced to disagree on some diag(S, S).

    On a vector v the form-1 lift fixes diag(rho(v), rho(v)) while the
    form-2 lift replaces the blocks by the bar image, so the two maps
    differ exactly when some embedded vector moves under bar.  Returns None
    when every vector is bar-fixed so the premise is empty.
    """
    space = e.space
    if witness is not None:
        coords = space.coordinates(witness)
        return e.rho_of(coords) != e.rho_bar_of(coords)
    for i in range(space.rank):
        v = space.basis_vector(i)
        if e.bar_coords(v) != v:
            return e.rho_of(v) != e.rho_bar_of(v)
    return None


def standard_involution_restriction(e: Embedding) -> bool | None:
    """Whether the reversal involution of the Clifford algebra restricts to A.

    Needs every diag(a, a), for a in a module basis of A, to be certified
    inside the image of the doubled map; returns None when some diagonal
    escapes that image, True/False otherwise.  `even_span` suffices: the
    odd images are block-antidiagonal and all are independent, so diag(a, a)
    has no odd coordinates.
    """
    phi, masks = build_phi(e), _even_masks(e.space.rank)
    zero = e.zero_matrix()
    for a in algebra_basis(e.algebra, e.dim):
        coords = e.even_span.solve(block2(a, zero, zero, a))
        if coords is None:
            return None
        element = CliffordElement(
            e.space, {m: c for m, c in zip(masks, coords) if not c.is_zero}
        )
        image = phi(standard_involution(element))
        ia, ib, ic, id_ = image.blocks2()
        if not ib.is_zero() or not ic.is_zero() or ia != id_:
            return False
    return True


def _even_masks(rank: int) -> list[int]:
    return [m for m in range(1 << rank) if bin(m).count("1") % 2 == 0]


def clifford_self_embedding(space: QuadraticSpace) -> Embedding:
    """The tautological embedding: generators inside their own Clifford
    algebra (as 1x1 matrices), bar the identity, star the reversal."""
    algebra = CliffordCoeffs(space)

    def star(m: AlgMatrix) -> AlgMatrix:
        return AlgMatrix(
            algebra, [[standard_involution(x) for x in row] for row in m.entries]
        )

    rho = [
        AlgMatrix(algebra, [[monomial(space, 1 << i)]]) for i in range(space.rank)
    ]
    return Embedding(
        space,
        algebra,
        1,
        rho,
        ScalarMatrix.identity(space.rank, space.ring),
        involution=InvolutionForm(1, space.ring(-1)),
        a_star=star,
    )

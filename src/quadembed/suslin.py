"""Suslin matrices: the doubling recursion, their companion matrices, the
signed-permutation conjugators, and explicit Clifford generators for the
small split quadratic spaces."""

from __future__ import annotations

from . import FAMILIES
from .algmat import AlgMatrix, CliffordCoeffs, block2, lift_scalar_matrix
from .clifford import CliffordRelationError, UniversalMap, extend_universal, monomial
from .embedding import Embedding, InvolutionForm, build_phi
from .qspace import QuadraticSpace, diagonal_space, hyperbolic, orthogonal_sum
from .scalars import Ring, RingError, Scalar, ScalarMatrix, ShapeError, ZZ, _Value, raw_row

MAX_COORDINATES = 8  # 128x128 matrices; each coordinate more costs about 4 times


class SuslinPair(_Value):
    """Two coordinate rows of equal length n+1 <= MAX_COORDINATES; the matrices have size 2**n."""

    __slots__ = ("v", "w")

    def __init__(self, v: tuple, w: tuple):
        if len(v) != len(w):
            raise ShapeError("coordinate rows must have equal length")
        if not 1 <= len(v) <= MAX_COORDINATES:
            raise ShapeError(f"a pair has 1 to {MAX_COORDINATES} coordinates, not {len(v)}")
        ring = v[0].ring
        for s in v + w:
            if s.ring is not ring:
                raise RingError("coordinates must share one ring")
        self.v, self.w = v, w

    @property
    def ring(self) -> Ring:
        return self.v[0].ring

    @property
    def size(self) -> int:
        return 1 << (len(self.v) - 1)

    def dot(self) -> Scalar:
        return sum((a * b for a, b in zip(self.v, self.w)), self.ring.zero)


def suslin_pair(ring: Ring, v, w) -> SuslinPair:
    conv = lambda xs: tuple(x if isinstance(x, Scalar) else ring(x) for x in xs)
    return SuslinPair(conv(v), conv(w))


def _suslin_matrix(p: SuslinPair, which: int) -> ScalarMatrix:
    """S (which = 0) or Sbar (which = 1), doubled up from the last coordinate
    on the pair's raw values: S = [[a I, S'], [-Sbar', b I]], Sbar = [[b I, -S'], [Sbar', a I]]."""
    k = len(p.v)
    values, den = raw_row(p.v + p.w, p.ring)
    s_rows, sbar_rows = [[values[k - 1]]], [[values[-1]]]
    for a, b in zip(reversed(values[: k - 1]), reversed(values[k:-1])):
        s1, sb1, h = s_rows, sbar_rows, len(s_rows)
        s_rows, sbar_rows = [], []
        for i in range(h):
            s_rows.append([a if i == j else 0 for j in range(h)] + s1[i])
            sbar_rows.append([b if i == j else 0 for j in range(h)] + [-x for x in s1[i]])
        for i in range(h):
            s_rows.append([-x for x in sb1[i]] + [b if i == j else 0 for j in range(h)])
            sbar_rows.append(sb1[i] + [a if i == j else 0 for j in range(h)])
    rows = (s_rows, sbar_rows)[which]
    return ScalarMatrix(p.size, p.size, [x for row in rows for x in row], p.ring, den)


def suslin(p: SuslinPair) -> ScalarMatrix:
    """The recursive block matrix attached to the coordinate pair."""
    return _suslin_matrix(p, 0)


def suslin_bar(p: SuslinPair) -> ScalarMatrix:
    """The companion matrix; multiplying the two gives dot(v, w) times I."""
    return _suslin_matrix(p, 1)


def bar_pair(p: SuslinPair) -> SuslinPair:
    """The coordinate pair of the companion: suslin(bar_pair(p)) equals
    suslin_bar(p), and the map is an involution."""
    v = (p.w[0],) + tuple(-x for x in p.v[1:])
    w = (p.v[0],) + tuple(-x for x in p.w[1:])
    return SuslinPair(v, w)


def check_suslin_identities(p: SuslinPair) -> dict:
    """Verify the two defining identities of the pair, exactly: the report
    `suslin --check` prints, whose `failures` is empty when both hold
    (`det_ok` is None for n = 0)."""
    n = len(p.v) - 1
    s = suslin(p)
    sbar = suslin_bar(p)
    dot = p.dot()
    expected = ScalarMatrix.identity(p.size, p.ring).scale(dot)
    failures = []
    left = s * sbar
    right = sbar * s
    product_ok = left == expected and right == expected
    if not product_ok:
        failures.append(
            {
                "identity": "product",
                "left": left.to_json(),
                "right": right.to_json(),
                "expected": expected.to_json(),
            }
        )
    det_ok = None
    if n:
        det, want = s.determinant(), p.ring.one
        for _ in range(1 << (n - 1)):
            want = want * dot
        det_ok = det == want
        if not det_ok:
            failures.append({"identity": "determinant", "left": str(det), "right": str(want)})
    return {"n": n, "dot": str(dot), "product_ok": product_ok, "det_ok": det_ok, "failures": failures}


class DerivationError(RuntimeError):
    """The closed-form J failed its certificate on the unit pairs."""


class JMatrix(_Value):
    """Signed permutation J with J J^T = I conjugating transposes of the
    size-2**(n-1) matrices back into the family."""

    __slots__ = ("n", "size", "matrix", "bar_case", "candidates_tried")

    def __init__(self, n: int, size: int, matrix: ScalarMatrix, bar_case: bool, candidates_tried: int):
        self.n, self.size = n, size
        self.matrix = matrix  # over Z, entries in {-1, 0, 1}
        self.bar_case = bar_case  # True when conjugation lands on the companion matrix
        self.candidates_tried = candidates_tried  # J's rank among all signed permutations, see derive_j

    def as_ring(self, ring: Ring) -> ScalarMatrix:
        return ScalarMatrix(self.size, self.size, self.matrix.values, ring)

    def star_map(self, ring: Ring):
        """Entry involution M -> J M^T J^T on matrices over `ring`.  With
        J[i][p(i)] = s_i it only moves and signs entries:
        star(M)[i][j] = s_i s_j M[p(j)][p(i)]."""
        n = self.size
        # J has one non-zero entry per row, so these come in row order
        p, s = zip(*((k % n, v) for k, v in enumerate(self.matrix.values) if v))
        plan = [(p[j] * n + p[i], s[i] != s[j]) for i in range(n) for j in range(n)]

        def star(m: ScalarMatrix) -> ScalarMatrix:
            if (m.rows, m.cols) != (n, n):
                raise ShapeError(f"expected a {n}x{n} matrix")
            if m.ring is not ring:
                raise RingError("ring mismatch")
            v = m.values
            return ScalarMatrix(n, n, [-v[k] if flip else v[k] for k, flip in plan], ring, m.den)

        return star

    def to_json(self):
        return {
            "n": self.n,
            "size": self.size,
            "j": self.matrix.to_json(),
            "conjugates_to": "bar" if self.bar_case else "same",
            "candidates_tried": self.candidates_tried,
            "unit_pairs_checked": 2 * self.n,
        }


def _unit_pairs(n: int, ring: Ring) -> list[SuslinPair]:
    """The 2n unit coordinate pairs, ordered (a_0..a_{n-1}, b_0..b_{n-1})."""
    units = [tuple(ring(int(i == k)) for i in range(2 * n)) for k in range(2 * n)]
    return [SuslinPair(u[:n], u[n:]) for u in units]


def derive_j(n: int) -> JMatrix:
    """The signed permutation J of size 2**(n-1), 1 <= n <= MAX_COORDINATES,
    with J S^T J^T = S for odd n and Sbar for even n, in closed form:
    J[i][i ^ m] = (-1)**popcount(i), where m sets the even bits below 2*(n//2).

    By induction on the doubling S = [[a I, S'], [-Sbar', b I]] (Suslin 1977):
    J_1 = [1], and with J' = J_(n-1), J_n = diag(J', -J') for odd n and
    [[0, J'], [-J', 0]] for even n.  The identity is linear in the pair, so
    matrix products on the 2n unit pairs certify J; `candidates_tried` is
    J's 1-based rank among signed permutations, permutation first and + before -.
    """
    if not 1 <= n <= MAX_COORDINATES:
        raise ShapeError(f"J is derived for n from 1 to {MAX_COORDINATES}")
    size = 1 << (n - 1)
    bar_case = n % 2 == 0
    mask = (4 ** (n // 2) - 1) // 3
    perm = [i ^ mask for i in range(size)]
    signs = [(-1) ** bin(i).count("1") for i in range(size)]
    j = ScalarMatrix(size, size, [sign * (c == k) for c, sign in zip(perm, signs) for k in range(size)], ZZ)
    target = suslin_bar if bar_case else suslin
    if any(j * suslin(p).transpose() * j.transpose() != target(p) for p in _unit_pairs(n, ZZ)):
        raise DerivationError(f"the closed-form J of size {size} fails the identity")
    rank = 0  # the Lehmer index of perm, by Horner's rule in the factorial base
    for i, c in enumerate(perm):
        rank = rank * (size - i) + sum(q < c for q in perm[i + 1 :])
    for sign in signs:
        rank = 2 * rank + (sign < 0)
    return JMatrix(n, size, j, bar_case, rank + 1)


def suslin_embedding(n: int, ring: Ring) -> Embedding:
    """The hyperbolic space of rank 2n realised by size 2**(n-1) matrices.

    Coordinates are ordered (a_0..a_{n-1}, b_0..b_{n-1}), matching the
    (e's, f's) order of the hyperbolic space directly.  The bar isometry
    swaps a_0 with b_0 and negates the tails.
    """
    if n < 2:
        raise ShapeError("rank-2 hyperbolic space does not fit into 1x1 matrices")
    space = hyperbolic(n, ring)
    rho = [suslin(p) for p in _unit_pairs(n, ring)]
    values = [-int(i == j) for i in range(2 * n) for j in range(2 * n)]
    values[0], values[n], values[2 * n * n], values[2 * n * n + n] = 0, 1, 1, 0
    alpha = ScalarMatrix(2 * n, 2 * n, values, ring)
    j = derive_j(n)
    return Embedding(
        space,
        ring,
        1 << (n - 1),
        rho,
        alpha,
        involution=InvolutionForm(2 if j.bar_case else 1, ring.one),
        a_star=j.star_map(ring),
    )


def hyperbolic_clifford_iso(n: int, ring: Ring) -> UniversalMap:
    """Build the rank-2n hyperbolic embedding over Z, Q or Z/m and certify
    its doubled map injective (`build_phi`): all 4**n monomial images are
    independent over the ring.  The target matrix algebra is free of rank
    (2**n)**2 = 4**n, so the map is bijective when the images are a basis
    (`UniversalMap.bijective`); over Z that takes determinant +-1, not
    independence alone.
    """
    if not 2 <= n <= 5:
        raise ShapeError("rank check supported for n in {2, 3, 4, 5}: n = 5 builds and ranks 1,024"
                         " images of length 1,024 in about 0.5 s, n = 6 would need 4,096 of length 4,096")
    return build_phi(suslin_embedding(n, ring))


class CatalogError(ValueError):
    """A generator family violates its stated relations."""


def catalog_space(family: str, n: int, ring: Ring) -> QuadraticSpace:
    if family == "hyperbolic2n":
        return hyperbolic(n, ring)
    if family == "odd2n1":
        return orthogonal_sum(diagonal_space([-1], ring), hyperbolic(n, ring))
    if family == "even2n2":
        return orthogonal_sum(diagonal_space([-1, -1], ring), hyperbolic(n, ring))
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")


def catalog_generators(family: str, n: int, ring: Ring) -> list:
    """Explicit Clifford generators for the three catalogued form families.

    Each call re-checks the generator relations against the family's form
    and certifies, over Z, Q or Z/m, that the 2**rank(V) monomial images
    are independent.
    """
    if not 1 <= n <= 2:
        raise ShapeError("catalog supports n in {1, 2}")
    space = catalog_space(family, n, ring)
    half = 1 << (n - 1)

    if family == "hyperbolic2n":
        algebra = ring
        lam = []
    elif family == "odd2n1":
        algebra = CliffordCoeffs(diagonal_space([-1], ring))
        lam = [monomial(algebra.space, 1)]
    else:
        algebra = CliffordCoeffs(diagonal_space([-1, -1], ring))
        lam = [monomial(algebra.space, 1), monomial(algebra.space, 2)]

    eye = lift_scalar_matrix(ScalarMatrix.identity(half, ring), algebra)
    zero = eye.scale(ring.zero)
    gens = []
    for l in lam:
        diag = AlgMatrix(algebra, [[l if i == j else algebra.zero() for j in range(half)]
                                   for i in range(half)])
        gens.append(block2(diag, zero, zero, -diag))
    for p in _unit_pairs(n, ring):
        top = lift_scalar_matrix(suslin(p), algebra)
        bottom = lift_scalar_matrix(suslin_bar(p), algebra)
        gens.append(block2(zero, top, bottom, zero))

    one = block2(eye, zero, zero, eye)
    try:
        phi = extend_universal(space, gens, one)
    except CliffordRelationError as err:
        raise CatalogError(
            f"family {family} at n={n}: relation failure at {err.pair}"
        ) from err
    if not phi.injective:
        raise CatalogError(
            f"family {family} at n={n}: monomial rank {phi.monomial_rank} != {1 << space.rank}"
        )
    return gens

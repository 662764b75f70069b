"""Suslin matrices: the doubling recursion, their companion matrices, the
signed-permutation conjugators, and explicit Clifford generators for the
small split quadratic spaces."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .algmat import AlgMatrix, CliffordCoeffs, block2, lift_scalar_matrix
from .clifford import CliffordRelationError, extend_universal, monomial
from .embedding import Embedding, InvolutionForm, PhiMap, build_phi
from .qspace import QuadraticSpace, diagonal_space, hyperbolic, orthogonal_sum
from .scalars import (
    QQ,
    Ring,
    RingError,
    Scalar,
    ScalarMatrix,
    ShapeError,
    ZZ,
    rank_over_fractions,
)


@dataclass(frozen=True)
class SuslinPair:
    """Two coordinate rows of equal length n+1; the matrices have size 2**n."""

    v: tuple
    w: tuple

    def __post_init__(self):
        if len(self.v) != len(self.w):
            raise ShapeError("coordinate rows must have equal length")
        if not self.v:
            raise ShapeError("coordinate rows must be non-empty")
        ring = self.v[0].ring
        for s in self.v + self.w:
            if s.ring is not ring:
                raise RingError("coordinates must share one ring")

    @property
    def ring(self) -> Ring:
        return self.v[0].ring

    @property
    def size(self) -> int:
        return 1 << (len(self.v) - 1)

    def dot(self) -> Scalar:
        acc = self.ring.zero
        for a, b in zip(self.v, self.w):
            acc = acc + a * b
        return acc


def suslin_pair(ring: Ring, v, w) -> SuslinPair:
    conv = lambda xs: tuple(x if isinstance(x, Scalar) else ring(x) for x in xs)
    return SuslinPair(conv(v), conv(w))


def _recurse(v, w, ring):
    """Rows of (S, Sbar) for coordinate tuples of length n+1."""
    if len(v) == 1:
        return [[v[0]]], [[w[0]]]
    a0, b0 = v[0], w[0]
    s1, sb1 = _recurse(v[1:], w[1:], ring)
    h = len(s1)
    zero = ring.zero
    s_rows, sbar_rows = [], []
    for i in range(h):
        diag = [a0 if i == j else zero for j in range(h)]
        s_rows.append(diag + s1[i])
        sbar_rows.append([b0 if i == j else zero for j in range(h)] + [-x for x in s1[i]])
    for i in range(h):
        s_rows.append([-x for x in sb1[i]] + [b0 if i == j else zero for j in range(h)])
        sbar_rows.append(sb1[i] + [a0 if i == j else zero for j in range(h)])
    return s_rows, sbar_rows


def suslin(p: SuslinPair) -> ScalarMatrix:
    """The recursive block matrix attached to the coordinate pair."""
    rows, _ = _recurse(p.v, p.w, p.ring)
    return ScalarMatrix.from_rows(rows)


def suslin_bar(p: SuslinPair) -> ScalarMatrix:
    """The companion matrix; multiplying the two gives dot(v, w) times I."""
    _, rows = _recurse(p.v, p.w, p.ring)
    return ScalarMatrix.from_rows(rows)


def bar_pair(p: SuslinPair) -> SuslinPair:
    """The coordinate pair of the companion: suslin(bar_pair(p)) equals
    suslin_bar(p), and the map is an involution."""
    v = (p.w[0],) + tuple(-x for x in p.v[1:])
    w = (p.v[0],) + tuple(-x for x in p.w[1:])
    return SuslinPair(v, w)


@dataclass
class SuslinIdentityReport:
    n: int
    dot: Scalar
    product_ok: bool
    det_ok: bool | None  # None when the determinant kernel cannot run
    failures: list

    @property
    def passed(self) -> bool:
        return self.product_ok and self.det_ok is not False

    def to_json(self):
        return {
            "n": self.n,
            "dot": str(self.dot),
            "product_ok": self.product_ok,
            "det_ok": self.det_ok,
            "failures": list(self.failures),
        }


def check_suslin_identities(p: SuslinPair) -> SuslinIdentityReport:
    """Verify the two defining identities of the pair, exactly."""
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
    det_ok: bool | None
    if n == 0:
        det_ok = None
    else:
        try:
            det = s.determinant()
        except RingError:
            det_ok = None
        else:
            want = p.ring.one
            for _ in range(1 << (n - 1)):
                want = want * dot
            det_ok = det == want
            if not det_ok:
                failures.append(
                    {"identity": "determinant", "left": str(det), "right": str(want)}
                )
    return SuslinIdentityReport(n, dot, product_ok, det_ok, failures)


class DerivationError(RuntimeError):
    """The signed-permutation search exhausted without a conjugator."""


@dataclass(frozen=True)
class JMatrix:
    """Signed permutation J with J J^T = I conjugating transposes of the
    size-2**(n-1) matrices back into the family."""

    n: int
    size: int
    matrix: ScalarMatrix  # over Z, entries in {-1, 0, 1}
    bar_case: bool  # True when conjugation lands on the companion matrix
    candidates_tried: int

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


@lru_cache(maxsize=3)
def derive_j(n: int) -> JMatrix:
    """Search the signed permutations of size 2**(n-1) for the conjugator.

    The defining identity is linear in the coordinate pair, so checking it
    on the 2n unit-vector pairs settles it for every pair.  Candidates are
    enumerated permutation-first, plus signs before minus; the first match
    is returned, which keeps the result deterministic.  The result depends
    on n alone, so each of the three searches runs once per process.
    """
    if not 1 <= n <= 3:
        raise ShapeError("exhaustive search supports sizes 1, 2 and 4 only")
    size = 1 << (n - 1)
    bar_case = n % 2 == 0
    unit_pairs = []
    for k in range(n):
        coords = [1 if i == k else 0 for i in range(n)]
        zero = [0] * n
        unit_pairs.append(suslin_pair(ZZ, coords, zero))
        unit_pairs.append(suslin_pair(ZZ, zero, coords))
    targets = []
    for p in unit_pairs:
        s = suslin(p)
        target = suslin_bar(p) if bar_case else s
        targets.append((s.transpose(), target))

    tried = 0
    for perm in itertools.permutations(range(size)):
        for signs in itertools.product((1, -1), repeat=size):
            tried += 1
            rows = [[0] * size for _ in range(size)]
            for i in range(size):
                rows[i][perm[i]] = signs[i]
            j = ScalarMatrix.of_ints(ZZ, rows)
            jt = j.transpose()
            if all(j * st * jt == target for st, target in targets):
                if j * jt != ScalarMatrix.identity(size, ZZ):
                    continue
                return JMatrix(n, size, j, bar_case, tried)
    raise DerivationError(f"no signed permutation of size {size} satisfies the identity")


def suslin_embedding(n: int, ring: Ring) -> Embedding:
    """The hyperbolic space of rank 2n realised by size 2**(n-1) matrices.

    Coordinates are ordered (a_0..a_{n-1}, b_0..b_{n-1}), matching the
    (e's, f's) order of the hyperbolic space directly.  The bar isometry
    swaps a_0 with b_0 and negates the tails.
    """
    if n < 2:
        raise ShapeError("rank-2 hyperbolic space does not fit into 1x1 matrices")
    space = hyperbolic(n, ring)
    rho = []
    for k in range(n):
        coords = [1 if i == k else 0 for i in range(n)]
        rho.append(suslin(suslin_pair(ring, coords, [0] * n)))
    for k in range(n):
        coords = [1 if i == k else 0 for i in range(n)]
        rho.append(suslin(suslin_pair(ring, [0] * n, coords)))
    alpha_rows = [[ring(0)] * (2 * n) for _ in range(2 * n)]
    alpha_rows[0][n] = ring(1)
    alpha_rows[n][0] = ring(1)
    for i in range(1, n):
        alpha_rows[i][i] = ring(-1)
        alpha_rows[n + i][n + i] = ring(-1)
    alpha = ScalarMatrix.from_rows(alpha_rows)
    involution = None
    a_star = None
    if n <= 3:
        j = derive_j(n)
        a_star = j.star_map(ring)
        involution = InvolutionForm(2 if j.bar_case else 1, ring.one)
    return Embedding(
        space,
        ring,
        1 << (n - 1),
        rho,
        alpha,
        involution=involution,
        a_star=a_star,
    )


def hyperbolic_clifford_iso(n: int, ring: Ring) -> PhiMap:
    """Build the rank-2n hyperbolic embedding and certify bijectivity.

    All 4**n monomial images must be linearly independent; since the target
    matrix algebra has dimension (2**n)**2 = 4**n, independence is the same
    as bijectivity.
    """
    if not 2 <= n <= 3:
        raise ShapeError("rank check supported for n in {2, 3}")
    if ring not in (ZZ, QQ):
        raise RingError("rank check needs Z or Q coefficients")
    phi = build_phi(suslin_embedding(n, ring))
    assert phi.monomial_rank == 1 << (2 * n)
    return phi


class CatalogError(ValueError):
    """A generator family violates its stated relations."""


FAMILIES = ("hyperbolic2n", "odd2n1", "even2n2")


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
    and, over Z or Q, that the monomial images span the full expected
    dimension 2**rank(V).
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
        diag = AlgMatrix(
            algebra,
            [
                [l if i == j else algebra.zero() for j in range(half)]
                for i in range(half)
            ],
        )
        gens.append(block2(diag, zero, zero, -diag))
    unit_pairs = []
    for k in range(n):
        unit = [1 if i == k else 0 for i in range(n)]
        unit_pairs.append(suslin_pair(ring, unit, [0] * n))
    for k in range(n):
        unit = [1 if i == k else 0 for i in range(n)]
        unit_pairs.append(suslin_pair(ring, [0] * n, unit))
    for p in unit_pairs:
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
    if ring in (ZZ, QQ):
        rank = rank_over_fractions([phi.image_of_mask(m) for m in range(1 << space.rank)])
        if rank != 1 << space.rank:
            raise CatalogError(
                f"family {family} at n={n}: monomial rank {rank} != {1 << space.rank}"
            )
    return gens

"""Reference computations the benchmark checks the program against.

Stdlib only and independent of `quadembed`: every function here takes plain
ints, Fractions, lists and dicts, so a fault in the package cannot leak into
the answer it is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction


# -- dense linear algebra over Q and Z/m ---------------------------------------


def _integral(rows):
    """Rows scaled to integers: (integer rows, product of the row scales)."""
    out, scale = [], 1
    for row in rows:
        row = [Fraction(x) for x in row]
        den = math.lcm(*(x.denominator for x in row))
        out.append([int(x * den) for x in row])
        scale *= den
    return out, scale


def _fraction_free(rows) -> tuple[int, int]:
    """Fraction-free forward elimination of an integer matrix.

    Returns (rank, signed last pivot); the signed last pivot of a square
    matrix of full rank is its determinant.  After each step the entries are
    minors of the original matrix, so the division by the previous pivot is
    exact.
    """
    m = [list(row) for row in rows]
    nrows, ncols = len(m), len(m[0])
    rank, prev, sign = 0, 1, 1
    for c in range(ncols):
        p = next((i for i in range(rank, nrows) if m[i][c]), None)
        if p is None:
            continue
        if p != rank:
            m[rank], m[p] = m[p], m[rank]
            sign = -sign
        pivot = m[rank]
        pc = pivot[c]
        for i in range(rank + 1, nrows):
            f = m[i][c]
            m[i] = [(x * pc - f * y) // prev for x, y in zip(m[i], pivot)]
        prev = pc
        rank += 1
        if rank == nrows:
            break
    return rank, sign * prev


def det(rows) -> Fraction:
    """Determinant of a square matrix of ints or Fractions."""
    if len(rows) != len(rows[0]):
        raise ValueError("square matrix required")
    ints, scale = _integral(rows)
    rank, last = _fraction_free(ints)
    return Fraction(last, scale) if rank == len(rows) else Fraction(0)


def det_mod(rows, m: int) -> int:
    """Determinant over Z/m: the integer determinant reduced mod m."""
    return int(det(rows)) % m


def rank(rows) -> int:
    """Rank over the fraction field."""
    return _fraction_free(_integral(rows)[0])[0]


def matmul(a, b, m: int | None = None):
    """Plain triple-loop product; entries reduced mod m when m is given."""
    n, inner, k = len(a), len(b), len(b[0])
    if len(a[0]) != inner:
        raise ValueError("inner dimensions differ")
    out = [[sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(k)] for i in range(n)]
    if m is not None:
        out = [[x % m for x in row] for row in out]
    return out


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def apply(a, x, m: int | None = None):
    """Matrix times column vector."""
    return [row[0] for row in matmul(a, [[v] for v in x], m)]


def transpose(a):
    return [list(col) for col in zip(*a)]


# -- Suslin matrices -----------------------------------------------------------


def suslin_int(v, w):
    """(S, S-bar) of the coordinate rows v, w of length n+1, size 2**n.

    S(a0 + v', b0 + w') = [[a0 I, S'], [-S-bar', b0 I]] and
    S-bar = [[b0 I, -S'], [S-bar', a0 I]], with S(a0, b0) = [[a0]], [[b0]].
    """
    if len(v) == 1:
        return [[v[0]]], [[w[0]]]
    s1, sb1 = suslin_int(v[1:], w[1:])
    h = len(s1)
    a0, b0 = v[0], w[0]

    def scal(x):
        return [[x if i == j else 0 for j in range(h)] for i in range(h)]

    def neg(mat):
        return [[-x for x in row] for row in mat]

    def blocks(tl, tr, bl, br):
        return [l + r for l, r in zip(tl, tr)] + [l + r for l, r in zip(bl, br)]

    s = blocks(scal(a0), s1, neg(sb1), scal(b0))
    sbar = blocks(scal(b0), neg(s1), sb1, scal(a0))
    return s, sbar


# J for n = 3, worked by hand: J S^T J^T = S for every 4x4 Suslin matrix S,
# so m -> J m^T J^T is the involution of M_4 fixing the rank-6 embedding.
J3 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]


def star3(m):
    """The involution m -> J3 m^T J3^T of M_4."""
    return matmul(matmul(J3, transpose(m)), transpose(J3))


def suslin_coords(m, n: int):
    """The coordinates (a, b), concatenated, of the size 2**(n-1) Suslin
    matrix m = S(a, b), or None if m is not one.  Each coordinate is read
    off the first entry where its basis matrix is nonzero, then S(a, b) is
    rebuilt and compared with m."""
    coords = []
    for i in range(2 * n):
        unit = [1 if k == i else 0 for k in range(2 * n)]
        s = suslin_int(unit[:n], unit[n:])[0]
        r, c = next((r, c) for r, row in enumerate(s) for c, x in enumerate(row) if x)
        coords.append(Fraction(m[r][c]) / s[r][c])
    if suslin_int(coords[:n], coords[n:])[0] != m:
        return None
    return coords


def hyperbolic_q(coords) -> Fraction:
    """q(a, b) = a . b on the hyperbolic space of rank 2n."""
    n = len(coords) // 2
    return sum((coords[i] * coords[n + i] for i in range(n)), Fraction(0))


def j_conjugates(j, n: int, pairs) -> list[str]:
    """Failures of J J^T = I and J S^T J^T = S (odd n) or S-bar (even n).

    `pairs` are (v, w) coordinate rows of length n; S has size 2**(n-1).
    """
    failures = []
    jt = transpose(j)
    if matmul(j, jt) != identity(len(j)):
        failures.append(f"n={n}: J J^T != I")
    for v, w in pairs:
        s, sbar = suslin_int(v, w)
        want = s if n % 2 else sbar
        if matmul(matmul(j, transpose(s)), jt) != want:
            failures.append(f"n={n}: J S^T J^T wrong for {v},{w}")
    return failures


# -- Clifford algebras ---------------------------------------------------------


def reorder_sign(m1: int, m2: int) -> int:
    """Sign of sorting e_m1 e_m2 into increasing generator order.

    Each generator j of m2 passes the generators of m1 with a larger index.
    """
    swaps = 0
    j = 0
    rest = m2
    while rest:
        if rest & 1:
            swaps += bin(m1 >> (j + 1)).count("1")
        rest >>= 1
        j += 1
    return -1 if swaps % 2 else 1


def diag_mono_product(m1: int, m2: int, qs) -> tuple[int, int]:
    """e_m1 e_m2 in Cl(diag(qs)): (mask, coefficient)."""
    c = reorder_sign(m1, m2)
    shared = m1 & m2
    i = 0
    while shared:
        if shared & 1:
            c *= qs[i]
        shared >>= 1
        i += 1
    return m1 ^ m2, c


def diag_product(a: dict, b: dict, qs) -> dict:
    """Product of two elements {mask: coeff} of a diagonal Clifford algebra."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m, c = diag_mono_product(m1, m2, qs)
            out[m] = out.get(m, 0) + c * c1 * c2
    return {m: c for m, c in out.items() if c}


def diag_reversal(a: dict) -> dict:
    """The standard involution (reversal composed with grade involution) on
    an orthogonal basis: e_mask -> (-1)^(k(k+1)/2) e_mask, k the grade."""
    out = {}
    for m, c in a.items():
        k = bin(m).count("1")
        out[m] = -c if (k * (k + 1) // 2) % 2 else c
    return out


def q_value(qmat, x) -> int:
    """q(x) = sum over i <= j of Q[i][j] x_i x_j, Q upper triangular."""
    n = len(x)
    return sum(qmat[i][j] * x[i] * x[j] for i in range(n) for j in range(i, n))


def polar(qmat, x, y) -> int:
    """B(x, y) = q(x + y) - q(x) - q(y)."""
    s = [a + b for a, b in zip(x, y)]
    return q_value(qmat, s) - q_value(qmat, x) - q_value(qmat, y)


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def scale(a: dict, s) -> dict:
    return {m: s * c for m, c in a.items() if s * c}


def scalar(c) -> dict:
    return {0: c} if c else {}

"""Exact scalar arithmetic over Z, Q and Z/m, and the linear solvers built on it.

Every value is immutable and every operation is pure; there is no floating
point anywhere in the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter, mul


_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


class RingError(ValueError):
    """Operation not supported over the given ring."""


class ShapeError(ValueError):
    """Matrix or vector shapes do not line up."""


class Ring:
    """Base class for the supported coefficient rings.

    Instances are interned, so rings compare (and hash) by identity.
    """

    name = "?"

    def normalize(self, value):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def is_unit_value(self, a) -> bool:
        raise NotImplementedError

    def is_nzd_value(self, a) -> bool:
        raise NotImplementedError

    def inverse_value(self, a):
        raise NotImplementedError

    def format_value(self, a) -> str:
        return str(a)

    def __call__(self, value) -> "Scalar":
        return Scalar(self.normalize(value), self)

    @property
    def zero(self) -> "Scalar":
        return Scalar(self.normalize(0), self)

    @property
    def one(self) -> "Scalar":
        return Scalar(self.normalize(1), self)

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    name = "Z"

    def normalize(self, value):
        if isinstance(value, bool):
            raise RingError("booleans are not ring elements")
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise RingError(f"{value} is not an integer")
            return int(value)
        raise RingError(f"cannot interpret {value!r} as an integer")

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_unit_value(self, a):
        return a in (1, -1)

    def is_nzd_value(self, a):
        return a != 0

    def inverse_value(self, a):
        if a in (1, -1):
            return a
        raise RingError(f"{a} is not a unit in Z")


class RationalRing(Ring):
    name = "Q"

    def normalize(self, value):
        if isinstance(value, bool):
            raise RingError("booleans are not ring elements")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise RingError(f"cannot interpret {value!r} as a rational")

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_unit_value(self, a):
        return a != 0

    def is_nzd_value(self, a):
        return a != 0

    def inverse_value(self, a):
        if a == 0:
            raise RingError("0 is not a unit in Q")
        return 1 / Fraction(a)

    def format_value(self, a):
        return str(a)


class ModularRing(Ring):
    """Integers mod m, canonical representatives in [0, m)."""

    def __init__(self, modulus: int):
        if modulus < 2:
            raise RingError("modulus must be at least 2")
        self.modulus = modulus
        self.name = f"Z/{modulus}"

    def normalize(self, value):
        if isinstance(value, bool):
            raise RingError("booleans are not ring elements")
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise RingError(f"{value} is not an integer")
            value = int(value)
        if not isinstance(value, int):
            raise RingError(f"cannot interpret {value!r} mod {self.modulus}")
        return value % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def is_unit_value(self, a):
        return math.gcd(a, self.modulus) == 1

    def is_nzd_value(self, a):
        # In Z/m the non-zero divisors are exactly the units.
        return math.gcd(a, self.modulus) == 1

    def inverse_value(self, a):
        if math.gcd(a, self.modulus) != 1:
            raise RingError(f"{a} is not a unit mod {self.modulus}")
        return pow(a, -1, self.modulus)

    def format_value(self, a):
        return f"{a} mod {self.modulus}"


ZZ = IntegerRing()
QQ = RationalRing()


@lru_cache(maxsize=None)
def Zmod(modulus: int) -> ModularRing:
    """Interned ring of integers mod `modulus`."""
    return ModularRing(modulus)


def ring_from_name(name: str) -> Ring:
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    if name.startswith("Z/"):
        return Zmod(int(name[2:]))
    raise RingError(f"unknown ring {name!r}")


def json_field(data, key: str, kind, owner: str):
    """data[key] of a parsed JSON object, or a ValueError naming the field
    when `data` is not an object or the field is missing or not a `kind`."""
    value = data.get(key) if isinstance(data, dict) else None
    if value is None:
        raise ValueError(f"{owner} has no field {key!r}")
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{owner} field {key!r} has the wrong type")
    return value


class Scalar:
    """An exact element of one of the supported rings."""

    __slots__ = ("value", "ring")

    def __init__(self, value, ring: Ring):
        self.value = value
        self.ring = ring

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ring is not self.ring:
                raise RingError(f"mixed rings: {self.ring} and {other.ring}")
            return other.value
        return self.ring.normalize(other)

    def __add__(self, other):
        return Scalar(self.ring.add(self.value, self._coerce(other)), self.ring)

    __radd__ = __add__

    def __sub__(self, other):
        return Scalar(
            self.ring.add(self.value, self.ring.neg(self._coerce(other))), self.ring
        )

    def __rsub__(self, other):
        return Scalar(
            self.ring.add(self._coerce(other), self.ring.neg(self.value)), self.ring
        )

    def __mul__(self, other):
        return Scalar(self.ring.mul(self.value, self._coerce(other)), self.ring)

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(self.ring.neg(self.value), self.ring)

    def __eq__(self, other):
        # a plain number is equal only to its own value, so a residue mod m
        # equals only its canonical representative and the hash can agree
        if isinstance(other, Scalar):
            return self.ring is other.ring and self.value == other.value
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    @property
    def is_zero(self) -> bool:
        return not self.value

    def is_unit(self) -> bool:
        return self.ring.is_unit_value(self.value)

    def is_nonzerodivisor(self) -> bool:
        return self.ring.is_nzd_value(self.value)

    def inverse(self) -> "Scalar":
        return Scalar(self.ring.inverse_value(self.value), self.ring)

    def __str__(self):
        return self.ring.format_value(self.value)

    def __repr__(self):
        return f"{self} : {self.ring.name}"


def parse_scalar(text: str, ring: Ring) -> Scalar:
    """Inverse of str(): accepts "-7", "3/4" and "5 mod 6" style strings."""
    if not isinstance(text, str):
        raise RingError(f"scalar {text!r} is not a string")
    text = text.strip().replace("−", "-")
    if isinstance(ring, ModularRing):
        head = text.split("mod")[0].strip() if "mod" in text else text
        return ring(int(head))
    if "/" in text:
        if ring is not QQ:
            raise RingError(f"{text!r} is not an element of {ring.name}")
        num, den = text.split("/")
        return ring(Fraction(int(num), int(den)))
    return ring(int(text))


def _integer_row(scalars) -> tuple[list[int], int]:
    """(den * values, den) for the least den that clears every denominator."""
    values = [s.value for s in scalars]
    den = math.lcm(*map(_denominator, values))
    if den == 1:
        return list(map(_numerator, values)), 1
    return [v.numerator * (den // v.denominator) for v in values], den


def raw_row(scalars, ring: Ring) -> tuple[list[int], int]:
    """The values as integers over one denominator, which is 1 off Q."""
    if ring is QQ:
        return _integer_row(scalars)
    return [s.value for s in scalars], 1


class ScalarMatrix:
    """Dense matrix of Scalars over a single ring, row major and immutable."""

    __slots__ = ("rows", "cols", "ring", "entries")

    def __init__(self, rows: int, cols: int, entries, ring: Ring):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ShapeError(f"expected {rows * cols} entries, got {len(entries)}")
        for e in entries:
            if e.ring is not ring:
                raise RingError("all entries must share one ring")
        self.rows = rows
        self.cols = cols
        self.ring = ring
        self.entries = entries

    @classmethod
    def from_rows(cls, rows) -> "ScalarMatrix":
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ShapeError("matrix needs at least one entry")
        ring = rows[0][0].ring
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged rows")
        return cls(len(rows), width, [e for r in rows for e in r], ring)

    @classmethod
    def of_ints(cls, ring: Ring, rows) -> "ScalarMatrix":
        return cls.from_rows([[ring(v) for v in row] for row in rows])

    @classmethod
    def identity(cls, n: int, ring: Ring) -> "ScalarMatrix":
        return cls(n, n, [ring(1 if i == j else 0) for i in range(n) for j in range(n)], ring)

    @classmethod
    def zero(cls, rows: int, cols: int, ring: Ring) -> "ScalarMatrix":
        z = ring.zero
        return cls(rows, cols, [z] * (rows * cols), ring)

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int):
        return self.entries[j :: self.cols]

    @property
    def dim(self) -> int:
        """The size of a square matrix."""
        if self.rows != self.cols:
            raise ShapeError("matrix is not square")
        return self.rows

    def flatten(self) -> list[Scalar]:
        """The entries in row-major order."""
        return list(self.entries)

    def is_zero(self) -> bool:
        return not any(e.value for e in self.entries)

    def blocks2(self):
        """Split an even-dimensional square matrix into its four half-size blocks."""
        h, odd = divmod(self.dim, 2)
        if odd:
            raise ShapeError("need an even dimension")
        rows = [self.row(i) for i in range(self.rows)]
        return tuple(
            ScalarMatrix(h, h, [e for row in rows[r0 : r0 + h] for e in row[c0 : c0 + h]], self.ring)
            for r0 in (0, h)
            for c0 in (0, h)
        )

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape mismatch")
        if self.ring is not other.ring:
            raise RingError("ring mismatch")
        return ScalarMatrix(
            self.rows,
            self.cols,
            [a + b for a, b in zip(self.entries, other.entries)],
            self.ring,
        )

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return ScalarMatrix(self.rows, self.cols, [-a for a in self.entries], self.ring)

    def __mul__(self, other):
        """Integer dot products of the rows of A with the columns of B, each
        row and column scaled to integers over one denominator; a row that is
        at least half zero is dotted over its non-zero entries only.  Each
        output entry is normalised once."""
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError("inner dimensions do not match")
        if self.ring is not other.ring:
            raise RingError("ring mismatch")
        ring = self.ring
        cols, dens = zip(*(raw_row(other.col(j), ring) for j in range(other.cols)))
        whole = not any(db - 1 for db in dens)  # every column integral
        norm, zero = ring.normalize, ring.zero
        out = []
        for i in range(self.rows):
            row, da = raw_row(self.row(i), ring)
            nz = [k for k, x in enumerate(row) if x]
            if 2 * len(nz) <= len(row):
                row = [row[k] for k in nz]
                dots = [sum(map(mul, row, map(col.__getitem__, nz))) for col in cols]
            else:
                dots = [sum(map(mul, row, col)) for col in cols]
            if whole and da == 1:
                out += [Scalar(norm(d), ring) if d else zero for d in dots]
            else:
                out += [Scalar(Fraction(d, da * db), ring) if d else zero for d, db in zip(dots, dens)]
        return ScalarMatrix(self.rows, other.cols, out, ring)

    def scale(self, s: Scalar) -> "ScalarMatrix":
        return ScalarMatrix(self.rows, self.cols, [s * a for a in self.entries], self.ring)

    def apply(self, vec) -> list:
        """Matrix times column vector."""
        vec = list(vec)
        if len(vec) != self.cols:
            raise ShapeError("vector length does not match column count")
        return list((self * ScalarMatrix(self.cols, 1, vec, self.ring)).entries)

    def transpose(self) -> "ScalarMatrix":
        return ScalarMatrix(
            self.cols,
            self.rows,
            [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)],
            self.ring,
        )

    def is_square(self) -> bool:
        return self.rows == self.cols

    def determinant(self) -> Scalar:
        """Fraction-free; over Z/m the integer determinant of the residues, mod m."""
        if not self.is_square():
            raise ShapeError("determinant needs a square matrix")
        rows, dens = zip(*(_integer_row(self.row(i)) for i in range(self.rows)))
        pivots = []
        d, sign = _bareiss(list(rows), range(self.cols), pivots, jordan=False)
        if len(pivots) < self.rows:
            return self.ring.zero
        return self.ring(Fraction(sign * d, math.prod(dens)))

    def inverse(self) -> "ScalarMatrix":
        """Gauss-Jordan on [D A | D], D the row denominators, which leaves
        [d I | d A^-1] with d = +-det A; over Z/m the right block is the
        adjugate up to sign, so d must be a unit mod m."""
        if not self.is_square():
            raise ShapeError("inverse needs a square matrix")
        n = self.rows
        rows = []
        for i in range(n):
            row, den = _integer_row(self.row(i))
            rows.append(row + [den if j == i else 0 for j in range(n)])
        pivots = []
        d, _ = _bareiss(rows, range(n), pivots)
        if len(pivots) < n:
            raise RingError("matrix is not invertible")
        ring = self.ring
        dinv = Fraction(1, d) if ring in (ZZ, QQ) else ring.inverse_value(d % ring.modulus)
        try:
            return ScalarMatrix.of_ints(ring, [[x * dinv for x in row[n:]] for row in rows])
        except RingError:
            raise RingError("determinant is not a unit, no inverse in the ring") from None

    def __eq__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.ring is other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.ring, self.entries))

    def to_json(self):
        return [[str(self.entry(i, j)) for j in range(self.cols)] for i in range(self.rows)]

    @classmethod
    def from_json(cls, data, ring: Ring) -> "ScalarMatrix":
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ShapeError("a matrix is a JSON list of rows")
        return cls.from_rows([[parse_scalar(v, ring) for v in row] for row in data])

    def __repr__(self):
        return "\n".join(" ".join(str(e).rjust(4) for e in self.row(i)) for i in range(self.rows))


def _bareiss(rows, cols, pivots, prev=1, jordan=True):
    """Fraction-free elimination (Bareiss 1968) of integer rows, in place.

    Pivots on `cols` in order, appending each pivot column to `pivots`;
    pivot t moves to row t.  Every entry stays a minor of the input, so each
    division is exact.  With `jordan` the pivot columns are cleared above
    the pivot too, and every pivot row holds the last pivot d.  Passing the
    earlier pivots and d as `prev` resumes an elimination.  Returns d and
    the sign of the row permutation."""
    n = len(rows)
    sign = 1
    for c in cols:
        r = len(pivots)
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        prow = rows[r]
        pc = prow[c]
        for i in range(0 if jordan else r + 1, n):
            f = rows[i][c]
            if i != r and (f or pc != prev):
                rows[i] = [(x * pc - f * y) // prev for x, y in zip(rows[i], prow)]
        pivots.append(c)
        prev = pc
    return prev, sign


def _echelon(rows, ncols: int, modulus: int) -> list[int]:
    """Howell form of integer rows mod m by extended-gcd row steps, in place.

    Each step replaces two rows by a unimodular combination with their gcd
    above a zero; each pivot row times m/gcd(pivot, m) is appended and
    reduced too.  That gives the Howell property (the weak Howell form of
    Storjohann and Mulders): the rows from pivot t on span every vector of
    the row module that vanishes before column pivots[t].  Only the first
    `ncols` columns are pivoted, later ones ride along; rows past the last
    pivot are dropped.  Returns the pivot columns, pivot t in row t."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        for i in range(r + 1, len(rows)):
            a, b = rows[r][c], rows[i][c]
            if not b:
                continue
            # s a + t b = g with a, b >= 0; a = 0 gives s = 0, t = 1, a swap
            g = math.gcd(a, b)
            s = pow(a // g, -1, b // g)
            t = (g - s * a) // b
            a, b = a // g, b // g
            top = [(s * x + t * y) % modulus for x, y in zip(rows[r], rows[i])]
            rows[i] = [(a * y - b * x) % modulus for x, y in zip(rows[r], rows[i])]
            rows[r] = top
        p = rows[r][c]
        if not p:
            continue
        pivots.append(c)
        ann = [modulus // math.gcd(p, modulus) * x % modulus for x in rows[r]]
        if any(ann):
            rows.append(ann)
    del rows[len(pivots):]
    return pivots


def _howell_solve(rows, pivots, modulus: int, b: list[int], k: int) -> list[int] | None:
    """Forward substitution along rows [H | U] from `_echelon`: y with
    y H = b mod m, returned as y U, or None when b is outside the span.
    The Howell property makes the greedy choice at each pivot safe."""
    x = [0] * k
    n = len(b)
    for row, c in zip(rows, pivots):
        v = b[c] % modulus
        if not v:
            continue
        # y with row[c] y = v: v/g times (row[c]/g)^-1 mod m/g
        g = math.gcd(row[c], modulus)
        if v % g:
            return None
        y = v // g * pow(row[c] // g, -1, modulus // g)
        b = [bi - y * h for bi, h in zip(b, row)]
        x = [xi + y * h for xi, h in zip(x, row[n:])]
    if any(bi % modulus for bi in b):
        return None
    return x


def solve_in_ring(a: ScalarMatrix, b) -> list[Scalar] | None:
    """Solve A x = b with x inside the ring of A, or return None.

    One solve against the span of the columns of A (see SpanSolver): over Q
    the solution with the free variables at zero, over Z and Z/m a solution
    in the ring whenever one exists."""
    b = list(b)
    if len(b) != a.rows:
        raise ShapeError("right-hand side length does not match row count")
    for e in b:
        if e.ring is not a.ring:
            raise RingError("right-hand side must live in the matrix ring")
    return SpanSolver([a.col(j) for j in range(a.cols)], a.ring).solve(b)


def rank_over_fractions(a: ScalarMatrix) -> int:
    """Rank of A over the fraction field (Z or Q coefficients only)."""
    if isinstance(a.ring, ModularRing):
        raise RingError("rank over fractions is not defined for modular rings")
    pivots = []
    rows = [_integer_row(a.row(i))[0] for i in range(a.rows)]
    _bareiss(rows, range(a.cols), pivots, jordan=False)
    return len(pivots)


class SpanSolver:
    """The span of column vectors over Z, Q or Z/m, for repeated solves and
    for growing the span one vector at a time.

    Over Z and Q, fraction-free Gauss-Jordan on [I | A] (columns scaled to
    integers) leaves T with T A = d R, R reduced, and a solve is one dot
    product per row of T over the one denominator d.  Over Z the free part
    x_F must then make the pivot rows y - N x_F divisible by d, a system
    mod |d| solved on its Howell form.  Over Z/m a solve is a forward
    substitution along the Howell form of [A^T | I].  `rank` counts pivots:
    over Z and Q, the rank over the fraction field."""

    def __init__(self, columns, ring: Ring):
        columns = [list(col) for col in columns]
        if not columns:
            raise ShapeError("need at least one spanning vector")
        self.ring = ring
        self.n = n = len(columns[0])
        self.k = len(columns)
        self.pivots = []
        if isinstance(ring, ModularRing):
            self._rows = [
                [s.value for s in col] + [int(i == j) for j in range(self.k)]
                for i, col in enumerate(columns)
            ]
            self.pivots = _echelon(self._rows, n, ring.modulus)
            return
        cols = [_integer_row(col) for col in columns]
        self._scales = [den for _, den in cols]
        self._rows = [
            [int(i == j) for j in range(n)] + [col[i] for col, _ in cols]
            for i in range(n)
        ]
        self._d, _ = _bareiss(self._rows, range(n, n + self.k), self.pivots)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _image(self, values) -> list[int]:
        """T times an integer vector, over the vector's non-zero entries."""
        nz = [(j, v) for j, v in enumerate(values) if v]
        return [sum(row[j] * v for j, v in nz) for row in self._rows]

    def solve(self, target) -> list[Scalar] | None:
        target = list(target)
        if len(target) != self.n:
            raise ShapeError("target length does not match span vectors")
        b, den = _integer_row(target)
        ring, r = self.ring, self.rank
        if isinstance(ring, ModularRing):
            x = _howell_solve(self._rows, self.pivots, ring.modulus, b, self.k)
            return None if x is None else [ring(v) for v in x]
        ys = self._image(b)
        if any(ys[r:]):
            return None
        x = [0] * self.k
        if ring is ZZ:
            m = abs(self._d)
            free = [j for j in range(self.n, self.n + self.k) if j not in self.pivots]
            rows = [
                [row[j] % m for row in self._rows[:r]] + [int(i == f) for f in range(len(free))]
                for i, j in enumerate(free)
            ]
            xf = _howell_solve(rows, _echelon(rows, r, m), m, ys[:r], len(free))
            if xf is None:
                return None
            for j, v in zip(free, xf):
                x[j - self.n] = v
                ys = [y - row[j] * v for y, row in zip(ys, self._rows)]
        for y, c in zip(ys, self.pivots):
            c -= self.n
            x[c] = Fraction(y * self._scales[c], self._d * den)
        return [ring(v) for v in x]

    def add(self, vec) -> bool:
        """Adjoin `vec` as one more spanning vector unless the span already
        holds it; returns whether it was adjoined."""
        vec = list(vec)
        if len(vec) != self.n:
            raise ShapeError("vector length does not match span vectors")
        if self.ring is not QQ and self.solve(vec) is not None:
            return False
        if isinstance(self.ring, ModularRing):
            for row in self._rows:
                row.append(0)
            self._rows.append([s.value for s in vec] + [0] * self.k + [1])
            self.pivots = _echelon(self._rows, self.n, self.ring.modulus)
        else:
            v, den = _integer_row(vec)
            w = self._image(v)
            if self.ring is QQ and not any(w[self.rank :]):
                return False
            for row, x in zip(self._rows, w):
                row.append(x)
            self._scales.append(den)
            self._d, _ = _bareiss(self._rows, [self.n + self.k], self.pivots, self._d)
        self.k += 1
        return True

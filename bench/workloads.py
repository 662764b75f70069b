"""The benchmark's workloads: seeded inputs, the timed op, and its check.

A workload runs in whole rounds.  Each round is the same fixed list of op
kinds with fresh seeded inputs, so the share of failed ops is the same in
every run.  `round()` builds the inputs (untimed), `run()` is the timed call
into the program, and `check()` compares each output with a computation made
apart from the program (`oracles`) or with a property the method must have.
A check returns None when the output is right, else the reason it is wrong.

Ops marked `fault` exercise a known defect of the program on inputs that do
not depend on the seed: the program answers None ("no solution") for a
solvable system.  That answer is counted as failed but does not make the run
incorrect; any other failure of such an op, an exception or a wrong
solution, does.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60


class Op:
    __slots__ = ("kind", "args", "fault")

    def __init__(self, kind: str, args: tuple, fault: bool = False):
        self.kind = kind
        self.args = args
        self.fault = fault


def python_child(args, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on `args` from the checkout root, with the
    checkout's `src` first on its path, and wait for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
        **kwargs,
    )


def import_package():
    """Put the checkout's `src` first on the path and import the package."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import quadembed  # noqa: F401  (the import is part of the timed set-up)


def values(cl_element) -> dict:
    """A Clifford element's terms as {mask: int or Fraction}."""
    return {m: c.value for m, c in cl_element.terms.items()}


# -- verify_cli --------------------------------------------------------------


class VerifyCli:
    """One fresh interpreter per op running `quadembed verify --suite all`.

    A round is four distinct seeds and a repeat of the first, whose report
    must be byte-identical to the first one's.
    """

    name = "verify_cli"
    in_process = False
    samples = 2
    seeds_per_round = 4
    setup_samples = 9
    tail_pct = 60
    min_rounds = 5

    def __init__(self):
        self.used: set[int] = set()

    def setup(self, seed: int) -> float:
        """Set-up of one op: importing the CLI module in a fresh interpreter."""
        code = (
            "import time; t = time.perf_counter(); import quadembed.cli; "
            "print(time.perf_counter() - t)"
        )
        return float(python_child(["-c", code], check=True).stdout)

    def round(self, seed: int, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}:{r}")
        ks = []
        while len(ks) < self.seeds_per_round:
            k = rng.randrange(1_000_000)
            if k not in self.used:
                self.used.add(k)
                ks.append(k)
        return [Op("verify", (k,)) for k in ks + ks[:1]]

    def argv(self, op: Op) -> list[str]:
        k = op.args[0]
        return ["verify", "--suite", "all", "--seed", str(k), "--samples", str(self.samples)]

    def run(self, op: Op, trace_out: Path | None = None):
        """Untraced: `python -m quadembed verify ...`.  With `trace_out`, the
        same command through the benchmark's tracing entry point."""
        if trace_out is None:
            return python_child(["-m", "quadembed", *self.argv(op)])
        entry = Path(__file__).with_name("cli_child.py")
        return python_child([str(entry), "--trace-out", str(trace_out), "--", *self.argv(op)])

    def check(self, ops: list[Op], outs: list) -> list[str | None]:
        reasons = [self._check_one(op, out) for op, out in zip(ops, outs)]
        first: dict = {}
        for i, (op, out) in enumerate(zip(ops, outs)):
            k = op.args[0]
            if k in first and reasons[i] is None and out.stdout != outs[first[k]].stdout:
                reasons[i] = f"seed {k}: a repeated run gave a different report"
            first.setdefault(k, i)
        return reasons

    def _check_one(self, op: Op, out) -> str | None:
        k = op.args[0]
        if out.returncode != 0:
            return f"seed {k}: exit {out.returncode}: {out.stderr.decode()[-300:]}"
        try:
            return check_verify_report(json.loads(out.stdout), k, self.samples)
        except (ValueError, KeyError, TypeError, IndexError) as err:
            return f"seed {k}: malformed report: {err!r}"

    def peak_rss_mb(self) -> float:
        """Largest child waited for so far (ru_maxrss is in KiB on Linux)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


CATALOG_COUNTS = {
    f"{family}:{n}": 2 * n + extra
    for family, extra in (("hyperbolic2n", 0), ("odd2n1", 1), ("even2n2", 2))
    for n in (1, 2)
}


def check_verify_report(rep: dict, k: int, samples: int) -> str | None:
    """Check one `verify --suite all` report against the benchmark's own
    Suslin recursion and the counts the paper fixes."""
    want_config = {"suite": "all", "seed": k, "samples": samples, "ring": "Z"}
    if rep["config"] != want_config:
        return f"seed {k}: config {rep['config']} != {want_config}"
    checks = {(s["suite"], c["name"]): c for s in rep["suites"] for c in s["checks"]}
    bad = [f"{s}/{c}" for (s, c), v in checks.items() if v["passed"] is not True]
    if bad or rep["passed"] is not True:
        return f"seed {k}: failed checks {bad}"

    rng = random.Random(f"verify_cli:j:{k}")
    j_info = checks[("suslin", "parity_law")]["info"]["j"]
    for n in (1, 2, 3):
        entry = j_info[str(1 << (n - 1))]
        if entry["n"] != n or entry["conjugates_to"] != ("same" if n % 2 else "bar"):
            return f"seed {k}: J entry for n={n} is {entry}"
        j = [[int(x) for x in row] for row in entry["j"]]
        pairs = [
            ([rng.randint(-9, 9) for _ in range(n)], [rng.randint(-9, 9) for _ in range(n)])
            for _ in range(4)
        ]
        failures = oracles.j_conjugates(j, n, pairs)
        if failures:
            return f"seed {k}: {failures[0]}"

    ranks = checks[("clifford", "suslin_faithfulness")]["info"]["ranks"]
    if ranks != {"2": 4**2, "3": 4**3}:
        return f"seed {k}: faithfulness ranks {ranks} != 4^n"
    gens = checks[("catalog", "families")]["info"]["generators"]
    if gens != CATALOG_COUNTS:
        return f"seed {k}: catalog counts {gens} != {CATALOG_COUNTS}"
    got = [(r["lemma"], r["samples"]) for r in checks[("spin", "lemmas")]["info"]["reports"]]
    want = [(name, samples) for name in ("4.1", "4.2", "4.3", "4.4")]
    if got != want:
        return f"seed {k}: spin lemma samples {got} != {want}"
    return None


# -- in-process workloads ----------------------------------------------------


class InProcess:
    in_process = True

    def run(self, op: Op):
        return getattr(self, "op_" + op.kind)(*op.args)

    def check(self, ops: list[Op], outs: list) -> list[str | None]:
        return [getattr(self, "check_" + op.kind)(op, out) for op, out in zip(ops, outs)]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- clifford_products ---------------------------------------------------------

# Warm pool: (label, rank, diagonal, alphabet size or None for every mask).
# Spaces with an alphabet draw their element terms from a fixed set of
# masks, so their warm-up fills only the table entries those products touch;
# the full table of a general rank-8 form takes about 20 s and 200 MB to fill.
POOL = [
    ("D6", 6, True, None),
    ("D8", 8, True, 10),
    ("G5", 5, False, None),
    ("G6", 6, False, None),
    ("G7", 7, False, 10),
    ("G8", 8, False, 6),
]
# Per round: (pool label, op kind, count).  Reversal ops multiply reversed
# elements, which have arbitrary masks, so on general forms they run only
# where the whole table is warm.
WARM_OPS = [
    ("D6", "product", 2), ("D6", "reversal", 1), ("D6", "triple", 1),
    ("D8", "product", 2), ("D8", "reversal", 1), ("D8", "triple", 1),
    ("G5", "product", 2), ("G5", "reversal", 1), ("G5", "triple", 1),
    ("G6", "product", 2), ("G6", "reversal", 1), ("G6", "triple", 1),
    ("G7", "product", 2), ("G7", "triple", 1),
    ("G8", "product", 1), ("G8", "triple", 1),
]
# Per round: (rank, diagonal, op kind), each on a space not seen before in
# the run: one op in eight, so the op_tail percentile falls among them.
COLD_OPS = [(6, False, "triple"), (8, True, "triple"), (7, False, "product")]
TERMS = (4, 6)
COEFFS = (-3, -2, -1, 1, 2, 3)


class CliffordProducts(InProcess):
    """Products, reversals and associativity triples in Cl(V, q), rank 5-8."""

    name = "clifford_products"
    tail_pct = 95
    min_rounds = 10
    setup_samples = 5

    def __init__(self):
        self.pool: dict = {}
        self.seen: set = set()

    def setup(self, seed: int) -> None:
        import_package()
        from quadembed.clifford import CliffordElement, standard_involution

        # The pool is the same for every seed: its forms and alphabets set
        # the cost of the warm ops, so the seed varies only the elements.
        rng = random.Random(f"{self.name}:pool")
        for label, rank, diagonal, alpha in POOL:
            space, qrows = self._space(rng, rank, diagonal)
            masks = list(range(1 << rank))
            alphabet = sorted(rng.sample(masks, alpha)) if alpha else masks
            self.pool[label] = (space, qrows, diagonal, alphabet)
            one = space.ring.one
            full = CliffordElement(space, {m: one for m in masks})
            if alpha:
                part = CliffordElement(space, {m: one for m in alphabet})
                vec = CliffordElement(space, {1 << i: one for i in range(rank)})
                for x, y in ((full, part), (part, full), (vec, full)):
                    x * y
            else:
                full * full
            if diagonal or not alpha:
                standard_involution(full)

    def _space(self, rng, rank: int, diagonal: bool):
        from quadembed.qspace import QuadraticSpace
        from quadembed.scalars import ScalarMatrix, ZZ

        while True:
            qrows = [
                [
                    rng.choice(COEFFS) if j == i
                    else rng.choice((-2, -1, 1, 2)) if j > i and not diagonal
                    else 0
                    for j in range(rank)
                ]
                for i in range(rank)
            ]
            key = tuple(map(tuple, qrows))
            if key not in self.seen:
                self.seen.add(key)
                return QuadraticSpace(ScalarMatrix.of_ints(ZZ, qrows)), qrows

    def _terms(self, rng, masks) -> dict:
        return {rng.choice(masks): rng.choice(COEFFS) for _ in range(rng.randint(*TERMS))}

    def _element(self, space, terms: dict):
        from quadembed.clifford import CliffordElement

        return CliffordElement(space, {m: space.ring(c) for m, c in terms.items()})

    def _vector(self, rng, space):
        from quadembed.clifford import embed_vector

        coords = [rng.randint(-3, 3) for _ in range(space.rank)]
        return coords, embed_vector(space, coords)

    def _op(self, rng, kind, space, qrows, diagonal, masks) -> Op:
        """Program inputs first, then the raw terms and form the checks use."""
        if kind == "product" and not diagonal:
            u, eu = self._vector(rng, space)
            v, ev = self._vector(rng, space)
            b = self._terms(rng, masks)
            return Op("vector_product", (eu, ev, self._element(space, b), u, v, b, qrows))
        raw = [self._terms(rng, masks) for _ in range(3 if kind == "triple" else 2)]
        qs = [qrows[i][i] for i in range(len(qrows))] if diagonal else None
        return Op(kind, (*(self._element(space, t) for t in raw), raw, qs))

    def round(self, seed: int, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}:{r}")
        ops = []
        for label, kind, count in WARM_OPS:
            space, qrows, diagonal, alphabet = self.pool[label]
            ops += [self._op(rng, kind, space, qrows, diagonal, alphabet) for _ in range(count)]
        for rank, diagonal, kind in COLD_OPS:
            space, qrows = self._space(rng, rank, diagonal)
            ops.append(self._op(rng, kind, space, qrows, diagonal, range(1 << rank)))
        rng.shuffle(ops)
        return ops

    # ops: the timed calls into the program; `qs` is the diagonal of a
    # diagonal form and None for a general one

    def op_product(self, a, b, raw, qs):
        return a * b

    def op_vector_product(self, eu, ev, b, u, v, b_raw, qrows):
        p = eu * b
        return eu * eu, eu * ev, ev * eu, eu * p

    def op_reversal(self, a, b, raw, qs):
        from quadembed.clifford import standard_involution

        return standard_involution(a * b), standard_involution(b) * standard_involution(a)

    def op_triple(self, a, b, c, raw, qs):
        return (a * b) * c, a * (b * c)

    # checks

    def check_product(self, op, out):
        (a, b), qs = op.args[-2:]
        want = oracles.diag_product(a, b, qs)
        return None if values(out) == want else "diagonal product differs from the closed form"

    def check_vector_product(self, op, out):
        u, v, b, qrows = op.args[-4:]
        uu, uv, vu, uub = out
        qu = oracles.q_value(qrows, u)
        if values(uu) != oracles.scalar(qu):
            return "v*v != q(v)"
        if oracles.add(values(uv), values(vu)) != oracles.scalar(oracles.polar(qrows, u, v)):
            return "u*v + v*u != B(u, v)"
        if values(uub) != oracles.scale(b, qu):
            return "u*(u*b) != q(u) b"
        return None

    def check_reversal(self, op, out):
        (a, b), qs = op.args[-2:]
        lhs, rhs = values(out[0]), values(out[1])
        if lhs != rhs:
            return "reversal is not anti-multiplicative"
        if qs is not None and lhs != oracles.diag_reversal(oracles.diag_product(a, b, qs)):
            return "diagonal reversal differs from the closed form"
        return None

    def check_triple(self, op, out):
        (a, b, c), qs = op.args[-2:]
        left, right = values(out[0]), values(out[1])
        if left != right:
            return "product is not associative"
        if qs is not None and left != oracles.diag_product(oracles.diag_product(a, b, qs), c, qs):
            return "diagonal triple differs from the closed form"
        return None


# -- exact_linalg --------------------------------------------------------------

# (kind, ring, size, count per round).  Rings: "Z", "Q", a modulus m for
# Z/m, "Cl" for AlgMatrix entries in Cl(diag(CL_QS)) over Z, or "bed" for
# 4x4 matrices over Q on the spin suite's rank-6 test bed.  Z/m solves
# use matrices of determinant +-1, so every system has a solution; Z/61 and
# Z/49 are local rings, where elimination always finds a unit pivot, and the
# Z/12 systems are small enough for the enumeration over zero divisors.
LINALG_OPS = [
    ("det", "Z", 64, 1), ("det", "Z", 16, 2), ("det", "Q", 32, 1), ("det", "Q", 8, 2),
    ("det", 61, 8, 1), ("det", 12, 6, 1),
    ("rank", "Q", 64, 1), ("rank", "Z", 24, 2), ("rank", "Q", 12, 2),
    ("solve", "Q", 16, 1), ("solve", "Z", 12, 1), ("solve", 61, 16, 1),
    ("solve", 49, 8, 1), ("solve", 12, 4, 1),
    ("span", "Z", 48, 1), ("span", "Q", 24, 1),
    ("matmul", "Z", 32, 1), ("matmul", "Z", 8, 2), ("matmul", "Q", 12, 1), ("matmul", 61, 16, 1),
    ("algmul", "Z", 16, 1), ("algmul", "Q", 8, 2), ("algmul", "Cl", 4, 1),
    ("inverse", "Q", 12, 1), ("inverse", "Z", 10, 1), ("inverse", 61, 6, 1),
    ("spin_member", "bed", 4, 12), ("spin_norm", "bed", 4, 24),
]
SPAN_SOLVES = 10
# Fault (a): over Z the solvers set free variables to 0 and reject the
# non-integral result, so these underdetermined systems, built from the
# integral solutions shown, come back as "no solution".
FAULT_A = [
    ([[2, 3]], [-1, 1]),
    ([[2, 4, 3], [0, 6, 3]], [1, -1, 1]),
]
CL_QS = (-1, 3)


class ExactLinalg(InProcess):
    """Determinants, ranks, solves, span solves, products and inverses over
    Z, Q and Z/m, sizes 4 to 64, and the spin suite's per-sample path: the
    membership, norm and conjugation tests of the rank-6 spin bed, which run
    on the same kernels (AlgMatrix products over Q, SpanSolver solves,
    determinants and inverses)."""

    name = "exact_linalg"
    # at least ten ops beyond p99.5 in the shortest run (25 rounds of 93
    # ops); the percentile falls in the middle of the Z 48x16 span builds,
    # one a round, where its value is steadier than at their low end
    tail_pct = 99.5
    min_rounds = 25
    setup_samples = 9

    def setup(self, seed: int) -> None:
        import_package()
        from quadembed.algmat import CliffordCoeffs
        from quadembed.qspace import diagonal_space
        from quadembed.scalars import QQ, ZZ, Zmod
        from quadembed.spin import SpinContext
        from quadembed.suslin import suslin_embedding

        self.rings = {"Z": ZZ, "Q": QQ}
        self.rings.update({m: Zmod(m) for m in (61, 49, 12)})
        self.cl = CliffordCoeffs(diagonal_space(list(CL_QS), ZZ))
        self.fault_ops = self._fault_ops()
        # the spin suite's bed, built as the suite builds it; one op warms the
        # embedding's cached coordinate solver
        self.spin = SpinContext(suslin_embedding(3, QQ))
        self.run(self._spin_op(random.Random(f"{self.name}:warm"), "spin_member"))

    # inputs

    def _entries(self, rng, ring, n, k=None):
        if ring == "Q":
            return [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k or n)] for _ in range(n)]
        lo, hi = (-9, 9) if ring == "Z" else (0, ring - 1)
        return [[rng.randint(lo, hi) for _ in range(k or n)] for _ in range(n)]

    def _unimodular(self, rng, n, m=None):
        """L U with unit triangular factors (determinant 1), rows permuted."""
        low = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(n)] for i in range(n)]
        up = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
        a = oracles.matmul(low, up, m)
        rng.shuffle(a)
        return a

    def _invertible(self, rng, ring, n):
        while True:
            a = self._entries(rng, ring, n)
            if oracles.det(a):
                return a

    def _full_column_rank(self, rng, ring, n, k):
        while True:
            a = self._entries(rng, ring, n, k)
            if oracles.rank(a) == k:
                return a

    def _matrix(self, ring, rows):
        from quadembed.scalars import ScalarMatrix

        r = self.rings[ring]
        return ScalarMatrix.from_rows([[r(x) for x in row] for row in rows])

    def _vector(self, ring, xs):
        r = self.rings[ring]
        return [r(x) for x in xs]

    def _solution(self, rng, ring, n):
        if ring == "Q":
            return [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        if ring == "Z":
            return [rng.randint(-9, 9) for _ in range(n)]
        return [rng.randrange(ring) for _ in range(n)]

    def _alg(self, rng, ring, n):
        """(AlgMatrix, its raw entries: ints, Fractions or {mask: int})."""
        from quadembed.algmat import AlgMatrix
        from quadembed.clifford import CliffordElement

        if ring != "Cl":
            raw = self._entries(rng, ring, n)
            return AlgMatrix.from_scalar_matrix(self._matrix(ring, raw)), raw
        zz = self.rings["Z"]
        masks = range(1 << len(CL_QS))
        raw = [[{m: rng.randint(-3, 3) for m in masks} for _ in range(n)] for _ in range(n)]
        cells = [[CliffordElement(self.cl.space, {m: zz(c) for m, c in x.items()}) for x in row] for row in raw]
        return AlgMatrix(self.cl, cells), [[{m: c for m, c in x.items() if c} for x in row] for row in raw]

    def _spin_op(self, rng, kind) -> Op:
        """A product g of one to six elementary matrices I + t E_ij and a
        vector v, drawn as the spin suite draws them; for `spin_norm`, g is
        scaled by 2, 3 or 4 half the time (lemma 4.4 covers norms other
        than 1)."""
        from quadembed.algmat import AlgMatrix

        g = oracles.identity(4)
        for _ in range(rng.randint(1, 6)):
            i, j = rng.sample(range(4), 2)
            e = oracles.identity(4)
            e[i][j] = rng.randint(-2, 2)
            g = oracles.matmul(g, e)
        if kind == "spin_norm" and rng.random() < 0.5:
            s = rng.choice((2, 3, 4))
            g = [[s * x for x in row] for row in g]
        v = [rng.randint(-4, 4) for _ in range(6)]
        return Op(kind, (AlgMatrix.from_scalar_matrix(self._matrix("Q", g)), self._vector("Q", v), g, v))

    def _fault_ops(self) -> list[Op]:
        """Fault (a) on fixed systems: one-shot solve, span solve, span_coords."""
        from quadembed.algmat import AlgMatrix

        ops = []
        for rows, x in FAULT_A:
            b = oracles.apply(rows, x)
            cols = oracles.transpose(rows)
            ops.append(Op("solve", (self._matrix("Z", rows), self._vector("Z", b), rows, b, None), True))
            ops.append(Op("span_once", ([self._vector("Z", c) for c in cols], self._vector("Z", b), cols, b), True))
        rows, x = FAULT_A[0]
        b = oracles.apply(rows, x)
        cols = oracles.transpose(rows)
        basis = [AlgMatrix.from_scalar_matrix(self._matrix("Z", [c])) for c in cols]
        target = AlgMatrix.from_scalar_matrix(self._matrix("Z", [b]))
        ops.append(Op("span_coords", (basis, target, cols, b), True))
        return ops

    def round(self, seed: int, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}:{r}")
        ops = []
        for kind, ring, n, count in LINALG_OPS:
            m = ring if isinstance(ring, int) else None
            for _ in range(count):
                if kind in ("det", "rank"):
                    rows = self._entries(rng, ring, n)
                    if kind == "rank" and ring == "Q":
                        # rank n/2 at most: an integer n x n/2 times n/2 x n
                        # product, each row then divided by its own denominator
                        low = oracles.matmul(self._entries(rng, "Z", n, n // 2), self._entries(rng, "Z", n // 2, n))
                        rows = [[Fraction(x, d) for x in row] for row, d in zip(low, (rng.randint(1, 5) for _ in low))]
                    ops.append(Op(kind, (self._matrix(ring, rows), rows, m)))
                elif kind == "matmul":
                    rows, other = self._entries(rng, ring, n), self._entries(rng, ring, n)
                    ops.append(Op(kind, (self._matrix(ring, rows), self._matrix(ring, other), rows, other, m)))
                elif kind == "solve":
                    if m is not None:
                        rows = self._unimodular(rng, n, m)
                    elif ring == "Q":
                        rows = self._full_column_rank(rng, ring, n + 4, n)
                    else:
                        rows = self._invertible(rng, ring, n)
                    b = oracles.apply(rows, self._solution(rng, ring, n), m)
                    ops.append(Op(kind, (self._matrix(ring, rows), self._vector(ring, b), rows, b, m)))
                elif kind == "span":
                    k = n // 3
                    rows = self._full_column_rank(rng, ring, n, k)
                    cols = oracles.transpose(rows)
                    slot: list = []
                    ops.append(Op("span_build", ([self._vector(ring, c) for c in cols], self.rings[ring], slot, k)))
                    for _ in range(SPAN_SOLVES):
                        b = oracles.apply(rows, self._solution(rng, ring, k))
                        ops.append(Op("span_solve", (slot, self._vector(ring, b), cols, b)))
                elif kind == "algmul":
                    (a, a_raw), (b, b_raw) = self._alg(rng, ring, n), self._alg(rng, ring, n)
                    ops.append(Op(kind, (a, b, a_raw, b_raw, ring)))
                elif kind == "inverse":
                    rows = self._invertible(rng, ring, n) if ring == "Q" else self._unimodular(rng, n, m)
                    ops.append(Op(kind, (self._matrix(ring, rows), rows, m)))
                elif kind.startswith("spin_"):
                    ops.append(self._spin_op(rng, kind))
        return ops + self.fault_ops

    # ops

    def op_det(self, a, rows, m):
        return a.determinant()

    def op_rank(self, a, rows, m):
        from quadembed.scalars import rank_over_fractions

        return rank_over_fractions(a)

    def op_solve(self, a, b, rows, bvals, m):
        from quadembed.scalars import solve_in_ring

        return solve_in_ring(a, b)

    def op_span_build(self, columns, ring, slot, k):
        from quadembed.scalars import SpanSolver

        slot[:] = [SpanSolver(columns, ring)]
        return slot[0]

    def op_span_solve(self, slot, target, cols, b):
        return slot[0].solve(target)

    def op_span_once(self, columns, target, cols, b):
        from quadembed.scalars import SpanSolver

        return SpanSolver(columns, self.rings["Z"]).solve(target)

    def op_span_coords(self, basis, target, cols, b):
        from quadembed.algmat import span_coords

        return span_coords(basis, target)

    def op_matmul(self, a, b, rows, other, m):
        return a * b

    def op_algmul(self, a, b, a_raw, b_raw, ring):
        return a * b

    def op_inverse(self, a, rows, m):
        return a.inverse()

    def op_spin_member(self, g, v, g_rows, v_raw):
        """One sample of the spin suite's elementary family check."""
        ctx = self.spin
        in_g, d = ctx.is_in_g(g), ctx.norm_d(g)
        pair = ctx.chi_inverse(g)
        return in_g, d, pair, ctx.is_in_spin(pair), ctx.chi(pair), ctx.conjugation_coords(pair, v)

    def op_spin_norm(self, g, v, g_rows, v_raw):
        """One sample of lemma 4.4: the norm of g and the coordinates of g . v."""
        ctx = self.spin
        return ctx.norm_d(g), ctx.v_coords(ctx.bullet(g, v))

    # checks

    def check_det(self, op, out):
        _, rows, m = op.args
        want = oracles.det(rows) if m is None else oracles.det_mod(rows, m)
        return None if out.value == want else f"det {out.value} != {want}"

    def check_rank(self, op, out):
        want = oracles.rank(op.args[1])
        return None if out == want else f"rank {out} != {want}"

    def _substitutes(self, rows, sol, b, m=None):
        if sol is None:
            return "no solution returned for a solvable system"
        got = oracles.apply(rows, [s.value for s in sol], m)
        want = b if m is None else [x % m for x in b]
        return None if got == want else "solution does not substitute back"

    def check_solve(self, op, out):
        _, _, rows, b, m = op.args
        return self._substitutes(rows, out, b, m)

    def check_span_build(self, op, out):
        k = op.args[3]
        return None if out.rank == k else f"span rank {out.rank} != {k}"

    def check_span_solve(self, op, out):
        _, _, cols, b = op.args
        return self._substitutes(oracles.transpose(cols), out, b)

    check_span_once = check_span_solve
    check_span_coords = check_span_solve

    def check_matmul(self, op, out):
        _, _, rows, other, m = op.args
        got = [[out.entry(i, j).value for j in range(out.cols)] for i in range(out.rows)]
        return None if got == oracles.matmul(rows, other, m) else "matrix product differs from the triple loop"

    def check_algmul(self, op, out):
        _, _, a, b, ring = op.args
        n = len(a)
        if ring == "Cl":
            got = [[values(out.entry(i, j)) for j in range(n)] for i in range(n)]
            want = [[{} for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    for t in range(n):
                        want[i][j] = oracles.add(want[i][j], oracles.diag_product(a[i][t], b[t][j], CL_QS))
        else:
            got = [[out.entry(i, j).value for j in range(n)] for i in range(n)]
            want = oracles.matmul(a, b)
        return None if got == want else "AlgMatrix product differs from the triple loop"

    def check_inverse(self, op, out):
        _, rows, m = op.args
        n = len(rows)
        inv = [[out.entry(i, j).value for j in range(n)] for i in range(n)]
        return None if oracles.matmul(rows, inv, m) == oracles.identity(n) else "A * inverse(A) != I"

    @staticmethod
    def _conjugated(g, v):
        """By the oracles: the coordinates of g g* and of g S(v) g* in the
        rank-6 embedding, or None for a matrix outside it."""
        gs = oracles.star3(g)
        s_v = oracles.suslin_int(v[:3], v[3:])[0]
        return (
            oracles.suslin_coords(oracles.matmul(g, gs), 3),
            oracles.suslin_coords(oracles.matmul(oracles.matmul(g, s_v), gs), 3),
        )

    def check_spin_member(self, op, out):
        _, _, g, v = op.args
        in_g, d, pair, in_spin, chi, w = out
        norm_coords, want = self._conjugated(g, v)
        if in_g is not True:
            return "an elementary product is not in G"
        if norm_coords is None or d.value != oracles.hyperbolic_q(norm_coords) or d.value != 1:
            return f"norm_d {d} of an elementary product != q(g g*) = 1"
        if _rows(pair.g1) != g or oracles.matmul(_rows(pair.g2), oracles.star3(g)) != oracles.identity(4):
            return "chi_inverse(g) != (g, (g*)^-1)"
        if in_spin is not True:
            return "chi_inverse(g) is not in Spin"
        if _rows(chi.matrix) != g:
            return "chi(chi_inverse(g)) != g"
        if w is None or [x.value for x in w] != want:
            return "conjugation by chi_inverse(g) differs from v -> g S(v) g*"
        return None

    def check_spin_norm(self, op, out):
        _, _, g, v = op.args
        d, w = out
        norm_coords, want = self._conjugated(g, v)
        if norm_coords is None or d.value != oracles.hyperbolic_q(norm_coords):
            return f"norm_d {d} != q(g g*)"
        if w is None or [x.value for x in w] != want:
            return "coordinates of g . v differ from g S(v) g*"
        return None


def _rows(m) -> list:
    """The entries of a square AlgMatrix over Z or Q as ints or Fractions."""
    return [[m.entry(i, j).value for j in range(m.dim)] for i in range(m.dim)]


WORKLOADS = {w.name: w for w in (VerifyCli, CliffordProducts, ExactLinalg)}

"""Seeded property suites behind `quadembed verify` and the acceptance tests.

Each check is registered once, beside its definition, with `_check`.
`run_suite` seeds its RNG from (seed, suite, check) and builds its result, so
a suite report is a pure function of its configuration.
"""

from __future__ import annotations

import random
from functools import cached_property

from . import FAMILIES, SUITES
from .algmat import AlgMatrix, parity_of_block_matrix
from .clifford import (
    CliffordElement,
    GradedTensorAlgebra,
    check_graded_iso_sum,
    cl_one,
    embed_vector,
    grade_involution,
    is_homogeneous,
    pbw_basis,
    standard_involution,
)
from .embedding import (
    Embedding,
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
from .qspace import QuadraticSpace, diagonal_space, hyperbolic, random_vector
from .scalars import Ring, ScalarMatrix, ZZ
from .spin import SpinContext
from .suslin import (
    CatalogError,
    bar_pair,
    catalog_generators,
    check_suslin_identities,
    derive_j,
    suslin,
    suslin_bar,
    suslin_embedding,
    suslin_pair,
)


class SuiteConfig:
    """One suite of a run.  `beds` holds the Suslin beds, which depend only
    on the ring; `run_suites` hands one store to every suite of a run, so
    each bed is built and certified once per run."""

    def __init__(self, suite: str, seed: int = 0, samples: int = 100, ring: Ring = ZZ, beds=None):
        self.suite, self.seed, self.samples, self.ring = suite, seed, samples, ring
        self.beds = {} if beds is None else beds

    def suslin_bed(self, n: int) -> Embedding:
        """`suslin_embedding(n, ring)`, built once per run."""
        if n not in self.beds:
            self.beds[n] = suslin_embedding(n, self.ring)
        return self.beds[n]

    @cached_property
    def spin_bed(self) -> SpinContext:
        """The registered rank-6 bed over the run's ring, on the run's shared
        Suslin bed; only the spin suite reads it, so it is built once per run."""
        return SpinContext(self.suslin_bed(3))


_CHECKS = {suite: [] for suite in SUITES}


def _check(suite: str, name: str, rng: str | None = None):
    """Register `fn(cfg, rng, failures) -> info dict or None` as check `name`
    of `suite`, run in definition order; `rng` names the RNG key where it
    differs from `name`."""

    def register(fn):
        _CHECKS[suite].append((name, rng or name, fn))
        return fn

    return register


# -- random generators ------------------------------------------------------


def random_pair(rng, ring, length, bound=9):
    v = [rng.randint(-bound, bound) for _ in range(length)]
    w = [rng.randint(-bound, bound) for _ in range(length)]
    return suslin_pair(ring, v, w)


def random_space(rng, ring, rank, bound=3) -> QuadraticSpace:
    values = [rng.randint(-bound, bound) if j >= i else 0 for i in range(rank) for j in range(rank)]
    return QuadraticSpace(ScalarMatrix(rank, rank, values, ring))


def random_element(rng, space, max_terms=4, bound=4) -> CliffordElement:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mask = rng.randrange(1 << space.rank)
        terms[mask] = space.ring(rng.randint(-bound, bound))
    return CliffordElement(space, terms)


def random_homogeneous(rng, space, parity=None, max_terms=3, bound=4) -> CliffordElement:
    if parity is None:
        parity = rng.randint(0, 1)
    masks = [m for m in range(1 << space.rank) if bin(m).count("1") % 2 == parity]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.choice(masks)] = space.ring(rng.randint(-bound, bound))
    return CliffordElement(space, terms)


# -- suslin suite ------------------------------------------------------------


@_check("suslin", "identities")
def _suslin_identities(cfg: SuiteConfig, rng, failures):
    for n in (1, 2, 3, 4):
        for _ in range(cfg.samples):
            p = random_pair(rng, cfg.ring, n + 1)
            report = check_suslin_identities(p)
            if report["failures"]:
                failures.append(report)
    return {"sizes": [2, 4, 8, 16]}


@_check("suslin", "parity_law")
def _suslin_parity_law(cfg: SuiteConfig, rng, failures):
    sizes = {}
    for n in (1, 2, 3):
        j = derive_j(n)
        sizes[str(j.size)] = j.to_json()
        jr = j.as_ring(cfg.ring)
        eye = ScalarMatrix.identity(j.size, cfg.ring)
        if jr * jr.transpose() != eye:
            failures.append({"n": n, "identity": "JJ^T"})
        for _ in range(cfg.samples):
            p = random_pair(rng, cfg.ring, n)
            s = suslin(p)
            target = suslin_bar(p) if j.bar_case else s
            if jr * s.transpose() * jr.transpose() != target:
                failures.append({"n": n, "pair": [str(x) for x in p.v + p.w]})
    return {"j": sizes}


@_check("suslin", "bar_involution")
def _suslin_bar_involution(cfg: SuiteConfig, rng, failures):
    for _ in range(cfg.samples):
        n = rng.randint(1, 3)
        p = random_pair(rng, cfg.ring, n + 1)
        q = bar_pair(p)
        if suslin(q) != suslin_bar(p) or bar_pair(q) != p:
            failures.append({"pair": [str(x) for x in p.v + p.w]})


@_check("suslin", "linearity")
def _suslin_linearity(cfg: SuiteConfig, rng, failures):
    for _ in range(cfg.samples):
        n = rng.randint(1, 3)
        p = random_pair(rng, cfg.ring, n + 1)
        q = random_pair(rng, cfg.ring, n + 1)
        summed = suslin_pair(
            cfg.ring,
            [a + b for a, b in zip(p.v, q.v)],
            [a + b for a, b in zip(p.w, q.w)],
        )
        if suslin(summed) != suslin(p) + suslin(q):
            failures.append({"n": n})


# -- clifford suite ----------------------------------------------------------


def _clifford_spaces(cfg: SuiteConfig, rng) -> list[QuadraticSpace]:
    spaces = [
        diagonal_space([-1], cfg.ring),
        hyperbolic(1, cfg.ring),
        random_space(rng, cfg.ring, 3),
        random_space(rng, cfg.ring, 4),
        random_space(rng, cfg.ring, 5),
    ]
    return spaces


@_check("clifford", "associativity")
def _clifford_associativity(cfg: SuiteConfig, rng, failures):
    spaces = _clifford_spaces(cfg, rng)
    for i in range(cfg.samples):
        space = spaces[i % len(spaces)]
        a = random_element(rng, space)
        b = random_element(rng, space)
        c = random_element(rng, space)
        if (a * b) * c != a * (b * c):
            failures.append({"space": space.to_json(), "index": i})
    return {"spaces": len(spaces)}


@_check("clifford", "polarised")
def _clifford_polarised(cfg: SuiteConfig, rng, failures):
    spaces = _clifford_spaces(cfg, rng)
    for i in range(cfg.samples):
        space = spaces[i % len(spaces)]
        u = random_vector(rng, space)
        v = random_vector(rng, space)
        eu, ev = embed_vector(space, u), embed_vector(space, v)
        want = cl_one(space).scale(space.bilinear(u, v))
        if eu * ev + ev * eu != want:
            failures.append({"index": i})
        if (eu * eu) != cl_one(space).scale(space.evaluate_q(u)):
            failures.append({"index": i, "identity": "square"})


@_check("clifford", "grading")
def _clifford_grading(cfg: SuiteConfig, rng, failures):
    spaces = _clifford_spaces(cfg, rng)
    for i in range(cfg.samples):
        space = spaces[i % len(spaces)]
        a = random_homogeneous(rng, space)
        b = random_homogeneous(rng, space)
        if a.is_zero or b.is_zero:
            continue
        pa, pb = is_homogeneous(a), is_homogeneous(b)
        prod = a * b
        if not prod.is_zero and is_homogeneous(prod) != (pa + pb) % 2:
            failures.append({"index": i})


@_check("clifford", "involution")
def _clifford_involution(cfg: SuiteConfig, rng, failures):
    spaces = _clifford_spaces(cfg, rng)
    for i in range(cfg.samples):
        space = spaces[i % len(spaces)]
        a = random_element(rng, space)
        b = random_element(rng, space)
        if standard_involution(a * b) != standard_involution(b) * standard_involution(a):
            failures.append({"index": i, "identity": "antimultiplicative"})
        if standard_involution(standard_involution(a)) != a:
            failures.append({"index": i, "identity": "order2"})
        if grade_involution(grade_involution(a)) != a:
            failures.append({"index": i, "identity": "grade_involution"})


@_check("clifford", "pbw_count", rng="pbw")
def _clifford_pbw(cfg: SuiteConfig, rng, failures):
    for n in range(1, 7):
        space = random_space(rng, cfg.ring, n)
        if len(pbw_basis(space)) != 1 << n:
            failures.append({"rank": n})


@_check("clifford", "tensor_assoc")
def _clifford_tensor_assoc(cfg: SuiteConfig, rng, failures):
    pairs = [
        (diagonal_space([-1], cfg.ring), diagonal_space([-1], cfg.ring)),
        (hyperbolic(1, cfg.ring), diagonal_space([1], cfg.ring)),
    ]
    for i in range(cfg.samples):
        s1, s2 = pairs[i % len(pairs)]
        alg = GradedTensorAlgebra(s1, s2)
        elems = [
            alg.pure(random_homogeneous(rng, s1), random_homogeneous(rng, s2))
            for _ in range(3)
        ]
        a, b, c = elems
        if (a * b) * c != a * (b * c):
            failures.append({"index": i})


@_check("clifford", "graded_iso_sum")
def _clifford_graded_iso(cfg: SuiteConfig, rng, failures):
    cases = [
        (diagonal_space([-1], cfg.ring), diagonal_space([-1], cfg.ring)),
        (diagonal_space([1], cfg.ring), hyperbolic(1, cfg.ring)),
        (hyperbolic(1, cfg.ring), hyperbolic(1, cfg.ring)),
    ]
    for s1, s2 in cases:
        if not check_graded_iso_sum(s1, s2):
            failures.append({"ranks": [s1.rank, s2.rank]})
    return {"cases": len(cases)}


@_check("clifford", "suslin_faithfulness")
def _clifford_suslin_rank(cfg: SuiteConfig, rng, failures):
    ranks = {}
    for n in (2, 3):
        phi = build_phi(cfg.suslin_bed(n))  # raises InjectivityError unless the rank is 4^n
        ranks[str(n)] = phi.monomial_rank
    return {"ranks": ranks}


# -- embedding suite ---------------------------------------------------------


def _embedding_beds(cfg: SuiteConfig, rng):
    beds = [
        clifford_self_embedding(hyperbolic(1, cfg.ring)),
        clifford_self_embedding(random_space(rng, cfg.ring, 3)),
        cfg.suslin_bed(2),
        cfg.suslin_bed(3),
    ]
    return beds


@_check("embedding", "validate")
def _embedding_validate(cfg: SuiteConfig, rng, failures):
    for bed in _embedding_beds(cfg, rng):
        failed = validate_embedding(bed)
        if failed:
            failures.append({"bed": repr(bed), "failures": failed})


@_check("embedding", "phi")
def _embedding_phi(cfg: SuiteConfig, rng, failures):
    for bed in _embedding_beds(cfg, rng):
        if not bed.space.is_nondegenerate():
            continue
        phi = build_phi(bed)
        images = enumerate(phi.monomial_images)
        graded = all(parity_of_block_matrix(img) == bin(m).count("1") % 2 for m, img in images)
        if not graded:
            failures.append({"bed": repr(bed), "identity": "graded"})
        for i in range(max(1, cfg.samples // 4)):
            a = random_element(rng, bed.space, max_terms=3, bound=3)
            b = random_element(rng, bed.space, max_terms=3, bound=3)
            if phi(a * b) != phi(a) * phi(b):
                failures.append({"bed": repr(bed), "index": i})
            h = random_homogeneous(rng, bed.space, max_terms=2, bound=3)
            if not h.is_zero:
                if parity_of_block_matrix(phi(h)) != is_homogeneous(h):
                    failures.append({"bed": repr(bed), "index": i, "identity": "parity"})


@_check("embedding", "jordan")
def _embedding_jordan(cfg: SuiteConfig, rng, failures):
    for bed in _embedding_beds(cfg, rng):
        for i in range(max(1, cfg.samples // 4)):
            v = random_vector(rng, bed.space)
            w = random_vector(rng, bed.space)
            got = jordan_product(bed, v, w)
            # independent closed form: v w v = <v, wbar> v - q(v) wbar,
            # from polarising the embedding axiom and cancelling v vbar
            wbar = bed.bar_coords(w)
            bv = bed.space.bilinear(v, wbar)
            qv = bed.space.evaluate_q(v)
            want = [bv * a - qv * b for a, b in zip(v, wbar)]
            if got != want:
                failures.append({"bed": repr(bed), "index": i})


@_check("embedding", "unit_trace")
def _embedding_unit_trace(cfg: SuiteConfig, rng, failures):
    for n in (2, 3):
        bed = cfg.suslin_bed(n)
        for i in range(cfg.samples):
            v = random_vector(rng, bed.space)
            if not (bed.rho_of(v) + bed.rho_bar_of(v)).is_scalar():
                failures.append({"n": n, "index": i})


@_check("embedding", "lifted_involution")
def _embedding_lifted_involution(cfg: SuiteConfig, rng, failures):
    beds = [
        cfg.suslin_bed(2),
        cfg.suslin_bed(3),
        clifford_self_embedding(hyperbolic(1, cfg.ring)),
    ]
    for bed in beds:
        star = lift_involution(bed)
        dim2 = 2 * bed.dim
        alg = bed.algebra

        def random_doubled():
            if bed.scalar_entries:
                values = [rng.randint(-3, 3) for _ in range(dim2 * dim2)]
                return ScalarMatrix(dim2, dim2, values, cfg.ring)
            rows = [
                [random_element(rng, alg.space, max_terms=2, bound=2) for _ in range(dim2)]
                for _ in range(dim2)
            ]
            return AlgMatrix(alg, rows)

        for i in range(max(1, cfg.samples // 3)):
            m = random_doubled()
            n2 = random_doubled()
            if star(star(m)) != m:
                failures.append({"bed": repr(bed), "index": i, "identity": "order2"})
            if star(m * n2) != star(n2) * star(m):
                failures.append({"bed": repr(bed), "index": i, "identity": "anti"})
    return {"beds": len(beds)}


@_check("embedding", "involution_structure")
def _embedding_conflict(cfg: SuiteConfig, rng, failures):
    bed = cfg.suslin_bed(2)
    if involutions_conflict_check(bed) is not True:
        failures.append({"bed": repr(bed)})
    if check_alpha_order_two(cfg.suslin_bed(3)) is not True:
        failures.append({"identity": "alpha_order_two"})
    witness = [1, 0, 1, 1]  # bar moves it, unless 2 = 0
    if cfg.ring(2).is_zero:
        skipped = {"witness": f"2 = 0, so bar fixes {witness}", "u=-1 lift": "2 = 0, so u = -1 is u = 1"}
        return {"skipped": skipped}
    if involutions_conflict_check(bed, witness) is not True:
        failures.append({"bed": repr(bed), "witness": witness})
    try:
        lift_involution(cfg.suslin_bed(3), InvolutionForm(1, cfg.ring(-1)))
        failures.append({"identity": "u=-1 lift must be rejected"})
    except InvolutionError:
        pass


@_check("embedding", "involution_bridge", rng="bridge")
def _embedding_bridge(cfg: SuiteConfig, rng, failures):
    """The reversal on the Clifford side must match the lifted involution."""
    for n in (2, 3):
        bed = cfg.suslin_bed(n)
        phi = build_phi(bed)
        star = lift_involution(bed)
        for i in range(max(1, cfg.samples // 4)):
            a = random_element(rng, bed.space, max_terms=3, bound=3)
            if phi(standard_involution(a)) != star(phi(a)):
                failures.append({"n": n, "index": i})
    restriction = standard_involution_restriction(cfg.suslin_bed(2))
    if restriction is not True:
        failures.append({"identity": "restriction_to_A", "got": restriction})


# -- spin suite --------------------------------------------------------------


@_check("spin", "lemmas")
def _spin_lemmas(cfg: SuiteConfig, rng, failures):
    ctx = cfg.spin_bed
    reports = ctx.lemma_checks(cfg.seed, cfg.samples)
    failures.extend(r for r in reports if r["failures"])
    return {"reports": reports}


@_check("spin", "norm_multiplicative")
def _spin_norm_multiplicative(cfg: SuiteConfig, rng, failures):
    ctx = cfg.spin_bed
    for i in range(cfg.samples):
        g = ctx.sample_group_element(rng, allow_scaling=True)
        h = ctx.sample_group_element(rng, allow_scaling=True)
        if ctx.norm_d(g * h) != ctx.norm_d(g) * ctx.norm_d(h):
            failures.append({"index": i})
        if ctx.norm_d(g) != ctx.norm_d(ctx.star(g)):
            failures.append({"index": i, "identity": "star"})


@_check("spin", "elementary_family")
def _spin_elementary_family(cfg: SuiteConfig, rng, failures):
    ctx = cfg.spin_bed
    one = ctx.ring.one
    for i in range(cfg.samples):
        g = ctx.sample_elementary_product(rng)
        if not ctx.is_in_g(g):
            failures.append({"index": i, "identity": "membership"})
            continue
        if ctx.norm_d(g) != one:
            failures.append({"index": i, "identity": "norm"})
            continue
        pair = ctx.chi_inverse(g)
        if not ctx.is_in_spin(pair):
            failures.append({"index": i, "identity": "spin"})
            continue
        if ctx.chi(pair).matrix != g:
            failures.append({"index": i, "identity": "roundtrip"})
        v = random_vector(rng, ctx.space)
        coords = ctx.conjugation_coords(pair, v)
        if coords is None or ctx.space.evaluate_q(coords) != ctx.space.evaluate_q(v):
            failures.append({"index": i, "identity": "isometry"})


# -- catalog suite -----------------------------------------------------------


@_check("catalog", "families")
def _catalog_families(cfg: SuiteConfig, rng, failures):
    details = {}
    for family in FAMILIES:
        for n in (1, 2):
            try:
                gens = catalog_generators(family, n, cfg.ring)
                details[f"{family}:{n}"] = len(gens)
            except CatalogError as err:
                failures.append({"family": family, "n": n, "error": str(err)})
    return {"generators": details}


def run_suite(cfg: SuiteConfig) -> dict:
    checks = []
    for name, key, fn in _CHECKS[cfg.suite]:
        failures = []
        info = fn(cfg, random.Random(f"{cfg.seed}:{cfg.suite}:{key}"), failures)
        checks.append({"name": name, "passed": not failures, "failures": failures, "info": info or {}})
    return {
        "suite": cfg.suite,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "ring": cfg.ring.name,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def run_suites(suite: str, seed: int, samples: int, ring: Ring) -> dict:
    names = list(SUITES) if suite == "all" else [suite]
    beds = {}
    reports = []
    for name in sorted(names):
        cfg = SuiteConfig(suite=name, seed=seed, samples=samples, ring=ring, beds=beds)
        reports.append(run_suite(cfg))
    return {
        "config": {"suite": suite, "seed": seed, "samples": samples, "ring": ring.name},
        "suites": reports,
        "passed": all(r["passed"] for r in reports),
    }

"""Command-line front end: compute objects, emit JSON, run verification suites.

Exit codes: 0 all good, 1 a property suite reported a violation, 2 bad input.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from . import FAMILIES, RANK_LIMIT, SUITES

# Each handler imports the engine modules it runs, so `--help` and a refused
# argument load none of them.


def _read(what: str, text: str, form: str, parse, *args):
    """parse(*args) for one conversion (`scalars._int`, `parse_scalar` or a
    JSON reader), with Python's own ValueError (int's or json's, say), or a
    package error raised from one (malformed text), replaced by one naming
    the argument `text` and its form; other package errors pass."""
    try:
        return parse(*args)
    except ValueError as err:
        if type(err) in (ValueError, json.JSONDecodeError) or isinstance(err.__cause__, ValueError):
            raise ValueError(f"cannot parse {what} {text!r}; use {form}") from None
        raise


def _read_int(what: str, text: str, form: str = "an integer", digits: str | None = None) -> int:
    """The integer `digits` (all of `text` by default) in ASCII digits after
    an optional "-", as str() writes one (`scalars._int`), or the refusal
    of `_read`.  argparse keeps integer flags as text, so that they are read
    here by the same rule."""
    from .scalars import _int

    digits = text if digits is None else digits
    return _read(what, text, form, _int, digits, digits, form)


def _parse_ring(text: str | None):
    from .scalars import QQ, ZZ, Zmod

    if text is None or text == "z":
        return ZZ
    if text == "q":
        return QQ
    if text.startswith("zmod:"):
        return Zmod(_read_int("ring", text, "z, q or zmod:m", text[5:]))
    raise ValueError(f"unknown ring {text!r}; use z, q or zmod:m")


def _parse_vector(text: str, ring):
    from .scalars import parse_scalar

    form = "c1,..,cn with each c one of n, n/d or n mod m"
    return [_read("vector", text, form, parse_scalar, c, ring) for c in text.split(",")]


def _check_rank(rank: int) -> None:
    if rank > RANK_LIMIT:
        from .scalars import ShapeError

        raise ShapeError(f"space rank {rank} exceeds the monomial-mask cap of {RANK_LIMIT}")


def _parse_space(text: str, ring):
    from .qspace import QuadraticSpace, diagonal_space, hyperbolic

    # hyp:N and diag: are checked before their rank**2 form is built; a JSON
    # form is as large as its text
    form = "hyp:N, diag:c1,..,cn or JSON"
    if text.startswith("{"):
        space = _read("space", text, form, lambda: QuadraticSpace.from_json(json.loads(text)))
        _check_rank(space.rank)
        return space
    if text.startswith("hyp:"):
        n = _read_int("space", text, form, text[4:])
        _check_rank(2 * n)
        return hyperbolic(n, ring)
    if text.startswith("diag:"):
        coefficients = _parse_vector(text[5:], ring)
        _check_rank(len(coefficients))
        return diagonal_space(coefficients, ring)
    raise ValueError(f"cannot parse space {text!r}; use {form}")


def _parse_element(text: str, space):
    from .clifford import CliffordElement
    from .scalars import json_field, parse_scalar

    form = "mask:coeff[,mask:coeff..] with each coeff one of n, n/d or n mod m, or JSON"
    if text.startswith("{"):
        pairs = [
            (json_field(t, "mask", (int, str), "element term"), json_field(t, "coeff", str, "element term"))
            for t in json_field(_read("element", text, form, json.loads, text), "terms", list, "element JSON")
        ]
    else:
        pairs = [chunk.partition(":")[::2] for chunk in text.split(",")]
    terms = {}
    for mask, coeff in pairs:
        mask = _read_int("element", text, form, str(mask))
        terms[mask] = _read("element", text, form, parse_scalar, coeff, space.ring)
    return CliffordElement(space, terms)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _cmd_suslin(args) -> int:
    from .suslin import check_suslin_identities, suslin, suslin_bar, suslin_pair

    ring = _parse_ring(args.ring)
    pair = suslin_pair(ring, _parse_vector(args.v, ring), _parse_vector(args.w, ring))
    out = {"n": len(pair.v) - 1, "s": suslin(pair).to_json()}
    if args.bar:
        out["sbar"] = suslin_bar(pair).to_json()
    if args.check:
        out["identities"] = check_suslin_identities(pair)
        _emit(out)
        return 1 if out["identities"]["failures"] else 0
    _emit(out)
    return 0


def _cmd_clifford_mul(args) -> int:
    ring = _parse_ring(args.ring)
    space = _parse_space(args.space, ring)
    a = _parse_element(args.a, space)
    b = _parse_element(args.b, space)
    _emit((a * b).to_json())
    return 0


def _cmd_derive_j(args) -> int:
    from .suslin import derive_j

    _emit(derive_j(_read_int("--n", args.n)).to_json())
    return 0


def _cmd_iso(args) -> int:
    from .suslin import hyperbolic_clifford_iso

    n, ring = _read_int("--n", args.n), _parse_ring(args.ring)
    phi = hyperbolic_clifford_iso(n, ring)
    monomials = 1 << (2 * n)
    _emit(
        {
            "n": n,
            "ring": ring.name,
            "monomials": monomials,
            "rank": phi.monomial_rank,
            "isomorphism": phi.bijective,
        }
    )
    return 0


def _cmd_catalog(args) -> int:
    from .algmat import matrix_json
    from .suslin import catalog_generators, catalog_space

    n, ring = _read_int("--n", args.n), _parse_ring(args.ring)
    gens = catalog_generators(args.family, n, ring)
    space = catalog_space(args.family, n, ring)
    _emit(
        {
            "family": args.family,
            "n": n,
            "space": space.to_json(),
            "generators": [matrix_json(g) for g in gens],
        }
    )
    return 0


def _cmd_verify(args) -> int:
    seed, samples = _read_int("--seed", args.seed), _read_int("--samples", args.samples)
    if not 1 <= samples <= 10_000:
        raise ValueError("--samples must be from 1 to 10,000")
    ring = _parse_ring(args.ring)
    from .suites import run_suites

    # opened first, so a path that cannot be written fails before any suite runs
    with open(args.emit, "w", encoding="utf-8") if args.emit else io.StringIO() as emit:
        report = run_suites(args.suite, seed, samples, ring)
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        sys.stdout.write(text)
        emit.write(text)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadembed",
        description="exact computations with embedded quadratic spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suslin", help="emit a Suslin matrix (and identity report)")
    p.add_argument("--v", required=True, help="comma-separated coordinates")
    p.add_argument("--w", required=True, help="comma-separated coordinates")
    p.add_argument("--bar", action="store_true", help="also emit the companion matrix")
    p.add_argument("--check", action="store_true", help="verify the defining identities")
    p.add_argument("--ring", default=None, help="z (default), q, or zmod:m")
    p.set_defaults(fn=_cmd_suslin)

    p = sub.add_parser("clifford", help="Clifford algebra computations")
    csub = p.add_subparsers(dest="clifford_command", required=True)
    pm = csub.add_parser("mul", help="multiply two elements")
    pm.add_argument("--space", required=True, help=f"hyp:N, diag:c1,..,cn or JSON, rank at most {RANK_LIMIT}")
    pm.add_argument("--a", required=True, help="element as mask:coeff[,mask:coeff..]")
    pm.add_argument("--b", required=True)
    pm.add_argument("--ring", default=None)
    pm.set_defaults(fn=_cmd_clifford_mul)

    p = sub.add_parser("derive-j", help="derive the signed-permutation conjugator")
    p.add_argument("--n", required=True, help="1 to 8")
    p.set_defaults(fn=_cmd_derive_j)

    text = "certify the hyperbolic matrix realisation Cl(H^n) = M(2^n) over z, q or zmod:m"
    p = sub.add_parser("iso", help=text, description=text)
    p.add_argument("--n", required=True, metavar="{2,3,4,5}", help="n = 5 ranks 1,024 images, about 0.5 s")
    p.add_argument("--ring", default="q", help="z, q (default), or zmod:m")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("catalog", help="emit a generator family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", required=True, metavar="{1,2}")
    p.add_argument("--ring", default=None)
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("verify", help="run the seeded property suites")
    p.add_argument("--suite", required=True, choices=SUITES + ("all",))
    p.add_argument("--seed", default="0")
    p.add_argument("--samples", default="100", help="1 to 10,000")
    p.add_argument("--ring", default=None)
    p.add_argument("--emit", default=None, help="also write the report to a file")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as err:  # RingError and ShapeError are ValueErrors
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

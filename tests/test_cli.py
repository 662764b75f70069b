"""The command-line surface: flag grammar, JSON output, exit codes."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import quadembed
from quadembed.cli import main
from quadembed.clifford import RANK_LIMIT
from quadembed.suslin import FAMILIES

# a child interpreter started here finds the package the tests import
PACKAGE_ROOT = Path(quadembed.__file__).parent.parent

# a path whose directory does not exist
MISSING_DIR = str(PACKAGE_ROOT / "no-such-directory")

# a general (non-diagonal) rank-3 form over Z
GENERAL_RANK3 = json.dumps(
    {"ring": "Z", "q": [["1", "2", "-1"], ["0", "-3", "1"], ["0", "0", "2"]]}
)
GENERAL_RANK5 = json.dumps({"ring": "Z", "q": [
    ["2", "1", "-1", "3", "0"],
    ["0", "-1", "2", "1", "-2"],
    ["0", "0", "3", "-1", "1"],
    ["0", "0", "0", "1", "2"],
    ["0", "0", "0", "0", "-2"],
]})


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_suslin_command(capsys):
    code, out, _ = run_cli(capsys, "suslin", "--v", "1,2", "--w", "3,4", "--check")
    assert code == 0
    data = json.loads(out)
    assert data["s"] == [["1", "2"], ["-4", "3"]]
    assert data["identities"]["product_ok"]
    assert data["identities"]["det_ok"]


def test_suslin_bar_flag(capsys):
    code, out, _ = run_cli(capsys, "suslin", "--v", "1,2", "--w", "3,4", "--bar")
    assert code == 0
    assert json.loads(out)["sbar"] == [["3", "-2"], ["4", "1"]]


def test_suslin_rational_ring(capsys):
    code, out, _ = run_cli(
        capsys, "suslin", "--v", "1/2,1", "--w", "2,1/3", "--check", "--ring", "q"
    )
    assert code == 0
    assert json.loads(out)["identities"]["product_ok"]


def test_derive_j_command(capsys):
    code, out, _ = run_cli(capsys, "derive-j", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["j"] == [["0", "1"], ["-1", "0"]]
    assert data["conjugates_to"] == "bar"


def test_clifford_mul_command(capsys):
    code, out, _ = run_cli(
        capsys, "clifford", "mul", "--space", "hyp:1", "--a", "2:1", "--b", "1:1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [
        {"coeff": "1", "mask": 0},
        {"coeff": "-1", "mask": 3},
    ]


def test_clifford_mul_accepts_json_element(capsys):
    element = json.dumps({"terms": [{"mask": 3, "coeff": "2"}]})
    code, out, _ = run_cli(
        capsys, "clifford", "mul", "--space", "hyp:1", "--a", element, "--b", element
    )
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"coeff": "4", "mask": 3}]


def test_iso_command(capsys):
    code, out, _ = run_cli(capsys, "iso", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 16 and data["isomorphism"]


def test_catalog_command(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--family", "odd2n1", "--n", "1")
    assert code == 0
    data = json.loads(out)
    assert len(data["generators"]) == 3
    assert data["space"]["rank"] == 3


def test_usage_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "suslin", "--v", "1,2", "--w", "3")
    assert code == 2
    assert err


def test_bad_input_exits_2_with_one_line(capsys):
    for argv in (
        ("verify", "--suite", "catalog", "--samples", "0"),
        ("verify", "--suite", "catalog", "--samples", "-1"),
        # more samples than the cap of 10,000: refused before any suite runs
        ("verify", "--suite", "catalog", "--samples", "10001"),
        ("verify", "--suite", "clifford", "--samples", "1000000"),
        ("clifford", "mul", "--space", "hyp:1", "--a", "9:1", "--b", "1:1"),
        ("clifford", "mul", "--space", "hyp:1", "--a", "1:1",
         "--b", '{"terms": [{"mask": -1, "coeff": "1"}]}'),
        # a zero denominator, and a residue modulo another modulus
        ("suslin", "--v", "1/0", "--w", "1", "--ring", "q"),
        ("clifford", "mul", "--space", '{"ring": "Q", "q": [["1/0"]]}', "--a", "1:1", "--b", "1:1"),
        ("clifford", "mul", "--space", "diag:1", "--ring", "zmod:5", "--a", "0:1 mod 3", "--b", "0:1"),
        # more coordinates than the Suslin size bound allows
        ("suslin", "--v", ",".join("1" * 9), "--w", ",".join("0" * 9)),
        # a report file that cannot be opened: refused before any suite runs
        ("verify", "--suite", "catalog", "--samples", "1", "--emit", MISSING_DIR + "/report.json"),
        ("verify", "--suite", "catalog", "--samples", "1", "--emit", str(PACKAGE_ROOT)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    code, _, err = run_cli(capsys, "verify", "--suite", "catalog", "--samples", "10000")
    assert (code, err) == (0, "")
    # a rank above the monomial-mask cap names the cap; hyp:N and diag: are
    # refused before their rank**2 form is built, so rank 10**5 answers at once
    for space in ("hyp:7", "hyp:100000", "diag:" + ",".join("1" * 13),
                  "diag:" + ",".join("1" * 100000),
                  json.dumps({"ring": "Z", "q": [["0"] * 13] * 13})):
        code, out, err = run_cli(capsys, "clifford", "mul", "--space", space, "--a", "1:1", "--b", "1:1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"cap of {RANK_LIMIT}" in err
    for space in ("hyp:6", "diag:" + ",".join("1" * 12)):
        code, out, err = run_cli(capsys, "clifford", "mul", "--space", space, "--a", "1:1", "--b", "1:1")
        assert code == 0 and err == ""
    # malformed JSON names the field at fault
    for argv, field in (
        (("--space", "{}", "--a", "1:1"), "'ring'"),
        (("--space", '{"ring": "Z"}', "--a", "1:1"), "'q'"),
        (("--space", '{"ring": "Z", "q": 5}', "--a", "1:1"), "'q'"),
        (("--space", '{"ring": 5, "q": [["1"]]}', "--a", "1:1"), "'ring'"),
        (("--space", "hyp:1", "--a", "{}"), "'terms'"),
        (("--space", "hyp:1", "--a", '{"terms": [{"coeff": "1"}]}'), "'mask'"),
        (("--space", "hyp:1", "--a", '{"terms": [{"mask": 1}]}'), "'coeff'"),
        (("--space", "hyp:1", "--a", '{"terms": [{"mask": 1, "coeff": 1}]}'), "'coeff'"),
    ):
        code, out, err = run_cli(capsys, "clifford", "mul", *argv, "--b", "1:1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "field " + field in err, (argv, err)
    # and a scalar that is not a string is refused, not a traceback
    space = '{"ring": "Z", "q": [[1]]}'
    code, out, err = run_cli(capsys, "clifford", "mul", "--space", space, "--a", "1:1", "--b", "1:1")
    assert code == 2 and out == "" and err.count("\n") == 1


def test_malformed_text_names_itself_and_its_form(capsys):
    """Text that does not parse is refused with exit 2 and one line naming
    the argument and the form it should take, not Python's own words."""
    mul = ("clifford", "mul", "--b", "1:1")
    for argv, text, form in (
        ((*mul, "--space", "hyp:1", "--a", "x"), "x", "mask:coeff"),
        ((*mul, "--space", "hyp:1", "--a", "1:2:3"), "1:2:3", "mask:coeff"),
        ((*mul, "--space", "hyp:1", "--a", "a:1"), "a:1", "mask:coeff"),
        ((*mul, "--space", "hyp:1", "--a", "1:x"), "1:x", "mask:coeff"),
        ((*mul, "--space", "hyp:1", "--a", '{"terms": [{"mask": "x", "coeff": "1"}]}'),
         '{"terms": [{"mask": "x", "coeff": "1"}]}', "mask:coeff"),
        ((*mul, "--space", "hyp:x", "--a", "1:1"), "hyp:x", "hyp:N"),
        ((*mul, "--space", "diag:1,,2", "--a", "1:1"), "1,,2", "c1,..,cn"),
        ((*mul, "--space", "hyp:1", "--ring", "zmod:x", "--a", "1:1"), "zmod:x", "zmod:m"),
        (("iso", "--n", "2", "--ring", "zmod:"), "zmod:", "zmod:m"),
        (("suslin", "--v", "1,,2", "--w", "1,2,3"), "1,,2", "c1,..,cn"),
        (("suslin", "--v", "1", "--w", "1 mod x", "--ring", "zmod:5"), "1 mod x", "n mod m"),
        # JSON whose scalar or modulus does not parse, and text that is not JSON
        ((*mul, "--space", '{"ring": "Z", "q": [["x"]]}', "--a", "1:1"), '{"ring": "Z", "q": [["x"]]}', "JSON"),
        ((*mul, "--space", '{"ring": "Z/x", "q": [["1"]]}', "--a", "1:1"), '{"ring": "Z/x", "q": [["1"]]}', "JSON"),
        ((*mul, "--space", '{"ring": "Q", "q": [["1/2/3"]]}', "--a", "1:1"), '{"ring": "Q", "q": [["1/2/3"]]}', "JSON"),
        ((*mul, "--space", "{ring: Z}", "--a", "1:1"), "{ring: Z}", "JSON"),
        ((*mul, "--space", "hyp:1", "--a", "{terms"), "{terms", "mask:coeff"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: cannot parse ") and err.count("\n") == 1, err
        named, _, use = err.partition("; use ")
        assert repr(text) in named and form in use, err


# Scalar strings: numbers, fractions (over zero too), residues modulo any
# modulus, huge integers, and strings that are not numbers at all.  Q is
# drawn more often than the other rings, and well-formed input more often
# than junk, so that most argvs get past their first scalar.
_INT = st.one_of(st.integers(-9, 9), st.integers(-(10**40), 10**40)).map(str)
_FRACTION = st.tuples(_INT, st.sampled_from(["0", "1", "2", "0", "-3", "7", ""])).map("/".join)
_RESIDUE = st.tuples(_INT, st.sampled_from(["0", "2", "5", "6", "101", "x", ""])).map(" mod ".join)
_JUNK = st.sampled_from(["", " ", "/", "1/", "/2", "1/2/3", "mod", "mod 5", "1 mod 5 mod 5",
                         "x", "1.5", "1e3", "−3", "nan", "\t4\n", "9" * 5000])
_SCALAR = st.one_of(_INT, _FRACTION, _INT, _FRACTION, _INT, _FRACTION, _RESIDUE, _JUNK)
_RING = st.sampled_from(["q", "q", "q", "z", "zmod:2", "zmod:6", "zmod:101", "zmod:1", "zmod:x", "r"])
_VECTOR = st.lists(_SCALAR, min_size=1, max_size=4).map(",".join)


def _json_space(ring, rows):
    """A form over `ring` with at most as many columns as rows (short rows
    stay ragged) and most entries below the diagonal 0."""
    n = len(rows)
    q = [[e if j >= i or (i + j) % 3 == 2 else "0" for j, e in enumerate(row[:n])]
         for i, row in enumerate(rows)]
    return json.dumps({"ring": ring, "q": q})


_SPACE = st.one_of(
    st.sampled_from(["1", "2", "1", "2", "0", "-1", "x", "", "7", "100000"]).map("hyp:".__add__),
    _VECTOR.map("diag:".__add__),
    st.builds(
        _json_space,
        st.sampled_from(["Z", "Q", "Q", "Z/6", "Z/101", "Z/1", "Z/x", "R"]),
        st.lists(st.lists(st.one_of(_SCALAR, st.integers(0, 2)), min_size=1, max_size=4),
                 min_size=1, max_size=4),
    ),
)
_MASK = st.one_of(st.integers(0, 15), st.integers(0, 3), st.sampled_from([-1, 16, "x", ""]))
_TERMS = st.lists(st.tuples(_MASK, _SCALAR), min_size=1, max_size=3)
_ELEMENT = st.one_of(
    _TERMS.map(lambda terms: ",".join(f"{m}:{c}" for m, c in terms)),
    _TERMS.map(lambda terms: json.dumps({"terms": [{"mask": m, "coeff": c} for m, c in terms]})),
)
_ARGV = st.one_of(
    st.builds(
        lambda pairs, flags, ring: ["suslin", "--v=" + ",".join(v for v, _ in pairs),
                                    "--w=" + ",".join(w for _, w in pairs), *flags, "--ring=" + ring],
        st.lists(st.tuples(_SCALAR, _SCALAR), min_size=1, max_size=4),
        st.sampled_from([[], ["--bar"], ["--check"]]),
        _RING,
    ),
    st.builds(
        lambda space, a, b, ring: ["clifford", "mul", f"--space={space}", f"--a={a}", f"--b={b}",
                                   "--ring=" + ring],
        _SPACE, _ELEMENT, _ELEMENT, _RING,
    ),
    st.builds(
        lambda family, n, ring: ["catalog", f"--family={family}", f"--n={n}", "--ring=" + ring],
        st.sampled_from(FAMILIES), st.sampled_from(["1", "2"]), _RING,
    ),
    st.builds(
        lambda suite, samples, ring, emit: ["verify", f"--suite={suite}", f"--samples={samples}",
                                            "--ring=" + ring, *emit],
        st.sampled_from(["suslin", "catalog"]), st.sampled_from([-1, 0, 1, 2]), _RING,
        st.sampled_from([[], ["--emit=" + MISSING_DIR + "/report.json"]]),
    ),
    st.builds(lambda ring: ["iso", "--n=2", "--ring=" + ring], _RING),
    st.sampled_from([-1, 0, 1, 2, 3, 9]).map(lambda n: ["derive-j", f"--n={n}"]),
)


@settings(max_examples=200, deadline=None)
@given(_ARGV)
def test_cli_parsers_never_crash(argv):
    """Whatever the scalars, spaces and elements say, the CLI answers with
    exit 0 and JSON, or exit 2 and one line on stderr: never a traceback,
    and never exit 1, which only a failed verified property may use."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        json.loads(out.getvalue())
        assert err.getvalue() == ""
    else:
        assert code == 2, argv
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "suslin", "--seed", "1", "--samples", "5"
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"]
    assert data["suites"][0]["suite"] == "suslin"


def test_verify_emit_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--suite",
        "catalog",
        "--seed",
        "0",
        "--samples",
        "2",
        "--emit",
        str(target),
    )
    assert code == 0
    assert target.read_text() == out


def test_iso_certifies_over_z_mod_m_and_at_n_4(capsys):
    for argv, rank in (
        (("iso", "--n", "2", "--ring", "zmod:6"), 16),
        (("iso", "--n", "4"), 256),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["rank"] == data["monomials"] == rank
        assert data["isomorphism"] is True


def test_verify_over_z_mod_2_skips_two_involution_claims(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--samples", "2", "--ring", "zmod:2")
    assert code == 0
    checks = {c["name"]: c for s in json.loads(out)["suites"] for c in s["checks"]}
    skipped = checks["involution_structure"]["info"]["skipped"]
    assert sorted(skipped) == ["u=-1 lift", "witness"]
    assert all(reason.startswith("2 = 0") for reason in skipped.values())
    assert [name for name, c in checks.items() if "skipped" in c["info"]] == ["involution_structure"]


def test_verify_over_z_mod_3_draws_non_zero_perturbations(capsys):
    # lemma 4.1 perturbs by r in +-1..+-4; r = 3 would be zero over Z/3
    code, out, _ = run_cli(capsys, "verify", "--suite", "spin", "--samples", "3", "--ring", "zmod:3")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_every_check_runs_over_the_ring_the_report_names(monkeypatch):
    """Every rank certificate and span solve of a Z/6 run is over Z/6."""
    import quadembed.scalars as scalars
    from quadembed.suites import run_suites

    seen = []
    real_init, real_rank, real_fractions = (
        scalars.SpanSolver.__init__, scalars.rank_in_ring, scalars.rank_over_fractions
    )

    def span_init(self, columns, ring):
        seen.append(("span", ring))
        real_init(self, columns, ring)

    def rank_in_ring(vectors, ring):
        seen.append(("rank", ring))
        return real_rank(vectors, ring)

    def rank_over_fractions(a):
        seen.append(("fractions", None))
        return real_fractions(a)

    monkeypatch.setattr(scalars.SpanSolver, "__init__", span_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("quadembed"):
            if getattr(module, "rank_in_ring", None) is real_rank:
                monkeypatch.setattr(module, "rank_in_ring", rank_in_ring)
            if getattr(module, "rank_over_fractions", None) is real_fractions:
                monkeypatch.setattr(module, "rank_over_fractions", rank_over_fractions)
    ring = scalars.Zmod(6)
    assert run_suites("all", 0, 2, ring)["passed"]
    assert {kind for kind, _ in seen} == {"span", "rank"}
    assert {r for _, r in seen} == {ring}


def test_a_run_certifies_each_suslin_bed_once(monkeypatch):
    """One `run_suites` builds each Suslin bed once and ranks the 64
    monomial images of the rank-6 bed once, however many checks use them."""
    import quadembed.scalars as scalars
    import quadembed.suslin as suslin
    from quadembed.suites import run_suites

    real_embedding, real_rank = suslin.suslin_embedding, scalars.rank_in_ring
    built, certified = [], []

    def suslin_embedding(n, ring):
        built.append(n)
        return real_embedding(n, ring)

    def rank_in_ring(vectors, ring):
        # the catalog's even2n2 family at n = 2 ranks 64 Clifford-entry images
        if isinstance(vectors, list) and len(vectors) == 64 and isinstance(vectors[0], scalars.ScalarMatrix):
            certified.append(vectors[0].dim)
        return real_rank(vectors, ring)

    for name, module in list(sys.modules.items()):
        if name.startswith("quadembed"):
            for real, spy in ((real_embedding, suslin_embedding), (real_rank, rank_in_ring)):
                if getattr(module, real.__name__, None) is real:
                    monkeypatch.setattr(module, real.__name__, spy)
    for ring in (scalars.ZZ, scalars.Zmod(6)):
        built.clear()
        certified.clear()
        assert run_suites("all", 0, 2, ring)["passed"]
        assert sorted(built) == [2, 3]
        assert certified == [8]


def test_shared_beds_leak_nothing_between_suites():
    """Each suite's section of a whole run is the report of that suite alone."""
    from quadembed.scalars import ZZ, Zmod
    from quadembed.suites import SUITES, run_suites

    for ring in (ZZ, Zmod(6)):
        for seed in (0, 1):
            sections = {r["suite"]: r for r in run_suites("all", seed, 2, ring)["suites"]}
            for name in SUITES:
                assert sections[name] == run_suites(name, seed, 2, ring)["suites"][0]


def test_verify_report_digests_are_pinned(capsys):
    """The whole report of a fixed configuration, byte for byte, against the
    digests recorded before the scalar matrix types were merged (Z, Q),
    before the Clifford product tables moved onto the spaces (Z/6),
    before matrices were stored as integers over one denominator (Z/101)
    and before validation was kept on the embedding (Z/2, whose report
    names the skipped `involution_structure` claims): a change to any
    check, sampler, solver or number format moves them."""
    want = {
        None: "ed2157bb7056a47bfe64e133b1b16d058234feb85752d07735dff41713998897",
        "q": "dcc9271e33faf8128d0bacd2aa65aefd123af6c0f9365278fdc63eeccad449ae",
        "zmod:2": "9d322e4507f8f92f3126a8dacae56c9a6132a7052f8871e059a05d1d9fe31066",
        "zmod:6": "9d0ad9179a1523cad78a46a4c0b22c00b5c1244b979792a98fc3a8a96e3e6d94",
        "zmod:101": "cde3e3582bc8a3327861c013fa423c7a2a71a803db38cc7aa43b1a899e2a0607",
    }
    for ring, digest in want.items():
        argv = ["verify", "--suite", "all", "--samples", "3", "--seed", "0"]
        if ring is not None:
            argv += ["--ring", ring]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_a_failing_report_is_pinned(monkeypatch):
    """With q(x) read as q(x) + 1, five checks fail; the whole report,
    failures included, is pinned, so a check that drops its failures or a
    runner that loses them moves the digest."""
    from quadembed.qspace import QuadraticSpace
    from quadembed.scalars import ZZ
    from quadembed.suites import run_suites

    real = QuadraticSpace.evaluate_q
    monkeypatch.setattr(QuadraticSpace, "evaluate_q", lambda self, x: real(self, x) + 1)
    report = run_suites("all", 0, 2, ZZ)
    failed = [(s["suite"], c["name"]) for s in report["suites"] for c in s["checks"] if not c["passed"]]
    assert failed == [
        ("clifford", "polarised"),
        ("embedding", "jordan"),
        ("spin", "lemmas"),
        ("spin", "norm_multiplicative"),
        ("spin", "elementary_family"),
    ]
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d08c71817ef0688b2e897859571fe0af53659efae9fd953fee5a3b71a1ea2b85"
    )


def _bumped(real):  # entry (0, 0) one too high
    from quadembed.scalars import ScalarMatrix

    def defect(p):
        s = real(p)
        return s + ScalarMatrix(s.rows, s.cols, [1] + [0] * (len(s.values) - 1), s.ring)
    return defect


def test_failing_certificate_outputs_are_pinned(monkeypatch, capsys):
    """The bytes a failing certificate reports, recorded before the
    certificates returned plain data: `suslin/identities` and
    `embedding/validate`, each run alone on a planted defect (the companion
    matrix bumped at (0, 0); self-embeddings whose bar matrix is -I), and
    `suslin --check` on the bumped companion, which exits 1."""
    import quadembed.suslin as suslin
    import quadembed.suites as suites
    from quadembed.embedding import Embedding, clifford_self_embedding
    from quadembed.scalars import ScalarMatrix, ZZ

    def negated_bar(space):
        e = clifford_self_embedding(space)
        return Embedding(space, e.algebra, e.dim, e.rho, -ScalarMatrix.identity(space.rank, space.ring),
                         e.involution, e.a_star)

    def digest(obj):
        return hashlib.sha256(json.dumps(obj, indent=2, sort_keys=True).encode()).hexdigest()

    cases = [
        ("suslin", "identities", suslin, "suslin_bar", _bumped(suslin.suslin_bar),
         "8265a6febd75475981445d659d234a3ee02adc5d84e2ef54a1af47d7fb7fcb15"),
        ("embedding", "validate", suites, "clifford_self_embedding", negated_bar,
         "86fc32835917e95538555125840b24015eb796791f47a5a35b6e1d2325bfeb25"),
    ]
    for suite, check, owner, attr, defect, want in cases:
        with monkeypatch.context() as m:
            m.setitem(suites._CHECKS, suite, [c for c in suites._CHECKS[suite] if c[0] == check])
            m.setattr(owner, attr, defect)
            report = suites.run_suite(suites.SuiteConfig(suite, samples=2, ring=ZZ))
        assert not report["passed"], check
        assert digest(report) == want, check
    with monkeypatch.context() as m:
        m.setattr(suslin, "suslin_bar", _bumped(suslin.suslin_bar))
        code, out, err = run_cli(capsys, "suslin", "--v", "1,2", "--w", "3,4", "--check")
    assert code == 1 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4ba88b759cfa9355823f75f77911ebf6aa8caa99b234674140c2b7704eb49822"
    )


def test_each_check_fails_on_a_planted_defect(monkeypatch):
    """Each check that a passing run never fails is run alone with one
    planted defect; `run_suite` records it as failed, naming the identity
    where the check names one, and raises nothing."""
    import quadembed.clifford as clifford
    import quadembed.embedding as embedding
    import quadembed.suites as suites
    from quadembed.algmat import block2
    from quadembed.scalars import ZZ
    from quadembed.spin import EvenPair

    def plus_left(real):  # x * y read as x y + x
        return lambda x, y: real(x, y) + x

    def one_low(real):
        return lambda *args: real(*args) - 1

    def unswapped(real):  # form 1 lifts the diagonal blocks in place
        def defect(self, m):
            if self.form.form != 1:
                return real(self, m)
            a, b, c, d = m.blocks2()
            return real(self, block2(d, b, c, a))
        return defect

    def doubled(real):
        def defect(p, v):
            coords = real(p, v)
            return coords and [2 * c for c in coords]
        return defect

    spin_cfg = suites.SuiteConfig("spin", samples=4, ring=ZZ)
    ctx = spin_cfg.spin_bed
    cases = [
        ("suslin", "parity_law", None, suites, "suslin", _bumped(suites.suslin)),
        ("suslin", "bar_involution", None, suites, "suslin_bar", _bumped(suites.suslin_bar)),
        ("suslin", "linearity", None, suites, "suslin", _bumped(suites.suslin)),
        ("clifford", "associativity", None, clifford.CliffordElement, "__mul__",
         plus_left(clifford.CliffordElement.__mul__)),
        ("clifford", "grading", None, clifford.CliffordElement, "__mul__",
         plus_left(clifford.CliffordElement.__mul__)),
        ("clifford", "involution", "antimultiplicative", suites, "standard_involution",
         clifford.grade_involution),
        ("clifford", "pbw_count", None, suites, "pbw_basis", lambda s: clifford.pbw_basis(s)[:-1]),
        ("clifford", "tensor_assoc", None, clifford.GradedTensorElement, "__mul__",
         plus_left(clifford.GradedTensorElement.__mul__)),
        ("clifford", "graded_iso_sum", None, clifford, "rank_in_ring", one_low(clifford.rank_in_ring)),
        ("embedding", "validate", None, embedding, "rank_in_ring", one_low(embedding.rank_in_ring)),
        ("embedding", "phi", "parity", clifford.UniversalMap, "__call__",
         lambda self, a, real=clifford.UniversalMap.__call__: real(self, a) + self.one),
        ("embedding", "unit_trace", None, embedding.Embedding, "rho_bar_of", embedding.Embedding.rho_of),
        ("embedding", "lifted_involution", "anti", embedding.LiftedInvolution, "__call__",
         unswapped(embedding.LiftedInvolution.__call__)),
        ("embedding", "involution_structure", None, embedding.Embedding, "rho_bar_of",
         embedding.Embedding.rho_of),
        ("embedding", "involution_bridge", None, suites, "standard_involution", clifford.grade_involution),
        ("spin", "norm_multiplicative", "star", ctx, "star", lambda m, real=ctx.star: real(m).scale(ZZ(2))),
        ("spin", "elementary_family", "membership", ctx, "sample_elementary_product",
         lambda rng, real=ctx.sample_elementary_product: real(rng).scale(ZZ(2))),
        ("spin", "elementary_family", "spin", ctx, "chi_inverse", lambda g: EvenPair(g, ctx.star(g))),
        ("spin", "elementary_family", "roundtrip", ctx, "chi", lambda p: ctx.group_element(p.g2)),
        ("spin", "elementary_family", "isometry", ctx, "conjugation_coords", doubled(ctx.conjugation_coords)),
    ]
    for suite, check, identity, owner, attr, defect in cases:
        with monkeypatch.context() as m:
            m.setitem(suites._CHECKS, suite, [c for c in suites._CHECKS[suite] if c[0] == check])
            m.setattr(owner, attr, defect)
            cfg = spin_cfg if suite == "spin" else suites.SuiteConfig(suite, samples=4, ring=ZZ)
            (result,) = suites.run_suite(cfg)["checks"]
        assert not result["passed"], (check, identity)
        if identity is not None:
            assert identity in {f.get("identity") for f in result["failures"]}, (check, identity)


def test_each_suite_reports_its_checks_in_order():
    from quadembed.scalars import ZZ
    from quadembed.suites import SUITES, run_suites

    want = {
        "suslin": ["identities", "parity_law", "bar_involution", "linearity"],
        "clifford": [
            "associativity", "polarised", "grading", "involution", "pbw_count",
            "tensor_assoc", "graded_iso_sum", "suslin_faithfulness",
        ],
        "embedding": [
            "validate", "phi", "jordan", "unit_trace", "lifted_involution",
            "involution_structure", "involution_bridge",
        ],
        "spin": ["lemmas", "norm_multiplicative", "elementary_family"],
        "catalog": ["families"],
    }
    assert list(SUITES) == list(want)
    for name in SUITES:
        report = run_suites(name, 0, 1, ZZ)["suites"][0]
        assert [c["name"] for c in report["checks"]] == want[name]


def test_cli_output_digests_are_pinned(capsys):
    """The other fast CLI outputs, byte for byte, against digests recorded
    before the Clifford product became a fold of generator actions, and for
    the dense rank-5 product (nine terms each, most sharing e1 e2) before
    the fold became Horner's rule on shared prefixes.  The Clifford-entry
    catalogs over Q and Z/6 were recorded before `AlgMatrix` became a term
    map with its own raw product."""
    want = [
        (("suslin", "--v", "1,2", "--w", "3,4", "--bar", "--check"),
         "61247dd38e3ef7033e076d4e83e72368c524cd9198bf07275f50129515ce643f"),
        (("catalog", "--family", "hyperbolic2n", "--n", "1"),
         "708adfe9f6fb4d58e7d08998f65997997b4be56c1d6b048f010c0066c6fd9496"),
        (("catalog", "--family", "hyperbolic2n", "--n", "2"),
         "4d655f5f464278863411829bd29f63c80c7ae6369150bacd982090c52493da39"),
        (("catalog", "--family", "odd2n1", "--n", "1"),
         "e521a2c4e8fe2d9114f8a90598d07051b8a1e5d6353ef2598d91edb5d287b92e"),
        (("catalog", "--family", "odd2n1", "--n", "2"),
         "c0bb3219fede6a74da5a10d50bf1ef8655e4e8a38b22fb3a18280d5f85eb8fe4"),
        (("catalog", "--family", "even2n2", "--n", "1"),
         "dd5d7c520ae7d5952fe545707e146f861bb2ddb8424dfeff62791dc7f9c754b8"),
        (("catalog", "--family", "even2n2", "--n", "2"),
         "81996c466e9d07e930d3a05b0f613539bb1dd182c5a18e0d804ce51f034d06d1"),
        (("catalog", "--family", "odd2n1", "--n", "1", "--ring", "q"),
         "d7f9dbaabc1adddc86e29a69cce6e3cf687ef9738c2d3f18f582a585918faaf3"),
        (("catalog", "--family", "odd2n1", "--n", "1", "--ring", "zmod:6"),
         "445aa6b4ab897b4a2ea23c8329a1a349f20a7bee38b2af29da5a961de65b78e5"),
        (("catalog", "--family", "odd2n1", "--n", "2", "--ring", "q"),
         "8e0a220aaf79550897e7d5a0a5fef2f8d7ea3690969d8c86e8ee1f2f48c4d5f8"),
        (("catalog", "--family", "odd2n1", "--n", "2", "--ring", "zmod:6"),
         "4be9d8716fc389df0bf56137cf46d0a90b0f7147687681f63c2562ec5ccdb310"),
        (("catalog", "--family", "even2n2", "--n", "1", "--ring", "q"),
         "c49e2f1e22cdd959d2d840fa7377c99a80e8712302f1b5ccfb403f53a10290d5"),
        (("catalog", "--family", "even2n2", "--n", "1", "--ring", "zmod:6"),
         "44e6ba2391608b8be3204a2e8db1d7ef930a89d031d383946167c16fae9fc5fc"),
        (("catalog", "--family", "even2n2", "--n", "2", "--ring", "q"),
         "dca15902879ff51fccb41c0173497402689cfad9a6243af59dc6a639d37176f5"),
        (("catalog", "--family", "even2n2", "--n", "2", "--ring", "zmod:6"),
         "9d7bec7a691594037610bae68a77043c9b8528dd248c046950229fc02e6035ee"),
        (("derive-j", "--n", "1"),
         "5e1dc3399155ae5f20379bcedc6b90c6545c52b065761434ac841d4d0cb93001"),
        (("derive-j", "--n", "2"),
         "e8ab3c9a46f848f69ee219335c2bc06f4ebe50f1dc8c0be3b8b89a350b81c689"),
        (("derive-j", "--n", "3"),
         "325ad1c4361a27395c1600980535b0ba65adcc4c9d3e015859d7d290e9b8a8ea"),
        (("derive-j", "--n", "4"),
         "2d4f035d62d3caec85a9837edb7cc2f987aa244410d34c139cd2a86506eebdf4"),
        (("derive-j", "--n", "5"),
         "4c1adda820f6a2d08bc0c5a833d544f544790d83289773faa4c162dbf3bc9c8a"),
        (("derive-j", "--n", "6"),
         "aae30a3ea6de2b34651a694b51054febda5685b9c2b90d8af364433e25f3e215"),
        (("derive-j", "--n", "7"),
         "b2825c141b934e7f7097d75d1825eac7ebaca242ccaedd49b0f573d688ed1b54"),
        (("derive-j", "--n", "8"),
         "47fb73d0d4d06a106b2b87fcdc27dbad4f7279148cb590c33deb0fcf7774ac12"),
        (("iso", "--n", "2"),
         "7e6278e997858258575cccbaa5a410b7934b0f85640e15fb2914a3f50f040dd7"),
        (("clifford", "mul", "--space", "hyp:1", "--a", "2:1", "--b", "1:1"),
         "b62e334d0757b4c96d251924f7abcc2b897de34d0692dc9c048357d3aca50d06"),
        (("clifford", "mul", "--space", GENERAL_RANK3, "--a", "7:2,3:1,5:-1", "--b", "6:1,7:3,1:2"),
         "879645b27542a5c0f609c1cf31e0e4a8139e61f20f57fe0ae8c29d4fdace67eb"),
        (("clifford", "mul", "--space", "diag:1,-2,3", "--ring", "zmod:6",
         "--a", "7:2,3:1,5:-1", "--b", "6:1,7:3,1:2"),
         "3d37a1d5ec450d94fc0fa3362e822f3f599720a79c69bec0842177dc9fb9449b"),
        (("clifford", "mul", "--space", "hyp:2", "--ring", "q",
         "--a", "15:1/2,3:1,5:-1,8:2/5", "--b", "6:1/3,9:3,1:2,4:-3/4"),
         "8f991e869beece3b08ce1559bee6f9532f0de68b9f7d8e5749adaf0013f0b5d3"),
        (("clifford", "mul", "--space", GENERAL_RANK5,
          "--a", "3:2,7:-1,11:3,15:1,19:-2,23:1,27:4,31:-3,1:5",
          "--b", "5:1,7:2,13:-1,15:3,21:2,29:-1,31:1,3:-2,0:4"),
         "54ad56aacf072574bd5a4910f9e5f8dcf9b4e07df63316f783ff97165a3b1a66"),
    ]
    for argv, digest in want:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_verify_determinism_in_process(capsys):
    args = ["verify", "--suite", "suslin", "--seed", "3", "--samples", "4"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def _run_module(*argv):
    """`python -m quadembed *argv` in a fresh interpreter, with the
    `quadembed` modules it imported, read from `-X importtime`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "quadembed", *argv],
        capture_output=True, text=True, cwd=PACKAGE_ROOT,
    )
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc, {name for name in names if name.split(".")[0] == "quadembed"}


def test_cli_entry_point_subprocess():
    """Every command runs in a fresh interpreter.  In process every module
    is already loaded, so only here does a handler fail that leans on a
    module it does not import itself, or on an import order that holds
    only when another module loaded first."""
    for argv in (
        ("suslin", "--v", "1,2", "--w", "3,4", "--check"),
        ("clifford", "mul", "--space", "hyp:1", "--a", "1:1", "--b", "2:1"),
        ("derive-j", "--n", "1"),
        ("iso", "--n", "2"),
        ("catalog", "--family", "odd2n1", "--n", "1"),
        ("verify", "--suite", "catalog", "--samples", "1"),
    ):
        proc, _ = _run_module(*argv)
        assert proc.returncode == 0, (argv, proc.stderr)
        out = json.loads(proc.stdout)
        if argv[0] == "derive-j":
            assert out["j"] == [["1"]]


def _fresh_modules(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running `code`."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "import sys; print(*sys.modules)"],
        capture_output=True, text=True, cwd=PACKAGE_ROOT, check=True,
    )
    return set(proc.stdout.split())


# every module of the package, all of which a `verify` run loads
PACKAGE_MODULES = {
    "quadembed", "quadembed.algmat", "quadembed.cli", "quadembed.clifford",
    "quadembed.embedding", "quadembed.qspace", "quadembed.scalars", "quadembed.spin",
    "quadembed.suites", "quadembed.suslin",
}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter that imports the CLI and the engine, as `verify`
    does (suites imports every engine module), loads, beyond what a bare
    interpreter loads, neither module: both cost a cold start milliseconds
    the CLI has no use for."""
    loaded = _fresh_modules("import quadembed.cli, quadembed.suites; ") - _fresh_modules("")
    assert PACKAGE_MODULES <= loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_package_names_load_their_submodule_on_first_use():
    """`import quadembed` loads no submodule, a public name loads the one
    that owns it, and the CLI loads the engine only in the handler that
    runs it: `--help` and a refused argument load none of it."""

    def package_modules(code):
        return {m for m in _fresh_modules(code) if m.split(".")[0] == "quadembed"}

    assert package_modules("import quadembed; ") == {"quadembed"}
    assert package_modules("import quadembed; quadembed.ZZ; ") == {"quadembed", "quadembed.scalars"}
    assert package_modules("import quadembed.cli; ") == {"quadembed", "quadembed.cli"}
    for argv, code in ((("--help",), 0), (("verify", "--suite", "nope"), 2)):
        proc, loaded = _run_module(*argv)
        assert proc.returncode == code
        assert loaded == {"quadembed", "quadembed.cli"}, argv
    proc, loaded = _run_module("verify", "--suite", "catalog", "--samples", "1")
    assert proc.returncode == 0
    assert loaded == PACKAGE_MODULES


def test_emitted_objects_reparse(capsys):
    from quadembed.qspace import QuadraticSpace

    code, out, _ = run_cli(capsys, "catalog", "--family", "hyperbolic2n", "--n", "1")
    assert code == 0
    data = json.loads(out)
    space = QuadraticSpace.from_json(data["space"])
    assert space.to_json() == data["space"]

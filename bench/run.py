#!/usr/bin/env python3
"""quadembed benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --seed N --profile TOP [--profile-op I]

Run from the root of a checkout; the package is imported from `src/`.  A
run does the workload's set-up, then whole rounds of its fixed op list until
the next round would end after `--seconds` (but at least the workload's
minimum number of rounds).  Every op's output is checked.  The last line of
stdout is {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  Details
go to bench/out/.  `--profile` prints the cProfile top-N of one op of round 0
instead and times nothing.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import cProfile
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, profile_table, read_header  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, python_child  # noqa: E402

OUT = HERE / "out"

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
# span name -> reported fields; "ms" is the span's total time, the others
# are per-name sums of call counts and self times.
LAYERS = {
    "scalars.det": ("calls", "self_ms"),
    "scalars.rank": ("calls", "self_ms"),
    "scalars.solve": ("calls", "self_ms"),
    "scalars.matmul": ("self_ms",),
    "scalars.inverse": ("self_ms",),
    "scalars.span_build": ("calls", "self_ms"),
    "scalars.span_solve": ("calls", "self_ms"),
    "qspace.hash": ("calls", "self_ms"),
    "clifford.mul.diag": ("calls", "self_ms"),
    "clifford.mul.general": ("calls", "self_ms"),
    "clifford.reversal": ("self_ms",),
    "clifford.extend_universal": ("self_ms",),
    "algmat.mul.z": ("calls", "self_ms"),
    "algmat.mul.q": ("calls", "self_ms"),
    "algmat.mul.cl": ("calls", "self_ms"),
    "algmat.span_coords": ("self_ms",),
    "embedding.validate": ("calls", "self_ms"),
    "embedding.build_phi": ("calls", "self_ms"),
    "embedding.lift_involution": ("calls", "self_ms"),
    "embedding.jordan": ("self_ms",),
    "spin.context_init": ("self_ms",),
    "spin.norm_d": ("self_ms",),
    "spin.is_in_g": ("self_ms",),
    "spin.is_in_spin": ("self_ms",),
    "spin.chi_inverse": ("self_ms",),
    "suslin.derive_j": ("calls", "self_ms"),
    "suslin.embedding": ("calls",),
    "suslin.iso": ("self_ms",),
    "suslin.catalog": ("self_ms",),
    "suslin.identities": ("self_ms",),
    **{f"suites.{s}": ("ms",) for s in ("catalog", "clifford", "embedding", "spin", "suslin")},
}
UNITS = {"calls": "count", "self_ms": "ms", "ms": "ms"}
PER_LAYER = (
    [("cli.import_ms", "ms")]
    + [(f"{span}.{field}", UNITS[field]) for span, fields in LAYERS.items() for field in fields]
    + [("trace.overhead", "ratio"), ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s")]
)


def percentile(xs, pct: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(pct / 100.0 * len(s)) - 1)]


def git_revision() -> str | None:
    """The commit checked out, read from `.git` (loose or packed ref); None
    outside a git repository."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "quadembed").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
    }


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python Fraction loop: a record of the
    host's own speed around a run, kept in the detail file, not a metric."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 4000):
            acc += Fraction(1, i)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def cli_import_ms(pairs: int = 5) -> float:
    """Fresh-interpreter import of quadembed.cli minus a bare interpreter
    start, medians of `pairs` alternating runs."""
    bare, full = [], []
    for _ in range(pairs):
        for code, sink in (("pass", bare), ("import quadembed.cli", full)):
            t0 = time.perf_counter()
            python_child(["-c", code], check=True)
            sink.append(time.perf_counter() - t0)
    return (statistics.median(full) - statistics.median(bare)) * 1000.0


def setup_samples(wl, args) -> list[float]:
    """The workload's set-up time, several times over: fresh interpreters
    for all but the last sample, which is this process's own set-up."""
    if not wl.in_process:
        return [wl.setup(args.seed) for _ in range(wl.setup_samples)]
    samples = []
    for _ in range(wl.setup_samples - 1):
        out = python_child(
            [str(HERE / "run.py"), "--workload", wl.name, "--seed", str(args.seed), "--setup-probe"],
            check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    t0 = time.perf_counter()
    wl.setup(args.seed)
    samples.append(time.perf_counter() - t0)
    return samples


class Run:
    """Counts, latencies and per-layer aggregates of one run."""

    def __init__(self, wl, trace: bool):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: collections.Counter = collections.Counter()
        self.latencies: list[float] = []
        self.round_p50s: list[float] = []
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.traced_rounds = 0
        self.aggregate: dict = {}
        self.tracer = Tracer() if trace and wl.in_process else None

    def _timed(self, op, **kwargs):
        t0 = time.perf_counter()
        try:
            out, err = self.wl.run(op, **kwargs), None
        except Exception:  # the op failed: count it and go on
            out, err = None, traceback.format_exc(limit=-3)
        return out, err, time.perf_counter() - t0

    def _merge(self, agg: dict) -> None:
        for name, row in agg.items():
            mine = self.aggregate.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            for key in mine:
                mine[key] += row[key]

    def round(self, ops, traced: bool) -> None:
        if traced and self.tracer is not None:
            outs, errs = self._traced_in_process(ops)
        elif traced:
            outs, errs = self._traced_children(ops)
        else:
            t0 = time.perf_counter()
            outs, errs, lat = zip(*(self._timed(op) for op in ops))
            self.walls.append(time.perf_counter() - t0)
            self.latencies += lat
            self.round_p50s.append(statistics.median(lat))
        self._check(ops, outs, errs)

    def _traced_in_process(self, ops):
        outs, errs = [], []
        self.tracer.install()
        try:
            t0 = time.perf_counter()
            for op in ops:
                idx = self.tracer.open(f"op.{op.kind}")
                out, err, _ = self._timed(op)
                self.tracer.close(idx)
                outs.append(out)
                errs.append(err)
            self.traced_walls.append(time.perf_counter() - t0)
        finally:
            self.tracer.uninstall()
        self.traced_rounds += 1
        return outs, errs

    def _traced_children(self, ops):
        """Each op twice, untraced then traced; their stdout must agree."""
        outs, errs, lat, traced_wall = [], [], [], 0.0
        for op in ops:
            path = OUT / f"trace-{self.wl.name}-{op.args[0]}.gz"
            out, err, dt = self._timed(op)
            t_out, t_err, t_dt = self._timed(op, trace_out=path)
            traced_wall += t_dt
            if t_err is not None:
                err = err or f"traced child: {t_err}"
            elif err is None and (t_out.returncode, t_out.stdout) != (out.returncode, out.stdout):
                err = "the traced child's exit code or stdout differs from the untraced child's"
            elif t_out.returncode == 0:
                self._merge(read_header(path)["aggregate"])
            outs.append(out)
            errs.append(err)
            lat.append(dt)
        self.walls.append(sum(lat))
        self.latencies += lat
        self.round_p50s.append(statistics.median(lat))
        self.traced_walls.append(traced_wall)
        self.traced_rounds += 1
        return outs, errs

    def _check(self, ops, outs, errs) -> None:
        ok = [i for i, err in enumerate(errs) if err is None]
        try:
            reasons = dict(zip(ok, self.wl.check([ops[i] for i in ok], [outs[i] for i in ok])))
        except Exception:  # a malformed output the checks could not read
            reasons = {i: traceback.format_exc(limit=-3) for i in ok}
        for i, op in enumerate(ops):
            self.attempted += 1
            reason = errs[i] or reasons.get(i)
            if reason is None:
                continue
            self.failed += 1
            # the known fault is a None answer; an exception or a wrong
            # solution from a fault op is as wrong as from any other op
            known = op.fault and errs[i] is None and outs[i] is None
            if not known:
                self.correct = False
            label = "known fault" if known else "WRONG"
            self.failures[f"{op.kind} ({label}): {reason.strip().splitlines()[-1]}"] += 1

    def layer_metrics(self) -> dict:
        """Per-layer sums per traced round, and the tracing overhead."""
        rounds = max(self.traced_rounds, 1)
        if self.tracer is not None:
            self._merge(self.tracer.aggregate())
        out = {}
        for span, fields in LAYERS.items():
            row = self.aggregate.get(span, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            for field in fields:
                value = row["total_ms" if field == "ms" else field] / rounds
                out[f"{span}.{field}"] = value
        untraced = statistics.fmean(self.walls)
        traced = statistics.fmean(self.traced_walls)
        out["trace.overhead"] = traced / untraced
        out["trace.untraced_wall_s"] = untraced
        out["trace.traced_wall_s"] = traced
        return out


def measure(wl, args) -> tuple[dict, dict]:
    """One run: (detail for bench/out/, the result line)."""
    setup = setup_samples(wl, args)
    run = Run(wl, bool(args.trace))
    import_ms = cli_import_ms() if args.trace else None
    min_rounds = 2 if args.trace else wl.min_rounds
    probe_before = host_probe_ms()
    t_begin = time.perf_counter()
    durations: list[float] = []
    peak_rss_mb = None
    r = 0
    while True:
        t0 = time.perf_counter()
        traced = bool(args.trace) and (not wl.in_process or r % 2 == 1)
        run.round(wl.round(args.seed, r), traced)
        durations.append(time.perf_counter() - t0)
        r += 1
        if r == wl.min_rounds:
            # read after a fixed amount of work: caches grow with the rounds
            # a run manages, and a faster program must not read as larger
            peak_rss_mb = wl.peak_rss_mb()
        elapsed = time.perf_counter() - t_begin
        if r >= min_rounds and elapsed + statistics.median(durations) > args.seconds:
            break

    if args.trace:
        metrics = {"cli.import_ms": import_ms, **run.layer_metrics()}
        spec = PER_LAYER
        if run.tracer is not None:
            run.tracer.dump(OUT / f"trace-{wl.name}-seed{args.seed}.gz")
    else:
        # The host alternates between a fast and a slow speed within
        # seconds, so op latencies are bimodal.  A median over all of a
        # run's ops jumps from one mode to the other when the slow share
        # passes one half; means over rounds follow that share smoothly.
        metrics = {
            "wall_s": statistics.fmean(run.walls),
            "setup_s": statistics.median(setup),
            "op_p50_ms": statistics.fmean(run.round_p50s) * 1000.0,
            "op_tail_ms": percentile(run.latencies, wl.tail_pct) * 1000.0,
            "peak_rss_mb": peak_rss_mb,
        }
        spec = END_TO_END
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "rounds": r,
        "ops": len(run.latencies),
        "tail_pct": wl.tail_pct,
        "setup_samples_s": setup,
        "host_probe_ms": [probe_before, host_probe_ms()],
        "round_walls_s": run.walls,
        "failures": dict(run.failures),
    }
    for line, count in run.failures.items():
        sys.stderr.write(f"failed {count}x: {line}\n")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }
    return detail, result


def profile(wl, args) -> str:
    """cProfile top-N of op `--profile-op` of round 0; nothing is timed."""
    path = OUT / f"profile-{wl.name}-seed{args.seed}.txt"
    if wl.in_process:
        wl.setup(args.seed)
    op = wl.round(args.seed, 0)[args.profile_op]
    if wl.in_process:
        prof = cProfile.Profile()
        prof.runcall(wl.run, op)
        path.write_text(profile_table(prof, args.profile), encoding="utf-8")
    else:
        entry = HERE / "cli_child.py"
        python_child(
            [str(entry), "--profile-out", str(path), "--profile-top", str(args.profile), "--", *wl.argv(op)],
            check=True,
        )
    return f"# profile of op {args.profile_op} ({op.kind}) of {wl.name}, seed {args.seed}\n" + path.read_text()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, metavar="TOP", help="print the cProfile top-N of one op")
    parser.add_argument("--profile-op", type=int, default=0, help="index of the profiled op in round 0")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "quadembed" / "__init__.py").is_file():
        sys.stderr.write(f"error: no quadembed package under {SRC}; run from a checkout of the repository\n")
        return 2
    wl = WORKLOADS[args.workload]()
    if args.setup_probe:
        t0 = time.perf_counter()
        wl.setup(args.seed)
        print(time.perf_counter() - t0)
        return 0
    OUT.mkdir(exist_ok=True)
    if args.profile is not None:
        print(profile(wl, args))
        return 0

    detail, result = measure(wl, args)
    name = f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**detail, **result}, indent=1) + "\n", encoding="utf-8")
    print("# env " + json.dumps(detail["env"], sort_keys=True))
    print(f"# {wl.name}: {detail['rounds']} rounds, {detail['ops']} timed ops, op_tail = p{wl.tail_pct}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the package's public calls, recorded from the benchmark's side.

`Tracer.install` replaces each traced function or method with a wrapper that
records one span (name, start, end, parent) per call and restores the
originals on `uninstall`.  Package modules bind names with `from .x import f`,
so a module-level function is replaced on every `quadembed.*` module object
in `sys.modules` that binds it, not only on the module that defines it.
Spans are kept in compact arrays and written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import io
import json
import pstats
import sys
import time
from array import array

def _clifford_mul_name(args):
    space = args[0].space
    n = space.rank
    q = space.qmatrix.entries
    diagonal = all(not q[i * n + j].value for i in range(n) for j in range(i + 1, n))
    return "clifford.mul.diag" if diagonal else "clifford.mul.general"


def _algmat_mul_name(args):
    alg = args[0].algebra
    if hasattr(alg, "space"):
        return "algmat.mul.cl"
    return {"Z": "algmat.mul.z", "Q": "algmat.mul.q"}.get(alg.ring.name, "algmat.mul.zmod")


def _run_suite_name(args):
    return f"suites.{args[0].suite}"


# (module, attribute path, span name or namer(args) -> span name).  The
# names are the prefixes of the per-layer metrics in BENCHMARK.json.
TARGETS = [
    ("quadembed.scalars", "ScalarMatrix.determinant", "scalars.det"),
    ("quadembed.scalars", "rank_over_fractions", "scalars.rank"),
    ("quadembed.scalars", "solve_in_ring", "scalars.solve"),
    ("quadembed.scalars", "ScalarMatrix.__mul__", "scalars.matmul"),
    ("quadembed.scalars", "ScalarMatrix.inverse", "scalars.inverse"),
    ("quadembed.scalars", "SpanSolver.__init__", "scalars.span_build"),
    ("quadembed.scalars", "SpanSolver.solve", "scalars.span_solve"),
    ("quadembed.qspace", "QuadraticSpace.__hash__", "qspace.hash"),
    ("quadembed.clifford", "CliffordElement.__mul__", _clifford_mul_name),
    ("quadembed.clifford", "standard_involution", "clifford.reversal"),
    ("quadembed.clifford", "extend_universal", "clifford.extend_universal"),
    ("quadembed.algmat", "AlgMatrix.__mul__", _algmat_mul_name),
    ("quadembed.algmat", "span_coords", "algmat.span_coords"),
    ("quadembed.embedding", "validate_embedding", "embedding.validate"),
    ("quadembed.embedding", "build_phi", "embedding.build_phi"),
    ("quadembed.embedding", "lift_involution", "embedding.lift_involution"),
    ("quadembed.embedding", "jordan_product", "embedding.jordan"),
    ("quadembed.spin", "SpinContext.__init__", "spin.context_init"),
    ("quadembed.spin", "SpinContext.norm_d", "spin.norm_d"),
    ("quadembed.spin", "SpinContext.is_in_g", "spin.is_in_g"),
    ("quadembed.spin", "SpinContext.is_in_spin", "spin.is_in_spin"),
    ("quadembed.spin", "SpinContext.chi_inverse", "spin.chi_inverse"),
    ("quadembed.suslin", "derive_j", "suslin.derive_j"),
    ("quadembed.suslin", "suslin_embedding", "suslin.embedding"),
    ("quadembed.suslin", "hyperbolic_clifford_iso", "suslin.iso"),
    ("quadembed.suslin", "catalog_generators", "suslin.catalog"),
    ("quadembed.suslin", "check_suslin_identities", "suslin.identities"),
    ("quadembed.suites", "run_suite", _run_suite_name),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        tracer = self
        fixed = isinstance(name, str)

        def wrapper(*args, **kwargs):
            idx = tracer.open(name if fixed else name(args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def install(self) -> None:
        """Wrap every target; importing the package modules first."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, path, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(original, name), original)
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "quadembed" or mod_name.startswith("quadembed.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper, original)

    def _set(self, owner, attr, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def aggregate(self) -> dict:
        """Per span name: calls, total_ms and self_ms (total minus the time
        covered by child spans; children of one span never overlap)."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name_id[i]], [0, 0.0, 0.0])
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return {
            k: {"calls": c, "total_ms": t * 1000.0, "self_ms": s * 1000.0}
            for k, (c, t, s) in out.items()
        }

    def dump(self, path, **extra) -> None:
        """Write the spans, gzipped: one JSON header line (span names, array
        layout and `extra`), then the name-id, start, end and parent arrays
        in native byte order.  Times are perf_counter seconds."""
        arrays = (self.name_id, self.start, self.end, self.parent)
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [f"{n}:{a.typecode}" for n, a in zip(("name", "start", "end", "parent"), arrays)],
            "byteorder": sys.byteorder,
            **extra,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                a.tofile(fh)


def read_header(path) -> dict:
    """The JSON header line of a file written by `Tracer.dump`."""
    with gzip.open(path, "rb") as fh:
        return json.loads(fh.readline())


def profile_table(prof, top: int) -> str:
    """The top-N rows of a cProfile.Profile, by own time and by cumulative time."""
    text = io.StringIO()
    stats = pstats.Stats(prof, stream=text)
    stats.sort_stats("tottime").print_stats(top)
    stats.sort_stats("cumulative").print_stats(top)
    return text.getvalue()

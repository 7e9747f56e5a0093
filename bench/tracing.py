"""In-process replay of a workload's jobs, with spans and counters.

The traced run calls `cli.main(argv)` once per job, with stdout and stderr
captured, in three kinds of pass:

* plain: nothing wrapped; its wall time is the base of the overhead share;
* span: wrappers record a span (name, start, end, parent span, job) around
  each layer boundary listed in `SPAN_FUNCTIONS` and `SPAN_METHODS`;
* count: plain counters on `Poly` arithmetic, `normalize_primitive` and
  `residual`, which run far too often for a span each.

Every wrapper is installed where its caller looks the name up: on the class
for methods (each `Poly` operator alias separately, since `__radd__ =
__add__` binds a second name), and in every `leibnizalg` module namespace
or module-level registry dict that holds the function, which covers names
imported with `from ... import`. Names the package no longer has are
skipped, so the tracer keeps working as the package changes.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
import traceback
from collections import Counter, defaultdict

# (module, function) pairs wrapped with a span in the span pass.
SPAN_FUNCTIONS = (
    ("cli", "main"),
    ("algfile", "parse_algebra"),
    ("algfile", "parse_change"),
    ("algfile", "serialize_algebra"),
    ("core", "span"),
    ("core", "rref"),
    ("core", "det_and_adjugate"),
    ("analysis", "extract_constraints"),
    ("analysis", "apply_basis_change"),
    ("analysis", "verify_isomorphism"),
    ("analysis", "compare_profiles"),
    ("scalars", "normalize_primitive"),
)
# AlgebraTable methods wrapped with a span; __init__ is construction plus validation.
SPAN_METHODS = (
    "__init__",
    "bracket",
    "residual",
    "check_leibniz",
    "check_lie",
    "product_span",
    "ideal_closure",
    "squares_ideal",
    "verify_ideal",
    "quotient_by",
    "invariant_profile",
)
POLY_OPERATORS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def everywhere(self, original, wrapper):
        """Replace every reference to `original` in the package's namespaces."""
        for modname, module in list(sys.modules.items()):
            if modname != "leibnizalg" and not modname.startswith("leibnizalg."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self.set(module, name, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self.set(value, key, wrapper)

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)


class SpanTracer:
    """Spans kept in memory as (name, start, end, parent, job) tuples."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = [None]
        self.job = None
        self.notes: Counter = Counter()
        self.profiled: set = set()

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.job)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def run_job(self, job_id, call):
        """One root span per job."""
        self.job = job_id
        sid = len(self.spans)
        self.spans.append(None)
        self.stack[:] = [sid]
        start = time.perf_counter()
        try:
            return call()
        finally:
            self.spans[sid] = ("job", start, time.perf_counter(), None, job_id)
            self.stack[:] = [None]

    # notes taken by the wrappers ------------------------------------------

    def _rref_rows(self, args):
        rows = list(args[0])
        self.notes["rref.rows_in"] += len(rows)
        return (rows,) + tuple(args[1:])

    def _rref_rank(self, args, result):
        self.notes["rref.rank"] += len(result[0])

    def _bytes_in(self, args, result):
        self.notes["bytes_in"] += len(args[0].encode("utf-8"))

    def _distinct(self, args, result):
        self.notes["constraints.distinct"] += len(result)

    def _profiled(self, args, result):
        self.profiled.add((self.job, id(args[0])))

    @contextlib.contextmanager
    def installed(self, lib):
        patches = Patches()
        special = {
            "core.rref": (self._rref_rows, self._rref_rank),
            "algfile.parse_algebra": (None, self._bytes_in),
            "algfile.parse_change": (None, self._bytes_in),
            "analysis.extract_constraints": (None, self._distinct),
            "core.invariant_profile": (None, self._profiled),
        }
        try:
            targets = [(f"{m}.{f}", getattr(getattr(lib, m, None), f, None)) for m, f in SPAN_FUNCTIONS]
            targets += [
                (f"constructions.{name}", fn)
                for name, fn in sorted(vars(lib.constructions).items())
                if name.startswith("make_") and callable(fn)
            ]
            for name, fn in targets:
                if fn is not None:
                    patches.everywhere(fn, self.wrap(name, fn, *special.get(name, (None, None))))
            table = lib.core.AlgebraTable
            for meth in SPAN_METHODS:
                raw = table.__dict__.get(meth)
                if raw is None:
                    continue
                name = "core.AlgebraTable" if meth == "__init__" else f"core.{meth}"
                patches.set(table, meth, self.wrap(name, raw, *special.get(name, (None, None))))
            yield self
        finally:
            patches.restore()


class CountTracer:
    """Plain counters for calls that run too often for a span."""

    def __init__(self):
        self.counts: Counter = Counter()

    @contextlib.contextmanager
    def installed(self, lib):
        patches = Patches()
        counts = self.counts

        def poly_op(key, fn):
            def wrapper(*args):
                result = fn(*args)
                counts[key] += 1
                terms = getattr(result, "terms", None)
                if terms is not None and len(terms) > counts["poly.max_terms"]:
                    counts["poly.max_terms"] = len(terms)
                return result

            return wrapper

        def normalize(fn):
            def wrapper(*args, **kwargs):
                counts["normalize_primitive"] += 1
                return fn(*args, **kwargs)

            return wrapper

        def residual(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["residual"] += 1
                counts["residual.nonzero"] += sum(1 for c in getattr(result, "coords", ()) if c)
                return result

            return wrapper

        try:
            poly = lib.scalars.Poly
            for op in POLY_OPERATORS:
                if op in poly.__dict__:
                    patches.set(poly, op, poly_op(op, poly.__dict__[op]))
            norm = getattr(lib.scalars, "normalize_primitive", None)
            if norm is not None:
                patches.everywhere(norm, normalize(norm))
            table = lib.core.AlgebraTable
            if "residual" in table.__dict__:
                patches.set(table, "residual", residual(table.__dict__["residual"]))
            yield self
        finally:
            patches.restore()


def replay(lib, jobs, directory, tracer=None):
    """Run every job in-process; returns (seconds inside cli.main, outputs).

    Outputs are (exit code, stdout, stderr) per job. A job's stdout is saved
    for the jobs that read it, as in the subprocess loop.
    """
    cli = lib.cli
    outputs = []
    busy = 0.0
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for job_id, job in enumerate(jobs):
            out, err = io.StringIO(), io.StringIO()

            def call(argv=list(job.argv)):
                return cli.main(argv)

            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = tracer.run_job(job_id, call) if tracer is not None else call()
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
                except Exception:  # an uncaught error is a failed job, reported like the interpreter would
                    traceback.print_exc()
                    code = 1
            busy += time.perf_counter() - start
            if job.save_as and code == 0:
                with open(job.save_as, "w", encoding="utf-8") as fh:
                    fh.write(out.getvalue())
            outputs.append((code, out.getvalue(), err.getvalue()))
    finally:
        os.chdir(cwd)
    return busy, outputs


def layer_metrics(spans, tracer: SpanTracer, counts: Counter) -> dict:
    """Per-layer totals over one replay of the job list.

    `.calls` counts spans, `.ms` sums their durations and `.self_ms` sums
    duration minus the time covered by direct child spans (children never
    overlap: the package is single-threaded).
    """
    calls: Counter = Counter()
    total = defaultdict(float)
    child = defaultdict(float)
    make_ms = 0.0
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        total[name] += end - start
        if parent is not None:
            child[parent] += end - start
    own = defaultdict(float)
    for sid, (name, start, end, parent, _) in enumerate(spans):
        own[name] += end - start - child[sid]
        if name.startswith("constructions.make_"):
            outer = parent is not None and spans[parent][0].startswith("constructions.make_")
            if not outer:
                make_ms += end - start
    notes = tracer.notes

    def ms(name):
        return 1000.0 * total[name]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_ms": 1000.0 * own["cli.main"],
        "algfile.parse_algebra.calls": calls["algfile.parse_algebra"],
        "algfile.parse_algebra.self_ms": 1000.0 * own["algfile.parse_algebra"],
        "algfile.parse_change.ms": ms("algfile.parse_change"),
        "algfile.serialize_algebra.calls": calls["algfile.serialize_algebra"],
        "algfile.serialize_algebra.ms": ms("algfile.serialize_algebra"),
        "algfile.bytes_in": notes["bytes_in"],
        "core.AlgebraTable.calls": calls["core.AlgebraTable"],
        "core.AlgebraTable.ms": ms("core.AlgebraTable"),
        "core.check_leibniz.ms": ms("core.check_leibniz"),
        "core.check_lie.ms": ms("core.check_lie"),
        "core.squares_ideal.ms": ms("core.squares_ideal"),
        "core.ideal_closure.ms": ms("core.ideal_closure"),
        "core.span.calls": calls["core.span"],
        "core.rref.calls": calls["core.rref"],
        "core.rref.ms": ms("core.rref"),
        "core.rref.rows_in": notes["rref.rows_in"],
        "core.rref.rank_per_row": ratio(notes["rref.rank"], notes["rref.rows_in"]),
        "core.product_span.calls": calls["core.product_span"],
        "core.product_span.ms": ms("core.product_span"),
        "core.invariant_profile.calls": calls["core.invariant_profile"],
        "core.invariant_profile.ms": ms("core.invariant_profile"),
        "core.quotient_by.ms": ms("core.quotient_by"),
        "core.verify_ideal.ms": ms("core.verify_ideal"),
        "analysis.compare_profiles.calls": calls["analysis.compare_profiles"],
        "analysis.compare_profiles.ms": ms("analysis.compare_profiles"),
        "analysis.profile.reuse": ratio(len(tracer.profiled), calls["core.invariant_profile"]),
        "core.bracket.calls": calls["core.bracket"],
        "core.det_and_adjugate.ms": ms("core.det_and_adjugate"),
        "analysis.apply_basis_change.ms": ms("analysis.apply_basis_change"),
        "analysis.verify_isomorphism.ms": ms("analysis.verify_isomorphism"),
        "core.residual.calls": counts["residual"],
        "analysis.extract_constraints.ms": ms("analysis.extract_constraints"),
        "analysis.extract_constraints.self_ms": 1000.0 * own["analysis.extract_constraints"],
        "analysis.constraints.raw": counts["residual.nonzero"],
        "analysis.constraints.distinct_per_raw": ratio(notes["constraints.distinct"], counts["residual.nonzero"]),
        "scalars.normalize_primitive.calls": counts["normalize_primitive"],
        "scalars.normalize_primitive.ms": ms("scalars.normalize_primitive"),
        "scalars.Poly.max_terms": counts["poly.max_terms"],
        "scalars.Poly.mul.calls": counts["__mul__"] + counts["__rmul__"],
        "scalars.Poly.add.calls": counts["__add__"] + counts["__radd__"],
        "constructions.make.calls": sum(n for k, n in calls.items() if k.startswith("constructions.make_")),
        "constructions.make.ms": 1000.0 * make_ms,
    }


def unit(metric: str) -> str:
    if metric.endswith(("_ms", ".ms")):
        return "ms"
    if metric == "algfile.bytes_in":
        return "bytes"
    if metric.endswith(("reuse", "_per_row", "_per_raw", "_share")):
        return "ratio"
    return "count"


def profile_reuse_by_job(spans, tracer: SpanTracer) -> dict:
    """job id -> (distinct tables, invariant_profile calls), for profile jobs."""
    calls: Counter = Counter(job for name, _, _, _, job in spans if name == "core.invariant_profile")
    distinct: Counter = Counter(job for job, _ in tracer.profiled)
    return {job: (distinct[job], n) for job, n in sorted(calls.items())}

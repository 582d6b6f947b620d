"""Spans and counts around liequad's public functions, installed from outside.

`Tracer.install()` replaces each traced function by a wrapper in every liequad
module namespace that holds it (the modules import each other's names with
`from .core import ...`), and patches two class attributes, `Subspace.span`
and `Exact.__init__`.  `uninstall()` puts the originals back.  No library file
is edited.

A span records name, start, end, parent span and job.  Only the outermost call
of a span name is recorded, so `rank` inside `nullspace` or `center` inside
`graded_center_basis` is part of its caller's span.  `Exact` constructions and
`dot` calls are counted, not spanned: there are millions of them per report.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, public functions timed under that name)
SPANNED = {
    "linalg.elim": ("linalg", ("rref", "rank", "nullspace", "solve_linear")),
    "core.verify_jacobi": ("core", ("verify_jacobi",)),
    "core.verify_form": ("core", ("verify_form",)),
    "core.structure": (
        "core",
        (
            "center",
            "graded_center_basis",
            "derived_subalgebra",
            "derived_series",
            "lower_central_series",
            "orthogonal_complement",
        ),
    ),
    "catalog.build": ("catalog", ("build",)),
    "derivations.solve": ("derivations", ("derivation_space",)),
    "extensions.construct": (
        "extensions",
        (
            "double_extension_1d",
            "double_extension_general",
            "t_star_extension",
            "super_double_extension",
            "ts_star_extension",
            "direct_sum",
        ),
    ),
    "morphisms.decompose": ("morphisms", ("decomposability_via_center",)),
    "morphisms.fingerprint": ("morphisms", ("fingerprint",)),
    "morphisms.iso": ("morphisms", ("verify_homomorphism", "verify_isomorphism", "verify_i_isomorphism")),
    "algfile.parse": ("algfile", ("parse", "parse_mapfile")),
    "algfile.emit": ("algfile", ("emit",)),
    "cli.main": ("cli", ("main",)),
}


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _measure(fname, args, kwargs, result):
    """(work, extra, repeat key or None) for one call, as named per function."""
    if fname in ("rref", "rank", "nullspace"):
        return args[0].rows, args[0].cols, None
    if fname == "solve_linear":
        return args[0].rows, args[0].cols + 1, None
    if fname == "span":
        return len(args[1]), args[2], None
    if fname == "verify_jacobi":
        n = args[0].dim
        return n * (n + 1) * (n + 2) // 6, 0, ("jacobi", args[0].space, args[0].c)
    if fname == "verify_form":
        alg, form = args[0], args[1]
        return alg.dim**3, 0, ("form", alg.c, form.parity, form.gram.entries)
    if fname == "build":
        bk = _arg(args, kwargs, 1, "backend")
        params = tuple(sorted((k, str(v)) for k, v in kwargs.items() if k != "backend"))
        return 0, 0, (_arg(args, kwargs, 0, "id"), getattr(bk, "name", "exact"), params)
    if fname == "derivation_space":
        return args[0].dim ** 2, 0, None
    if fname in ("parse", "parse_mapfile"):
        return len(args[0]), 0, None
    if fname == "emit":
        return len(result), 0, None
    return 0, 0, None


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, job, work, extra]; extra is the
        # column count of an elimination and 1 for a repeated key, else 0
        self.spans = []
        self.counts = Counter()
        self.job = -1
        self._stack = []
        self._depth = Counter()
        self._seen = set()
        self._undo = []
        self._tallies = {}

    def begin_job(self) -> None:
        """Start a new job: repeats are counted within one job only."""
        self.job += 1
        self._seen = set()

    # -- installation ---------------------------------------------------------

    def _span_wrapper(self, name, fname, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.process_time

        def wrapper(*args, **kwargs):
            if depth[name]:
                return fn(*args, **kwargs)
            rec = [name, clock(), None, stack[-1] if stack else -1, self.job, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                depth[name] -= 1
                stack.pop()
            rec[5], rec[6], key = _measure(fname, args, kwargs, result)
            if key is not None:
                rec[6] = int(key in self._seen)
                self._seen.add(key)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _tally(self, name):
        """A C-level counter (itertools.count) read once, on uninstall."""
        self._tallies[name] = itertools.count()
        return self._tallies[name].__next__

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        from liequad import linalg, scalars

        mods = {k: m for k, m in sys.modules.items() if k == "liequad" or k.startswith("liequad.")}
        replace = {}
        for name, (mod, fnames) in SPANNED.items():
            for fname in fnames:
                fn = getattr(mods[f"liequad.{mod}"], fname)
                replace[id(fn)] = (fn, self._span_wrapper(name, fname, fn))

        def dot(u, v, _dot=linalg.dot, _tick=self._tally("linalg.dot.calls")):
            _tick()
            return _dot(u, v)

        replace[id(linalg.dot)] = (linalg.dot, dot)
        for m in mods.values():
            for attr, val in list(vars(m).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(m, attr, hit[1])

        timed = self._span_wrapper("linalg.elim", "span", linalg.Subspace.__dict__["span"].__func__)

        def span(backend, vectors, ambient_dim):
            return timed(backend, list(vectors), ambient_dim)  # a generator is read once

        self._set(linalg.Subspace, "span", staticmethod(span))

        def exact_init(self_, re=0, im=0, _init=scalars.Exact.__init__, _tick=self._tally("scalars.exact_new")):
            _tick()
            _init(self_, re, im)

        self._set(scalars.Exact, "__init__", exact_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)
        for name, tally in self._tallies.items():
            self.counts[name] += next(tally)  # a fresh count yields 0 first
        self._tallies = {}

    # -- output ----------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge(self, data: dict) -> None:
        """Append a traced child process's spans as the current job."""
        base = len(self.spans)
        for rec in data["spans"]:
            rec = list(rec)
            rec[3] = rec[3] + base if rec[3] >= 0 else -1
            rec[4] = self.job
            self.spans.append(rec)
        self.counts.update(data["counts"])


def layer_metrics(spans, counts, rounds: int, scale: float) -> dict:
    """Per-layer metrics per round of the workload, from spans and counts;
    span CPU times are multiplied by scale (see reference.py)."""
    child = defaultdict(float)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    calls, total, self_s, work, repeats = Counter(), Counter(), Counter(), Counter(), Counter()
    cells = equations = 0
    for i, rec in enumerate(spans):
        name, dur = rec[0], rec[2] - rec[1]
        calls[name] += 1
        total[name] += dur
        self_s[name] += dur - child[i]
        work[name] += rec[5]
        repeats[name] += rec[6]
        if name == "linalg.elim":
            cells += rec[5] * rec[6]
            if rec[3] >= 0 and spans[rec[3]][0] == "derivations.solve":
                equations += rec[5]

    def per(v):
        return v / rounds

    def frac(num, den):
        return num / den if den else 0.0

    verify_calls = calls["core.verify_jacobi"] + calls["core.verify_form"]
    m = {
        "scalars.exact_new": (per(counts.get("scalars.exact_new", 0)), "count"),
        "linalg.elim.calls": (per(calls["linalg.elim"]), "count"),
        "linalg.elim.s": (per(total["linalg.elim"]), "s"),
        "linalg.elim.cells": (per(cells), "count"),
        "linalg.dot.calls": (per(counts.get("linalg.dot.calls", 0)), "count"),
        "core.verify_jacobi.calls": (per(calls["core.verify_jacobi"]), "count"),
        "core.verify_jacobi.s": (per(total["core.verify_jacobi"]), "s"),
        "core.jacobi.triples": (per(work["core.verify_jacobi"]), "count"),
        "core.verify_form.calls": (per(calls["core.verify_form"]), "count"),
        "core.verify_form.s": (per(total["core.verify_form"]), "s"),
        "core.invariance.triples": (per(work["core.verify_form"]), "count"),
        "core.structure.s": (per(total["core.structure"]), "s"),
        "core.verify.repeat_frac": (
            frac(repeats["core.verify_jacobi"] + repeats["core.verify_form"], verify_calls),
            "frac",
        ),
        "catalog.build.calls": (per(calls["catalog.build"]), "count"),
        "catalog.build.self_s": (per(self_s["catalog.build"]), "s"),
        "catalog.build.repeat_frac": (frac(repeats["catalog.build"], calls["catalog.build"]), "frac"),
        "derivations.solve.calls": (per(calls["derivations.solve"]), "count"),
        "derivations.solve.s": (per(total["derivations.solve"]), "s"),
        "derivations.unknowns": (per(work["derivations.solve"]), "count"),
        "derivations.equations": (per(equations), "count"),
        "extensions.construct.calls": (per(calls["extensions.construct"]), "count"),
        "extensions.construct.self_s": (per(self_s["extensions.construct"]), "s"),
        "morphisms.decompose.s": (per(total["morphisms.decompose"]), "s"),
        "morphisms.fingerprint.s": (per(total["morphisms.fingerprint"]), "s"),
        "morphisms.iso.s": (per(total["morphisms.iso"]), "s"),
        "algfile.parse.s": (per(total["algfile.parse"]), "s"),
        "algfile.emit.s": (per(total["algfile.emit"]), "s"),
        "algfile.bytes": (per(work["algfile.parse"] + work["algfile.emit"]), "B"),
        "cli.main.self_s": (per(self_s["cli.main"]), "s"),
    }
    return {k: (v * scale if unit == "s" else v, unit) for k, (v, unit) in m.items()}

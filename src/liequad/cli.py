"""Command-line surface.

Exit codes: 0 all checks pass, 1 at least one check failed or a constructor
rejected its input, or stdout was closed early (`liequad ... | head`), 2 usage
or parse errors, input files on different backends and complex arithmetic
that overflowed a double (a value of inf or nan decides no check).  --format
json emits the report as a machine-readable object; report --all is
byte-deterministic on the exact backend once --no-timestamp is passed.  A
warning raised by a command, such as the one for a cocycle that is not
cyclic, is printed to stderr as one line `warning: <message>`; it changes
neither stdout nor the exit code.

The flags --tol, --format and --no-timestamp can also be set through the
environment variables LIEQUAD_TOL, LIEQUAD_FORMAT and LIEQUAD_NO_TIMESTAMP.
main reads them on every call, so a change between two calls in one process
is seen by the second; a flag given on the command line overrides its
variable, an empty variable counts as unset, and any non-empty
LIEQUAD_NO_TIMESTAMP suppresses the timestamp.  A tolerance, from --tol or
LIEQUAD_TOL, must be a finite number >= 0; any other value, like a
LIEQUAD_FORMAT other than text or json, is a usage error (exit 2).
The argument parser is built on the first call of main and reused by later
calls in the same process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from fractions import Fraction
from typing import Optional
from json.encoder import encode_basestring_ascii

from . import __version__, catalog
from .algfile import AlgebraFile, MapFile, ParseError, emit, parse, parse_mapfile
from .core import (
    LieSuperalgebra,
    QuadraticAlgebra,
    StructureError,
    SuperSpace,
    center,
    derived_subalgebra,
    is_orthogonal_complement,
    verify_form,
    verify_jacobi,
)
from .derivations import derivation_space, skew_derivation_family_g2n2
from .extensions import (
    Cocycle2,
    SymPairing,
    direct_sum,
    double_extension_1d,
    double_extension_general,
    t_star_extension,
    ts_star_extension,
)
from .linalg import Matrix
from .morphisms import (
    GradedLinearMap,
    check_sp2_lemma,
    decomposability_via_center,
    verify_i_isomorphism,
    verify_isomorphism,
)
from .report import Report
from .scalars import DEFAULT_TOL, BackendMismatch, ScalarOverflow, ScalarParseError

FORMATS = ("text", "json")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _load(path: str, tol: float) -> AlgebraFile:
    return parse(_read(path), tol=tol)


def _timestamp() -> str:
    """The current UTC time in ISO format; datetime is imported only when a stamp is printed."""
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


def _dumps(x, pad: str = "\n") -> str:
    """json.dumps(x, indent=2, sort_keys=True), byte for byte.

    With indent set, json.dumps takes the standard library's pure-Python
    encoder.  Dicts with str keys, lists, tuples, str, int, bool and None are
    written here instead, and anything else by json.dumps, its lines moved to
    the depth.  pad is a newline followed by the indentation of x's closing
    bracket."""
    t = type(x)
    if t is str:
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if t is int:
        return repr(x)
    inner = pad + "  "
    if t is list or t is tuple:
        items = [encode_basestring_ascii(v) if type(v) is str else _dumps(v, inner) for v in x]
        return f"[{inner}{(',' + inner).join(items)}{pad}]" if x else "[]"
    if t is dict and all(type(k) is str for k in x):
        items = [
            f"{encode_basestring_ascii(k)}: {encode_basestring_ascii(v) if type(v) is str else _dumps(v, inner)}"
            for k, v in sorted(x.items())
        ]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}" if x else "{}"
    return json.dumps(x, indent=2, sort_keys=True).replace("\n", pad)


def _require_form(af: AlgebraFile, what: str):
    if af.form is None:
        raise ParseError(f"{what} needs form lines in {af.name}")
    return QuadraticAlgebra(af.algebra, af.form)


def _emit_report(rep: Report, args, extra=None) -> int:
    if args.format == "json":
        payload = {"tool": "liequad", "version": __version__}
        if not args.no_timestamp:
            payload["timestamp"] = _timestamp()
        if extra:
            payload.update(extra)
        payload.update(rep.as_dict())
        print(_dumps(payload))
    else:
        if not args.no_timestamp:
            print(f"# liequad {__version__} at {_timestamp()}")
        if extra:
            for k, v in extra.items():
                print(f"# {k}: {v}")
        print(rep.render())
        summary = "all checks passed" if rep.ok else f"{len(rep.failures)} of {len(rep.checks)} checks failed"
        print(f"# {summary}")
    return 0 if rep.ok else 1


def _axioms(af: AlgebraFile) -> Report:
    """The graded Jacobi identity, and the form's checks when the file has form lines."""
    rep = Report()
    rep.extend(verify_jacobi(af.algebra).prefixed(af.name))
    if af.form is not None:
        rep.extend(verify_form(af.algebra, af.form).prefixed(af.name))
    return rep


def cmd_verify(args) -> int:
    af = _load(args.file, args.tol)
    rep = _axioms(af)
    if af.form is not None:
        q = QuadraticAlgebra(af.algebra, af.form)
        z = center(af.algebra)
        d = derived_subalgebra(af.algebra)
        rep.add(
            f"{af.name}:center-derived-dim",
            "dim center + dim derived = dim",
            z.dim + d.dim == af.algebra.dim,
            witness=f"center {z.dim}, derived {d.dim}",
        )
        if af.form.is_nondegenerate():
            rep.add(
                f"{af.name}:center-is-derived-perp",
                "center equals orthogonal complement of the derived subalgebra",
                is_orthogonal_complement(q, z, d),
            )
    return _emit_report(rep, args)


def cmd_derivations(args) -> int:
    af = _load(args.file, args.tol)
    form = af.form if args.kind == "skew" else None
    if args.kind == "skew" and af.form is None:
        raise ParseError("skew derivations need form lines in the algebra file")
    ds = derivation_space(af.algebra, args.kind, form)
    bk, n = af.algebra.backend, af.algebra.dim
    zero = bk.format(bk.zero)

    def matrix(row):  # the formatted rows of D from its {k * n + j: D[k][j]} row, formatting the nonzeros only
        flat = [zero] * (n * n)
        for m, x in row.items():
            flat[m] = bk.format(x)
        return [flat[k * n : k * n + n] for k in range(n)]

    if args.format == "json":
        payload = {
            "tool": "liequad",
            "version": __version__,
            "algebra": af.name,
            "kind": args.kind,
            "dimension": ds.dim,
            "basis": [matrix(row) for row in ds.rows],
        }
        print(_dumps(payload))
    else:
        print(f"# {args.kind} derivations of {af.name}: dimension {ds.dim}")
        for idx, row in enumerate(ds.rows):
            print(f"D{idx + 1}:")
            for lab, entries in zip(af.algebra.labels, matrix(row)):
                print(f"  {lab:>6} | {' '.join(entries)}")
    return 0


def _scalars(bk, table) -> dict:
    """{key: {label: scalar}} of the {key: Terms} entries of an auxiliary file."""
    return {key: terms.scalars(bk) for key, terms in table.items()}


def _linear_map(source: SuperSpace, target: SuperSpace, bk, images) -> GradedLinearMap:
    """The graded map that sends each source label to its image in images
    {source label: Terms}; a label without an image goes to 0."""
    for src in images:
        if src not in source.labels:
            raise ParseError(f"unknown source label {src!r} in map file")
    return GradedLinearMap.from_images(source, target, _scalars(bk, images), bk)


def _psi_action(base: LieSuperalgebra, core: SuperSpace, bk, mf: MapFile) -> list:
    """psi(e) on the core for each generator e of base, from the psi lines."""
    for gen in mf.psi:
        if gen not in base.labels:
            raise ParseError(f"unknown generator label {gen!r} in psi file")
    return [_linear_map(core, core, bk, mf.psi.get(gen, {})).matrix for gen in base.labels]


def _cocycle_from_file(af: AlgebraFile, path) -> Optional[Cocycle2]:
    """The cocycle on af's algebra of the theta lines in the file at path; None without a path."""
    if not path:
        return None
    mf = parse_mapfile(_read(path), af.algebra.labels)
    return Cocycle2.build(af.algebra, _scalars(af.algebra.backend, mf.theta))


def cmd_extend(args) -> int:
    af = _load(args.base, args.tol)
    bk = af.algebra.backend
    kind = args.constructor
    if kind == "double1d":
        q = _require_form(af, "double1d")
        mf = parse_mapfile(_read(args.map), af.algebra.labels)
        d = _linear_map(af.algebra.space, af.algebra.space, bk, mf.images).matrix
        out = double_extension_1d(q, d, tuple(args.labels))
    elif kind == "tstar":
        out = t_star_extension(af.algebra, _cocycle_from_file(af, args.cocycle))
    elif kind == "tsstar":
        phi_entries = {}
        if args.pairing:
            mf = parse_mapfile(_read(args.pairing), af.algebra.labels)
            phi_entries = _scalars(bk, mf.phi)
        phi = SymPairing.build(af.algebra, phi_entries)
        out = ts_star_extension(af.algebra, phi)
    else:  # double, or its alias superdouble
        core_af = _load(args.core, args.tol)
        core = _require_form(core_af, kind)
        mf = parse_mapfile(_read(args.psi), core_af.algebra.labels)
        psi = _psi_action(af.algebra, core_af.algebra.space, core_af.algebra.backend, mf)
        out = double_extension_general(af.algebra, core, psi, _cocycle_from_file(af, args.cocycle))
    # a constructor whose cocycle or pairing is not cyclic returns a bare algebra
    result, form = (out.algebra, out.form) if isinstance(out, QuadraticAlgebra) else (out, None)
    sys.stdout.write(emit(result, form, f"{af.name}_{kind}"))
    return 0


def cmd_check_iso(args) -> int:
    src = _load(args.source, args.tol)
    tgt = _load(args.target, args.tol)
    mf = parse_mapfile(_read(args.map), tgt.algebra.labels)
    a = _linear_map(src.algebra.space, tgt.algebra.space, src.algebra.backend, mf.images)
    if src.form is not None and tgt.form is not None:
        rep = verify_i_isomorphism(
            a,
            QuadraticAlgebra(src.algebra, src.form),
            QuadraticAlgebra(tgt.algebra, tgt.form),
        )
    else:
        rep = verify_isomorphism(a, src.algebra, tgt.algebra)
    return _emit_report(rep, args)


def cmd_decompose(args) -> int:
    af = _load(args.file, args.tol)
    q = _require_form(af, "decompose")
    rep = _axioms(af)
    if not rep.ok:  # the witness search presumes the axioms: report them as verify does
        return _emit_report(rep, args)
    w = decomposability_via_center(q)
    if args.format == "json":
        payload = {"tool": "liequad", "version": __version__, "algebra": af.name}
        if not args.no_timestamp:
            payload["timestamp"] = _timestamp()
        if w is None:
            payload["witness"] = None
        else:
            payload["witness"] = {
                "core": [af.algebra.format_vector(v) for v in w.core.basis],
                "complement_dim": w.complement.dim,
                "center": [af.algebra.format_vector(v) for v in w.center.basis],
            }
            payload.update(w.report.as_dict())
        print(_dumps(payload))
        return 0
    if w is None:
        print(f"{af.name}: no central witness (the test is sufficient, not complete)")
        return 0
    print(f"{af.name}: decomposable; central witness")
    for v in w.core.basis:
        print(f"  {af.algebra.format_vector(v)}")
    print(f"  complement dimension {w.complement.dim}")
    print(w.report.render())
    return 0


def cmd_catalog(args) -> int:
    if args.catalog_cmd == "list":
        for e in catalog.entries():
            params = ", ".join(p.name for p in e.params)
            params = f" ({params})" if params else ""
            dims = "2n+2" if callable(e.even) else f"{len(e.even)}|{len(e.odd)}"
            print(f"{e.id:<8} dim {dims:<5} {e.form_parity:<5}{params:<12} {e.description}")
        return 0
    if args.catalog_cmd == "emit":
        bad = [kv for kv in args.param if "=" not in kv]
        if bad:
            raise ParseError(f"--param {bad[0]!r} is not of the form K=V")
        params = dict(kv.split("=", 1) for kv in args.param)
        q = catalog.build(args.id, **params)
        name = args.id + ("" if not params else "_" + "_".join(f"{k}{v}" for k, v in sorted(params.items())))
        sys.stdout.write(emit(q.algebra, q.form, name.replace("/", "_"), params=params))
        return 0
    return _emit_report(catalog.verify_all(only=args.id), args)


def build_full_report() -> Report:
    """Every machine-checkable claim the library ships: the catalog grid, the
    derivation dimension counts, the reconstruction identities, the witness
    values, and the rank-two lemma samples."""
    rep = Report()
    verified = {}
    rep.extend(catalog.verify_all(verified=verified))
    build = functools.partial(catalog.verified_build, verified)  # each grid point is checked once

    q4 = build("g4")
    rep.add(
        "derivations:g4-skew-dim",
        "skew derivation space of the diamond has dimension 3",
        derivation_space(q4.algebra, "skew", q4.form).dim == 3,
    )
    q5 = build("g5")
    rep.add(
        "derivations:g5-skew-dim",
        "skew derivation space of the 5-dim nilpotent algebra has dimension 6",
        derivation_space(q5.algebra, "skew", q5.form).dim == 6,
    )
    for n in (1, 2, 3):
        q = build("g2n2", n=n)
        fam = skew_derivation_family_g2n2(q)
        generic = derivation_space(q.algebra, "skew", q.form)
        rep.add(
            f"derivations:g2n2-family-n{n}",
            "closed-form skew family equals the generic solver",
            fam.dim == n * n + 2 * n == generic.dim and fam.span() == generic.span(),
        )

    for base_id, cat_id, kw in (
        ("g3_1", "g6_1", {}),
        ("g3_2", "g6_2", {}),
        ("g3_3", "g6_3", {"mu": "1/2"}),
    ):
        g = catalog.base(base_id, **kw)
        ext = t_star_extension(g, None)
        ref = build(cat_id, **kw)
        rep.add(
            f"reconstruction:{cat_id}",
            "zero-cocycle T*-extension reproduces the catalog table",
            ext.algebra.nz == ref.algebra.nz and ext.form.gram == ref.form.gram,
        )

    h3 = catalog.base("g3_1")
    theta = Cocycle2.build(
        h3, {("X", "Y"): {"Z": 1}, ("Y", "Z"): {"X": 1}, ("Z", "X"): {"Y": 1}}
    )
    qt = t_star_extension(h3, theta)
    w = decomposability_via_center(qt)
    ok = w is not None and w.core.dim == 1 and qt.form.value(w.core.basis[0], w.core.basis[0]) == qt.backend.coerce(-2)
    rep.add(
        "witness:tstar-heisenberg",
        "central witness of the twisted Heisenberg extension squares to -2",
        ok,
        witness=qt.algebra.format_vector(w.core.basis[0]) if w else None,
    )

    for gamma in ("1", "-2"):
        s = direct_sum(
            build("go4_3"),
            build("go2", **{"lambda": gamma}),
            rename2={"X0": "Z0", "X1": "Z1"},
        )
        ref = build("go6_5", gamma=gamma)
        rep.add(
            f"direct-sum:go6_5[gamma={gamma}]",
            "orthogonal sum reproduces the catalog row constant-for-constant",
            s.algebra.nz == ref.algebra.nz and s.form.gram == ref.form.gram,
        )

    bk = q4.backend
    ok = True
    for x, y in [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3)]:
        # B = v w^T with v = (x, y), w = (y, -x); this A has Av = v/2 and
        # w^T A = -w^T/2, so [A,B] = B (every sample has x != 0)
        b = Matrix.from_rows(bk, [[x * y, -x * x], [y * y, -x * y]])
        a = Matrix.from_rows(bk, [[Fraction(1, 2), 0], [Fraction(y, x), Fraction(-1, 2)]])
        ok = ok and check_sp2_lemma(a, b).ok
    rep.add(
        "lemma:sp2-samples",
        "solutions of [A,B]=B have A semisimple and B nilpotent",
        ok,
    )
    return rep


def cmd_report(args) -> int:
    if not args.all:
        raise ParseError("report currently supports only --all")
    return _emit_report(build_full_report(), args, extra={"scope": "full-verification"})


def _tolerance(raw: str) -> float:
    """A zero tolerance: a finite float >= 0."""
    try:
        tol = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {raw!r}")
    return tol


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="liequad",
        description="Exact verification toolkit for quadratic and odd quadratic Lie superalgebras.",
    )
    # the defaults of these three stay None: main fills them from the
    # environment on every call
    ap.add_argument(
        "--tol",
        type=_tolerance,
        help="zero tolerance of the complex backend, finite and >= 0 (env LIEQUAD_TOL)",
    )
    ap.add_argument(
        "--format",
        choices=FORMATS,
        help="output format, text by default (env LIEQUAD_FORMAT)",
    )
    ap.add_argument(
        "--no-timestamp",
        action="store_true",
        default=None,
        help="suppress the timestamp header for reproducible output (env LIEQUAD_NO_TIMESTAMP)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the axioms of an algebra file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("derivations", help="solve for a derivation space")
    p.add_argument("file")
    p.add_argument("--kind", choices=("all", "skew", "inner"), default="all")
    p.set_defaults(fn=cmd_derivations)

    p = sub.add_parser("extend", help="run one of the extension constructors")
    psub = p.add_subparsers(dest="constructor", required=True)
    d1 = psub.add_parser("double1d")
    d1.add_argument("base")
    d1.add_argument("--map", required=True, help="map file with the skew derivation")
    d1.add_argument("--labels", nargs=2, default=("e", "f"))
    dg = psub.add_parser("double", aliases=["superdouble"])
    dg.add_argument("base")
    dg.add_argument("core")
    dg.add_argument("--psi", required=True)
    dg.add_argument("--cocycle")
    ts = psub.add_parser("tstar")
    ts.add_argument("base")
    ts.add_argument("--cocycle")
    os_ = psub.add_parser("tsstar")
    os_.add_argument("base")
    os_.add_argument("--pairing")
    for sp_ in (d1, dg, ts, os_):
        sp_.set_defaults(fn=cmd_extend)

    p = sub.add_parser("check-iso", help="verify a supplied (i-)isomorphism")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("map")
    p.set_defaults(fn=cmd_check_iso)

    p = sub.add_parser("decompose", help="look for a central decomposability witness")
    p.add_argument("file")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("catalog", help="list, emit or verify the named algebras")
    csub = p.add_subparsers(dest="catalog_cmd", required=True)
    csub.add_parser("list").set_defaults(fn=cmd_catalog)
    ce = csub.add_parser("emit")
    ce.add_argument("id")
    ce.add_argument("--param", action="append", default=[], metavar="K=V")
    ce.set_defaults(fn=cmd_catalog)
    cv = csub.add_parser("verify")
    cv.add_argument("--id")
    cv.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("report", help="regenerate the full verification report")
    p.add_argument("--all", action="store_true")
    p.set_defaults(fn=cmd_report)
    return ap


_parser = None


def _fill_from_env(ap: argparse.ArgumentParser, args) -> None:
    """Set --tol, --format and --no-timestamp, where the command line left
    them unset, from the LIEQUAD_* variables or the built-in defaults."""
    if args.tol is None:
        raw = os.environ.get("LIEQUAD_TOL")
        try:
            args.tol = _tolerance(raw) if raw else DEFAULT_TOL
        except argparse.ArgumentTypeError as exc:
            ap.error(f"LIEQUAD_TOL: {exc}")
    if args.format is None:
        args.format = os.environ.get("LIEQUAD_FORMAT") or "text"
        if args.format not in FORMATS:
            choices = ", ".join(map(repr, FORMATS))
            ap.error(f"LIEQUAD_FORMAT: invalid choice: {args.format!r} (choose from {choices})")
    if args.no_timestamp is None:
        args.no_timestamp = bool(os.environ.get("LIEQUAD_NO_TIMESTAMP"))


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = make_parser()
    args = _parser.parse_args(argv)
    _fill_from_env(_parser, args)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = args.fn(args)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader left (`liequad ... | head`): as the Python docs advise,
        # point stdout at devnull so the exit flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, ScalarParseError, ScalarOverflow, BackendMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StructureError, catalog.InadmissibleParameter, catalog.UnknownEntry) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

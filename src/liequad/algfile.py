"""Line-oriented text format for algebras, forms, and auxiliary map data.

Algebra files:

    # comment
    algebra <name>
    backend exact|complex
    dim_even <n>
    dim_odd <n>
    basis <l1> <l2> ...
    param <k> = <coeff>                       (optional, metadata only)
    bracket <a> <b> = <coeff> <label> [+ <coeff> <label> ...]
    form <a> <b> = <coeff>

Each header line, and the param line of each name, may appear once.
Unspecified brackets and form entries are zero, and each unordered pair may
appear once, in one orientation (the other is forced by graded antisymmetry or
supersymmetry).  A nonzero coefficient on a label of the wrong parity is
refused by the LieSuperalgebra constructor; a zero one is dropped.  A
ParseError names the line of the offending entry: for the constructors'
checks, the first entry refused on its own, with its own message.
Exact coefficients are fractions p/q, optionally with an imaginary part
written like 1/2+3/4i; the complex backend takes decimal literals.  Parsing
round-trips bit-exactly on the exact backend.

Auxiliary files reuse the same term syntax with the keywords map, psi, theta
and phi:

    map <src> = <coeff> <tgt> [+ ...]         images of basis vectors
    psi <gen> <src> = <coeff> <tgt> [+ ...]   action matrices, one per generator
    theta <a> <b> = <coeff> <c> [+ ...]       dual-coefficient cocycle values
    phi <a> <b> = <coeff> <c> [+ ...]         pairing values in the base algebra
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from .core import BilinearForm, LieSuperalgebra, StructureError
from .scalars import DEFAULT_TOL, EXACT, ComplexBackend, ScalarParseError


class ParseError(ValueError):
    def __init__(self, msg: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {msg}" if line else msg)


class AlgebraFile:
    __slots__ = ("name", "algebra", "form", "params")

    def __init__(self, name: str, algebra: LieSuperalgebra, form: Optional[BilinearForm], params: Optional[dict] = None):
        self.name = name
        self.algebra = algebra
        self.form = form
        self.params = {} if params is None else params


def _tokenize_terms(tokens, line_no, known, what):
    """Parse 'coeff label + coeff label ...' into {label: coeff-token}."""
    terms = {}
    chunks, current = [], []
    for t in tokens:
        if t == "+":
            chunks.append(current)
            current = []
        else:
            current.append(t)
    chunks.append(current)
    for chunk in chunks:
        if len(chunk) != 2:
            raise ParseError(
                f"{what}: each term must be '<coeff> <label>', got {' '.join(chunk) or '(empty)'}",
                line_no,
            )
        coeff, label = chunk
        if label not in known:
            raise ParseError(f"unknown basis label {label!r}", line_no)
        if label in terms:
            raise ParseError(f"label {label!r} repeated inside one value", line_no)
        terms[label] = coeff
    return terms


def _reject_repeat(table, key, a, b, line_no, what, fixer) -> None:
    """Reject (a, b) if table, keyed (a, b) -> (line, value), holds it in either orientation."""
    if (a, b) in table:
        raise ParseError(f"{key} {a} {b} given twice (first at line {table[a, b][0]})", line_no)
    if (b, a) in table:
        raise ParseError(
            f"both orientations of the {what} ({a},{b}) given "
            f"(first at line {table[b, a][0]}); {fixer} fixes the reverse",
            line_no,
        )


def _directives(text: str):
    """(line number, tokens) of each line that holds more than a comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield line_no, tokens


def parse(text: str, tol: float = None) -> AlgebraFile:
    name = None
    backend = None
    dim_even = dim_odd = None
    basis = None
    params: Dict[str, str] = {}
    brackets = {}
    form_entries = {}
    headers = {}  # header, or "param <k>", -> line of its first occurrence

    for line_no, tokens in _directives(text):
        key = tokens[0]
        if key in ("algebra", "backend", "dim_even", "dim_odd", "basis", "param"):
            entry = " ".join(tokens[:2]) if key == "param" else key
            if entry in headers:
                raise ParseError(f"{entry} given twice (first at line {headers[entry]})", line_no)
            headers[entry] = line_no
        if key == "algebra":
            if len(tokens) != 2:
                raise ParseError("algebra line needs exactly one name", line_no)
            name = tokens[1]
        elif key == "backend":
            if len(tokens) != 2 or tokens[1] not in ("exact", "complex"):
                raise ParseError("backend must be 'exact' or 'complex'", line_no)
            backend = EXACT if tokens[1] == "exact" else ComplexBackend(DEFAULT_TOL if tol is None else tol)
        elif key == "dim_even":
            dim_even = _int_field(tokens, line_no)
        elif key == "dim_odd":
            dim_odd = _int_field(tokens, line_no)
        elif key == "basis":
            basis = tokens[1:]
            if not basis:
                raise ParseError("basis line lists no labels", line_no)
            if len(set(basis)) != len(basis):
                raise ParseError("basis labels must be distinct", line_no)
        elif key == "param":
            if len(tokens) != 4 or tokens[2] != "=":
                raise ParseError("param line must read 'param <name> = <value>'", line_no)
            params[tokens[1]] = tokens[3]
        elif key == "bracket":
            _need_header(basis, dim_even, dim_odd, line_no)
            if len(tokens) < 5 or tokens[3] != "=":
                raise ParseError("bracket line must read 'bracket <a> <b> = <terms>'", line_no)
            a, b = tokens[1], tokens[2]
            for l in (a, b):
                if l not in basis:
                    raise ParseError(f"unknown basis label {l!r}", line_no)
            _reject_repeat(brackets, key, a, b, line_no, "pair", "graded antisymmetry")
            brackets[(a, b)] = (line_no, _tokenize_terms(tokens[4:], line_no, set(basis), "bracket"))
        elif key == "form":
            _need_header(basis, dim_even, dim_odd, line_no)
            if len(tokens) != 5 or tokens[3] != "=":
                raise ParseError("form line must read 'form <a> <b> = <coeff>'", line_no)
            a, b = tokens[1], tokens[2]
            for l in (a, b):
                if l not in basis:
                    raise ParseError(f"unknown basis label {l!r}", line_no)
            _reject_repeat(form_entries, key, a, b, line_no, "form pair", "supersymmetry")
            form_entries[(a, b)] = (line_no, tokens[4])
        else:
            raise ParseError(f"unknown directive {key!r}", line_no)

    if name is None:
        raise ParseError("missing 'algebra <name>' line")
    _need_header(basis, dim_even, dim_odd, 0)
    if backend is None:
        backend = EXACT
    if len(basis) != dim_even + dim_odd:
        raise ParseError(
            f"basis lists {len(basis)} labels but dim_even + dim_odd = {dim_even + dim_odd}"
        )
    even, odd = basis[:dim_even], basis[dim_even:]
    algebra = _build_at_lines(
        lambda table: LieSuperalgebra.build(even, odd, table, backend),
        brackets,
        lambda terms: {l: backend.parse(tok) for l, tok in terms.items()},
    )
    form = None
    if form_entries:
        parity, values = _form_parity(algebra, form_entries, backend)
        form = _build_at_lines(
            lambda table: BilinearForm.build(algebra.space, table, parity, backend),
            form_entries,
            lambda tok: values[tok] if tok in values else backend.parse(tok),
        )
    return AlgebraFile(name=name, algebra=algebra, form=form, params=params)


def _build_at_lines(build, entries, parse_value):
    """build(table) for entries {key: (line, raw value)}, where table maps each
    key to parse_value(raw value); a failure is a ParseError at its line.

    Each check that parse leaves to the constructors (parity, an even square,
    the form's block pattern and an odd diagonal) concerns one entry, since
    build writes exact mirrors.  A failure is reported at the first entry, in
    file order, that build refuses on its own, with the message of that
    one-entry build: the constructor names the first fault in basis order,
    which may sit on a later line."""
    table = {}
    for key, (line, raw) in entries.items():
        try:
            table[key] = parse_value(raw)
        except ScalarParseError as exc:
            raise ParseError(str(exc), line) from None
    try:
        return build(table)
    except StructureError as exc:
        error = str(exc)
    for key, (line, _) in entries.items():
        try:
            build({key: table[key]})
        except StructureError as exc:
            raise ParseError(str(exc), line) from None
    raise ParseError(error)


def _form_parity(algebra, entries, backend) -> tuple:
    """(parity, values): even or odd, inferred from the block pattern of the
    entries whose token parses, and {token: value} of those tokens, so the
    form is built without parsing them again."""
    sp = algebra.space
    mixed = same = 0
    values = {}
    for (a, b), (_, tok) in entries.items():
        try:
            val = values[tok] = backend.parse(tok)
        except ScalarParseError:
            continue
        if backend.is_zero(val):
            continue
        if sp.parity(sp.index(a)) == sp.parity(sp.index(b)):
            same += 1
        else:
            mixed += 1
    if mixed and same:
        raise ParseError("form entries mix the even and odd block patterns")
    return "odd" if mixed else "even", values


def _int_field(tokens, line_no) -> int:
    if len(tokens) != 2 or not tokens[1].isdigit():
        raise ParseError(f"{tokens[0]} needs one non-negative integer", line_no)
    return int(tokens[1])


def _need_header(basis, dim_even, dim_odd, line_no):
    if basis is None or dim_even is None or dim_odd is None:
        raise ParseError("dim_even, dim_odd and basis must precede bracket/form lines", line_no)


def emit(algebra: LieSuperalgebra, form: Optional[BilinearForm], name: str, params: Optional[Mapping[str, str]] = None) -> str:
    bk = algebra.backend
    sp = algebra.space
    out = [
        f"algebra {name}",
        f"backend {bk.name}",
        f"dim_even {sp.dim_even}",
        f"dim_odd {sp.dim_odd}",
        "basis " + " ".join(sp.labels),
    ]
    for k in sorted(params or {}):
        out.append(f"param {k} = {params[k]}")
    for (a, b), value in algebra.table().items():
        out.append(f"bracket {a} {b} = " + " + ".join(f"{bk.format(x)} {label}" for label, x in value.items()))
    if form is not None:
        out += (f"form {a} {b} = {bk.format(x)}" for (a, b), x in form.table().items())
    return "\n".join(out) + "\n"


# -- auxiliary map/cocycle/pairing files ---------------------------------------------


class Terms(dict):
    """{label: coefficient token} of one auxiliary-file line, kept as .line."""

    def __init__(self, terms, line: int):
        super().__init__(terms)
        self.line = line

    def scalars(self, backend) -> dict:
        """{label: scalar}; a token the backend cannot parse is a ParseError at the line."""
        try:
            return {lab: backend.parse(tok) for lab, tok in self.items()}
        except ScalarParseError as exc:
            raise ParseError(str(exc), self.line) from None


class MapFile:
    __slots__ = ("images", "psi", "theta", "phi")

    def __init__(self):
        self.images = {}  # {source label: Terms}, from the map lines
        self.psi = {}  # {generator: {source label: Terms}}
        self.theta = {}  # {(a, b): Terms}
        self.phi = {}  # {(a, b): Terms}


def parse_mapfile(text: str, known_labels) -> MapFile:
    """Parse map/psi/theta/phi lines.

    The labels of the terms, the source of a psi line and both labels of a
    theta or phi line are checked against known_labels; the source of a map
    line and the generator of a psi line name basis vectors of another
    algebra, which the caller checks.  An entry given twice is an error, and
    so is a theta or phi pair given in both orientations."""
    known = set(known_labels)
    out = MapFile()
    for line_no, tokens in _directives(text):
        key = tokens[0]
        if key == "map":
            if len(tokens) < 4 or tokens[2] != "=":
                raise ParseError("map line must read 'map <src> = <terms>'", line_no)
            table, name, eq = out.images, tokens[1], 2
        elif key == "psi":
            if len(tokens) < 5 or tokens[3] != "=":
                raise ParseError("psi line must read 'psi <gen> <src> = <terms>'", line_no)
            _check_known(tokens[2:3], known, line_no)
            table, name, eq = out.psi.setdefault(tokens[1], {}), tokens[2], 3
        elif key in ("theta", "phi"):
            if len(tokens) < 5 or tokens[3] != "=":
                raise ParseError(f"{key} line must read '{key} <a> <b> = <terms>'", line_no)
            _check_known(tokens[1:3], known, line_no)
            table, name, eq = out.theta if key == "theta" else out.phi, (tokens[1], tokens[2]), 3
        else:
            raise ParseError(f"unknown directive {key!r}", line_no)
        if name in table:
            entry = " ".join(tokens[:eq])
            raise ParseError(f"{entry} given twice (first at line {table[name].line})", line_no)
        if key in ("theta", "phi") and name[::-1] in table:
            first = f"(first at line {table[name[::-1]].line})"
            raise ParseError(f"both orientations of the pair ({name[0]},{name[1]}) given {first}", line_no)
        table[name] = Terms(_tokenize_terms(tokens[eq + 1 :], line_no, known, key), line_no)
    return out


def _check_known(labels, known, line_no) -> None:
    for label in labels:
        if label not in known:
            raise ParseError(f"unknown basis label {label!r}", line_no)

"""Benchmark inputs: the derive algebras and the seeded `.alg` files.

Everything here is a pure function of its arguments; the seed reaches liequad
only through the files written by `write_files_inputs`.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from liequad import catalog

G2N2_RANGE = range(1, 7)  # dimensions 4 to 14
HEIGHT = 10**6  # numerator and denominator bound of the random coefficients


def derive_algebras(backend) -> dict:
    """name -> (algebra, form), built without the eager axiom check."""
    out = {f"g2n2[n={n}]": catalog.get("g2n2").builder(backend, {"n": n}) for n in G2N2_RANGE}
    for e in catalog.entries():
        if e.id != "g2n2":
            out[e.id] = e.builder(backend, e.default_params(backend))
    return out


def shipped_files(root: Path) -> list:
    return sorted((root / "src" / "liequad" / "data").glob("*.alg"))


# -- text edits on .alg files ----------------------------------------------------

_BRACKET = re.compile(r"^bracket (\S+) (\S+) = (.*)$")


def _terms(rhs: str) -> list:
    return [t.split() for t in rhs.split(" + ")]


def _join(terms) -> str:
    return " + ".join(f"{c} {lab}" for c, lab in terms)


def bracket_terms(text: str) -> list:
    """(line index, term index) of every bracket coefficient in the file."""
    out = []
    for n, line in enumerate(text.splitlines()):
        m = _BRACKET.match(line)
        if m:
            out.extend((n, k) for k in range(len(_terms(m.group(3)))))
    return out


def tamper(text: str, line_no: int, term: int, delta: str) -> str:
    """The file with one bracket coefficient increased by delta."""
    lines = text.splitlines()
    m = _BRACKET.match(lines[line_no])
    terms = _terms(m.group(3))
    terms[term][0] = str(Fraction(terms[term][0]) + Fraction(delta))
    lines[line_no] = f"bracket {m.group(1)} {m.group(2)} = {_join(terms)}"
    return "\n".join(lines) + "\n"


def bare(text: str) -> str:
    """The algebra without its form and parameter lines."""
    return "".join(l for l in text.splitlines(True) if not l.startswith(("form ", "param ")))


def scale_cocycle(text: str, lam: Fraction) -> str:
    """T*-extension text with its cocycle multiplied by lam: the dual-basis terms
    of brackets between two base elements are scaled, nothing else is."""
    out = []
    for line in bare(text).splitlines():
        m = _BRACKET.match(line)
        if m and not m.group(1).endswith("*") and not m.group(2).endswith("*"):
            terms = [
                [str(Fraction(c) * lam) if lab.endswith("*") else c, lab] for c, lab in _terms(m.group(3))
            ]
            line = f"bracket {m.group(1)} {m.group(2)} = {_join(terms)}"
        out.append(line)
    return "\n".join(out) + "\n"


def _alg_text(name: str, even, brackets=()) -> str:
    lines = [f"algebra {name}", "backend exact", f"dim_even {len(even)}", "dim_odd 0", "basis " + " ".join(even)]
    return "\n".join(lines + [f"bracket {b}" for b in brackets]) + "\n"


BARE_BASES = {
    "g2": _alg_text("g2", ["X", "Y"], ["X Y = 1 Y"]),
    "h3": _alg_text("h3", ["X", "Y", "Z"], ["X Y = 1 Z"]),
    "ab2": _alg_text("ab2", ["A1", "A2"]),
    "ab3": _alg_text("ab3", ["A1", "A2", "A3"]),
}


# -- the seeded files workload ------------------------------------------------------


def rational(rng: random.Random) -> Fraction:
    """Random nonzero rational of height about HEIGHT."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(HEIGHT // 10, HEIGHT), rng.randint(HEIGHT // 10, HEIGHT))


def height(x: Fraction) -> int:
    return max(abs(x.numerator), x.denominator)


@dataclass
class FilesInputs:
    """Paths of the generated files, grouped by the job that reads them."""

    shipped: list = field(default_factory=list)  # copies of the shipped files
    tampered: list = field(default_factory=list)  # (path, source name)
    iso: list = field(default_factory=list)  # (source, target, map)
    double1d: list = field(default_factory=list)  # (base, map)
    tstar: list = field(default_factory=list)  # (base, cocycle or None)
    tsstar: list = field(default_factory=list)  # (base, pairing or None)
    summary: dict = field(default_factory=dict)


def _inner_derivation_map(af, coef) -> str:
    """Map file of ad(v) for a random v with large-height coordinates."""
    alg = af.algebra
    v = tuple(alg.backend.coerce(coef()) for _ in range(alg.dim))
    d = alg.ad_vector(v)
    lines = []
    for j, lab in enumerate(alg.labels):
        terms = [(alg.backend.format(x), alg.labels[k]) for k, x in enumerate(d.col(j)) if x]
        if terms:
            lines.append(f"map {lab} = {_join(terms)}")
    return "\n".join(lines) + "\n"


def _symmetric_pairing(labels, coef) -> str:
    """A totally symmetric phi on an abelian base: cyclic for any coefficients."""
    n = len(labels)
    coefs = {}
    lines = []
    for i in range(n):
        for j in range(i, n):
            terms = []
            for k in range(n):
                key = tuple(sorted((i, j, k)))
                if key not in coefs:
                    coefs[key] = coef()
                terms.append((str(coefs[key]), labels[k]))
            lines.append(f"phi {labels[i]} {labels[j]} = {_join(terms)}")
    return "\n".join(lines) + "\n"


def write_files_inputs(root: Path, workdir: Path, seed: int, tamper_positions: dict) -> FilesInputs:
    """Generate every input of one `files` round into workdir.

    tamper_positions maps a shipped file name to the (line, term) positions
    whose change is known to break invariance; files without any are not
    tampered."""
    from liequad.algfile import parse

    rng = random.Random(seed)
    out = FilesInputs()
    heights = []

    def coef() -> Fraction:
        x = rational(rng)
        heights.append(height(x))
        return x

    def put(name: str, text: str) -> Path:
        p = workdir / name
        p.write_text(text, encoding="utf-8")
        return p

    texts = {p.name: p.read_text(encoding="utf-8") for p in shipped_files(root)}
    for name, text in texts.items():
        out.shipped.append(put(name, text))
        if not tamper_positions[name]:
            continue
        line_no, term = rng.choice(tamper_positions[name])
        out.tampered.append((put(f"tampered_{name}", tamper(text, line_no, term, str(coef()))), name))
    bases = {name: put(f"{name}.alg", text) for name, text in BARE_BASES.items()}

    tstar_h3 = texts["tstar_h3.alg"]
    src = put("tstar_h3_bare.alg", bare(tstar_h3))
    for k in range(2):
        lam = coef()
        tgt = put(f"tstar_h3_scaled{k}.alg", scale_cocycle(tstar_h3, lam))
        labels = ("X", "Y", "Z")
        images = [f"map {l} = 1 {l}" for l in labels] + [f"map {l}* = {lam} {l}*" for l in labels]
        out.iso.append((src, tgt, put(f"iso{k}.map", "\n".join(images) + "\n")))

    for name in ("g4.alg", "g5.alg"):
        af = parse(texts[name])
        for k in range(2):
            mp = put(f"inner_{name}{k}.map", _inner_derivation_map(af, coef))
            out.double1d.append((workdir / name, mp))

    for k in range(2):
        lam = coef()
        cyc = f"theta X Y = {lam} Z\ntheta Y Z = {lam} X\ntheta Z X = {lam} Y\n"
        out.tstar.append((bases["h3"], put(f"theta{k}.map", cyc)))
    out.tstar += [(bases["g2"], None), (workdir / "g4.alg", None)]

    for name, labels in (("ab2", ("A1", "A2")), ("ab3", ("A1", "A2", "A3"))):
        out.tsstar.append((bases[name], put(f"phi_{name}.map", _symmetric_pairing(labels, coef))))
    out.tsstar += [(bases["h3"], None), (workdir / "g4.alg", None)]

    out.summary = {"files": len(list(workdir.iterdir())), "max_coefficient_height": max(heights)}
    return out

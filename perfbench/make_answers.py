#!/usr/bin/env python3
"""Write perfbench/answers.json, the benchmark's known-answer table.

Run once, offline, from the repository root:

    python3 perfbench/make_answers.py

It needs sympy; the benchmark itself never imports it.  liequad supplies only
the inputs (structure constants and Gram matrices, read from the catalog
builders and the shipped .alg files) and the recorded `report --all` output.
Every dimension and flag in the table is computed here with sympy's exact
linear algebra, straight from the definitions:

* derivations: even matrices D with D[x,y] = [Dx,y] + [x,Dy]; skew ones also
  satisfy B(Dx,y) + B(x,Dy) = 0; inner ones span the ad(e) of even e;
* center, derived and lower central series, derived-cap-center, solvable and
  nilpotent flags;
* whether a central witness exists: a proper graded central subspace on which
  the form is non-degenerate, found the way the library's sufficient test
  looks for one (even form: an even central u with B(u,u) != 0, else an odd
  central pair; odd form: an even/odd central pair in duality).

The paper's counts (skew dimensions 3 for g4, 6 for g5 and n^2+2n for the
2n+2 family) are asserted against the table.  For each shipped file the table
also lists the bracket coefficients whose change breaks invariance for every
nonzero change (invariance is linear in the constants, so a change by 1
decides it); the `files` workload tampers only those.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import subprocess
import sys

import sympy
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from liequad.algfile import parse  # noqa: E402
from liequad.scalars import EXACT  # noqa: E402

import inputs  # noqa: E402  (perfbench/inputs.py: the benchmark's input names)

REPORT_ARGV = ["--no-timestamp", "--format", "json", "report", "--all"]


def to_sympy(x):
    return sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I * sympy.Rational(
        x.im.numerator, x.im.denominator
    )


class Alg:
    """Structure constants and Gram matrix as sympy numbers."""

    def __init__(self, algebra, form):
        self.n = algebra.dim
        self.par = [algebra.parity(i) for i in range(self.n)]
        self.c = [[[to_sympy(x) for x in row] for row in block] for block in algebra.c]
        self.g = [[to_sympy(x) for x in row] for row in form.gram.entries] if form else None
        self.odd_form = form is not None and form.parity == "odd"
        flat = [x for b in self.c for r in b for x in r] + [x for r in (self.g or []) for x in r]
        self.dom = QQ_I if any(sympy.im(x) != 0 for x in flat) else QQ

    def rank(self, rows, ncols):
        if not rows:
            return 0
        conv = self.dom.from_sympy
        return DomainMatrix([[conv(x) for x in r] for r in rows], (len(rows), ncols), self.dom).rank()

    def basis(self, vectors):
        """Independent subset spanning the same space."""
        out = []
        for v in vectors:
            if self.rank(out + [v], self.n) > len(out):
                out.append(v)
        return out

    def bracket(self, u, v):
        n = self.n
        return [
            sympy.expand(sum(u[i] * v[j] * self.c[i][j][k] for i in range(n) if u[i] for j in range(n) if v[j]))
            for k in range(n)
        ]

    def unit(self, i):
        return [sympy.Integer(1) if k == i else sympy.Integer(0) for k in range(self.n)]

    # -- derivations over unknowns D[k][j] at position k*n + j --------------------

    def leibniz_rows(self):
        n, c = self.n, self.c
        rows = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    r = [sympy.Integer(0)] * (n * n)
                    for m in range(n):
                        r[k * n + m] += c[i][j][m]
                    for l in range(n):
                        r[l * n + i] -= c[l][j][k]
                        r[l * n + j] -= c[i][l][k]
                    if any(r):
                        rows.append(r)
        for k in range(n):
            for j in range(n):
                if self.par[k] != self.par[j]:
                    r = [sympy.Integer(0)] * (n * n)
                    r[k * n + j] = sympy.Integer(1)
                    rows.append(r)
        return rows

    def skew_rows(self):
        n, g = self.n, self.g
        rows = []
        for i in range(n):
            for j in range(n):
                r = [sympy.Integer(0)] * (n * n)
                for k in range(n):
                    r[k * n + i] += g[k][j]
                    r[k * n + j] += g[i][k]
                if any(r):
                    rows.append(r)
        return rows

    def derivation_dims(self):
        n2 = self.n * self.n
        lei = self.leibniz_rows()
        all_dim = n2 - self.rank(lei, n2)
        skew = None if self.g is None else n2 - self.rank(lei + self.skew_rows(), n2)
        ads = [
            [self.c[i][j][k] for k in range(self.n) for j in range(self.n)]
            for i in range(self.n)
            if self.par[i] == 0
        ]
        return all_dim, skew, self.rank(ads, n2)

    # -- series and center ------------------------------------------------------

    def center(self):
        n = self.n
        rows = [[self.c[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
        conv = self.dom.from_sympy
        ns = DomainMatrix([[conv(x) for x in r] for r in rows], (len(rows), n), self.dom).nullspace()
        return [[self.dom.to_sympy(x) for x in row] for row in ns.to_Matrix().tolist()]

    def span_bracket(self, us, vs):
        return self.basis([self.bracket(u, v) for u in us for v in vs])

    def series(self, lower):
        whole = [self.unit(i) for i in range(self.n)]
        dims, cur = [self.n], whole
        while True:
            nxt = self.span_bracket(whole if lower else cur, cur)
            if len(nxt) == len(cur):
                break
            dims.append(len(nxt))
            cur = nxt
            if not nxt:
                break
        return dims

    def form_value(self, u, v):
        n = self.n
        return sympy.expand(sum(u[i] * self.g[i][j] * v[j] for i in range(n) for j in range(n)))

    def has_central_witness(self, z):
        ne = self.par.count(0)
        even = self.basis([[x if i < ne else sympy.Integer(0) for i, x in enumerate(v)] for v in z if any(v[:ne])])
        odd = self.basis([[x if i >= ne else sympy.Integer(0) for i, x in enumerate(v)] for v in z if any(v[ne:])])
        if self.odd_form:
            core = 2 if any(self.form_value(u, v) for u in even for v in odd) else None
        elif any(self.form_value(u, v) for u in even for v in even):
            core = 1
        elif any(self.form_value(u, v) for u in odd for v in odd):
            core = 2
        else:
            core = None
        return core is not None and core < self.n

    def invariance_holds(self):
        n = self.n
        units = [self.unit(i) for i in range(n)]
        return all(
            self.form_value(self.c[i][j], units[k]) == self.form_value(units[i], self.c[j][k])
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )

    def facts(self):
        der_all, der_skew, der_inner = self.derivation_dims()
        z = self.center()
        derived = self.basis([self.c[i][j] for i in range(self.n) for j in range(self.n)])
        dz = len(derived) + len(z) - len(self.basis(derived + z))
        ds, lcs = self.series(False), self.series(True)
        out = {
            "dim": self.n,
            "der_all": der_all,
            "der_skew": der_skew,
            "der_inner": der_inner,
            "center": len(z),
            "derived_dims": ds,
            "lower_central_dims": lcs,
            "derived_center": dz,
            "solvable": ds[-1] == 0,
            "nilpotent": lcs[-1] == 0,
        }
        if self.g is not None:
            out["witness"] = self.has_central_witness(z)
        return out


def tamper_positions(text):
    """Bracket coefficients whose change by 1 breaks invariance."""
    out = []
    for line_no, term in inputs.bracket_terms(text):
        af = parse(inputs.tamper(text, line_no, term, "1"))
        if not Alg(af.algebra, af.form).invariance_holds():
            out.append([line_no, term])
    return out


def main() -> int:
    table = {}
    for name, (alg, form) in inputs.derive_algebras(EXACT).items():
        table[name] = Alg(alg, form).facts()
        print(name, table[name], flush=True)
    shipped = {}
    for path in inputs.shipped_files(ROOT):
        text = path.read_text(encoding="utf-8")
        af = parse(text)
        shipped[path.name] = Alg(af.algebra, af.form).facts()
        shipped[path.name]["tamper_positions"] = tamper_positions(text)
        print(path.name, shipped[path.name], flush=True)

    assert table["g4"]["der_skew"] == 3 and table["g5"]["der_skew"] == 6
    for n in inputs.G2N2_RANGE:
        assert table[f"g2n2[n={n}]"]["der_skew"] == n * n + 2 * n

    out = subprocess.run(
        [sys.executable, "-c", "import sys; from liequad.cli import main; sys.exit(main(sys.argv[1:]))"]
        + REPORT_ARGV,
        capture_output=True,
        check=True,
        cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    ).stdout
    checks = json.loads(out)["checks"]
    assert all(c["status"] == "pass" for c in checks)
    answers = {
        "report": {
            "argv": REPORT_ARGV,
            "sha256": hashlib.sha256(out).hexdigest(),
            "bytes": len(out),
            "checks": len(checks),
        },
        "derive": table,
        "shipped": shipped,
    }
    dest = pathlib.Path(__file__).with_name("answers.json")
    dest.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

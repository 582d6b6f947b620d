#!/usr/bin/env python3
"""Regenerate the shipped .alg files from the catalog entries.

Each file is `catalog.build` of one entry, emitted as `.alg` text (plus the
T*-extension tstar_h3).  Run from the repository root; the files land in
src/liequad/data/.  tests/test_algfile.py asserts that the shipped files are
exactly those of `texts()`, byte for byte.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from liequad import catalog
from liequad.algfile import emit
from liequad.extensions import Cocycle2, t_star_extension

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "liequad" / "data"

SHIPPED = [
    ("g4", "g4", {}),
    ("g5", "g5", {}),
    ("go6_0", "go6_0", {}),
    ("go6_1", "go6_1", {"a": "1", "b": "1", "c": "1"}),
    ("go6_2", "go6_2", {}),
    ("go6_3", "go6_3", {"lambda": "1"}),
    ("go6_4", "go6_4", {}),
    ("go6_5", "go6_5", {"gamma": "1"}),
    ("go6_6", "go6_6", {"mu": "1/2"}),
    ("go6_7", "go6_7", {}),
]


def tstar_h3_text() -> str:
    h3 = catalog.base("g3_1")
    theta = Cocycle2.build(
        h3, {("X", "Y"): {"Z": 1}, ("Y", "Z"): {"X": 1}, ("Z", "X"): {"Y": 1}}
    )
    q = t_star_extension(h3, theta)
    return emit(q.algebra, q.form, "tstar_h3", params={"lambda": "1"})


def texts():
    """(file name, .alg text) of every shipped file, in the order written."""
    for fname, cat_id, params in SHIPPED:
        q = catalog.build(cat_id, **params)
        yield f"{fname}.alg", emit(q.algebra, q.form, fname, params=params)
    yield "tstar_h3.alg", tstar_h3_text()


def main() -> int:
    DATA.mkdir(parents=True, exist_ok=True)
    for name, text in texts():
        (DATA / name).write_text(text, encoding="utf-8")
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""A fixed, stdlib-only computation that measures how fast the machine runs
right now, so that timings can be scaled to one reference speed.

On a shared virtual machine the CPU time of the same job drifts by 30% and
more within minutes (other tenants contend for the core and its caches).  The
benchmark runs `reference()` between jobs; a job's CPU time times
REFERENCE_S / (CPU time of one `reference()` call around the job) is its CPU
time at the reference speed.  The reference does what liequad's hot loops do,
in miniature: Gauss-Jordan elimination over Fractions, tuple building and
function calls, and it never calls liequad, so no change to the library can
move it.
"""

from fractions import Fraction

# CPU seconds of one reference() call at the reference speed (CPython 3.11 on
# a 2-vCPU x86_64 virtual machine, median of 3000 calls); it fixes the scale only
REFERENCE_S = 0.00054

_N = 6
_ROWS = tuple(
    tuple(Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(_N)) for i in range(_N)
)


def reference() -> tuple:
    rows = [list(r) for r in _ROWS]
    for c in range(_N):
        p = next((i for i in range(c, _N) if rows[i][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [inv * x for x in rows[c]]
        for i in range(_N):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return tuple(tuple(r) for r in rows)

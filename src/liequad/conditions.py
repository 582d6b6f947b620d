"""Linear conditions on an unknown map, tensor or form, each written once as
sparse rows: {unknown: coefficient} dicts read straight from the nonzero
structure constants or Gram entries.  A solver takes the kernel of the rows
(`linalg._nullspace_rows`); a validator evaluates them with `failures`.  A
keyed generator yields (key, row) pairs in key order, the key naming what a
failure reports; the rows of an unkeyed one are keyed by their index.  An
n x n map or Gram matrix is flattened row-major, D[k][j] being unknown
k * n + j (`_flat`); an n x n x n tensor likewise (`_unfolded`, `_flat3`); a
tensor symmetric in its first two slots has one unknown per pair i <= j.

The conditions: the Leibniz rule, the skew condition B(Dx, y) = -B(x, Dy) and
the parity rows of an even map; the antisymmetry and the identity of a
2-cocycle theta: g x g -> g*; the symmetry and the two compatibility
conditions of a pairing phi: g* x g* -> g; the cyclic identity
t(x,y)z = t(y,z)x; the invariance B([x,y],z) = B(x,[y,z]) of a form, whose
supersymmetry and parity pattern its constructor holds.  Each generator
takes the table it sums over: invariance reads the stored table `nz`,
sub-tolerance entries included, since a large Gram entry can scale them above
the tolerance; the others read the tolerance view `_nz`, as `bracket` and the
series do.  `verify_form` evaluates the invariance rows on the complex
backend only, where their order of terms fixes the float bits; the exact
backend sums the same residuals without rows (`core._invariance_failures`).

The Leibniz and skew generators take the grading: given it, they yield on
the exact backend only the rows an even map can meet, those on the even
blocks D[a][b], |a| = |b|.  The exact tables and Gram matrices respect
parity, so every other row lies wholly on the odd blocks, which the parity
rows set to zero, and the exact kernel is that of the full system; the float
backend keeps every row.  The skew and invariance generators read a Gram
matrix as its sparse rows, `BilinearForm.rows`; given them, the invariance
generator yields only the rows that meet one of its nonzero entries.

One zero rule holds for every system that goes to a solver: a row holds no
exact zero, and it is dropped when nothing is left or every entry is zero to
the backend.  `_add_row` applies it to the skew rows, the images of
`derivations._skew_rank` and the pairing rows of `sym_pairing_space`;
`_leibniz_rows` deletes an entry where a term cancels it and keeps the row by
the same test.  The exact solve's Leibniz rows also skip a single-term row
whose unknown an earlier single-term row sets to 0: it is a multiple of that
row.  A validator evaluates the rows as generated.
"""

from __future__ import annotations

from itertools import chain, combinations, product

from .linalg import Matrix


def _flat(m: Matrix) -> list:
    """The entries of m in row-major order: D[k][j] is unknown k * n + j."""
    return list(chain.from_iterable(m.entries))


def _unfolded(n: int):
    """unknown(i, j, k) = t[i][j][k]: its index in the row-major `_flat3(t)`."""
    return lambda i, j, k: (i * n + j) * n + k


def _flat3(t) -> list:
    return list(chain.from_iterable(chain.from_iterable(t)))


def _folded(n: int):
    """(pairs, unknown) of a tensor symmetric in its first two slots: pairs lists the
    (i, j) with i <= j, and unknown(i, j, k) = t[i][j][k] is a * n + k for the pair a."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: a for a, p in enumerate(pairs)}
    return pairs, lambda i, j, k: index[(min(i, j), max(i, j))] * n + k


def _add_row(rows: list, bk, row: dict) -> None:
    """Append the exactly nonzero entries of row, unless none is left or every
    one is zero to bk: the zero rule of the module docstring, on both backends.
    The row is copied only when it holds an exact zero; otherwise it is kept as given."""
    if not all(row.values()):
        row = {u: x for u, x in row.items() if x}
    if row and not all(map(bk.is_zero, row.values())):
        rows.append(row)


def _evaluate(rows, size: int, points) -> list:
    """{row index: value} of the rows at each point, one dict per point.

    A point is a sparse {unknown: value} row over the size unknowns.  The rows
    are indexed by unknown once, and each point walks only its entries, so a
    row that meets none of them is absent from its dict."""
    hits = [[] for _ in range(size)]  # hits[u] = (r, x) with x the coefficient of u in row r
    for r, row in enumerate(rows):
        for u, x in row.items():
            hits[u].append((r, x))
    images = []
    for point in points:
        image = {}
        for u, y in point.items():
            for r, x in hits[u]:
                image[r] = image[r] + x * y if r in image else x * y
        images.append(image)
    return images


def failures(bk, keyed_rows, point) -> list:
    """(key, value) of the first row of each key whose value at the dense flat
    point is nonzero to bk, in row order.  A row sums its terms in its own order
    at the exactly nonzero entries of the point; one point needs no `_evaluate` index."""
    out = {}
    for key, row in keyed_rows:
        value = None
        for u, x in row.items():
            y = point[u]
            if y:
                value = x * y if value is None else value + x * y
        if value is not None and key not in out and not bk.is_zero(value):
            out[key] = value
    return list(out.items())


def is_cyclic(bk, t) -> bool:
    """t(x,y)z = t(y,z)x on all basis triples, for an n x n x n tensor t."""
    n = len(t)
    return not failures(bk, enumerate(_cyclic_rows(bk, n, _unfolded(n))), _flat3(t))


def _output_index(nz):
    """(left, right): left[i][k] and right[j][k] list the (l, c[i][l][k]) and
    (l, c[l][j][k]) pairs of the sparse table nz, in increasing l."""
    n = len(nz)
    left = [[[] for _ in range(n)] for _ in range(n)]
    right = [[[] for _ in range(n)] for _ in range(n)]
    for a, block in enumerate(nz):
        for b, pairs in enumerate(block):
            for k, x in pairs:
                left[a][k].append((b, x))
                right[b][k].append((a, x))
    return left, right


def _parity_rows(bk, n: int, n_even: int):
    """((k, j), row) of D[k][j] = 0 where the parities of e_k and e_j differ: an even map."""
    one = bk.one
    for k in range(n):
        for j in range(n_even, n) if k < n_even else range(n_even):  # the j of the other parity
            yield (k, j), {k * n + j: one}


def _transpose_rows(bk, n: int, depth: int, n_even: int):
    """((i, j), row) of t[j][i][m] = (-1)^{|i||j|} t[i][j][m], i <= j, m < depth, over the
    row-major unknowns of an n x n x depth tensor whose e_i is odd from n_even on: symmetry at
    n_even = n, antisymmetry at 0 (an even diagonal has no row)."""
    one = bk.one
    for i in range(n):
        odd = i >= n_even  # then e_j is odd too, and the sign is -1
        for j in range(i + (not odd), n):
            for m in range(depth):
                a, b = (i * n + j) * depth + m, (j * n + i) * depth + m
                yield (i, j), {a: one + one} if a == b else {b: one, a: one if odd else -one}


# -- maps: derivations ------------------------------------------------------------


def _leibniz_rows(bk, nz, n_even=None):
    """Sparse rows of the Leibniz system over unknowns x[(k,j)] = D[k][j].

    Given n_even, the grading of the table, in which e_i is odd from n_even
    on, the exact backend yields only the rows an even map can meet: those of
    the (i, j, k) with |i|+|j|+|k| even, the rows of an even e_k first.  Its
    constructor refused a table that breaks parity, so a term of row (i, j, k)
    sits at a D[a][b] with |a|+|b| = |i|+|j|+|k|: these rows lie wholly on the
    even blocks and every other row wholly on the odd blocks, which the parity
    rows set to zero.  n_even None (`is_derivation` judges any map) keeps every
    row, as does the float backend, which pivots as dense elimination does:
    there the row swaps of the odd-block rows reorder the others, and with
    them the rounding.  On that exact path a single-term row, such as the
    {l * n + col: -x} of a lone term, is kept only the first time its unknown
    occurs: a repeat is a multiple of it, so the kernel is still that of the
    full system, and every kept row is one of its rows.

    The zero rule of `_add_row`, applied in place: an entry that a term cancels
    to an exact zero is deleted there, so the keep test needs no rescan."""
    n = len(nz)
    exact = bk.name == "exact"
    solving = exact and n_even is not None
    ne = n_even if solving else n
    left, right = _output_index(nz)
    rows = []
    zeroed = set()  # the unknowns of the single-term rows kept so far, when solving
    for p, every in enumerate((range(ne), range(ne, n))):  # the rows whose e_k has parity p
        if not every:
            continue
        # left_ks[i], right_ks[j]: the k of parity p where left[i][k], right[j][k] has a term
        left_ks = [{k for k in every if ks[k]} for ks in left]
        right_ks = [{k for k in every if ks[k]} for ks in right]
        for i in range(n):
            # the j >= i with |i|+|j| = p: even j when |i| = p, else odd j
            for j in range(i, ne) if (i >= ne) == p else range(max(i, ne), n):
                cij = nz[i][j]
                # the k whose row has a term: all of parity p when [e_i,e_j] != 0
                for k in every if cij else sorted(left_ks[i] | right_ks[j]):
                    # D([e_i,e_j])_k = sum_m c[i][j][m] D[k][m]
                    row = {k * n + m: x for m, x in cij}
                    # -[D e_i, e_j]_k - [e_i, D e_j]_k = -sum_l D[l][i] c[l][j][k] - sum_l D[l][j] c[i][l][k]
                    for terms, col in ((right[j][k], i), (left[i][k], j)):
                        for l, x in terms:
                            u = l * n + col
                            if u not in row:
                                row[u] = -x
                            elif row[u] == x:
                                del row[u]
                            else:
                                row[u] -= x
                    if solving and len(row) == 1:
                        if row.keys() <= zeroed:
                            continue  # a kept row already sets this unknown to 0
                        zeroed.update(row)
                    if row and (exact or not all(map(bk.is_zero, row.values()))):
                        rows.append(row)
    return rows


def _skew_rows(bk, gram_rows, n_even=None, odd=False):
    """Sparse rows of B(D e_i, e_j) + B(e_i, D e_j) = 0, i <= j, for the
    (anti)symmetric Gram matrix of B given by its sparse rows
    (`BilinearForm.rows`), over unknowns x[(k,j)] = D[k][j].  A Gram entry
    zero to the backend adds no term.

    Given n_even and the parity of the form (odd True for an odd form), the
    form's grading and parity, the exact backend yields only the rows an even
    map can meet: those of the (i, j) with |i|+|j| the form's parity.  Its
    constructor refused a Gram matrix off the parity pattern, so row (i, j)
    lies wholly on the blocks of parity |i|+|j|+|B|.  n_even None and the
    float backend keep every row (see `_leibniz_rows`)."""
    n = len(gram_rows)
    g_rows = [[p for p in r if not bk.is_zero(p[1])] for r in gram_rows]
    ne, odd = (n_even, odd) if bk.name == "exact" and n_even is not None else (n, False)
    g_cols = [[] for _ in range(n)]  # g_cols[j] = the (k, g[k][j]) of g_rows, in increasing k
    for k, r in enumerate(g_rows):
        for j, x in r:
            g_cols[j].append((k, x))
    rows = []
    for i in range(n):
        # the j >= i whose parity is |i| + |B|
        for j in range(max(i, ne), n) if (i >= ne) != odd else range(i, ne):
            # sum_k D[k][i] g[k][j] + D[k][j] g[i][k]
            row = {k * n + i: x for k, x in g_cols[j]}
            for k, x in g_rows[i]:
                u = k * n + j
                row[u] = row[u] + x if u in row else x
            _add_row(rows, bk, row)
    return rows


# -- tensors: cocycles and pairings ------------------------------------------------


def _cocycle_rows(bk, nz):
    """Keyed rows of a skew 2-cocycle theta: g x g -> g* over `_unfolded(n)`: the
    antisymmetry rows of `_transpose_rows`, keyed (i, j), then for i < j < k
    the 2-cocycle identity keyed (i, j, k), one row per m: the sum over the cyclic
    turns (a, b, z) of (i, j, k) of theta(e_a,e_b)([e_z,e_m]) + theta([e_a,e_b],e_z)(e_m)."""
    n = len(nz)
    u = _unfolded(n)
    yield from _transpose_rows(bk, n, n, 0)
    for i, j, k in combinations(range(n), 3):
        for m in range(n):
            row = {}
            for a, b, z in ((i, j, k), (j, k, i), (k, i, j)):
                for v, x in chain(((u(a, b, l), x) for l, x in nz[z][m]), ((u(l, z, m), x) for l, x in nz[a][b])):
                    row[v] = row[v] + x if v in row else x
            if row:
                yield (i, j, k), row


def _cyclic_rows(bk, n: int, unknown) -> list:
    """Rows of the cyclic identity t(x,y)z = t(y,z)x on all basis triples, over
    the unknowns unknown(i, j, k) = t[i][j][k]."""
    pairs = ((unknown(i, j, k), unknown(j, k, i)) for i, j, k in product(range(n), repeat=3))
    return [{u1: bk.one, u2: -bk.one} for u1, u2 in pairs if u1 != u2]


def _pairing_rows(nz, unknown):
    """(key, row) pairs of the two compatibility conditions of the odd
    construction over the unknowns unknown(i, j, k) = phi[i][j][k]; the key is
    (1, x, i, j) or (2, i, j, k), the (x, f, g) or (f, g, h) that a failure names."""
    n = len(nz)
    # left[x][k] lists the (m, c[x][m][k]), right[m][f] the (l, c[l][m][f])
    left, right = _output_index(nz)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    # condition (1): ad(x)(phi(f,g)) + phi(f, g o ad(x)) + phi(g, f o ad(x)) = 0
    for x, (i, j), k in product(range(n), pairs, range(n)):
        row = {}
        for u, y in chain(
            ((unknown(i, j, l), y) for l, y in left[x][k]),
            ((unknown(i, m, k), y) for m, y in left[x][j]),
            ((unknown(j, m, k), y) for m, y in left[x][i]),
        ):
            row[u] = row[u] + y if u in row else y
        if row:
            yield (1, x, i, j), row
    # condition (2): f o ad(phi(g,h)) + cycle = 0
    for i, j in pairs:
        for k, m in product(range(j, n), range(n)):
            row = {}
            for a, b, f in ((j, k, i), (k, i, j), (i, j, k)):
                for l, y in right[m][f]:
                    u = unknown(a, b, l)
                    row[u] = row[u] + y if u in row else y
            if row:
                yield (2, i, j, k), row


# -- forms: invariance --------------------------------------------------------------


def _invariance_rows(nz, gram_rows=None):
    """((i, j, k), row) of B([e_i,e_j],e_k) - B(e_i,[e_j,e_k]) = 0 over the Gram
    unknowns of `_flat`: sum_l c[i][j][l] g[l][k] - sum_l c[j][k][l] g[i][l],
    only where [e_i,e_j] or [e_j,e_k] has a term.  Given the sparse rows of a
    Gram matrix (`BilinearForm.rows`), only the rows that meet one of its
    exactly nonzero entries: any other row sums no term in `failures` at that
    point, so the failures and their order stay."""
    n = len(nz)
    rhs = [[[(l, -x) for l, x in pairs] for pairs in block] for block in nz]  # the (l, -c[j][k][l])
    # g[a] = the b with g[a][b] exactly nonzero; without a Gram matrix, every b
    g = [range(n)] * n if gram_rows is None else [[b for b, _ in r] for r in gram_rows]
    outs = [[] for _ in range(n)]  # outs[l] = the (j, k) with an e_l-term in [e_j,e_k]
    for j, block in enumerate(nz):
        for k, pairs in enumerate(block):
            for l, _ in pairs:
                outs[l].append((j, k))
    for i in range(n):
        right = {}  # {j: the k}, met through a g[i][l] with l a term of [e_j,e_k]
        for l in g[i]:
            for j, k in outs[l]:
                right.setdefault(j, set()).add(k)
        for j, cij in enumerate(nz[i]):
            keys = right.get(j, ())
            if cij:  # or met through a g[l][k] with l a term of [e_i,e_j]
                keys = set(keys).union(*(g[l] for l, _ in cij))
            for k in sorted(keys):
                row = {l * n + k: x for l, x in cij}
                for l, y in rhs[j][k]:
                    u = i * n + l
                    row[u] = row[u] + y if u in row else y
                yield (i, j, k), row

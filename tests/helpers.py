"""Helpers shared by the test modules."""

from hypothesis import strategies as st

from liequad.core import BilinearForm, LieSuperalgebra
from liequad.linalg import Matrix, dot, vec


def basis_vector(space, backend, label):
    """The coordinates of the basis vector named label: 1 there, 0 elsewhere."""
    v = [backend.zero] * space.dim
    v[space.index(label)] = backend.one
    return tuple(v)


def restrict(form, vectors) -> Matrix:
    """The Gram matrix B(u, v) of the form on the given vectors, each coerced to
    the form's backend."""
    vectors = [vec(form.backend, v) for v in vectors]
    gv = [form.gram.apply(v) for v in vectors]
    return Matrix(form.backend, tuple(tuple(dot(u, col) for col in gv) for u in vectors))


def to_backend(value, backend):
    """The algebra or form with every coefficient coerced to backend, made by
    its raw constructor."""
    coerce = backend.coerce
    if isinstance(value, BilinearForm):
        gram = Matrix.from_rows(backend, [[coerce(x) for x in row] for row in value.gram.entries])
        return BilinearForm(value.space, backend, value.parity, gram)
    nz = tuple(tuple(tuple((k, coerce(x)) for k, x in row) for row in block) for block in value.nz)
    return LieSuperalgebra(value.space, backend, nz)


def sparse(c):
    """The stored table of a dense c[i][j][k]: every exactly nonzero entry, sub-tolerance ones included."""
    return tuple(tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in block) for block in c)


@st.composite
def tables(draw, space, entry):
    """Sparse normal tables on space, graded-antisymmetric and
    parity-correct, one coefficient drawn from entry per term of each pair of
    `space.pairs()`."""
    n, ne = space.dim, space.dim_even
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j in space.pairs():
        odd = (i >= ne) != (j >= ne)
        sign = 1 if i >= ne else -1  # (-1)^(|i||j|+1), e_j odd when e_i is
        for k in range(n):
            if (k >= ne) == odd:
                x = draw(entry)
                c[i][j][k], c[j][i][k] = x, sign * x
    return sparse(c)


@st.composite
def grams(draw, backend, space, parity, entry):
    """Gram matrices, as tuples of rows, of a form of that parity on space,
    supersymmetric and on the parity pattern: one draw from entry per entry at
    or above the diagonal that the pattern allows, the backend's zero elsewhere."""
    n, ne = space.dim, space.dim_even
    g = [[backend.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if ((i >= ne) != (j >= ne)) == (parity == "odd") and not (i == j and i >= ne):
                x = draw(entry)
                g[i][j], g[j][i] = x, -x if i >= ne else x
    return tuple(map(tuple, g))

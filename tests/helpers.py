"""Helpers shared by the test modules."""


def basis_vector(space, backend, label):
    """The coordinates of the basis vector named label: 1 there, 0 elsewhere."""
    v = [backend.zero] * space.dim
    v[space.index(label)] = backend.one
    return tuple(v)

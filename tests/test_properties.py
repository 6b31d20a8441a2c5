"""Property tests on small random rational involutions: cocycle closure of
complete_connection, fiber(induce(V)) == V, and hom dimensions against the
sympy oracle over the whole group."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cocycle_everywhere, hom_dim_oracle,
                      intertwines_everywhere)
from gdiff import equivalence
from gdiff.equations import complete_connection
from gdiff.scalars import Backend
from gdiff.solver import hom_space
from gdiff.space import dihedral_on_cycle, stabilizer, transversal

RATIONAL = Backend.rational()
GROUPS = {n: dihedral_on_cycle(n) for n in (3, 4, 5, 6)}

small = settings(max_examples=12, deadline=None, derandomize=True)


@st.composite
def involutions(draw):
    """P diag(1, -1) P^-1 for an integer P with entries in -3..3."""
    p = draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4)
             .filter(lambda e: e[0] * e[3] - e[1] * e[2] != 0))
    a, b, c, d = (Fraction(x) for x in p)
    det = a * d - b * c
    # P . diag(1, -1) . P^-1 with P^-1 = [[d, -b], [-c, a]] / det
    return [[(a * d + b * c) / det, -2 * a * b / det],
            [2 * c * d / det, -(a * d + b * c) / det]]


def induced(group, rho_t):
    sub = stabilizer(group, 0)
    t = next(h for h in sub.members if h != 0)
    mod = equivalence.hmodule_from_matrices(
        sub, RATIONAL, {0: [[1, 0], [0, 1]], t: rho_t})
    return mod, equivalence.induce(mod, transversal(group))


@small
@given(n=st.sampled_from(sorted(GROUPS)), m=involutions(),
       s_sign=st.sampled_from([1, -1]))
def test_complete_connection_closes_the_cocycle(n, m, s_sign):
    group = GROUPS[n]
    if n % 2:
        s_sign = 1  # s has odd order, so s -> -I is no connection
    size = group.space.size

    def constant(mat):
        arr = np.array([[Fraction(v) for v in row] for row in mat],
                       dtype=object)
        return np.broadcast_to(arr, (size, 2, 2))

    gens = {"s": constant([[s_sign, 0], [0, s_sign]]), "t": constant(m)}
    eq = complete_connection(group, RATIONAL, gens)
    eq.validate()
    assert cocycle_everywhere(eq)
    for g in range(group.order):
        assert eq.conn[g].inverse().eq(
            eq.conn[group.inv[g]].g_act(group, g))


@small
@given(n=st.sampled_from(sorted(GROUPS)), m=involutions())
def test_fiber_of_induced_module_is_the_module(n, m):
    mod, eq = induced(GROUPS[n], m)
    back = equivalence.fiber(eq)
    assert back.dim == mod.dim
    assert back.rho.tolist() == mod.rho.tolist()


@small
@given(n=st.sampled_from([3, 4]), m1=involutions(), m2=involutions())
def test_hom_dimension_matches_full_group_oracle(n, m1, m2):
    group = GROUPS[n]
    _, e = induced(group, m1)
    _, f = induced(group, m2)
    basis = hom_space(e, f)
    assert len(basis) == hom_dim_oracle(e, f)
    for phi in basis:
        assert intertwines_everywhere(phi)

"""Property tests on small random rational involutions: cocycle closure of
complete_connection, fiber(induce(V)) == V, and hom dimensions against the
sympy oracle over the whole group.  And on relabellings of the points:
every answer stays the same.  And Frobenius reciprocity, checked without
sympy: dim Hom(induce(U), E) = dim Hom_H(U, fiber(E))."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (alternate_transversal, cocycle_everywhere, conn_of,
                      gauged_equation, hom_dim_oracle, intertwines_everywhere,
                      seeded_rng)
from gdiff import equivalence
from gdiff.equations import complete_connection, direct_sum, tensor
from gdiff.errors import GDiffError
from gdiff.invariants import invariant_vectors
from gdiff.scalars import Backend
from gdiff.solver import decompose, hom_space, is_simple
from gdiff.space import (FiniteSpace, dihedral_on_cycle, enumerate_group,
                         parse_cycles, stabilizer, transversal)

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
    conn = conn_of(eq)
    for g in range(group.order):
        assert conn[g].inverse().eq(conn[group.inv[g]].g_act(group, g))


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


# -- answers do not depend on the labels of the points ------------------------

def _dihedral_generators(n):
    return {"s": tuple((i - 1) % n for i in range(n)),
            "t": tuple((-i) % n for i in range(n))}


# name -> (space, generator image arrays); S4 acts on 4 points, and its
# stabilizer S3 carries the 2-dim rot1 over the complex numbers
RELABEL_SPACES = {
    **{f"D{n}": (FiniteSpace.cycle(n), _dihedral_generators(n))
       for n in (5, 6, 7, 8)},
    "S4": (FiniteSpace(("1", "2", "3", "4")),
           {"a": parse_cycles("(1 2 3 4)", 4), "b": parse_cycles("(2 3)", 4)}),
}
BACKENDS = {"rational": Backend.rational(), "complex": Backend.complex()}


def _rank2_module(group, be):
    """The induced rank-2 (S4 over Q: rank 3) equation's module: a
    non-diagonal involution of a dihedral stabilizer (order 2), rot1 of S3,
    or S3 permuting the other three points."""
    sub = stabilizer(group, 0)
    if sub.order == 2:
        t = next(h for h in sub.members if h != 0)
        return equivalence.hmodule_from_matrices(
            sub, be, {0: [[1, 0], [0, 1]], t: [[1, -2], [0, -1]]})
    if not be.exact:
        return equivalence.builtin_irreducibles(sub, be)["rot1"]
    images = group.elements
    return equivalence.hmodule_from_matrices(sub, be, {
        h: [[int(images[h][i + 1] == j + 1) for j in range(3)]
            for i in range(3)] for h in sub.members})


def _generator_data(group, be):
    """Generator data (name -> (|S|, n, n) array) of the equations 1, a
    sign character (-1 on every generator but s), an induced equation and
    a gauged copy of it."""
    size = group.space.size

    def constant(value):
        return {name: np.full((size, 1, 1), be.coerce(value(name)),
                              dtype=be.dtype) for name in group.generators}

    induced = equivalence.induce(_rank2_module(group, be), transversal(group))
    gauged = gauged_equation(seeded_rng(3), induced)
    return [constant(lambda name: 1),
            constant(lambda name: 1 if name == "s" else -1),
            *({name: eq.scalars(g) for name, g in group.generators.items()}
              for eq in (induced, gauged))]


def _answers(group, be, data):
    """Hom dimensions, decomposition ranks, simplicity verdicts and
    invariant dimensions of the completed equations, their sums and a
    tensor."""
    one, sign, r2, gauged = (complete_connection(group, be, mats)
                             for mats in data)
    eqs = [one, sign, r2, gauged, direct_sum(one, sign), tensor(r2, sign),
           direct_sum(gauged, sign)]

    def ranks(eq):
        try:
            return sorted(part.rank for part, _ in decompose(eq))
        except GDiffError as exc:
            return type(exc).__name__

    return {"hom": [len(hom_space(e, f)) for e in eqs for f in eqs],
            "decompose": [ranks(e) for e in eqs],
            "simple": [is_simple(e) for e in eqs],
            "invariants": [len(invariant_vectors(e)) for e in eqs]}


_UNRELABELLED = {}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(RELABEL_SPACES)),
       backend=st.sampled_from(sorted(BACKENDS)), data=st.data())
def test_answers_do_not_depend_on_point_labels(name, backend, data):
    # relabel the points by pi: generators pi s pi^-1, generator data
    # E'^s(y) = E^s(pi^-1 y); pi usually moves the base point, so the
    # stabilizer, its fiber and the transversal all change
    space, gens = RELABEL_SPACES[name]
    be = BACKENDS[backend]
    size = space.size
    pi = data.draw(st.permutations(range(size)), label="pi")
    pinv = np.argsort(pi)
    group = enumerate_group(space, gens)
    mats = _generator_data(group, be)
    if (name, backend) not in _UNRELABELLED:
        _UNRELABELLED[name, backend] = _answers(group, be, mats)
    moved = enumerate_group(space, {
        g: tuple(pi[image[pinv[x]]] for x in range(size))
        for g, image in gens.items()})
    moved_mats = [{g: m[pinv] for g, m in eq.items()} for eq in mats]
    assert _answers(moved, be, moved_mats) == _UNRELABELLED[name, backend]


# -- Frobenius reciprocity -----------------------------------------------------

def _reciprocity_cases(group, be):
    """The stabilizer modules U (trivial, sign and ``_rank2_module``) and
    the equations E: each U induced along ``transversal`` and along
    ``alternate_transversal``, the ``_generator_data`` equations (a gauged
    one among them), and direct sums of these."""
    fam = equivalence.builtin_irreducibles(stabilizer(group, 0), be)
    mods = {"trivial": fam["trivial"], "sign": fam["sign"],
            "rank2": _rank2_module(group, be)}
    eqs = {}
    for along, sigma in (("transversal", transversal(group)),
                         ("alternate", alternate_transversal(group))):
        for name, mod in mods.items():
            eqs[name, along] = equivalence.induce(mod, sigma)
    for name, mats in zip(("one", "sign", "rank2", "gauged"),
                          _generator_data(group, be)):
        eqs[name, "generators"] = complete_connection(group, be, mats)
    for a, b in ((("rank2", "transversal"), ("sign", "alternate")),
                 (("gauged", "generators"), ("rank2", "alternate")),
                 (("sign", "generators"), ("rank2", "generators"))):
        eqs[a, b] = direct_sum(eqs[a], eqs[b])
    return mods, eqs


@settings(max_examples=20, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(RELABEL_SPACES)),
       backend=st.sampled_from(sorted(BACKENDS)))
def test_frobenius_reciprocity(name, backend):
    space, gens = RELABEL_SPACES[name]
    be = BACKENDS[backend]
    group = enumerate_group(space, gens)
    mods, eqs = _reciprocity_cases(group, be)
    sigma = transversal(group)
    for u in mods.values():
        for key, e in eqs.items():
            want = len(equivalence.intertwiner_space(u, equivalence.fiber(e)))
            got = len(hom_space(equivalence.induce(u, sigma), e))
            assert got == want, (name, backend, key)

import numpy as np
import pytest

from conftest import (alternate_transversal, mult_table, perm_compose,
                      perm_inverse)
from gdiff.errors import GroupTooLarge, NotTransitive
from gdiff.space import (FiniteSpace, dihedral_on_cycle, enumerate_group,
                         parse_cycles, stabilizer, transversal)


def test_dihedral_orders():
    assert dihedral_on_cycle(3).order == 6
    assert dihedral_on_cycle(4).order == 8
    assert dihedral_on_cycle(6).order == 12


def test_identity_is_element_zero(g3):
    assert tuple(g3.elements[0]) == (0, 1, 2)
    assert all(g3.mul(0, g) == g for g in range(g3.order))
    assert all(g3.mul(g, 0) == g for g in range(g3.order))


def test_multiplication_table_is_group(g4):
    n = g4.order
    for a in range(n):
        assert g4.mul(a, g4.inv[a]) == 0
        assert g4.mul(g4.inv[a], a) == 0
        for b in range(n):
            ab = g4.mul(a, b)
            assert tuple(g4.elements[ab]) == perm_compose(
                tuple(g4.elements[a]), tuple(g4.elements[b]))


def test_parse_cycles():
    assert parse_cycles("(1 2 3)", 3) == (1, 2, 0)
    assert parse_cycles("(2 3)", 3) == (0, 2, 1)
    assert parse_cycles("e", 4) == (0, 1, 2, 3)
    assert parse_cycles("(1 2)(3 4)", 4) == (1, 0, 3, 2)
    with pytest.raises(ValueError):
        parse_cycles("(1 2", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 5)", 3)


def test_not_transitive():
    space = FiniteSpace(("a", "b", "c", "d"))
    with pytest.raises(NotTransitive):
        enumerate_group(space, {"s": (1, 0, 2, 3)})


def test_group_cap():
    space = FiniteSpace.cycle(5)
    with pytest.raises(GroupTooLarge):
        enumerate_group(space, {"s": parse_cycles("(1 2 3 4 5)", 5),
                                "t": parse_cycles("(1 2)", 5)}, cap=10)


def test_stabilizer_order(g3, g4, g6):
    for g in (g3, g4, g6):
        sub = stabilizer(g, 0)
        assert sub.order * g.space.size == g.order
        assert all(g.elements[h][0] == 0 for h in sub.members)


def test_transversal_properties(g6):
    for builder in (transversal, alternate_transversal):
        sig = builder(g6)
        assert sig.sigma[0] == 0
        for y in range(g6.space.size):
            assert g6.elements[sig.sigma[y]][0] == y


def test_word_parsing(g3):
    s, t = g3.generators["s"], g3.generators["t"]
    assert g3.word("s*t") == g3.mul(s, t)
    assert g3.word("s^-1") == g3.inv[s]
    assert g3.word("s^3") == 0
    assert g3.word("e") == 0
    with pytest.raises(KeyError):
        g3.word("u")


def test_inverse_of_inverse(g4):
    for a in range(g4.order):
        assert g4.inv[g4.inv[a]] == a
        assert perm_inverse(tuple(g4.elements[a])) == tuple(g4.elements[g4.inv[a]])


def symmetric_group_s4():
    return enumerate_group(FiniteSpace(("a", "b", "c", "d")),
                           {"c": parse_cycles("(1 2 3 4)", 4),
                            "t": parse_cycles("(1 2)", 4)})


def cube_rotations():
    """The rotation group of the cube on its 8 vertices, vertex (x, y, z) in
    {0, 1}^3 at index 4x + 2y + z: quarter turns about the z and x axes."""
    def turn(image):
        return tuple(4 * a + 2 * b + c for a, b, c in
                     (image(v >> 2, (v >> 1) & 1, v & 1) for v in range(8)))
    return enumerate_group(
        FiniteSpace(tuple(f"v{i}" for i in range(8))),
        {"z": turn(lambda x, y, z: (1 - y, x, z)),
         "x": turn(lambda x, y, z: (x, 1 - z, y))})


PRODUCT_GROUPS = {f"D{n}": (lambda n=n: dihedral_on_cycle(n))
                  for n in range(3, 13)}
PRODUCT_GROUPS.update(S4=symmetric_group_s4, cube=cube_rotations)


def symmetric_group_s5():
    return enumerate_group(FiniteSpace(("a", "b", "c", "d", "e")),
                           {"c": parse_cycles("(1 2 3 4 5)", 5),
                            "t": parse_cycles("(1 2)", 5)})


@pytest.mark.parametrize("name", sorted(PRODUCT_GROUPS) + ["S5"])
def test_subgroup_generators_are_greedy_and_generate_it(name):
    # closures by the eager table: each generator lies outside the closure
    # of those before it, which holds every member before it, and all of
    # them generate the stabilizer; the set is computed once per record
    group = (PRODUCT_GROUPS.get(name) or symmetric_group_s5)()
    table = mult_table(group)

    def closure(gens):
        found, frontier = {0}, {0}
        while frontier:
            frontier = {table[a][g] for a in frontier for g in gens} - found
            found |= frontier
        return found

    sub = stabilizer(group, 0)
    gens = sub.generators
    assert closure(gens) == set(sub.members) and sub.generators is gens
    for i, g in enumerate(gens):
        before = closure(gens[:i])
        assert g in sub.members and g not in before
        assert all(h in before for h in sub.members if h < g)


@pytest.mark.parametrize("name", sorted(PRODUCT_GROUPS))
def test_products_on_demand_equal_the_table(name):
    group = PRODUCT_GROUPS[name]()
    table = mult_table(group)
    ids = np.arange(group.order)
    assert group.mul_ids(ids[:, None], ids[None, :]).tolist() == \
        [list(row) for row in table]
    assert all(group.mul(a, b) == table[a][b]
               for a in range(group.order) for b in range(group.order))
    assert [table[a][group.inv[a]] for a in range(group.order)] == \
        [0] * group.order
    for row in range(group.order):
        assert group.mul(row, row, row) == table[row][table[row][row]]


def test_non_dihedral_groups_need_a_longer_base():
    s4, cube = symmetric_group_s4(), cube_rotations()
    assert (s4.order, cube.order) == (24, 24)
    assert len(s4.base) == 3 and len(cube.base) == 2
    # a vertex of the cube is fixed by the three turns about its diagonal
    sub = stabilizer(cube, 0)
    assert sub.order == 3
    h = next(h for h in sub.members if h != 0)
    assert cube.mul(h, h, h) == 0


def test_base_images_determine_the_element():
    for make in PRODUCT_GROUPS.values():
        group = make()
        images = group.elements[:, list(group.base)]
        assert len({tuple(row) for row in images.tolist()}) == group.order
        assert group.lookup(images).tolist() == list(range(group.order))


def test_group_equality_compares_elements():
    assert dihedral_on_cycle(5) == dihedral_on_cycle(5)
    assert not dihedral_on_cycle(5) != dihedral_on_cycle(5)
    assert dihedral_on_cycle(5) != dihedral_on_cycle(6)
    rotations = enumerate_group(FiniteSpace.cycle(5),
                                {"s": parse_cycles("(1 5 4 3 2)", 5)})
    assert rotations != dihedral_on_cycle(5)


def test_entry_cap_counts_group_times_points():
    space = FiniteSpace.cycle(5)
    gens = {"s": parse_cycles("(1 2 3 4 5)", 5)}
    assert enumerate_group(space, gens, cap=25).order == 5
    with pytest.raises(GroupTooLarge):
        enumerate_group(space, gens, cap=24)

import numpy as np
import pytest

from conftest import (alternate_transversal, array_bits, bits, equation_zoo,
                      grothendieck_check, hmodule_direct_sum, hmodule_dual,
                      hmodule_tensor, intertwiner_dim, kmatrix_of, list_rho,
                      loop_character, loop_close_rho, loop_direct_sum,
                      loop_intertwiner_rows, loop_tensor, loop_validate,
                      pointwise_induce, rank2_equation, scalar_bits,
                      seeded_rng, random_involution, transversal_independence)
from gdiff import scalars
from gdiff import equivalence, solver
from gdiff.equations import direct_sum, dual, tensor, trivial_equation
from gdiff.equivalence import (HModule, builtin_irreducibles, fiber,
                               hmodule_from_matrices, induce, intertwiner_rows,
                               roundtrip_iso, trivial_hmodule)
from gdiff.errors import ElementNotInH, InvalidHModule
from gdiff.problem import _close_rho
from gdiff.projection import character_of_hmodule
from gdiff.space import (FiniteSpace, Transversal, dihedral_on_cycle,
                         enumerate_group, parse_cycles, stabilizer,
                         transversal)

BACKENDS = [scalars.Backend.rational(), scalars.Backend.complex()]


def test_fiber_of_trivial_and_sign(g3, rational):
    zoo = equation_zoo(g3, rational)
    sub = stabilizer(g3, 0)
    t = sub.members.index(next(h for h in sub.members if h != 0))
    f1 = fiber(zoo["one"])
    assert f1.dim == 1 and f1.rho[t].tolist() == [[1]]
    fs = fiber(zoo["sign"])
    assert fs.rho[t].tolist() == [[-1]]


def test_fiber_respects_direct_sum(g3, rational):
    zoo = equation_zoo(g3, rational)
    f = fiber(direct_sum(zoo["one"], zoo["sign"]))
    g = hmodule_direct_sum(fiber(zoo["one"]), fiber(zoo["sign"]))
    assert f.rho.tolist() == g.rho.tolist()


def test_rho_orientation_is_antihomomorphism(g4, rational):
    fib = fiber(rank2_equation(g4, rational))
    fib.validate()  # checks rho(ab) = rho(b) rho(a) and invertibility


def test_fiber_induce_literally_equal(g3, g4, g6, rational):
    rng = seeded_rng(12)
    for group in (g3, g4, g6):
        sub = stabilizer(group, 0)
        t = next(h for h in sub.members if h != 0)
        mod = hmodule_from_matrices(
            sub, rational, {0: [[1, 0], [0, 1]], t: random_involution(rng)})
        eq = induce(mod, transversal(group))
        back = fiber(eq)
        assert back.rho.tolist() == mod.rho.tolist()


def test_induce_stays_in_h(g3, rational):
    # a deliberately broken "transversal" must be caught
    mod = trivial_hmodule(stabilizer(g3, 0), rational)
    sig = transversal(g3)
    broken = Transversal(g3, 0, (sig.sigma[0], sig.sigma[2], sig.sigma[1]))
    with pytest.raises(ElementNotInH):
        induce(mod, broken)


def test_roundtrip_iso_all_fixtures(g3, g4, rational):
    for group in (g3, g4):
        for eq in equation_zoo(group, rational).values():
            iso = roundtrip_iso(eq)
            assert solver.is_isomorphism(iso)
            iso.validate()


def test_transversal_independence(g3, rational):
    sub = stabilizer(g3, 0)
    fam = builtin_irreducibles(sub, rational)
    sig1, sig2 = transversal(g3), alternate_transversal(g3)
    assert sig1.sigma != sig2.sigma
    phi = transversal_independence(fam["sign"], sig1, sig2)
    assert solver.is_isomorphism(phi)
    # inverse pairing composes to the identity
    back = transversal_independence(fam["sign"], sig2, sig1)
    prod = kmatrix_of(phi).mul(kmatrix_of(back))
    ident = kmatrix_of(solver.identity_morphism(induce(fam["sign"], sig1)))
    assert prod.eq(ident)


def test_transversal_independence_same_transversal_is_identity(g4, rational):
    sub = stabilizer(g4, 0)
    sig = transversal(g4)
    mod = builtin_irreducibles(sub, rational)["sign"]
    phi = transversal_independence(mod, sig, sig)
    ident = kmatrix_of(solver.identity_morphism(induce(mod, sig)))
    assert kmatrix_of(phi).eq(ident)


def test_grothendieck_builtins(g3, rational):
    fam = builtin_irreducibles(stabilizer(g3, 0), rational)
    mods = list(fam.values())
    for u in mods:
        for v in mods:
            rep = grothendieck_check(u, v)
            assert all(rep.values()), rep


def test_grothendieck_random_module(g3, rational):
    rng = seeded_rng(13)
    sub = stabilizer(g3, 0)
    t = next(h for h in sub.members if h != 0)
    u = hmodule_from_matrices(sub, rational,
                              {0: [[1, 0], [0, 1]], t: random_involution(rng)})
    v = builtin_irreducibles(sub, rational)["sign"]
    rep = grothendieck_check(u, v)
    assert all(rep.values()), rep


def test_hom_dim_equals_fiber_intertwiner_dim_after_induction(g4, rational):
    sub = stabilizer(g4, 0)
    fam = builtin_irreducibles(sub, rational)
    sig = transversal(g4)
    for u in fam.values():
        for v in fam.values():
            want = intertwiner_dim(u, v)
            got = len(solver.hom_space(induce(u, sig), induce(v, sig)))
            assert got == want


def test_induced_simplicity_matches_fiber(g3, rational, cplx):
    for be in (rational, cplx):
        sub = stabilizer(g3, 0)
        fam = builtin_irreducibles(sub, be)
        sig = transversal(g3)
        for mod in fam.values():
            eq = induce(mod, sig)
            span_simple = solver.is_simple(eq) == solver.SIMPLE
            # span criterion directly on the fiber
            from gdiff import linalg
            sp = linalg.RowSpace(mod.dim ** 2, be)
            for mat in mod.rho.tolist():
                sp.add([x for row in mat for x in row])
            assert span_simple == (sp.dim == mod.dim ** 2)


def test_dual_tensor_functors_commute_with_fiber(g3, rational):
    zoo = equation_zoo(g3, rational)
    e, f = zoo["rank2"], zoo["sign"]
    assert (fiber(tensor(e, f)).rho.tolist()
            == hmodule_tensor(fiber(e), fiber(f)).rho.tolist())
    assert fiber(dual(e)).rho.tolist() == hmodule_dual(fiber(e)).rho.tolist()


@pytest.mark.parametrize("backend", [scalars.Backend.rational(),
                                     scalars.Backend.complex()])
def test_induce_matches_the_per_cell_loop(g3, g4, g6, backend):
    rng = seeded_rng(41)
    for group in (g3, g4, g6):
        sub = stabilizer(group, 0)
        t = next(h for h in sub.members if h != 0)
        mods = list(builtin_irreducibles(sub, backend).values())
        mods.append(hmodule_from_matrices(
            sub, backend, {0: [[1, 0], [0, 1]], t: random_involution(rng)}))
        for mod in mods:
            for sig in (transversal(group), alternate_transversal(group)):
                got, want = induce(mod, sig), pointwise_induce(mod, sig)
                assert got == want
                assert scalar_bits(got) == scalar_bits(want)


def test_induce_leaves_h_where_the_per_cell_loop_does(g4, rational):
    mod = builtin_irreducibles(stabilizer(g4, 0), rational)["sign"]
    bad = Transversal(g4, 0, (0, 2, 0, 1))
    with pytest.raises(ElementNotInH) as want:
        pointwise_induce(mod, bad)
    with pytest.raises(ElementNotInH) as got:
        induce(mod, bad)
    assert str(got.value) == str(want.value)


def module_zoo(group, backend, rng):
    """The builtin irreducibles of the stabilizer, and a random rank-2
    module: a random involution at its element t != e."""
    sub = stabilizer(group, 0)
    t = next(h for h in sub.members if h != 0)
    mods = list(builtin_irreducibles(sub, backend).values())
    mods.append(hmodule_from_matrices(
        sub, backend, {0: [[1, 0], [0, 1]], t: random_involution(rng)}))
    return mods


@pytest.mark.parametrize("backend", BACKENDS)
def test_dual_module_is_the_fiber_of_the_dual(g3, g4, g6, backend):
    # rho*(h) = rho(h^-1)^t gathers the very scalars of the dual connection
    # at the base point
    rng = seeded_rng(43)
    for group in (g3, g4, g6):
        for mod in module_zoo(group, backend, rng):
            e = induce(mod, transversal(group))
            assert (array_bits(hmodule_dual(fiber(e)).rho)
                    == array_bits(fiber(dual(e)).rho))


def symmetric_on_points(n):
    """S_n on n points from the n-cycle a, b = (2 3) and c = (2 3 ... n):
    b and c generate the stabilizer of the first point, S_{n-1} (at n = 4
    S3, with a 2-dim irreducible over the complex numbers)."""
    space = FiniteSpace(tuple(str(i + 1) for i in range(n)))
    cycles = {"a": range(1, n + 1), "b": (2, 3), "c": range(2, n + 1)}
    return enumerate_group(space, {
        name: parse_cycles("(" + " ".join(map(str, points)) + ")", n)
        for name, points in cycles.items()})


def permutation_module(sub, backend):
    """The stabilizer permuting the other points: rho(h)_ij = 1 when h takes
    point i + 1 to point j + 1, an anti-homomorphism."""
    images = sub.group.elements
    k = images.shape[1] - 1
    return hmodule_from_matrices(sub, backend, {
        h: [[int(images[h][i + 1] == j + 1) for j in range(k)]
            for i in range(k)] for h in sub.members})


def two_word_modules(sub, backend, rng):
    """Modules closed (``_close_rho``) from their matrices at b and c, the
    generators of the stabilizer in ``symmetric_on_points``: the sign, and
    a random involution M in place of -1 (an odd c gets M, an even c the
    identity), which is the sign plus the trivial module in another
    basis."""
    group = sub.group
    b, c = group.generators["b"], group.generators["c"]
    odd = group.space.size % 2 == 1  # c is a cycle of length n - 1
    involution = [[backend.coerce(x) for x in row]
                  for row in random_involution(rng)]
    eye = [[backend.one(), backend.zero()], [backend.zero(), backend.one()]]
    words = [{b: [[-backend.one()]], c: [[(-1) ** odd * backend.one()]]},
             {b: involution, c: involution if odd else eye}]
    return [HModule(sub, backend, len(rho[b]),
                   _close_rho(sub, backend, rho, "hmodule"))
            for rho in words]


def rho_bits(rho, members):
    """``bits`` of nested-list matrices keyed by element id, in member order."""
    return [bits(x) for h in members for row in rho[h] for x in row]


def validate_message(mod):
    try:
        mod.validate()
    except InvalidHModule as exc:
        return str(exc)
    return None


def corrupted(mod):
    """Copies of mod that fail validation: rho(e) off the identity, and for
    each element a shifted entry and a zero matrix, and, unless it
    generates H, every matrix off its cyclic subgroup K doubled, which
    keeps the law at every (k, b) with k in K."""
    be, sub, d = mod.backend, mod.subgroup, mod.dim
    for a in range(sub.order):
        for change in ("shift", "zero"):
            rho = mod.rho.copy()
            if change == "shift":
                rho[a, 0, d - 1] = rho[a, 0, d - 1] + be.one()
            else:
                rho[a] = be.zero()
            yield HModule(sub, be, d, rho)
        cyclic, power = {0}, sub.members[a]
        while power not in cyclic:
            cyclic.add(power)
            power = sub.mult(power, sub.members[a])
        off = [i for i, h in enumerate(sub.members) if h not in cyclic]
        if off:
            rho = mod.rho.copy()
            rho[off] = rho[off] * 2
            yield HModule(sub, be, d, rho)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", [3, 4, 6, "s4", "s5"])
def test_module_layer_matches_the_nested_list_loops(n, backend):
    # the array code against the loops it replaced: the same bits on the
    # complex backend, signs of zeros included, equal Fractions (never
    # ints) over the rationals, and the same first validation failure (an
    # exact module that passes its generators is not scanned further: each
    # break of one element must still fail, with the scan's message)
    rng = seeded_rng(44)
    if n == "s4":
        group = symmetric_on_points(4)
        sub = stabilizer(group, 0)
        mods = list(builtin_irreducibles(sub, backend).values())
        mods.append(permutation_module(sub, backend))
        mods += two_word_modules(sub, backend, rng)
    elif n == "s5":  # |H| = 24
        group = symmetric_on_points(5)
        sub = stabilizer(group, 0)
        mods = [trivial_hmodule(sub, backend),
                permutation_module(sub, backend)]
        mods += two_word_modules(sub, backend, rng)
    else:
        group = dihedral_on_cycle(n)
        sub = stabilizer(group, 0)
        mods = module_zoo(group, backend, rng)
    members = sub.members
    for u in mods:
        assert validate_message(u) is None and loop_validate(u) is None
        for bad in corrupted(u):
            assert validate_message(bad) == loop_validate(bad) is not None
        assert ([bits(v) for v in character_of_hmodule(u).values.values()]
                == [bits(v) for v in loop_character(u).values()])
        # the closure of the matrices at the non-identity generators
        rho = list_rho(u)
        gens = {h: rho[h] for h in members if h in group.generator_ids}
        gens = gens or {h: rho[h] for h in members[1:]}
        assert (array_bits(_close_rho(sub, backend, gens, "hmodule"))
                == rho_bits(loop_close_rho(sub, backend, gens), members))
        for v in mods:
            assert (array_bits(intertwiner_rows(u, v))
                    == [bits(x) for row in loop_intertwiner_rows(u, v)
                        for x in row])
            assert (array_bits(hmodule_direct_sum(u, v).rho)
                    == rho_bits(loop_direct_sum(u, v), members))
            assert (array_bits(hmodule_tensor(u, v).rho)
                    == rho_bits(loop_tensor(u, v), members))


def test_validate_finds_a_singular_matrix_among_good_pairs(g3, cplx):
    # [[1, x], [0, -1]] squares to the identity, but at x = 1e9 its singular
    # values are 1e9 and 1e-9, below the rank tolerance: every pair agrees,
    # and the scan still reports the singular matrix
    sub = stabilizer(g3, 0)
    t = sub.members.index(next(h for h in sub.members if h != 0))
    rho = np.array([np.eye(2), np.eye(2)], dtype=complex)
    rho[t] = [[1, 1e9], [0, -1]]
    mod = HModule(sub, cplx, 2, rho)
    assert validate_message(mod) == loop_validate(mod) == \
        f"rho of element {sub.members[t]} is singular"

import pytest

from conftest import (equation_zoo, kmatrix_of, pointwise_induce,
                      rank2_equation, scalar_bits, seeded_rng,
                      random_involution)
from gdiff import scalars
from gdiff import equivalence, solver
from gdiff.equations import direct_sum, dual, tensor, trivial_equation
from gdiff.equivalence import (builtin_irreducibles, fiber, grothendieck_check,
                               hmodule_direct_sum, hmodule_dual,
                               hmodule_from_matrices, hmodule_tensor, induce,
                               roundtrip_iso, transversal_independence,
                               trivial_hmodule)
from gdiff.errors import ElementNotInH
from gdiff.space import (Transversal, alternate_transversal, stabilizer,
                         transversal)


def test_fiber_of_trivial_and_sign(g3, rational):
    zoo = equation_zoo(g3, rational)
    sub = stabilizer(g3, 0)
    t = next(h for h in sub.members if h != 0)
    f1 = fiber(zoo["one"])
    assert f1.dim == 1 and f1.rho[t] == [[1]]
    fs = fiber(zoo["sign"])
    assert fs.rho[t] == [[-1]]


def test_fiber_respects_direct_sum(g3, rational):
    zoo = equation_zoo(g3, rational)
    f = fiber(direct_sum(zoo["one"], zoo["sign"]))
    g = hmodule_direct_sum(fiber(zoo["one"]), fiber(zoo["sign"]))
    assert f.rho == g.rho


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
        assert back.rho == mod.rho


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
            want = equivalence.intertwiner_dim(u, v)
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
            for h in sub.members:
                sp.add(linalg.flatten(mod.rho[h]))
            assert span_simple == (sp.dim == mod.dim ** 2)


def test_dual_tensor_functors_commute_with_fiber(g3, rational):
    zoo = equation_zoo(g3, rational)
    e, f = zoo["rank2"], zoo["sign"]
    assert fiber(tensor(e, f)).rho == hmodule_tensor(fiber(e), fiber(f)).rho
    assert fiber(dual(e)).rho == hmodule_dual(fiber(e)).rho


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

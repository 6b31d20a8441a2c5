from fractions import Fraction

import pytest

from conftest import (Fn, KMatrix, conn_of, equation_zoo, full_hom_system,
                      gauged_equation,
                      hom_dim_oracle, intertwines_everywhere, kmatrix_of,
                      morphism_from_kmatrix, pointwise_hom_space,
                      pointwise_intertwines, random_kmatrix, scalar_eq,
                      seeded_rng,
                      sympy_nullspace)
from gdiff import equivalence, solver
from gdiff.equations import act, direct_sum, trivial_equation
from gdiff.errors import CompositionMismatch, NotASolution
from gdiff.solver import (NOT_SIMPLE, SIMPLE, compose, decompose, hom_space,
                          identity_morphism, image, is_injective,
                          is_isomorphism, is_simple, is_surjective, kernel,
                          symmetries, zero_morphism)


def test_hom_dims_match_full_system_oracle(g3, rational):
    zoo = equation_zoo(g3, rational)
    for a in zoo.values():
        for b in zoo.values():
            assert len(hom_space(a, b)) == hom_dim_oracle(a, b)


def test_hom_basis_intertwines_on_every_element(g3, g4, rational, cplx):
    # the package verifies on generators only; here every element is checked
    for group in (g3, g4):
        for be in (rational, cplx):
            zoo = equation_zoo(group, be)
            for a in zoo.values():
                for b in zoo.values():
                    for phi in hom_space(a, b):
                        assert intertwines_everywhere(phi)


def test_rational_hom_basis_is_the_full_system_nullspace(g3, g4, rational):
    # entry by entry: sympy's nullspace of the system over all of G
    for group in (g3, g4):
        zoo = equation_zoo(group, rational)
        zoo["zero"] = trivial_equation(group, rational, rank=0)
        for a in zoo.values():
            for b in zoo.values():
                n, m, size = a.rank, b.rank, group.space.size
                want = sympy_nullspace(full_hom_system(a, b), n * m * size)
                got = [[km.entries[i][j].values[y]
                        for i in range(n) for j in range(m)
                        for y in range(size)]
                       for km in map(kmatrix_of, hom_space(a, b))]
                assert got == want


def hom_vectors(basis):
    """The hom_space basis as vectors, unknowns in the order (i, j, y)."""
    return [[f.values[y] for row in kmatrix_of(phi).entries for f in row
             for y in range(len(f))] for phi in basis]


def test_hom_space_matches_pointwise_transport(g3, g4, g6, rational, cplx):
    # the batched integer transport against the per-point scalar products:
    # entry by entry over the rationals, within Backend.eq on complex.
    # Gauged equations have transports with non-integer entries, so the
    # common denominators are not 1.
    rng = seeded_rng(16)
    for group in (g3, g4, g6):
        for be in (rational, cplx):
            zoo = equation_zoo(group, be)
            zoo["gauged"] = gauged_equation(rng, zoo["rank2"])
            zoo["gauged_both"] = gauged_equation(rng, zoo["both"])
            fractional = False
            for a in zoo.values():
                for b in zoo.values():
                    got = hom_vectors(hom_space(a, b))
                    want = pointwise_hom_space(a, b)
                    assert len(got) == len(want)
                    if be.exact:
                        assert got == want
                        assert all(type(x) is Fraction for v in got for x in v)
                        fractional |= any(x.denominator > 1
                                          for v in got for x in v)
                    else:
                        assert all(scalar_eq(be, x, y)
                                   for u, v in zip(got, want)
                                   for x, y in zip(u, v))
            assert fractional or not be.exact


def test_hom_dims_match_fiber_intertwiners(g4, rational):
    zoo = equation_zoo(g4, rational)
    for a in zoo.values():
        for b in zoo.values():
            want = equivalence.intertwiner_dim(equivalence.fiber(a),
                                               equivalence.fiber(b))
            assert len(hom_space(a, b)) == want


def test_block_additivity(g3, rational):
    zoo = equation_zoo(g3, rational)
    e, ep, f = zoo["one"], zoo["sign"], zoo["rank2"]
    assert (len(hom_space(direct_sum(e, ep), f))
            == len(hom_space(e, f)) + len(hom_space(ep, f)))


def test_symmetries_contains_identity_and_closes(g3, rational):
    zoo = equation_zoo(g3, rational)
    basis = symmetries(zoo["both"])
    assert len(basis) == 2
    ident = identity_morphism(zoo["both"])
    # identity is in the span: hom_space of the difference stays valid
    for a in basis:
        for b in basis:
            composed = compose(a, b)
            composed.validate()  # closure under composition


def test_compose_rejects_mismatched_middle_equations(g3, rational):
    # equal ranks are not enough: the first map must end where the second
    # starts, the same equation or an equal one built apart
    zoo = equation_zoo(g3, rational)
    with pytest.raises(CompositionMismatch):
        compose(zero_morphism(zoo["one"], zoo["sign"]),
                identity_morphism(zoo["one"]))
    twin = trivial_equation(g3, rational)
    assert twin is not zoo["one"]
    compose(identity_morphism(zoo["one"]), identity_morphism(twin)).validate()


def test_morphism_validation_rejects_junk(g3, rational):
    zoo = equation_zoo(g3, rational)
    one, sign = zoo["one"], zoo["sign"]
    bad = solver.Morphism(one, sign, identity_morphism(one).matrix)
    with pytest.raises(NotASolution):
        bad.validate()


def morphism_message(phi):
    """None when phi validates, else the NotASolution message."""
    try:
        phi.validate()
    except NotASolution as exc:
        return str(exc)
    return None


def test_morphism_validate_matches_pointwise_oracle(g3, g4, g6, rational,
                                                   cplx):
    # the batched check against the generator loop: hom bases pass, junk
    # matrices fail on the same first generator
    rng = seeded_rng(14)
    for group in (g3, g4, g6):
        for be in (rational, cplx):
            zoo = equation_zoo(group, be)
            zoo["gauged"] = gauged_equation(rng, zoo["rank2"])
            zoo["zero"] = trivial_equation(group, be, rank=0)
            for a in zoo.values():
                for b in zoo.values():
                    for phi in hom_space(a, b):
                        assert morphism_message(phi) is None
                        assert pointwise_intertwines(phi) is None
                    junk = morphism_from_kmatrix(a, b, random_kmatrix(
                        rng, a.rank, b.rank, group.space.size, be))
                    assert morphism_message(junk) == pointwise_intertwines(junk)
                    if a.rank and b.rank:
                        assert morphism_message(junk) is not None
    # on D3 the identity 1 -> sign commutes with s and fails only at t
    zoo = equation_zoo(g3, rational)
    bad = solver.Morphism(zoo["one"], zoo["sign"],
                          identity_morphism(zoo["one"]).matrix)
    t = g3.generators["t"]
    assert morphism_message(bad) == pointwise_intertwines(bad) == \
        f"intertwining fails for group element {t}"


def test_corrupted_morphism_with_new_denominator(g4, g6, rational, cplx):
    # a hom basis element of gauged equations, one entry at one point moved
    # by 1/11, which changes the morphism's common denominator: the batched
    # check on the integer form must agree with the generator loop
    rng = seeded_rng(17)
    for group in (g4, g6):
        for be in (rational, cplx):
            zoo = equation_zoo(group, be)
            a = gauged_equation(rng, zoo["rank2"])
            b = gauged_equation(rng, zoo["rank2"])
            size = group.space.size
            basis = hom_space(a, b)
            assert basis
            for phi in basis:
                assert morphism_message(phi) is None
                rows = [list(r) for r in kmatrix_of(phi).entries]
                i, j, y = rng.randrange(2), rng.randrange(2), rng.randrange(size)
                rows[i][j] = rows[i][j] + Fn.delta(y, size, be).scale(
                    Fraction(1, 11))
                bad = morphism_from_kmatrix(a, b, KMatrix.from_rows(rows, be))
                assert morphism_message(bad) == pointwise_intertwines(bad)
                assert morphism_message(bad) is not None


def test_pointwise_equivariance(g3, rational):
    # F_phi^y o g = g o F_phi^{g^{-1}y}: on row coordinates,
    # E^g(y) . phi(y) = phi(g^{-1}y) . F^g(y)
    zoo = equation_zoo(g3, rational)
    basis = hom_space(zoo["rank2"], zoo["rank2"])
    phi = basis[0]
    e = zoo["rank2"]
    from conftest import mat_eq, mat_mul
    conn = conn_of(e)
    for g in range(g3.order):
        ginv = g3.elements[g3.inv[g]]
        for y in range(3):
            lhs = mat_mul(conn[g].at_point(y), phi.at_point(y), rational)
            rhs = mat_mul(phi.at_point(ginv[y]), conn[g].at_point(y),
                          rational)
            assert mat_eq(lhs, rhs, rational)


def test_injective_surjective_iso(g3, rational):
    zoo = equation_zoo(g3, rational)
    one, both = zoo["one"], zoo["both"]
    assert is_isomorphism(identity_morphism(both))
    z = zero_morphism(one, both)
    assert not is_injective(z) and not is_surjective(z)
    # inclusion of the first coordinate
    incl = hom_space(one, both)
    assert len(incl) == 1
    assert is_injective(incl[0]) and not is_surjective(incl[0])


def test_kernel_image_ranks(g3, rational):
    zoo = equation_zoo(g3, rational)
    one, both, sign = zoo["one"], zoo["both"], zoo["sign"]
    proj = hom_space(both, one)[0]
    ker_eq, ker_emb = kernel(proj)
    img_eq, img_emb = image(proj)
    assert ker_eq.rank + img_eq.rank == both.rank
    assert is_injective(ker_emb) and is_injective(img_emb)
    assert solver.find_isomorphism(ker_eq, sign) is not None
    assert solver.find_isomorphism(img_eq, one) is not None


def test_kernel_of_identity_and_image_of_zero(g3, rational):
    zoo = equation_zoo(g3, rational)
    both = zoo["both"]
    ker_eq, _ = kernel(identity_morphism(both))
    assert ker_eq.rank == 0
    img_eq, _ = image(zero_morphism(both, zoo["one"]))
    assert img_eq.rank == 0


def test_is_simple(g3, rational):
    zoo = equation_zoo(g3, rational)
    assert is_simple(zoo["one"]) == SIMPLE
    assert is_simple(zoo["sign"]) == SIMPLE
    assert is_simple(zoo["both"]) == NOT_SIMPLE
    assert is_simple(zoo["rank2"]) == NOT_SIMPLE


def test_decompose_one_and_both(g3, rational):
    zoo = equation_zoo(g3, rational)
    only = decompose(zoo["one"])
    assert len(only) == 1 and only[0][0].rank == 1
    parts = decompose(zoo["both"])
    assert sorted(p.rank for p, _ in parts) == [1, 1]
    kinds = set()
    for part, emb in parts:
        emb.validate()
        if solver.find_isomorphism(part, zoo["one"]) is not None:
            kinds.add("one")
        if solver.find_isomorphism(part, zoo["sign"]) is not None:
            kinds.add("sign")
    assert kinds == {"one", "sign"}


def test_decompose_sum_is_isomorphic_to_whole(g3, rational):
    zoo = equation_zoo(g3, rational)
    parts = decompose(zoo["rank2"])
    total = parts[0][0]
    for p, _ in parts[1:]:
        total = direct_sum(total, p)
    assert solver.find_isomorphism(total, zoo["rank2"]) is not None


def test_decompose_regular_fiber_module(g3, rational):
    # induced from the regular module of H = Z2: two rank-1 summands
    from gdiff.space import stabilizer, transversal
    sub = stabilizer(g3, 0)
    t = next(h for h in sub.members if h != 0)
    reg = equivalence.hmodule_from_matrices(
        sub, rational, {0: [[1, 0], [0, 1]], t: [[0, 1], [1, 0]]})
    eq = equivalence.induce(reg, transversal(g3))
    parts = decompose(eq)
    assert sorted(p.rank for p, _ in parts) == [1, 1]


def test_decompose_complex_backend(g6, cplx):
    zoo = equation_zoo(g6, cplx)
    parts = decompose(zoo["both"])
    assert sorted(p.rank for p, _ in parts) == [1, 1]
    for part, emb in parts:
        emb.validate()


def test_symmetries_map_solutions_to_solutions(g3, rational):
    zoo = equation_zoo(g3, rational)
    both, one = zoo["both"], zoo["one"]
    for sigma in symmetries(both):
        for psi in hom_space(both, one):
            compose(sigma, psi).validate()

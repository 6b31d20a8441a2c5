from fractions import Fraction

import pytest

from conftest import (add_characters, conn_of, equation_zoo,
                      fiber_projection_route, hmodule_direct_sum, kmatrix_of,
                      mult_table, schur_check, sign_equation, transported)
from gdiff import equivalence, solver
from gdiff.equations import Equation, direct_sum, trivial_equation
from gdiff.errors import CharacterBackendMismatch, CompositionMismatch
from gdiff.projection import (Character, character, character_of_hmodule,
                              factor_solution, frobenius_projection,
                              isotypic_image)
from gdiff.space import stabilizer, transversal


def test_character_values(g3, rational):
    zoo = equation_zoo(g3, rational)
    sub = stabilizer(g3, 0)
    t = next(h for h in sub.members if h != 0)
    chi1 = character(zoo["one"])
    assert chi1.values[0] == 1 and chi1.values[t] == 1
    chis = character(zoo["sign"])
    assert chis.values[0] == 1 and chis.values[t] == -1
    chib = character(zoo["both"])
    assert chib.values[0] == 2 and chib.values[t] == 0


def test_character_additivity(g4, rational):
    zoo = equation_zoo(g4, rational)
    lhs = character(direct_sum(zoo["one"], zoo["rank2"]))
    rhs = add_characters(character(zoo["one"]), character(zoo["rank2"]))
    assert lhs.values == rhs.values


def test_transport_law(g6, rational):
    # chi_y(h_y) = chi(sigma(y)^{-1} h_y sigma(y)) agrees with the trace of
    # the conjugated connection at y
    eq = equation_zoo(g6, rational)["rank2"]
    chi = character(eq)
    sig = transversal(g6)
    sub = chi.subgroup
    mult = mult_table(g6)
    conn = conn_of(eq)
    for y in range(g6.space.size):
        s = sig.sigma[y]
        for h in sub.members:
            h_y = mult[s][mult[h][g6.inv[s]]]
            mat = conn[h_y].at_point(y)
            trace = sum(mat[i][i] for i in range(eq.rank))
            assert transported(chi, y, h_y, sig) == trace


def test_projection_on_trivial_is_identity(g3, rational):
    one = trivial_equation(g3, rational)
    pi = frobenius_projection(one, character(one))
    assert kmatrix_of(pi).eq(kmatrix_of(solver.identity_morphism(one)))


def test_two_routes_agree(g3, g4, rational):
    for group in (g3, g4):
        zoo = equation_zoo(group, rational)
        for target in ("one", "sign"):
            chi = character(zoo[target])
            a = frobenius_projection(zoo["both"], chi)
            b = fiber_projection_route(zoo["both"], chi)
            assert kmatrix_of(a).eq(kmatrix_of(b))


def test_complementary_idempotents(g3, rational):
    zoo = equation_zoo(g3, rational)
    both = zoo["both"]
    p1 = frobenius_projection(both, character(zoo["one"]))
    p2 = frobenius_projection(both, character(zoo["sign"]))
    p1, p2 = kmatrix_of(p1), kmatrix_of(p2)
    assert p1.mul(p1).eq(p1)
    assert p2.mul(p2).eq(p2)
    assert p1.mul(p2).is_zero()
    total = p1.add(p2)
    assert total.eq(kmatrix_of(solver.identity_morphism(both)))


def test_schur_check_dihedral_family(g3, g4, g6, cplx):
    for group in (g3, g4, g6):
        sub = stabilizer(group, 0)
        fam = equivalence.builtin_irreducibles(sub, cplx)
        amb = equivalence.induce(
            hmodule_direct_sum(fam["trivial"], fam["sign"]),
            transversal(group))
        parts = solver.decompose(amb)
        report = schur_check(amb, parts)
        assert all(report.values()), report


def test_projection_rank_with_multiplicity(g3, rational):
    zoo = equation_zoo(g3, rational)
    amb = direct_sum(direct_sum(zoo["one"], zoo["one"]), zoo["sign"])
    pi = frobenius_projection(amb, character(zoo["one"]))
    from gdiff import linalg
    assert linalg.rank(pi.at_point(0), rational) == 2


def test_factor_solution_dimensions(g3, rational):
    zoo = equation_zoo(g3, rational)
    both, one, sign = zoo["both"], zoo["one"], zoo["sign"]
    img, emb = isotypic_image(both, one)
    psis = solver.hom_space(img, one)
    direct = solver.hom_space(both, one)
    assert len(psis) == len(direct) == 1
    factored = factor_solution(both, one, psis[0])
    factored.validate()
    # sign (x) sign contains no copy of the trivial type
    ss = direct_sum(sign, sign)
    img2, _ = isotypic_image(ss, one)
    assert img2.rank == 0
    assert len(solver.hom_space(ss, one)) == 0


@pytest.mark.parametrize("backend", ["rational", "complex"])
def test_factor_solution_compares_connections(g3, g4, backend, request):
    # psi may live on an equal-connection copy of the isotypic image; over
    # the rationals also one written over another denominator
    be = request.getfixturevalue("rational" if backend == "rational"
                                 else "cplx")
    for group in (g3, g4):
        zoo = equation_zoo(group, be)
        both, one, sign = zoo["both"], zoo["one"], zoo["sign"]
        img, _ = isotypic_image(both, one)
        psi = solver.hom_space(img, one)[0]
        copies = [Equation(img.group, be, img.rank, img.array.copy(),
                           img.denom)]
        if be.exact:
            copies.append(Equation(img.group, be, img.rank, img.array * 6,
                                   img.denom * 6))
        for copy in copies:
            assert copy == img and hash(copy) == hash(img)
            factor_solution(both, one, solver.Morphism(copy, one, psi.matrix)
                            ).validate()
        # the same rank and group, another connection
        assert sign != img
        with pytest.raises(CompositionMismatch,
                           match="psi is not defined on the isotypic image"):
            factor_solution(both, one, solver.Morphism(sign, one, psi.matrix))


def test_factor_solution_identity_case(g3, rational):
    one = trivial_equation(g3, rational)
    img, emb = isotypic_image(one, one)
    psi = solver.hom_space(img, one)[0]
    out = factor_solution(one, one, psi)
    assert solver.is_isomorphism(out)


def test_character_backend_mismatch(g3, rational):
    one = trivial_equation(g3, rational)
    sub = stabilizer(g3, 0)
    t = next(h for h in sub.members if h != 0)
    bad = Character(sub, {0: complex(1), t: complex(0, 1)})
    with pytest.raises(CharacterBackendMismatch):
        frobenius_projection(one, bad)


def test_non_simple_target_not_idempotent_is_exposed(g3, rational):
    # averaging against a reducible character need not be idempotent;
    # it is still a valid endomorphism
    zoo = equation_zoo(g3, rational)
    both = zoo["both"]
    pi = frobenius_projection(both, character(both))
    pi.validate()

from fractions import Fraction

import numpy as np
import pytest

from conftest import (equation_zoo, fixed_everywhere, gauged_equation,
                      intertwines_everywhere, kmatrix_of, morphism_from_kmatrix,
                      rank2_equation, seeded_rng)
from gdiff import equivalence, solver
from gdiff.equations import (KMatrix, direct_sum, dual, sym2, trivial_equation,
                             wedge2, wedge_top)
from gdiff.errors import NotASolution, NotInvariant, UnknownPower
from gdiff.invariants import (composition_principle, conserved_quantity_check,
                              invariant_vectors, is_invariant, self_dual_check,
                              _form_from_wedge2)
from gdiff.scalars import Fn
from gdiff.solver import (Morphism, compose, constant_morphism, hom_space,
                          identity_morphism)
from gdiff.space import stabilizer, transversal


def symplectic_equation(group, be):
    """Rank 2 with -I at the stabilizer involution: determinant connection
    is trivial, so an antisymmetric invariant form exists."""
    sub = stabilizer(group, 0)
    t = next(h for h in sub.members if h != 0)
    mod = equivalence.hmodule_from_matrices(
        sub, be, {0: [[1, 0], [0, 1]], t: [[-1, 0], [0, -1]]})
    return equivalence.induce(mod, transversal(group))


def perturb(alpha, be):
    """alpha with one added to its first coordinate at the point 0."""
    bumped = np.array(alpha)
    bumped[0, 0] = bumped[0, 0] + be.one()
    return bumped


def test_invariant_vector_dimensions(g3, rational):
    zoo = equation_zoo(g3, rational)
    assert len(invariant_vectors(zoo["one"])) == 1
    assert len(invariant_vectors(zoo["sign"])) == 0
    assert len(invariant_vectors(zoo["both"])) == 1
    assert len(invariant_vectors(zoo["rank2"])) == 1


def test_invariant_dimension_is_additive(g4, rational):
    zoo = equation_zoo(g4, rational)
    for a in ("one", "sign", "rank2"):
        for b in ("one", "sign"):
            whole = len(invariant_vectors(direct_sum(zoo[a], zoo[b])))
            parts = (len(invariant_vectors(zoo[a]))
                     + len(invariant_vectors(zoo[b])))
            assert whole == parts


def test_invariant_dim_matches_hom_from_trivial(g3, g4, rational):
    for group in (g3, g4):
        one = trivial_equation(group, rational)
        for eq in equation_zoo(group, rational).values():
            assert len(invariant_vectors(eq)) == len(hom_space(one, eq))


def test_invariant_vectors_fixed_by_every_element(g3, g4, rational, cplx):
    # the package checks invariance on generators only
    for group in (g3, g4):
        for be in (rational, cplx):
            for eq in equation_zoo(group, be).values():
                for host in (eq, sym2(dual(eq)), wedge2(dual(eq))):
                    for alpha in invariant_vectors(host):
                        assert fixed_everywhere(host, alpha)


def test_invariant_vectors_really_invariant(g6, rational):
    eq = equation_zoo(g6, rational)["rank2"]
    host = sym2(dual(eq))
    for alpha in invariant_vectors(host):
        assert is_invariant(host, alpha)
        assert not is_invariant(host, perturb(alpha, rational))


def test_conserved_quantity_trivial(g3, rational):
    one = trivial_equation(g3, rational)
    alpha = invariant_vectors(sym2(one))[0]
    report = conserved_quantity_check(one, alpha,
                                      [identity_morphism(one)])
    assert report["constant"]
    assert all(v == report["values"][0] for v in report["values"])


def test_conserved_quantity_both(g3, rational):
    zoo = equation_zoo(g3, rational)
    both = zoo["both"]
    sols = hom_space(both, zoo["one"])
    assert len(sols) == 1
    for alpha in invariant_vectors(sym2(both)):
        report = conserved_quantity_check(both, alpha, sols)
        assert report["constant"]


def test_conserved_quantity_sym2_values_use_monomial_weights(g3, rational):
    # alpha = e1^2 + 2 e1 e2 + 3 e2^2 on 1 + 1 is t = [[1, 1], [1, 3]] in
    # monomial coordinates, so f = (1, 2), g = (3, 1) give f^T t g = 16
    one = trivial_equation(g3, rational)
    eq = direct_sum(one, one)

    def constants(*cs):
        return np.array([[Fraction(c)] * 3 for c in cs], dtype=object)

    alpha = constants(1, 2, 3)
    assert is_invariant(sym2(eq), alpha)

    def solution(a, b):
        return constant_morphism(eq, one, np.array([[Fraction(a)], [Fraction(b)]]))
    report = conserved_quantity_check(eq, alpha, [solution(1, 2), solution(3, 1)])
    assert report["constant"]
    assert report["values"] == [16, 16, 16]
    off_diagonal = constants(0, 1, 0)
    report = conserved_quantity_check(eq, off_diagonal,
                                      [solution(1, 0), solution(0, 1)])
    assert report["values"] == [Fraction(1, 2)] * 3


def test_conserved_quantity_rejects_perturbed_invariant(g3, rational):
    zoo = equation_zoo(g3, rational)
    both = zoo["both"]
    sols = hom_space(both, zoo["one"])
    alpha = invariant_vectors(sym2(both))[0]
    with pytest.raises(NotInvariant):
        conserved_quantity_check(both, perturb(alpha, rational), sols)


def test_conserved_quantity_rejects_junk_solution(g3, rational):
    zoo = equation_zoo(g3, rational)
    both = zoo["both"]
    alpha = invariant_vectors(sym2(both))[0]
    junk = morphism_from_kmatrix(both, trivial_equation(g3, rational),
                                 KMatrix.from_rows(
                                     [[Fn.delta(0, 3, rational)],
                                      [Fn.one(3, rational)]], rational))
    with pytest.raises(NotASolution):
        conserved_quantity_check(both, alpha, [junk])


def test_conserved_quantity_rejects_unknown_power(g3, rational):
    zoo = equation_zoo(g3, rational)
    both = zoo["both"]
    sols = hom_space(both, zoo["one"])
    alpha = invariant_vectors(sym2(both))[0]
    with pytest.raises(UnknownPower, match="unknown power 'cube'"):
        conserved_quantity_check(both, alpha, sols, power="cube")


def test_conserved_quantity_wedge_top(g3, rational):
    one = trivial_equation(g3, rational)
    eq = direct_sum(one, one)
    sols = hom_space(eq, one)
    assert len(sols) == 2
    alpha = invariant_vectors(wedge_top(eq))[0]
    report = conserved_quantity_check(eq, alpha, sols, power="wedge_top")
    assert report["constant"]
    with pytest.raises(NotASolution):
        conserved_quantity_check(eq, alpha, sols[:1], power="wedge_top")


def test_self_dual_trivial_and_sign(g3, rational):
    zoo = equation_zoo(g3, rational)
    for name in ("one", "sign"):
        phi = self_dual_check(zoo[name])
        assert phi is not None
        assert solver.is_isomorphism(phi)


def test_self_dual_needs_random_mixing(g3, rational):
    # for 1 (+) sign each basis invariant of sym2(dual) alone is a
    # degenerate diagonal form; only a combination is nondegenerate
    both = equation_zoo(g3, rational)["both"]
    phi = self_dual_check(both)
    assert phi is not None and solver.is_isomorphism(phi)
    from gdiff import linalg
    for y in range(3):
        assert linalg.det(phi.at_point(y), rational) != 0


def test_self_dual_random_mixing_keeps_invariance(g4, rational, cplx):
    # a gauged 1 (+) sign, plus sign: the search reaches the random
    # combinations, and one scalar per candidate keeps a combination
    # invariant (a scalar per coordinate did not, and the form failed to
    # intertwine)
    for be in (rational, cplx):
        zoo = equation_zoo(g4, be)
        eq = direct_sum(gauged_equation(seeded_rng(3), zoo["both"]),
                        zoo["sign"])
        phi = self_dual_check(eq)
        assert phi is not None and solver.is_isomorphism(phi)
        assert intertwines_everywhere(phi)


def test_self_dual_rank2_intertwines_on_every_element(g3, g4, g6, rational,
                                                      cplx):
    # rank2 has an invariant form with an off-diagonal sym2 coordinate,
    # which enters the form matrix at half weight
    for group in (g3, g4, g6):
        for be in (rational, cplx):
            phi = self_dual_check(rank2_equation(group, be))
            assert phi is not None and solver.is_isomorphism(phi)
            assert intertwines_everywhere(phi)


def test_symplectic_antisymmetric_form(g4, rational):
    eq = symplectic_equation(g4, rational)
    host = wedge2(dual(eq))
    basis = invariant_vectors(host)
    assert len(basis) == 1
    phi = Morphism(eq, dual(eq), _form_from_wedge2(eq, basis[0]))
    t = kmatrix_of(phi)
    # antisymmetric and nondegenerate at every point
    assert t.add(t.transpose()).is_zero()
    from gdiff import linalg
    for y in range(4):
        assert linalg.det(t.at_point(y), rational) != 0
    phi.validate()
    assert solver.is_isomorphism(phi)
    assert self_dual_check(eq) is not None


def test_self_dual_absent_without_pairing(g3, rational):
    # 1 (+) 1 (+) sign pairs each type with itself, so it is self-dual;
    # contrast: a morphism rank2 -> dual(rank2) still exists (search finds it)
    zoo = equation_zoo(g3, rational)
    stacked = direct_sum(direct_sum(zoo["one"], zoo["one"]), zoo["sign"])
    phi = self_dual_check(stacked)
    assert phi is not None and solver.is_isomorphism(phi)


def test_composition_trivial_case_is_pointwise_product(g3, rational):
    one = trivial_equation(g3, rational)
    from gdiff.equations import hom, tensor
    host = tensor(sym2(dual(hom(one, one))), hom(one, one))
    alphas = invariant_vectors(host)
    assert len(alphas) == 1
    phi = identity_morphism(one)
    psi = morphism_from_kmatrix(one, one, KMatrix.from_rows(
        [[Fn.from_values([1, 1, 1], rational).scale(3)]], rational))
    out = composition_principle(one, one, alphas[0], phi, psi)
    want = alphas[0][0] * phi.matrix[:, 0, 0] * psi.matrix[:, 0, 0]
    assert (out.matrix[:, 0, 0] == want).all()


def test_composition_zero_invariant_gives_zero(g3, rational):
    zoo = equation_zoo(g3, rational)
    both, one = zoo["both"], zoo["one"]
    from gdiff.equations import hom, tensor
    h = hom(both, one)
    host = tensor(sym2(dual(h)), h)
    zero_alpha = np.full((host.rank, 3), Fraction(0), dtype=object)
    phi = hom_space(both, one)[0]
    out = composition_principle(both, one, zero_alpha, phi, phi)
    assert kmatrix_of(out).is_zero()


def test_composition_all_invariants_give_solutions(g3, rational):
    zoo = equation_zoo(g3, rational)
    both, one = zoo["both"], zoo["one"]
    from gdiff.equations import hom, tensor
    h = hom(both, one)
    host = tensor(sym2(dual(h)), h)
    phi = hom_space(both, one)[0]
    alphas = invariant_vectors(host)
    assert alphas
    for alpha in alphas:
        out = composition_principle(both, one, alpha, phi, phi)
        out.validate()
        # stable under precomposition with a symmetry of the source
        for sigma in solver.symmetries(both):
            composition_principle(both, one, alpha,
                                  compose(sigma, phi), phi).validate()


def test_composition_rejects_non_invariant(g3, rational):
    zoo = equation_zoo(g3, rational)
    both, one = zoo["both"], zoo["one"]
    from gdiff.equations import hom, tensor
    h = hom(both, one)
    host = tensor(sym2(dual(h)), h)
    phi = hom_space(both, one)[0]
    alpha = invariant_vectors(host)[0]
    with pytest.raises(NotInvariant):
        composition_principle(both, one, perturb(alpha, rational), phi, phi)


def test_composition_rejects_junk_inputs(g3, rational):
    zoo = equation_zoo(g3, rational)
    both, one = zoo["both"], zoo["one"]
    from gdiff.equations import hom, tensor
    h = hom(both, one)
    host = tensor(sym2(dual(h)), h)
    alpha = invariant_vectors(host)[0]
    junk = morphism_from_kmatrix(both, one, KMatrix.from_rows(
        [[Fn.delta(1, 3, rational)], [Fn.one(3, rational)]], rational))
    with pytest.raises(NotASolution):
        composition_principle(both, one, alpha, junk, junk)

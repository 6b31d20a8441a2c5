"""Acceptance gate: one test per acceptance criterion, each printing a
single pass line when its assertions hold.  All oracles here are
independent of the package's own elimination (sympy / dense brute force)."""

import json
import os
from fractions import Fraction

import numpy as np
import pytest
import sympy

from conftest import (alternate_transversal, conn_of, equation_zoo,
                      grothendieck_check, ker_mu_basis, kmatrix_of, list_rho,
                      mat_eq, mat_mul, mult_table, random_involution,
                      random_values, seeded_rng, transversal_independence)
from gdiff import diffops, equivalence, linalg, projection, solver
from gdiff.cli import main as cli_main
from gdiff.equations import (complete_connection, direct_sum, sym2,
                             trivial_equation)
from gdiff.errors import InconsistentConnection, NotInvariant
from gdiff.invariants import (conserved_quantity_check, invariant_vectors,
                              self_dual_check)
from gdiff.skewalg import SkewOp
from gdiff.space import dihedral_on_cycle, stabilizer, transversal

DATA = os.path.join(os.path.dirname(__file__), "data")


def announce(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def scalar_conn(group, be, values):
    return {name: np.full((group.space.size, 1, 1), be.coerce(v),
                          dtype=be.dtype)
            for name, v in values.items()}


def test_criterion_01_cocycle_suite(g3, rational):
    rng = seeded_rng(101)
    fixtures = [trivial_equation(g3, rational),
                complete_connection(g3, rational,
                                    scalar_conn(g3, rational,
                                                {"s": 1, "t": -1}))]
    sub = stabilizer(g3, 0)
    t = next(h for h in sub.members if h != 0)
    mod = equivalence.hmodule_from_matrices(
        sub, rational, {0: [[1, 0], [0, 1]], t: random_involution(rng)})
    fixtures.append(equivalence.induce(mod, transversal(g3)))
    mult = mult_table(g3)
    for eq in fixtures:
        eq.validate()
        conn = conn_of(eq)
        for g in range(g3.order):
            for gp in range(g3.order):
                lhs = conn[mult[g][gp]]
                rhs = conn[gp].g_act(g3, g).mul(conn[g])
                assert lhs.eq(rhs)
            assert conn[g].inverse().eq(conn[g3.inv[g]].g_act(g3, g))
    with pytest.raises(InconsistentConnection):
        complete_connection(g3, rational,
                            scalar_conn(g3, rational, {"s": 1, "t": 2}))
    announce(1, "cocycle suite")


def intertwiner_nullity_oracle(u, v):
    """dim Hom_{F[H]}(U, V) by sympy elimination on the exact fibers."""
    n, m = u.dim, v.dim
    rows = []
    rho_u, rho_v = list_rho(u), list_rho(v)
    for h in u.subgroup.members:
        ru = [[Fraction(x) for x in row] for row in rho_u[h]]
        rv = [[Fraction(x) for x in row] for row in rho_v[h]]
        for i in range(n):
            for j in range(m):
                row = [Fraction(0)] * (n * m)
                for k in range(n):
                    row[k * m + j] += ru[i][k]
                for k in range(m):
                    row[i * m + k] -= rv[k][j]
                rows.append(row)
    mat = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows])
    return n * m - mat.rank()


def test_criterion_02_solution_space_oracle(g3, g4, rational, cplx):
    for group in (g3, g4):
        exact_zoo = equation_zoo(group, rational)
        float_zoo = equation_zoo(group, cplx)
        for name_a in exact_zoo:
            for name_b in exact_zoo:
                want = intertwiner_nullity_oracle(
                    equivalence.fiber(exact_zoo[name_a]),
                    equivalence.fiber(exact_zoo[name_b]))
                got_exact = len(solver.hom_space(exact_zoo[name_a],
                                                 exact_zoo[name_b]))
                got_float = len(solver.hom_space(float_zoo[name_a],
                                                 float_zoo[name_b]))
                assert got_exact == want
                assert got_float == want
    announce(2, "solution-space oracle")


def test_criterion_03_equivalence_roundtrip(g3, g4, rational):
    for group in (g3, g4):
        for eq in equation_zoo(group, rational).values():
            iso = equivalence.roundtrip_iso(eq)
            iso.validate()
            assert solver.is_isomorphism(iso)
        sub = stabilizer(group, 0)
        sig1, sig2 = transversal(group), alternate_transversal(group)
        assert sig1.sigma != sig2.sigma
        for mod in equivalence.builtin_irreducibles(sub, rational).values():
            if mod.dim != 1:
                continue
            phi = transversal_independence(mod, sig1, sig2)
            phi.validate()
            assert solver.is_isomorphism(phi)
    announce(3, "equivalence round trip")


def test_criterion_04_grothendieck(g3, rational):
    rng = seeded_rng(104)
    sub = stabilizer(g3, 0)
    t = next(h for h in sub.members if h != 0)
    mods = list(equivalence.builtin_irreducibles(sub, rational).values())
    for u in mods:
        for v in mods:
            report = grothendieck_check(u, v)
            assert all(report.values()), report
    randmod = equivalence.hmodule_from_matrices(
        sub, rational, {0: [[1, 0], [0, 1]], t: random_involution(rng)})
    for other in mods:
        report = grothendieck_check(randmod, other)
        assert all(report.values()), report
    announce(4, "Grothendieck structure preservation")


def max_norm(km):
    return max((abs(v) for row in km.entries for f in row for v in f.values),
               default=0.0)


def test_criterion_05_schur_projection_suite(cplx):
    tol = 1e-9
    for n in (3, 4, 6):
        group = dihedral_on_cycle(n)
        sub = stabilizer(group, 0)
        fam = equivalence.builtin_irreducibles(sub, cplx)
        sig = transversal(group)
        one = equivalence.induce(fam["trivial"], sig)
        sgn = equivalence.induce(fam["sign"], sig)
        amb = direct_sum(one, sgn)
        p1 = projection.frobenius_projection(amb, projection.character(one))
        p2 = projection.frobenius_projection(amb, projection.character(sgn))
        p1, p2 = kmatrix_of(p1), kmatrix_of(p2)
        assert max_norm(p1.mul(p1).sub(p1)) <= tol
        assert max_norm(p2.mul(p2).sub(p2)) <= tol
        assert max_norm(p1.mul(p2)) <= tol
        assert max_norm(p2.mul(p1)) <= tol
        ident = kmatrix_of(solver.identity_morphism(amb))
        assert max_norm(p1.add(p2).sub(ident)) <= tol
        # factoring through the isotypic image loses no solutions
        img, _ = projection.isotypic_image(amb, one)
        assert len(solver.hom_space(img, one)) == len(solver.hom_space(amb, one))
        for psi in solver.hom_space(img, one):
            projection.factor_solution(amb, one, psi).validate()
    announce(5, "Schur/projection suite")


def test_criterion_06_trivial_operator_example(g3, rational):
    from test_diffops import alternating_raw
    theta = alternating_raw(g3, rational)
    assert all(x == 0 for row in diffops.mu(theta) for x in row)
    one = trivial_equation(g3, rational)
    basis = ker_mu_basis(one, one)

    def flat(op):
        out = []
        for g in range(g3.order):
            if g in op.terms:
                out.extend(op.terms[g][:, 0, 0].tolist())
            else:
                out.extend([Fraction(0)] * 3)
        return out

    span = linalg.RowSpace(18, rational)
    for b in basis:
        span.add(flat(b))
    assert span.contains(flat(theta))
    announce(6, "trivial-operator example")


def test_criterion_07_classical_pipeline(g6, rational):
    from test_diffops import laplacian_op
    op = laplacian_op(g6, rational)
    sols = diffops.classical_solutions(op)
    assert len(sols) == 1 and (sols[0][0] == sols[0][0][0]).all()
    # independent dense circulant nullspace oracle
    circ = sympy.Matrix(6, 6, lambda i, j: 1 if (j - i) % 6 in (1, 5)
                        else (-2 if i == j else 0))
    assert circ.cols - circ.rank() == len(sols)
    report = diffops.embed_solutions(op)
    assert report["injective"]
    assert report["solution_dim"] <= report["hom_dim"]
    assert report["embeds"]
    announce(7, "classical pipeline")


def test_criterion_08_operator_calculus(g3, rational):
    from test_diffops import random_raw
    rng = seeded_rng(108)
    zoo = equation_zoo(g3, rational)
    e1, e2, e3 = zoo["rank2"], zoo["both"], zoo["sign"]
    for _ in range(20):
        t1 = diffops.canonicalize(random_raw(rng, e1, e2))
        t2 = diffops.canonicalize(random_raw(rng, e2, e3))
        comp = diffops.compose(t2, t1)
        want = mat_mul(t2.action.tolist(), t1.action.tolist(), rational)
        assert mat_eq(comp.action.tolist(), want, rational)
        assert mat_eq(diffops.mu(comp.rep).tolist(), want, rational)
    for _ in range(10):
        theta = random_raw(rng, e1, e2)
        a = SkewOp.from_terms(g3, rational, {
            rng.randrange(6): random_values(rng, (3,), rational),
            rng.randrange(6): random_values(rng, (3,), rational)})
        lhs = diffops.canonicalize(diffops.skew_action(a, theta))
        rhs = diffops.compose(diffops.canonicalize(diffops.delta_op(a, e2)),
                              diffops.canonicalize(theta))
        assert lhs.eq(rhs)
    announce(8, "operator calculus")


def test_criterion_09_invariants(g3, g4, rational):
    from test_invariants import perturb, symplectic_equation
    zoo = equation_zoo(g3, rational)
    for eq in (zoo["one"], zoo["sign"], symplectic_equation(g4, rational)):
        phi = self_dual_check(eq)
        assert phi is not None
        phi.validate()
        assert solver.is_isomorphism(phi)
    both = zoo["both"]
    sols = solver.hom_space(both, zoo["one"])
    alpha = invariant_vectors(sym2(both))[0]
    assert conserved_quantity_check(both, alpha, sols)["constant"]
    with pytest.raises(NotInvariant):
        conserved_quantity_check(both, perturb(alpha, rational), sols)
    announce(9, "invariant structures")


def test_criterion_10_determinism(tmp_path):
    for corpus in ("c3_basic.json", "c6_complex.json"):
        outs = []
        for i in range(2):
            target = tmp_path / f"{corpus}.{i}.out"
            code = cli_main(["run", os.path.join(DATA, corpus),
                             "--seed", "0", "--format", "structured",
                             "--output", str(target)])
            assert code == 0
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]
        json.loads(outs[0])  # well-formed structured report
    announce(10, "deterministic reports")

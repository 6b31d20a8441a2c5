import json
from fractions import Fraction

import numpy as np
import pytest
import sympy

from conftest import (array_bits, bits, difn_quotient_oracle, equation_zoo,
                      flatten, gauged_equation, identity, identity_op,
                      ker_mu_basis,
                      kmatrix_bits, kmatrix_of, mat_eq, mat_mul,
                      perfbench_module,
                      pointwise_act, pointwise_compose_raw,
                      pointwise_mu, pointwise_skew_action, pointwise_skew_op,
                      of_element, random_matrix, random_values, seeded_rng,
                      sympy_nullity, zero_raw)
from gdiff import diffops, linalg
from gdiff.diffops import (ClassicalSystem, RawOperator,
                           canonicalize, classical_solutions, compose,
                           compose_raw, delta_op, embed_solutions, equation_of,
                           ingest_classical, mu, skew_action)
from gdiff.equations import act, trivial_equation
from gdiff.errors import GDiffError
from gdiff.problem import load_problem
from gdiff.scalars import Backend
from gdiff.skewalg import SkewOp
from gdiff.space import dihedral_on_cycle


def perm_sign(p):
    n, s, seen = len(p), 1, [False] * len(p)
    for i in range(n):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            s = -s
    return s


def alternating_raw(group, be):
    one = trivial_equation(group, be)
    shape = (group.space.size, 1, 1)
    terms = {g: np.full(shape, be.coerce(perm_sign(group.elements[g])),
                        dtype=be.dtype)
             for g in range(group.order)}
    return RawOperator(one, one, terms)


def random_raw(rng, src, dst, nterms=3):
    terms = {}
    for _ in range(nterms):
        g = rng.randrange(src.group.order)
        m = random_matrix(rng, src.rank, dst.rank, src.group.space.size,
                          src.backend)
        terms[g] = terms[g] + m if g in terms else m
    return RawOperator(src, dst, terms)


def function(values, be):
    """A function on the space as an array of backend scalars."""
    return np.array([be.coerce(v) for v in values], dtype=be.dtype)


def test_identity_operator_action(g3, rational):
    one = trivial_equation(g3, rational)
    op = identity_op(one)
    assert mat_eq(op.action.tolist(), identity(3, rational), rational)


def test_intro_operator_action(g6, rational):
    # a f(s.) + b f + c f(s^{-1}.) with a = c = 1, b = -2 (discrete Laplacian)
    one = trivial_equation(g6, rational)
    s = g6.generators["s"]
    a = SkewOp.from_terms(g6, rational, {
        s: function([1] * 6, rational), 0: function([-2] * 6, rational),
        g6.inv[s]: function([1] * 6, rational)})
    op = canonicalize(delta_op(a, one))
    f = function([0, 1, 4, 9, 16, 25], rational)
    out = op.apply(f[None])[0]
    sinv = g6.elements[g6.inv[s]]
    simg = g6.elements[s]
    want = f[sinv] + f * -2 + f[simg]
    assert (out == want).all()


def test_mu_matches_brute_application(g3, rational):
    rng = seeded_rng(20)
    zoo = equation_zoo(g3, rational)
    e, f = zoo["rank2"], zoo["both"]
    theta = random_raw(rng, e, f)
    coords = random_values(rng, (e.rank, 3), rational)
    got = diffops.apply_action(mu(theta), coords, f)
    # brute force: sum_g theta-contraction of the translated coordinates
    want = np.full((f.rank, 3), Fraction(0), dtype=object)
    for g, coef in theta.terms.items():
        ginv = g3.elements[g3.inv[g]]
        for j in range(f.rank):
            for i in range(e.rank):
                for k in range(e.rank):
                    want[j] = want[j] + (coef[:, i, j] * coords[k][ginv]
                                         * e.scalars(g)[:, k, i])
    assert (got == want).all()


def test_alternating_sum_is_zero_operator(g3, rational):
    theta = alternating_raw(g3, rational)
    assert (mu(theta) == 0).all()


def test_ker_mu_contains_alternating_element(g3, rational):
    one = trivial_equation(g3, rational)
    basis = ker_mu_basis(one, one)
    # flatten operators into coefficient vectors and test membership
    def flat(theta):
        out = []
        for g in range(g3.order):
            if g in theta.terms:
                out.extend(theta.terms[g][:, 0, 0].tolist())
            else:
                out.extend([Fraction(0)] * 3)
        return out
    space = linalg.RowSpace(18, rational)
    for b in basis:
        space.add(flat(b))
    assert space.contains(flat(alternating_raw(g3, rational)))


def test_ker_mu_dimension_against_rank_oracle(g3, rational):
    one = trivial_equation(g3, rational)
    basis = ker_mu_basis(one, one)
    # oracle: assemble mu over the free coefficient space with sympy
    rows = []
    for i in range(18):
        g, y = divmod(i, 3)
        delta = function([int(x == y) for x in range(3)], rational)
        theta = RawOperator(one, one, {g: delta.reshape(3, 1, 1)})
        rows.append([x for r in mu(theta) for x in r])
    m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    assert len(basis) == 18 - m.rank()


def test_canonicalize_quotients_ker_mu(g3, rational):
    one = trivial_equation(g3, rational)
    rng = seeded_rng(21)
    theta = random_raw(rng, one, one)
    kern = ker_mu_basis(one, one)[0]
    assert canonicalize(theta).eq(canonicalize(theta.add(kern)))


def test_compose_tensor_route_random_pairs(g3, g4, rational, cplx):
    # compose returns the action-matrix product; the tensor-formula
    # representative it carries must have that product as its mu-image
    rng = seeded_rng(22)
    for group in (g3, g4):
        for be in (rational, cplx):
            zoo = equation_zoo(group, be)
            e1 = gauged_equation(rng, zoo["rank2"])
            e2, e3 = zoo["both"], zoo["sign"]
            for _ in range(20):
                t1 = random_raw(rng, e1, e2)
                t2 = random_raw(rng, e2, e3)
                comp = compose(canonicalize(t2), canonicalize(t1))
                want = mat_mul(mu(t2).tolist(), mu(t1).tolist(), be)
                assert mat_eq(comp.action.tolist(), want, be)
                assert mat_eq(mu(comp.rep).tolist(), want, be)


def test_compose_identity_neutral(g3, rational):
    rng = seeded_rng(23)
    one = trivial_equation(g3, rational, 2)
    theta = random_raw(rng, one, one)
    d = canonicalize(theta)
    assert compose(identity_op(one), d).eq(d)
    assert compose(d, identity_op(one)).eq(d)


def test_compose_associativity(g3, rational):
    rng = seeded_rng(24)
    one = trivial_equation(g3, rational)
    ops = [canonicalize(random_raw(rng, one, one)) for _ in range(3)]
    lhs = compose(compose(ops[2], ops[1]), ops[0])
    rhs = compose(ops[2], compose(ops[1], ops[0]))
    assert lhs.eq(rhs)


def test_skew_action_matches_delta_composition(g3, g4, rational, cplx):
    rng = seeded_rng(25)
    for group in (g3, g4):
        size = group.space.size
        for be in (rational, cplx):
            zoo = equation_zoo(group, be)
            gauged = gauged_equation(rng, zoo["rank2"])
            for e1, e2 in ((zoo["sign"], zoo["rank2"]),
                           (gauged, zoo["both"])):
                for _ in range(5):
                    theta = random_raw(rng, e1, e2)
                    a = SkewOp.from_terms(group, be, {
                        rng.randrange(group.order):
                            random_values(rng, (size,), be),
                        rng.randrange(group.order):
                            random_values(rng, (size,), be)})
                    lhs = canonicalize(skew_action(a, theta))
                    rhs = compose(canonicalize(delta_op(a, e2)),
                                  canonicalize(theta))
                    assert lhs.eq(rhs)


def test_mu_is_a_module_morphism(g3, rational):
    # mu(g.theta) applied to e equals g applied to mu(theta)(e)
    rng = seeded_rng(26)
    zoo = equation_zoo(g3, rational)
    e1, e2 = zoo["rank2"], zoo["both"]
    theta = random_raw(rng, e1, e2)
    coords = random_values(rng, (e1.rank, 3), rational)
    for g in range(g3.order):
        a = of_element(g3, rational, g)
        lhs = diffops.apply_action(mu(skew_action(a, theta)), coords, e2)
        inner = diffops.apply_action(mu(theta), coords, e2)
        rhs = act(e2, g, inner)
        assert rational.eq_array(lhs, rhs).all()


def laplacian_op(group, be):
    one = trivial_equation(group, be)
    size = group.space.size
    s = group.generators["s"]
    a = SkewOp.from_terms(group, be, {
        s: function([1] * size, be), 0: function([-2] * size, be),
        group.inv[s]: function([1] * size, be)})
    return canonicalize(delta_op(a, one))


def test_laplacian_solutions_constants(g6, rational):
    op = laplacian_op(g6, rational)
    sols = classical_solutions(op)
    assert len(sols) == 1
    f = sols[0][0]
    assert (f == f[0]).all() and f[0] != 0
    # independent circulant oracle
    circ = sympy.Matrix(6, 6, lambda i, j: 1 if (j - i) % 6 in (1, 5)
                        else (-2 if i == j else 0))
    assert circ.cols - circ.rank() == 1


def single_term_images(eq):
    """Flattened mu-images of every single-term operator delta_y e_i g from
    eq to 1: a spanning set of Difn(eq, 1), built without the package's
    _DifnModule."""
    be, size = eq.backend, eq.group.space.size
    one = trivial_equation(eq.group, be)
    rows = []
    for i in range(eq.rank):
        for g in range(eq.group.order):
            for y in range(size):
                mat = np.full((size, eq.rank, 1), be.zero(), dtype=be.dtype)
                mat[y, i, 0] = be.one()
                theta = RawOperator(eq, one, {g: mat})
                rows.append(flatten(mu(theta).tolist()))
    return rows


def sympy_rank(rows, ncols):
    return ncols - sympy_nullity(rows, ncols)


def difn_dim_oracle(eq):
    size = eq.group.space.size
    return sympy_rank(single_term_images(eq), size * eq.rank * size)


def coker_dim_oracle(op):
    """dim Difn(source, 1) - rank of nabla -> nabla o Delta on Difn(target, 1),
    both by sympy."""
    size = op.source.group.space.size
    action = sympy.Matrix([[sympy.Rational(x) for x in r] for r in op.action])
    images = []
    for row in single_term_images(op.target):
        lmat = sympy.Matrix(size, len(row) // size,
                            [sympy.Rational(x) for x in row])
        images.append(list(lmat * action))
    return (difn_dim_oracle(op.source)
            - sympy_rank(images, size * op.source.rank * size))


def test_single_term_images_span_every_matrix(g3, g4, g6, rational):
    # the fact behind _DifnModule's standard basis: Difn(E, 1) is all of
    # the |S| x n|S| matrices
    for group in (g3, g4, g6):
        size = group.space.size
        for eq in equation_zoo(group, rational).values():
            assert difn_dim_oracle(eq) == size * eq.rank * size


def test_equation_of_identity_and_zero(g3, rational):
    one = trivial_equation(g3, rational)
    assert equation_of(identity_op(one)).rank == 0
    zero = canonicalize(zero_raw(one, one))
    difn_rank = equation_of(zero).rank
    # cokernel of the zero map is all of Difn(1, k)
    assert difn_rank * 3 == difn_dim_oracle(one)


def test_equation_of_laplacian(g6, rational):
    op = laplacian_op(g6, rational)
    eq = equation_of(op)
    eq.validate()
    # brute-force cokernel dimension oracle: dim W1 - rank(phi^Delta)
    assert eq.rank * 6 == coker_dim_oracle(op)


def test_rational_equation_of_solves_nothing(g6, rational, monkeypatch):
    # exact arithmetic puts every unit functional the quotient adds in the
    # span, so no coordinates are solved for; only the complex backend
    # checks them against its tolerance
    op = laplacian_op(g6, rational)
    want = coker_dim_oracle(op)

    def refuse(*args, **kwargs):
        raise AssertionError("linalg.solve called")

    monkeypatch.setattr(linalg, "solve", refuse)
    assert equation_of(op).rank * 6 == want


def test_embed_solutions_laplacian(g6, rational):
    report = embed_solutions(laplacian_op(g6, rational))
    assert report["solution_dim"] == 1
    assert report["injective"]
    assert report["solution_dim"] <= report["hom_dim"]
    assert report["embeds"]


def test_embed_solutions_zero_operator(g3, rational):
    one = trivial_equation(g3, rational)
    report = embed_solutions(canonicalize(zero_raw(one, one)))
    assert report["solution_dim"] == 3
    assert report["injective"]


def test_embed_solutions_identity(g3, rational):
    one = trivial_equation(g3, rational)
    report = embed_solutions(identity_op(one))
    assert report["solution_dim"] == 0 and report["rank_equation"] == 0


def test_embed_solutions_identity_complex(g3, cplx):
    # an injective operator has E_Delta of rank 0; the complex backend must
    # handle the empty fiber as the rational one does
    report = embed_solutions(identity_op(trivial_equation(g3, cplx)))
    assert report["solution_dim"] == 0 and report["rank_equation"] == 0
    assert report["embeds"]


def test_ingest_classical_intro_equation(g6, rational):
    # a f_{i+1} + b f_i + c f_{i-1} = 0 with a = c = 1, b = -2
    s = g6.generators["s"]
    one6 = function([1] * 6, rational)
    sysm = ClassicalSystem(g6, rational, 1, {
        (0, 0, s): one6,
        (0, 0, 0): function([-2] * 6, rational),
        (0, 0, g6.inv[s]): one6,
    })
    op = ingest_classical(sysm)
    assert mat_eq(op.action.tolist(),
                  laplacian_op(g6, rational).action.tolist(), rational)
    # compatibility relation with the trivial connection choice
    for (j, k, g), c in sysm.coeffs.items():
        assert (op.rep.terms[g][:, k, j] == c).all()


def test_ingest_classical_empty_system(g3, rational):
    sysm = ClassicalSystem(g3, rational, 2, {})
    op = ingest_classical(sysm)
    assert len(classical_solutions(op)) == 6  # everything solves


def test_ingest_classical_random_2x2_on_c4(g4, rational):
    rng = seeded_rng(27)
    s = g4.generators["s"]
    coeffs = {}
    for j in range(2):
        for k in range(2):
            for g in (0, s, g4.inv[s]):
                coeffs[(j, k, g)] = random_values(rng, (4,), rational)
    sysm = ClassicalSystem(g4, rational, 2, coeffs)
    op = ingest_classical(sysm)
    sols = classical_solutions(op)
    # independent dense oracle over the flattened 8-dim function space
    dense = [[Fraction(0)] * 8 for _ in range(8)]
    for (j, k, g), c in coeffs.items():
        ginv = g4.elements[g4.inv[g]]
        for y in range(4):
            dense[j * 4 + y][k * 4 + ginv[y]] += c[y]
    m = sympy.Matrix([[sympy.Rational(x) for x in r] for r in dense])
    assert len(sols) == 8 - m.rank()


def operator_problem_systems(n, be, tmp_path):
    """The classical systems of the operator-calculus benchmark file on the
    n-cycle, loaded through the problem-file parser."""
    prob, _ = perfbench_module("workloads")["operator_problem"](n, be.name)
    target = tmp_path / f"operators{n}.json"
    target.write_text(json.dumps(prob))
    return load_problem(str(target), backend_override=be.name).systems


@pytest.mark.parametrize("backend", ["rational", "complex"])
@pytest.mark.parametrize("n", [3, 4, 6])
def test_quotient_module_matches_full_row_oracle(n, backend, tmp_path):
    # the base-fiber E_Delta against the quotient of every |S| x n|S| matrix:
    # same rank, same rho, same phi_e on every classical solution
    group = dihedral_on_cycle(n)
    be = getattr(Backend, backend)()
    rng = seeded_rng(28)
    zoo = equation_zoo(group, be)
    ops = [ingest_classical(sysm)
           for sysm in operator_problem_systems(n, be, tmp_path).values()]
    ops.append(laplacian_op(group, be))
    ops.append(canonicalize(random_raw(
        rng, gauged_equation(rng, zoo["rank2"]), zoo["both"])))
    compared = 0
    for op in ops:
        data = diffops._quotient_module(op)
        sols = classical_solutions(op)
        mod, mats = difn_quotient_oracle(op, sols)
        assert data.equation.rank == data.hmodule.dim == mod.dim
        assert mat_eq(flatten(data.hmodule.rho.tolist()),
                      flatten(mod.rho.tolist()), be)
        for coords, mat in zip(sols, mats):
            assert kmatrix_of(diffops.solution_morphism(data, coords)).eq(mat)
            compared += 1
    assert len(ops) == 5 and compared >= 4


@pytest.mark.parametrize("backend", ["rational", "complex"])
@pytest.mark.parametrize("n", [3, 4])
def test_array_calculus_matches_pointwise_oracle(n, backend):
    # mu, compose_raw, skew_action and act on arrays against the KMatrix
    # and Fn oracles: equal Fractions (never ints) over the rationals, the
    # same bits on the complex backend, signs of zeros included, and the
    # same terms in the same order
    group = dihedral_on_cycle(n)
    be = getattr(Backend, backend)()
    size = group.space.size
    rng = seeded_rng(41)
    zoo = equation_zoo(group, be)
    zoo["gauged"] = gauged_equation(rng, zoo["rank2"])
    eqs = list(zoo.values())

    def same_terms(got, want):
        assert list(got.terms) == list(want)
        for g, mat in want.items():
            assert array_bits(got.terms[g].transpose(1, 2, 0)) == \
                kmatrix_bits([mat])

    for e1 in eqs:
        for e2 in eqs:
            theta = random_raw(rng, e1, e2)
            assert array_bits(mu(theta)) == \
                [bits(v) for row in pointwise_mu(theta) for v in row]
            after = random_raw(rng, e2, rng.choice(eqs))
            same_terms(compose_raw(after, theta),
                       pointwise_compose_raw(after, theta))
            a = SkewOp.from_terms(group, be, {
                rng.randrange(group.order): random_values(rng, (size,), be)
                for _ in range(2)})
            same_terms(skew_action(a, theta),
                       pointwise_skew_action(pointwise_skew_op(a), theta))
        coords = random_values(rng, (e1.rank, size), be)
        for g in range(group.order):
            assert array_bits(act(e1, g, coords)) == \
                [bits(v) for f in pointwise_act(e1, g, coords)
                 for v in f.values]


def test_compose_rejects_mismatched_middle_equations(g3, rational):
    # equal ranks are not enough: theta1 must end where theta2 starts
    zoo = equation_zoo(g3, rational)
    rng = seeded_rng(42)
    into_sign = random_raw(rng, zoo["one"], zoo["sign"])
    from_one = random_raw(rng, zoo["one"], zoo["one"])
    with pytest.raises(GDiffError):
        compose_raw(from_one, into_sign)
    with pytest.raises(GDiffError):
        compose(canonicalize(from_one), canonicalize(into_sign))
    # an equal equation built apart composes
    twin = trivial_equation(g3, rational)
    assert twin is not zoo["one"]
    compose_raw(RawOperator(twin, twin, from_one.terms),
                random_raw(rng, zoo["sign"], zoo["one"]))

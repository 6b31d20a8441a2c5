import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import (Fn, KMatrix, cocycle_everywhere, conn_of,
                      equation_from_kmatrices,
                      equation_zoo, gauged_equation, kmatrix_bits, kron,
                      loop_validate, mult_table, pointwise_completion,
                      pointwise_construction, pointwise_det,
                      pointwise_validate, random_involution,
                      random_matrix, random_values, rank2_equation,
                      scalar_bits, seeded_rng, sign_equation, stack)
from gdiff import equations, equivalence
from gdiff.equations import (Equation, act, complete_connection,
                             direct_sum, dual, hom, sym2, tensor,
                             trivial_equation, wedge2, wedge_top)
from gdiff.errors import InconsistentConnection, SingularGeneratorMatrix
from gdiff.scalars import Backend
from gdiff.space import (FiniteSpace, enumerate_group, parse_cycles,
                         stabilizer, transversal)


def scalar_gen(group, be, values):
    return {name: np.full((group.space.size, 1, 1), be.coerce(v),
                          dtype=be.dtype)
            for name, v in values.items()}


def test_trivial_and_sign_validate(g3, rational):
    one = trivial_equation(g3, rational)
    one.validate()
    sign = complete_connection(g3, rational,
                               scalar_gen(g3, rational, {"s": 1, "t": -1}))
    sign.validate()
    assert cocycle_everywhere(sign)


def test_random_rank2_connection_validates(g3, rational):
    rng = seeded_rng(7)
    sub = stabilizer(g3, 0)
    t = next(h for h in sub.members if h != 0)
    for _ in range(3):
        m = random_involution(rng)
        mod = equivalence.hmodule_from_matrices(
            sub, rational, {0: [[1, 0], [0, 1]], t: m})
        eq = equivalence.induce(mod, transversal(g3))
        eq.validate()
        assert cocycle_everywhere(eq)


def test_corrupted_connection_rejected(g3, rational):
    # t has order 2, so t -> 2 violates the cocycle (2 . 2 != 1)
    with pytest.raises(InconsistentConnection):
        complete_connection(g3, rational,
                            scalar_gen(g3, rational, {"s": 1, "t": 2}))


def validate_message(eq):
    """None when eq validates, else the InconsistentConnection message."""
    try:
        eq.validate()
    except InconsistentConnection as exc:
        return str(exc)
    return None


def test_corrupting_any_element_fails_validate(g4, g6, rational, cplx):
    # |G| = 8 and 12: groups small enough that validate used to check every
    # pair; it now checks generators x elements, which must catch the same,
    # and report the same first failing pair as the pointwise loop
    for group in (g4, g6):
        for be in (rational, cplx):
            for eq in (sign_equation(group, be), rank2_equation(group, be)):
                eq.validate()
                for g in range(group.order):
                    conn = list(conn_of(eq))
                    conn[g] = conn[g].scale(2)
                    bad = equation_from_kmatrices(group, be, eq.rank, tuple(conn))
                    assert not cocycle_everywhere(bad)
                    with pytest.raises(InconsistentConnection):
                        bad.validate()
                    assert validate_message(bad) == pointwise_validate(bad)


def test_validate_matches_pointwise_oracle(g3, g4, g6, rational, cplx):
    # the batched check against the pointwise loop on the zoo, a gauged
    # equation, their constructions and a rank-0 equation
    rng = seeded_rng(12)
    for group in (g3, g4, g6):
        for be in (rational, cplx):
            zoo = equation_zoo(group, be)
            e, f = zoo["rank2"], zoo["both"]
            zoo["gauged"] = gauged_equation(rng, e)
            zoo["rank0"] = trivial_equation(group, be, 0)
            zoo.update(sum=direct_sum(e, f), tensor=tensor(e, f),
                       hom=hom(e, f), dual=dual(e), sym2=sym2(e),
                       wedge2=wedge2(e), top=wedge_top(e))
            for eq in zoo.values():
                assert validate_message(eq) is None
                assert pointwise_validate(eq) is None


def test_batched_product_matches_kmatrix_mul(g4, g6, cplx, rational):
    # the cocycle product of Equation.validate against the pointwise
    # KMatrix.mul: equal over the rationals; over the complex numbers the
    # summation may round differently, within a few units in the last place
    ulps = 8 * np.finfo(float).eps
    rng = seeded_rng(15)
    for group in (g4, g6):
        for be in (cplx, rational):
            eq = gauged_equation(rng, rank2_equation(group, be))
            size = group.space.size
            kconn = conn_of(eq)
            conn = stack(kconn, 2, 2, size, be)
            for g in group.generator_ids:
                ginv_image = list(group.elements[group.inv[g]])
                old = stack(
                    [kconn[gp].g_act(group, g).mul(kconn[g])
                     for gp in range(group.order)], 2, 2, size, be)
                new = conn[:, ginv_image] @ conn[g]
                if be.exact:
                    assert (new == old).all()
                else:
                    assert (np.abs(new - old) <= ulps * (1 + np.abs(old))).all()


@pytest.mark.parametrize("batch", [equations._BATCH_SCALARS, 1, 50])
def test_single_entry_corruption_reports_first_pair(g4, g6, rational, cplx,
                                                    batch, monkeypatch):
    # one entry of one matrix at one point: the batched check must name the
    # same (g, g') as the pointwise scan in generator order, g' ascending,
    # whether the elements fit one batch or are split over several
    monkeypatch.setattr(equations, "_BATCH_SCALARS", batch)
    rng = seeded_rng(13)
    for group in (g4, g6):
        for be in (rational, cplx):
            eq = gauged_equation(rng, rank2_equation(group, be))
            size = group.space.size
            kconn = conn_of(eq)
            for g in range(group.order):
                i, j, y = rng.randrange(2), rng.randrange(2), rng.randrange(size)
                rows = [list(r) for r in kconn[g].entries]
                # a bump of 1/11 changes the common denominator of the
                # integer form that Equation.validate compares
                bump = Fn.delta(y, size, be).scale(
                    rng.choice((1, -3, Fraction(1, 11))))
                rows[i][j] = rows[i][j] + bump
                conn = list(kconn)
                conn[g] = KMatrix.from_rows(rows, be)
                bad = equation_from_kmatrices(group, be, eq.rank, tuple(conn))
                expected = pointwise_validate(bad)
                assert expected is not None
                assert validate_message(bad) == expected


def test_singular_generator_rejected(g3, rational):
    with pytest.raises(SingularGeneratorMatrix):
        complete_connection(g3, rational,
                            scalar_gen(g3, rational, {"s": 0, "t": -1}))


def test_conn_view_matches_the_oracle(g3, g4, rational, cplx):
    # Equation.conn, the view the benchmark's oracle reads, against
    # conftest.conn_of scalar for scalar, and its three array methods
    # against the pointwise KMatrix: equal Fractions over the rationals,
    # the same bits on the complex backend, signs of zeros included
    rng = seeded_rng(16)
    for group in (g3, g4):
        for be in (rational, cplx):
            zoo = equation_zoo(group, be)
            zoo["gauged"] = gauged_equation(rng, zoo["rank2"])
            zoo["generators"] = complete_connection(
                group, be, generator_data(zoo["gauged"]))
            for eq in zoo.values():
                view, oracle = eq.conn, conn_of(eq)
                assert {tuple(vars(m)) for m in view} == \
                    {("points", "backend", "entries")}
                assert not any(m.points.flags.writeable for m in view)
                assert kmatrix_bits(view) == kmatrix_bits(oracle)
                for g in range(group.order):
                    h = rng.randrange(group.order)
                    assert kmatrix_bits([view[g].mul(view[h])]) == \
                        kmatrix_bits([oracle[g].mul(oracle[h])])
                    assert kmatrix_bits([view[g].g_act(group, h)]) == \
                        kmatrix_bits([oracle[g].g_act(group, h)])
                    assert kmatrix_bits([view[g].inverse()]) == \
                        kmatrix_bits([oracle[g].inverse()])
    singular = np.array([[[1j]], [[0j]], [[2 + 0j]]])
    assert equations.KMatrix(singular, cplx).inverse() is None
    assert KMatrix.from_array(singular, cplx).inverse() is None


def test_inverse_formula(g4, rational):
    eq = rank2_equation(g4, rational)
    group = eq.group
    conn = conn_of(eq)
    for g in range(group.order):
        inv = conn[g].inverse()
        assert inv.eq(conn[group.inv[g]].g_act(group, g))


def test_dual_and_hom_match_pointwise_inversion(g3, g4, g6, rational, cplx):
    # dual and hom take (E^g)^{-1} = g(E^{g^-1}) from the cocycle law; the
    # pointwise transpose-and-invert construction is the oracle
    rng = seeded_rng(11)
    for group in (g3, g4, g6):
        for be in (rational, cplx):
            zoo = equation_zoo(group, be)
            zoo["gauged"] = gauged_equation(rng, zoo["rank2"])
            zoo["gauged"].validate()
            for e in zoo.values():
                conn = conn_of(e)
                old = [conn[g].transpose().inverse()
                       for g in range(group.order)]
                assert all(KMatrix.from_array(e.inverse(g), be)
                           .eq(conn[g].inverse())
                           for g in range(group.order))
                d = conn_of(dual(e))
                assert all(d[g].eq(old[g]) for g in range(group.order))
                for f in zoo.values():
                    h, cf = conn_of(hom(e, f)), conn_of(f)
                    assert all(h[g].eq(kron(cf[g], old[g]))
                               for g in range(group.order))


def test_act_is_group_action(g3, rational):
    rng = seeded_rng(8)
    eq = rank2_equation(g3, rational)
    coords = random_values(rng, (2, 3), rational)
    mult = mult_table(g3)
    for g in range(g3.order):
        for gp in range(g3.order):
            via_product = act(eq, mult[g][gp], coords)
            via_steps = act(eq, g, act(eq, gp, coords))
            assert rational.eq_array(via_product, via_steps).all()


def test_tensor_constructions_satisfy_cocycle(g3, rational):
    zoo = equation_zoo(g3, rational)
    e, f = zoo["rank2"], zoo["both"]
    for built in (direct_sum(e, f), tensor(e, f), hom(e, f), dual(e),
                  sym2(e), wedge2(e), wedge_top(e)):
        built.validate()
        assert cocycle_everywhere(built)


def test_sym2_wedge2_ranks(g3, rational):
    e = rank2_equation(g3, rational)
    assert sym2(e).rank == 3
    assert wedge2(e).rank == 1
    assert sym2(e).rank + wedge2(e).rank == tensor(e, e).rank
    assert wedge_top(e).rank == 1


def test_wedge_top_is_determinant(g3, rational):
    e = rank2_equation(g3, rational)
    top, conn = conn_of(wedge_top(e)), conn_of(e)
    for g in range(g3.order):
        assert top[g].entries[0][0].eq(pointwise_det(conn[g], g3.space.size))


def test_dual_pairing_invariance(g3, rational):
    # <g.v, g.w> = <v, w> for v in E, w in E*
    rng = seeded_rng(9)
    e = rank2_equation(g3, rational)
    ed = dual(e)
    v = random_values(rng, (2, 3), rational)
    w = random_values(rng, (2, 3), rational)
    pair = v[0] * w[0] + v[1] * w[1]
    for g in range(g3.order):
        gv, gw = act(e, g, v), act(ed, g, w)
        moved = gv[0] * gw[0] + gv[1] * gw[1]
        ginv = g3.elements[g3.inv[g]]
        assert (moved == pair[ginv]).all()


def test_hom_connection_matches_conjugation(g3, rational):
    # the hom connection must make morphism matrices transform as
    # phi -> (E^g)^{-1} g(phi) F^g ... checked through act on flattened phi
    rng = seeded_rng(10)
    e = rank2_equation(g3, rational)
    f = sign_equation(g3, rational)
    h = hom(e, f)
    phi = random_matrix(rng, 2, 1, 3, rational)  # 2x1 matrix of E -> F
    # flatten with target-major indexing (i over F, j over E)
    coords = phi.transpose(2, 1, 0).reshape(f.rank * e.rank, 3)
    for g in (g3.generators["s"], g3.generators["t"]):
        moved = act(h, g, coords)
        # direct computation: g . phi = (E^g)^{-1} . g(phi) . F^g  pointwise
        km = KMatrix.from_array(phi, rational)
        direct = conn_of(e)[g].inverse().mul(km.g_act(g3, g)).mul(
            conn_of(f)[g])
        direct_coords = [direct.entries[j][i].values
                         for i in range(f.rank) for j in range(e.rank)]
        assert (moved == np.array(direct_coords, dtype=object)).all()


def generator_data(eq):
    return {name: eq.scalars(g) for name, g in eq.group.generators.items()}


def test_completion_is_bitwise_the_kmatrix_pass(g4, g6, rational, cplx):
    # gauged equations have non-dyadic complex entries (from T^-1) and
    # rational ones with denominators, so any other rounding of a product,
    # such as numpy's complex matmul, shows in some scalar
    rng = seeded_rng(23)
    for group in (g4, g6):
        for be in (rational, cplx):
            zoo = equation_zoo(group, be)
            for eq in (zoo["rank2"], direct_sum(zoo["rank2"], zoo["sign"])):
                mats = generator_data(gauged_equation(rng, eq))
                got = complete_connection(group, be, mats)
                want = pointwise_completion(group, be, mats)
                assert scalar_bits(got) == scalar_bits(want)


def test_completion_conflicts_match_the_kmatrix_pass(g3, g4, g6, rational,
                                                    cplx):
    # random generator matrices almost never satisfy the relations: the
    # first conflicting element must be the one a pointwise pass meets
    rng = seeded_rng(29)
    seen = set()
    for group in (g3, g4, g6):
        for be in (rational, cplx):
            for rank in (1, 2):
                mats = {name: random_matrix(rng, rank, rank,
                                            group.space.size, be)
                        for name in group.generators}
                with pytest.raises((InconsistentConnection,
                                    SingularGeneratorMatrix)) as want:
                    pointwise_completion(group, be, mats)
                with pytest.raises(want.type) as got:
                    complete_connection(group, be, mats)
                assert str(got.value) == str(want.value)
                seen.add(str(want.value))
    assert len(seen) > 2


UNARY = {"dual": dual, "sym2": sym2, "wedge2": wedge2, "wedge_top": wedge_top}
BINARY = {"direct_sum": direct_sum, "tensor": tensor, "hom": hom}


def construction_inputs(group, be, rng):
    """The zoo, gauged equations of rank 2 and 4 (their matrices are no
    involutions and have non-dyadic entries) and a rank-0 equation."""
    zoo = equation_zoo(group, be)
    zoo["gauged"] = gauged_equation(rng, zoo["rank2"])
    zoo["gauged4"] = gauged_equation(
        rng, direct_sum(zoo["rank2"], zoo["both"]))
    zoo["rank0"] = trivial_equation(group, be, 0)
    return zoo


@pytest.mark.parametrize("backend", [Backend.rational(), Backend.complex()],
                         ids=["rational", "complex"])
@pytest.mark.parametrize("name", sorted(UNARY) + sorted(BINARY))
def test_array_construction_matches_pointwise_oracle(g3, g4, g6, name,
                                                    backend):
    # every scalar of every construction as the per-element KMatrix formula
    # gives it: equal Fractions, and the same bits on the complex backend
    # (numpy's complex product, which may fuse a multiply and an add, fails)
    rng = seeded_rng(37)
    for group in (g3, g4, g6):
        eqs = construction_inputs(group, backend, rng)
        if name in UNARY:
            cases = [(e,) for e in eqs.values()]
        else:
            some = [eqs[k] for k in ("one", "rank2", "gauged", "gauged4",
                                     "rank0")]
            cases = [(e, f) for e in some for f in some]
        for args in cases:
            got = (UNARY.get(name) or BINARY[name])(*args)
            want = pointwise_construction(name, *args)
            assert got.rank == len(want[0].entries)
            assert scalar_bits(got) == kmatrix_bits(want)


def global_copy(e):
    """e with its whole connection stored, as generator data give it: the
    constructions take the array route on it."""
    return Equation(e.group, e.backend, e.rank, e.array, e.denom)


@pytest.mark.parametrize("backend", [Backend.rational(), Backend.complex()],
                         ids=["rational", "complex"])
@pytest.mark.parametrize("name", sorted(UNARY) + sorted(BINARY))
def test_fiber_construction_matches_array_route(g3, g4, g6, name, backend):
    # constructions of equations induced over one transversal are computed
    # on their fibers; gathered, they must be the array route's connection
    # and the pointwise formula's, scalar for scalar, with equal
    # denominators, and still be induced
    rng = seeded_rng(37)
    for group in (g3, g4, g6):
        eqs = construction_inputs(group, backend, rng)
        induced = [eqs[k] for k in ("one", "sign", "both", "rank2", "rank0")]
        assert all(e.cells is not None for e in induced)
        if name in UNARY:
            cases = [(e,) for e in induced]
        else:
            cases = [(e, f) for e in induced for f in induced]
        build = UNARY.get(name) or BINARY[name]
        for args in cases:
            got = build(*args)
            via_array = build(*map(global_copy, args))
            assert got.cells is args[0].cells and via_array.cells is None
            assert got.denom == via_array.denom
            assert scalar_bits(got) == scalar_bits(via_array)
            assert scalar_bits(got) == kmatrix_bits(
                pointwise_construction(name, *args))
            assert got == via_array


def test_induce_of_the_fiber_is_the_equation(g3, g4, g6, rational, cplx):
    # the zoo's induced members are stored as their fiber modules: inducing
    # the fiber again gives the same equation over the same cell table
    for group in (g3, g4, g6):
        for be in (rational, cplx):
            for e in equation_zoo(group, be).values():
                again = equivalence.induce(equivalence.fiber(e),
                                           transversal(group))
                assert again.cells is e.cells
                assert again == e and again.denom == e.denom
                assert scalar_bits(again) == scalar_bits(e)


def corrupted_modules(mod):
    """Copies of an H-module with one entry of one matrix shifted, or one
    matrix zero, that fail its laws (a shifted corner of an involution
    [[1, x], [0, -1]] is one still)."""
    be, d = mod.backend, mod.dim
    for a in range(mod.subgroup.order):
        for change in ("shift", "zero"):
            rho = mod.rho.copy()
            if change == "shift":
                rho[a, 0, d - 1] = rho[a, 0, d - 1] + be.one()
            else:
                rho[a] = be.zero()
            bad = equivalence.HModule(mod.subgroup, be, d, rho)
            if loop_validate(bad) is not None:
                yield bad


def test_corrupted_induced_module_names_the_first_pair(g3, g4, g6, rational,
                                                       cplx):
    # an induced equation validates its module; when that fails, the
    # message is the one the scan over generators x elements gives
    for group in (g3, g4, g6):
        for be in (rational, cplx):
            for e in equation_zoo(group, be).values():
                for mod in corrupted_modules(equivalence.fiber(e)):
                    bad = equivalence.induce(mod, transversal(group))
                    expected = pointwise_validate(global_copy(bad))
                    assert expected is not None
                    assert validate_message(bad) == expected


def symmetric_group(n):
    """S_n on n points, from an n-cycle and a transposition."""
    space = FiniteSpace(tuple(str(i + 1) for i in range(n)))
    cycle = "(" + " ".join(str(i + 1) for i in range(n)) + ")"
    return enumerate_group(space, {"a": parse_cycles(cycle, n),
                                   "b": parse_cycles("(1 2)", n)})


def timed_peak(check):
    """(seconds, peak traced bytes) of one call of check."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        check()
        return time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validation_with_a_large_stabilizer_stays_small(rational, cplx):
    # S7 on 7 points: H = S6 has 720 elements, so the module check has
    # 518,400 pairs against the 2 x 5040 x 7 cells of the global scan.  The
    # trivial equation takes the scan (the module check of a rank-2 module
    # takes 13 s over Q), and the module check itself runs in slices of a
    # (in one batch its temporaries exceed 100 MB)
    group = symmetric_group(7)
    for be in (rational, cplx):
        seconds, peak = timed_peak(trivial_equation(group, be, 2).validate)
        assert seconds < 3 and peak < 4 << 20
    mod = equivalence.trivial_hmodule(stabilizer(group, 0), cplx, 2)
    assert timed_peak(mod.validate)[1] < 4 << 20

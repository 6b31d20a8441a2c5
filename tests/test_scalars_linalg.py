from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (Fn, KMatrix, conn_of, equation_from_kmatrices, identity,
                      mat_eq, mat_mul, mat_vec, pointwise_validate,
                      rank2_equation, scalar_eq, seeded_rng, sympy_nullity,
                      sympy_nullspace_form)
from gdiff import linalg
from gdiff.errors import BackendMismatch, InconsistentConnection
from gdiff.scalars import Backend


def test_parse_serialize_roundtrip_exact(rational):
    for text in ("3/4", "-7/2", "5"):
        v = rational.parse(text)
        assert rational.parse(rational.serialize(v)) == v


def test_parse_serialize_roundtrip_complex(cplx):
    v = cplx.parse([1.5, -2.25])
    again = cplx.parse(cplx.serialize(v))
    assert scalar_eq(cplx, v, again)


def test_parse_rejections(rational, cplx):
    with pytest.raises(BackendMismatch):
        rational.parse([1.0, 2.0])
    with pytest.raises(BackendMismatch):
        rational.parse(0.5)
    with pytest.raises(BackendMismatch):
        cplx.parse(True)


def test_fn_translate():
    be = Backend.rational()
    f = Fn.from_values([1, 2, 3], be)
    # g = cyclic shift x_i -> x_{i-1}; g^{-1} image array is i -> i+1
    ginv = (1, 2, 0)
    g_f = f.translate(ginv)
    assert g_f.values == (Fraction(2), Fraction(3), Fraction(1))


def test_fn_algebra():
    be = Backend.rational()
    f = Fn.from_values([1, 2], be)
    g = Fn.from_values([3, -1], be)
    assert (f + g).values == (Fraction(4), Fraction(1))
    assert (f * g).values == (Fraction(3), Fraction(-2))
    assert (-f + f).is_zero()
    assert f.scale(2).values == (Fraction(2), Fraction(4))


def test_nullspace_matches_sympy_random(rational):
    rng = seeded_rng(11)
    for _ in range(10):
        rows = [[rational.random(rng) for _ in range(5)] for _ in range(4)]
        got = linalg.nullspace(rows, 5, rational)
        assert len(got) == sympy_nullity(rows, 5)
        for vec in got:
            out = mat_vec(rows, vec, rational)
            assert all(x == 0 for x in out)


def test_rank_matches_sympy_random(rational):
    rng = seeded_rng(5)
    for _ in range(10):
        rows = [[rational.random(rng) for _ in range(4)] for _ in range(6)]
        m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
        assert linalg.rank(rows, rational) == m.rank()


def test_complex_nullspace_and_rank(cplx):
    rows = [[1 + 0j, 1j], [1j, -1 + 0j]]  # rank 1
    assert linalg.rank(rows, cplx) == 1
    basis = linalg.nullspace(rows, 2, cplx)
    assert len(basis) == 1
    out = mat_vec(rows, basis[0], cplx)
    assert all(abs(x) < 1e-8 for x in out)


def test_inv_and_det(rational):
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = linalg.inv(a, rational)
    assert mat_eq(mat_mul(a, inv, rational), identity(2, rational), rational)
    assert linalg.det(a, rational) == 1
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert linalg.inv(singular, rational) is None
    assert linalg.det(singular, rational) == 0


def test_reduce_and_to_scalars_invert_integral(rational, cplx):
    arr = np.array([[Fraction(1, 2), Fraction(-3, 4)], [Fraction(5), Fraction(0)]],
                   dtype=object)
    ints, d = rational.integral(arr)
    assert d == 4 and ints.tolist() == [[2, -3], [20, 0]]
    # any common multiple of the denominators reduces to the same form
    again, d6 = rational.reduce(ints * 6, d * 6)
    assert d6 == 4 and again.tolist() == ints.tolist()
    assert rational.reduce(np.zeros((2, 0), dtype=object), 7)[1] == 1
    back = rational.to_scalars(ints, d)
    assert back == arr.tolist()
    assert all(type(x) is Fraction for row in back for x in row)
    z = np.array([[0.5 - 1j, -0.0]], dtype=complex)
    same, d = cplx.reduce(z)
    assert same is z and d == 1
    assert cplx.to_scalars(z) == [[0.5 - 1j, -0.0 + 0j]]


def test_solve_consistency(rational):
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert linalg.solve(a, [Fraction(1), Fraction(2)], rational) is not None
    assert linalg.solve(a, [Fraction(1), Fraction(3)], rational) is None


def test_charpoly_matches_sympy(rational):
    rng = seeded_rng(3)
    for _ in range(5):
        a = [[rational.random(rng) for _ in range(3)] for _ in range(3)]
        got = linalg.charpoly(a)
        lam = sympy.symbols("lam")
        m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in a])
        poly = (lam * sympy.eye(3) - m).det().expand()
        want = [sympy.Rational(poly.coeff(lam, k)) for k in range(4)]
        assert [Fraction(str(w)) for w in want] == got


# -- the integer kernel's consumers against sympy ----------------------------

kernel_cases = settings(max_examples=80, deadline=None, derandomize=True)
BIG = 10 ** 30
INTS = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
RATIONALS = st.one_of(INTS.map(Fraction),
                      st.fractions(-BIG, BIG, max_denominator=BIG),
                      st.fractions(-4, 4, max_denominator=6))


@st.composite
def exact_rows(draw, entries, rows=st.integers(1, 5), cols=st.integers(1, 7),
               square=False):
    """Rows of exact entries: often a zero column, and a last row that is
    a combination of the first two (zero when both coefficients are)."""
    r = draw(rows)
    c = r if square else draw(cols)
    m = draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                      min_size=r, max_size=r))
    if draw(st.booleans()):
        zero = draw(st.integers(0, c - 1))
        for row in m:
            row[zero] = 0 * row[zero]
    if r > 1 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1 % (r - 1)])]
    return m


@kernel_cases
@given(st.one_of(exact_rows(INTS), exact_rows(RATIONALS)))
def test_nullspace_form_matches_sympy(rows):
    # dependent, zero and single rows, zero columns, negative pivots and
    # 30-digit entries, of ints (as hom_space passes) and of Fractions
    got = linalg.nullspace_form(rows)
    assert got == sympy_nullspace_form(rows)
    assert all(type(x) is Fraction for row in got for x in row)


def sympy_charpoly(a):
    m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in a])
    coeffs = m.charpoly(sympy.Symbol("lam")).all_coeffs()[::-1]
    return [Fraction(int(x.p), int(x.q)) for x in coeffs]


@kernel_cases
@given(exact_rows(RATIONALS, rows=st.integers(1, 4), square=True))
def test_charpoly_matches_sympy_on_any_exact_matrix(a):
    # denominators, singular matrices (a dependent last row, a zero
    # column), n = 1 and 30-digit entries
    a = [[Fraction(x) for x in row] for row in a]
    got = linalg.charpoly(a)
    assert got == sympy_charpoly(a)
    assert all(type(x) is Fraction for x in got)


@kernel_cases
@given(st.lists(exact_rows(RATIONALS, rows=st.just(3), square=True),
                min_size=3, max_size=3),
       st.sampled_from(["first", "middle", "last", "absent"]),
       st.integers(1, 3))
def test_any_singular_matches_inv_per_matrix(mats, where, n):
    # a stack with one singular member (the first, one in the middle, the
    # last) or none made so, as (count, n, n) and as (1, count, n, n)
    rational = Backend.rational()
    mats = [[[Fraction(x) for x in row[:n]] for row in m[:n]] for m in mats]
    made = {"first": 0, "middle": 1, "last": 2}.get(where)
    if made is not None:
        m = mats[made]
        m[-1] = [2 * x for x in m[0]] if n > 1 else [Fraction(0)]
    stack = np.array(mats, dtype=object).reshape(3, n, n)
    singular = [linalg.inv(m, rational) is None for m in mats]
    assert made is None or singular[made]
    assert linalg.any_singular(stack, rational) == any(singular)
    assert linalg.any_singular(stack[None], rational) == any(singular)
    assert [linalg.any_singular(stack[i:i + 1], rational)
            for i in range(3)] == singular


def test_rational_roots():
    # (x - 2)(x + 1/3) x = x^3 - 5/3 x^2 - 2/3 x
    coeffs = [Fraction(0), Fraction(-2, 3), Fraction(-5, 3), Fraction(1)]
    roots = set(linalg.rational_roots(coeffs))
    assert roots == {Fraction(0), Fraction(2), Fraction(-1, 3)}


def test_rowspace_incremental(rational):
    sp = linalg.RowSpace(3, rational)
    assert sp.add([Fraction(1), Fraction(0), Fraction(1)])
    assert sp.add([Fraction(0), Fraction(1), Fraction(0)])
    assert not sp.add([Fraction(2), Fraction(3), Fraction(2)])
    assert sp.contains([Fraction(1), Fraction(1), Fraction(1)])
    assert not sp.contains([Fraction(0), Fraction(0), Fraction(1)])
    coords = sp.coords([Fraction(2), Fraction(3), Fraction(2)])
    assert coords == [Fraction(2), Fraction(3)]


def pairs_around_threshold(be, rel):
    """(a, b) pairs, over several magnitudes and directions, with |a - b|
    equal to the tolerance eps * (1 + max(|a|, |b|)) times (1 + rel)."""
    pairs = []
    for mag in (0.0, 1e-3, 1.0, 1e3):
        for u in (1, 1j, (3 + 4j) / 5):
            for v in (1, -1j, (-5 + 12j) / 13):
                a = complex(mag * u)
                d = be.eps * (1 + mag)
                for _ in range(3):  # d = eps * (1 + max(|a|, |a + d v|))
                    d = be.eps * (1 + max(abs(a), abs(a + d * v)))
                pairs.append((a, a + d * (1 + rel) * v))
    return pairs


def test_scalar_and_array_tolerance_agree_near_threshold(cplx):
    # about 1e-3 of the tolerance on either side of it, and far from it
    # (1e-3 and 1e3 times the tolerance); Backend.eq_array and the scalar
    # formula of conftest must give the same verdict as expected
    for rel, expected in ((-1e-3, True), (1e-3, False),
                          (-1 + 1e-3, True), (1e3, False)):
        pairs = pairs_around_threshold(cplx, rel)
        a = np.array([p[0] for p in pairs], dtype=cplx.dtype)
        b = np.array([p[1] for p in pairs], dtype=cplx.dtype)
        assert [scalar_eq(cplx, x, y) for x, y in pairs] == \
            [expected] * len(pairs)
        assert cplx.eq_array(a, b).tolist() == [expected] * len(pairs)


def test_exact_array_comparison_matches_scalar(rational):
    vals = [Fraction(1, 3), Fraction(2), Fraction(-5, 7), Fraction(0)]
    other = [Fraction(1, 3), Fraction(2, 1), Fraction(5, 7), Fraction(1, 10**30)]
    a = np.array(vals, dtype=rational.dtype)
    b = np.array(other, dtype=rational.dtype)
    assert rational.eq_array(a, b).tolist() == \
        [scalar_eq(rational, x, y) for x, y in zip(vals, other)] == \
        [True, True, False, False]


def test_integral_is_exact_over_common_denominator(rational):
    # mixed prime and negative denominators and zeros: A / d is the input
    # exactly, A holds Python ints, d is the least common denominator
    vals = [Fraction(1, 3), Fraction(-2, 7), Fraction(0), Fraction(5, -6),
            Fraction(-11, 49), Fraction(4), Fraction(-1, 2), Fraction(0, 5)]
    arr = np.array(vals, dtype=rational.dtype).reshape(2, 2, 2)
    ints, d = rational.integral(arr)
    assert d == 294
    assert ints.shape == arr.shape and ints.dtype == object
    assert all(type(x) is int for x in ints.ravel())
    assert [Fraction(x, d) for x in ints.ravel()] == vals
    zeros, d0 = rational.integral(np.array([Fraction(0)] * 3, dtype=object))
    assert d0 == 1 and zeros.tolist() == [0, 0, 0]
    empty, de = rational.integral(np.empty((0, 2, 2), dtype=object))
    assert de == 1 and empty.shape == (0, 2, 2)


def test_integral_leaves_complex_arrays_alone(cplx):
    arr = np.array([[0.5 - 1j, 1 / 3], [0j, -2.25 + 1e-17j]], dtype=cplx.dtype)
    same, d = cplx.integral(arr)
    assert same is arr and d == 1


def test_connection_perturbation_against_tolerance(g4, cplx):
    # one entry of one connection matrix at one point, moved by 1e-3 * eps
    # (validates) or by 1e3 * eps (fails, at the pair the pointwise scan
    # names); the entries are small integers, so the tolerance is a few eps
    eq = rank2_equation(g4, cplx)
    kconn = conn_of(eq)
    for g in range(g4.order):
        for shift, passes in ((1e-3 * cplx.eps, True), (1e3 * cplx.eps, False)):
            rows = [list(r) for r in kconn[g].entries]
            rows[0][0] = rows[0][0] + Fn.delta(2, g4.space.size, cplx).scale(shift)
            conn = list(kconn)
            conn[g] = KMatrix.from_rows(rows, cplx)
            moved = equation_from_kmatrices(g4, cplx, eq.rank, tuple(conn))
            if passes:
                moved.validate()
                assert pointwise_validate(moved) is None
            else:
                with pytest.raises(InconsistentConnection) as info:
                    moved.validate()
                assert str(info.value) == pointwise_validate(moved)

"""The skew group algebra on arrays: its laws, and its operations against
the pointwise ``PointwiseSkewOp`` in ``conftest`` bit for bit."""

import pytest

from conftest import (Fn, array_bits, bits, mult_table, pointwise_apply,
                      pointwise_skew_mul, pointwise_skew_op, random_values,
                      seeded_rng)
from gdiff.scalars import Backend
from gdiff.skewalg import SkewOp, apply, skew_mul
from gdiff.space import dihedral_on_cycle


def random_op(rng, group, be, nterms=3):
    terms = {rng.randrange(group.order):
             random_values(rng, (group.space.size,), be)
             for _ in range(nterms)}
    return SkewOp.from_terms(group, be, terms)


def test_twisted_product_on_elements(g3, rational):
    # (f g)(h g') = (f . g(h)) g g'
    rng = seeded_rng(1)
    f = random_values(rng, (3,), rational)
    h = random_values(rng, (3,), rational)
    g, gp = 1, 2
    a = SkewOp.from_terms(g3, rational, {g: f})
    b = SkewOp.from_terms(g3, rational, {gp: h})
    prod = skew_mul(a, b)
    assert prod.elements == (mult_table(g3)[g][gp],)
    assert (prod.coeffs[0] == f * h[g3.elements[g3.inv[g]]]).all()


def test_associativity_random(g3, rational):
    rng = seeded_rng(2)
    for _ in range(8):
        a, b, c = (random_op(rng, g3, rational) for _ in range(3))
        assert skew_mul(skew_mul(a, b), c).eq(skew_mul(a, skew_mul(b, c)))


def test_identity_element(g4, rational):
    rng = seeded_rng(3)
    e = SkewOp.of_element(g4, rational, 0)
    a = random_op(rng, g4, rational)
    assert skew_mul(e, a).eq(a)
    assert skew_mul(a, e).eq(a)


def test_apply_respects_product(g3, rational):
    # (ab) f = a (b f)
    rng = seeded_rng(4)
    for _ in range(8):
        a = random_op(rng, g3, rational)
        b = random_op(rng, g3, rational)
        f = random_values(rng, (3,), rational)
        assert (apply(skew_mul(a, b), f) == apply(a, apply(b, f))).all()


def test_function_embedding_multiplies_pointwise(g3, rational):
    rng = seeded_rng(5)
    f = random_values(rng, (3,), rational)
    h = random_values(rng, (3,), rational)
    assert (apply(SkewOp.from_terms(g3, rational, {0: f}), h) == f * h).all()


def test_distributivity(g3, rational):
    rng = seeded_rng(6)
    a = random_op(rng, g3, rational)
    b = random_op(rng, g3, rational)
    c = random_op(rng, g3, rational)
    assert skew_mul(a, b + c).eq(skew_mul(a, b) + skew_mul(a, c))


# complex values whose products and sums have zeros of either sign
SIGNED = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
          complex(-1.5, -0.0), complex(0.0, 2.0), complex(3.0, 0.0)]


def function_values(rng, size, be):
    """A random function, on the complex backend drawn partly from values
    with signed zeros; over the rationals by ``Backend.random``."""
    if be.exact:
        return random_values(rng, (size,), be)
    vals = random_values(rng, (size,), be)
    for x in range(size):
        if rng.random() < 0.5:
            vals[x] = rng.choice(SIGNED)
    return vals


def term_bits(op):
    """(element, bits of its coefficient) per term, of a SkewOp or of the
    pointwise oracle."""
    if isinstance(op, SkewOp):
        return [(g, array_bits(row)) for g, row in zip(op.elements, op.coeffs)]
    return [(g, [bits(v) for v in f.values]) for g, f in op.terms]


@pytest.mark.parametrize("backend", ["rational", "complex"])
@pytest.mark.parametrize("n", [3, 4])
def test_array_operations_match_pointwise_oracle(n, backend):
    # skew_mul, apply, +, - and negation on arrays against the Fn formulas:
    # the same terms in the same order, equal Fractions (never ints) over
    # the rationals and the same bits on the complex backend, signs of
    # zeros included; a term that is zero everywhere pruned by both
    group = dihedral_on_cycle(n)
    be = getattr(Backend, backend)()
    size = group.space.size
    rng = seeded_rng(51)
    for _ in range(12):
        a, b = (SkewOp.from_terms(group, be, {
            rng.randrange(group.order): function_values(rng, size, be)
            for _ in range(rng.randrange(4))}) for _ in range(2))
        pa, pb = pointwise_skew_op(a), pointwise_skew_op(b)
        assert term_bits(skew_mul(a, b)) == term_bits(pointwise_skew_mul(pa, pb))
        assert term_bits(a + b) == term_bits(pa + pb)
        assert term_bits(a - b) == term_bits(pa - pb)
        assert term_bits(-a) == term_bits(-pa)
        assert a.eq(b) == ((pa - pb).terms == ())
        assert a.eq(a)
        f = function_values(rng, size, be)
        assert array_bits(apply(a, f)) == \
            [bits(v) for v in pointwise_apply(pa, Fn(tuple(f.tolist()), be))
             .values]

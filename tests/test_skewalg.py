from conftest import mult_table, random_fn, seeded_rng
from gdiff.scalars import Fn
from gdiff.skewalg import SkewOp, apply, skew_mul
from gdiff.space import act_on_function


def random_op(rng, group, be, nterms=3):
    terms = {rng.randrange(group.order): random_fn(rng, group.space.size, be)
             for _ in range(nterms)}
    return SkewOp.from_terms(group, be, terms)


def test_twisted_product_on_elements(g3, rational):
    # (f g)(h g') = (f . g(h)) g g'
    rng = seeded_rng(1)
    f = random_fn(rng, 3, rational)
    h = random_fn(rng, 3, rational)
    g, gp = 1, 2
    a = SkewOp.from_terms(g3, rational, {g: f})
    b = SkewOp.from_terms(g3, rational, {gp: h})
    prod = skew_mul(a, b)
    assert len(prod.terms) == 1
    elem, coeff = prod.terms[0]
    assert elem == mult_table(g3)[g][gp]
    assert coeff.eq(f * act_on_function(g3, g, h))


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
        f = random_fn(rng, 3, rational)
        assert apply(skew_mul(a, b), f).eq(apply(a, apply(b, f)))


def test_function_embedding_multiplies_pointwise(g3, rational):
    rng = seeded_rng(5)
    f = random_fn(rng, 3, rational)
    h = random_fn(rng, 3, rational)
    assert apply(SkewOp.of_function(g3, f), h).eq(f * h)


def test_distributivity(g3, rational):
    rng = seeded_rng(6)
    a = random_op(rng, g3, rational)
    b = random_op(rng, g3, rational)
    c = random_op(rng, g3, rational)
    assert skew_mul(a, b + c).eq(skew_mul(a, b) + skew_mul(a, c))

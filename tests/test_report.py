"""Report formatting: a structured report formats each array of scalars in
one ``Backend.serialize`` call when it is dumped, byte for byte as the
per-scalar formatter in ``conftest`` did, and a text report never formats
an array."""

import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from conftest import serialize_oracle
from gdiff.problem import format_report, load_problem, run_problem
from gdiff.scalars import Backend

DATA = os.path.join(os.path.dirname(__file__), "data")
RATIONAL = Backend.rational()
COMPLEX = Backend.complex()

examples = settings(max_examples=200, deadline=None, derandomize=True)

# shapes of up to four axes, 0-d and zero-size axes included
shapes = array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3)

big = 10 ** 30
rationals = st.one_of(
    st.integers(-big, big),
    st.builds(Fraction, st.integers(-big, big), st.integers(1, big)),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5)))

parts = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     -5e-324, 1e308, -1e308]))
complexes = st.builds(complex, parts, parts)


@st.composite
def arrays(draw, scalars, dtype):
    shape = draw(shapes)
    values = draw(st.lists(scalars, min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    out = np.empty(len(values), dtype=dtype)
    out[:] = values
    return out.reshape(shape)


def check_against_oracle(be, a):
    want = serialize_oracle(a.tolist(), be)
    assert json.dumps(be.serialize(a)) == json.dumps(want)
    # as the default hook of an indented dump, the way reports are written
    assert (json.dumps({"a": a}, indent=2, default=be.serialize)
            == json.dumps({"a": want}, indent=2))


@examples
@given(a=arrays(rationals, object))
def test_rational_serialize_matches_the_per_scalar_oracle(a):
    check_against_oracle(RATIONAL, a)


@examples
@given(a=arrays(complexes, complex))
def test_complex_serialize_matches_the_per_scalar_oracle(a):
    check_against_oracle(COMPLEX, a)


def test_scalars_serialize_as_zero_dimensional_arrays():
    for be, v in ((RATIONAL, Fraction(-7, 2)), (COMPLEX, complex(-0.0, 1e308))):
        assert be.serialize(v) == be.serialize(np.array(v, dtype=be.dtype))
        assert be.serialize(v) == serialize_oracle(v, be)


@pytest.mark.parametrize("be", [RATIONAL, COMPLEX], ids=["rational", "complex"])
def test_serialize_refuses_what_is_no_array_of_scalars(be):
    report = {"backend": be.name, "seed": 0, "tasks": [{"n": np.int64(3)}],
              "pass": True}
    with pytest.raises(TypeError, match="int64"):
        format_report(report, "structured")
    with pytest.raises(TypeError):
        be.serialize([Fraction(1), 1j])


@pytest.mark.parametrize("corpus", ["c3_basic.json", "c6_complex.json"])
def test_text_report_formats_no_array(corpus, monkeypatch):
    path = os.path.join(DATA, corpus)
    want = format_report(run_problem(load_problem(path)), "text")

    def refuse(self, a):
        raise AssertionError("a text report formatted an array")

    monkeypatch.setattr(Backend, "serialize", refuse)
    assert format_report(run_problem(load_problem(path)), "text") == want
    with pytest.raises(AssertionError):
        format_report(run_problem(load_problem(path)), "structured")

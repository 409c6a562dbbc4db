import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggraded.poly import FreeLayout, PolyRing, Vector

R = PolyRing(["X", "Y", "Z"], 32003)
ZERO = R.poly({})


def col(f):
    """The rank-1 column of ``f``: products are formed as polynomial x column."""
    return Vector.from_polys([f])


def rand_poly(draw_terms):
    terms = {}
    for exps, c in draw_terms:
        terms[exps] = terms.get(exps, 0) + c
    return R.poly(terms)


poly_strategy = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 3)] * 3), st.integers(-10, 10)),
    max_size=6,
).map(rand_poly)


def test_parser_roundtrip():
    f = R.from_string("X*Z - Y^3")
    assert f.terms == {(1, 0, 1): 1, (0, 3, 0): 32002}
    assert f == R.poly({(1, 0, 1): 1, (0, 3, 0): -1})
    assert R.from_string("2*X^2*Y + 1") == R.poly({(2, 1, 0): 2, (0, 0, 0): 1})
    assert R.from_string("0").is_zero()
    assert R.from_string("-X + X").is_zero()
    with pytest.raises(ValueError):
        R.from_string("X + W")
    # one sign may lead a polynomial
    assert R.from_string("- X + Y") == R.from_string("Y - X")
    assert R.from_string("+X") == R.from_string("X")


@pytest.mark.parametrize("text", [
    "X Y", "3X",               # juxtaposition is not a product
    "X - -Y", "X - +Y",        # one sign between two terms
    "X -", "X*", "X +", "+", "-",
])
def test_parser_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        R.from_string(text)


@settings(max_examples=60)
@given(poly_strategy)
def test_parser_reads_what_polynomials_print(f):
    assert R.from_string(str(f)) == f


@settings(max_examples=60)
@given(poly_strategy, poly_strategy, poly_strategy)
def test_ring_axioms(f, g, h):
    assert (col(f) + col(g)) + col(h) == col(f) + (col(g) + col(h))
    assert col(f) + col(g) == col(g) + col(f)
    assert f * (col(g) + col(h)) == f * col(g) + f * col(h)
    assert f * col(g) == g * col(f)
    assert f * (g * col(h)) == g * (f * col(h))
    assert (col(f) - col(f)).is_zero()
    assert col(f) - col(g) + col(g) == col(f)


def test_order_and_initial_form_examples():
    f = R.from_string("X*Z - Y^3")
    assert f.order() == 2 and f.initial_form() == R.from_string("X*Z")
    f = R.from_string("X^4 - Y*Z")
    assert f.order() == 2 and f.initial_form() == R.from_string("-Y*Z")
    v = Vector.from_polys([R.from_string("X"), R.from_string("Y^2")])
    assert v.order() == 1 and v.initial_form() == Vector.from_polys([R.from_string("X"), ZERO])


def test_order_of_zero_is_an_error():
    for zero in (ZERO, Vector(R, 2, {})):
        with pytest.raises(ValueError):
            zero.order()
        with pytest.raises(ValueError):
            zero.initial_form()


@settings(max_examples=60)
@given(poly_strategy, poly_strategy)
def test_initial_form_multiplicative(f, g):
    # the polynomial ring is a domain: in(fg) = in(f) in(g)
    if f.is_zero() or g.is_zero():
        return
    fg = f * col(g)
    assert fg.order() == f.order() + g.order()
    assert fg.initial_form() == f.initial_form() * col(g.initial_form())


def test_layout_degrees():
    lay = FreeLayout(2, (0, 3))
    v = Vector(R, 2, {(0, (1, 2, 0)): 1})
    assert v.degree_in(lay) == 3
    w = Vector(R, 2, {(1, (0, 0, 0)): 1})
    assert w.degree_in(lay) == 3
    assert (v + w).is_homogeneous(lay)
    with pytest.raises(ValueError):
        FreeLayout(2, (1,))

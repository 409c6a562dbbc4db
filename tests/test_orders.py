from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aggraded.engine import _make_keys
from aggraded.orders import DS, GREVLEX

mon3 = st.tuples(*[st.integers(min_value=0, max_value=5)] * 3)


def engine_key(order):
    """The engine's key on the monomials of one component: a larger monomial
    has a smaller key, and the lead of a set is its minimum."""
    key, _ = _make_keys(order, (0,))
    return lambda exps: key((0, exps))


def test_global_grevlex_examples():
    key = engine_key(GREVLEX)
    # x^2 y vs x y^2
    assert key((2, 1, 0)) < key((1, 2, 0))
    # y^2 vs x z: the smaller power of the last variable is larger
    assert key((0, 2, 0)) < key((1, 0, 1))
    # a higher degree is larger, whatever the exponents
    assert key((0, 0, 2)) < key((1, 0, 0))


def test_local_degree_anticompatible():
    # x vs x^2: lower degree leads locally
    key = engine_key(DS)
    assert key((1, 0, 0)) < key((2, 0, 0))
    assert key((0, 0, 1)) < key((2, 0, 0))


def test_reflexive():
    assert engine_key(GREVLEX)((1, 2, 3)) == engine_key(GREVLEX)((1, 2, 3))
    key, _ = _make_keys(DS, (0,))
    assert key((0, (1, 2, 3))) == key((0, (1, 2, 3)))


@pytest.mark.parametrize("order", [GREVLEX, DS])
@given(a=mon3, b=mon3, c=mon3, q=mon3)
def test_total_multiplicative(order, a, b, c, q):
    key = engine_key(order)
    # totality: equal keys only for equal monomials
    assert (key(a) == key(b)) == (a == b)
    # transitivity on a sorted triple
    lo, mid, hi = sorted([a, b, c], key=key)
    assert key(lo) <= key(mid) <= key(hi)
    # multiplicativity
    aq = tuple(x + y for x, y in zip(a, q))
    bq = tuple(x + y for x, y in zip(b, q))
    assert (key(aq) < key(bq)) == (key(a) < key(b))


def test_global_divisibility_exhaustive_deg6():
    # a divisor is never larger than its multiple: a well-order
    key = engine_key(GREVLEX)
    mons = [m for m in product(range(7), repeat=3) if sum(m) <= 6]
    for a in mons:
        for b in mons:
            if all(x <= y for x, y in zip(a, b)):
                assert key(a) >= key(b)


def test_local_leading_term_has_minimal_degree():
    mons = [m for m in product(range(4), repeat=3) if sum(m) <= 4]
    best = min(mons, key=engine_key(DS))
    assert sum(best) == 0


def _larger(order, shifts, s, t, elim_rank=None):
    """Whether term s is larger than term t: the engine's smaller key."""
    key, _ = _make_keys(order, shifts, elim_rank)
    return key(s) < key(t)


def test_module_order_shifts_and_position():
    # term-over-position with shifts; ascending position as final tie-break
    x = (1, 0, 0)
    assert _larger(GREVLEX, (0, 0), (0, x), (1, x))
    assert _larger(DS, (0, 0), (0, x), (1, x))
    # a twist can flip the degree comparison
    assert _larger(GREVLEX, (0, 5), (1, x), (0, x))
    assert _larger(DS, (0, 5), (0, x), (1, x))


def test_elimination_key_puts_the_first_block_above_the_rest():
    # components below elim_rank are larger than any term beyond it, whatever
    # the degrees; inside each block the shifted module order decides
    one, x2 = (0, 0, 0), (2, 0, 0)
    for order in (GREVLEX, DS):
        assert _larger(order, (0, 0, 9), (1, x2), (2, one), elim_rank=2)
        assert _larger(order, (0, 0, 9), (0, x2), (2, x2), elim_rank=2)
        assert not _larger(order, (0, 0, 9), (2, one), (1, one), elim_rank=2)
    assert _larger(GREVLEX, (0, 0, 0, 9), (3, one), (2, x2), elim_rank=2)
    assert _larger(DS, (0, 0, 0, 9), (2, x2), (3, x2), elim_rank=2)
    assert _larger(DS, (0, 3), (0, x2), (1, one), elim_rank=2)

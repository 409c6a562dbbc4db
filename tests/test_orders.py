from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aggraded.orders import DS, GREVLEX

mon3 = st.tuples(*[st.integers(min_value=0, max_value=5)] * 3)


def test_global_grevlex_examples():
    # x^2 y vs x y^2
    assert GREVLEX.mon_key((2, 1, 0)) > GREVLEX.mon_key((1, 2, 0))


def test_local_degree_anticompatible():
    # x vs x^2: lower degree leads locally
    assert DS.mon_key((1, 0, 0)) > DS.mon_key((2, 0, 0))


def test_reflexive():
    assert GREVLEX.mon_key((1, 2, 3)) == GREVLEX.mon_key((1, 2, 3))
    assert DS.term_key(0, (1, 2, 3)) == DS.term_key(0, (1, 2, 3))


@pytest.mark.parametrize("order", [GREVLEX, DS])
@given(a=mon3, b=mon3, c=mon3, q=mon3)
def test_total_multiplicative(order, a, b, c, q):
    key = order.mon_key
    # totality: equal keys only for equal monomials
    assert (key(a) == key(b)) == (a == b)
    # transitivity on a sorted triple
    lo, mid, hi = sorted([a, b, c], key=key)
    assert key(lo) <= key(hi)
    # multiplicativity
    aq = tuple(x + y for x, y in zip(a, q))
    bq = tuple(x + y for x, y in zip(b, q))
    assert (key(aq) < key(bq)) == (key(a) < key(b))


def test_global_divisibility_exhaustive_deg6():
    mons = [m for m in product(range(7), repeat=3) if sum(m) <= 6]
    for a in mons:
        for b in mons:
            if all(x <= y for x, y in zip(a, b)):
                assert GREVLEX.mon_key(a) <= GREVLEX.mon_key(b)


def test_local_leading_term_has_minimal_degree():
    mons = [m for m in product(range(4), repeat=3) if sum(m) <= 4]
    best = max(mons, key=DS.mon_key)
    assert sum(best) == 0


def test_module_order_shifts_and_position():
    # term-over-position with shifts; ascending position as final tie-break
    x = (1, 0, 0)
    assert GREVLEX.term_key(0, x) > GREVLEX.term_key(1, x)
    # a twist can flip the degree comparison
    assert GREVLEX.term_key(0, x, (0, 5)) < GREVLEX.term_key(1, x, (0, 5))
    assert DS.term_key(0, x, (0, 5)) > DS.term_key(1, x, (0, 5))

import pytest

from aggraded.field import MAX_CHARACTERISTIC, PrimeField, is_prime
from aggraded.poly import PolyRing


def test_default_modulus_is_prime():
    assert is_prime(32003)
    assert not is_prime(32001)
    assert is_prime(2) and is_prime(3) and not is_prime(1) and not is_prime(0)


def test_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(32004)


def test_rejects_characteristic_at_or_above_two_to_the_31():
    # 4294967311 is prime, but above the bound of the field
    assert is_prime(4294967311) and is_prime(2147483647)
    with pytest.raises(ValueError, match="too large"):
        PolyRing(["x"], 4294967311)
    assert PrimeField(2147483647).p == MAX_CHARACTERISTIC - 1

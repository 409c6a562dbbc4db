"""The prime field of coefficients: its characteristic and the checks on it.

Coefficients everywhere in the package are plain python ints kept reduced
into ``[0, p)``; a :class:`PrimeField` instance carries the modulus, which
it accepts only when prime and below ``MAX_CHARACTERISTIC``.  The arithmetic
is done inline where it is needed (inverses as ``pow(a, -1, p)``).  Keeping
elements unboxed is what makes the standard-basis engine usable in pure
python.
"""

from __future__ import annotations

DEFAULT_CHARACTERISTIC = 32003

# the characteristics the package accepts lie below this bound: a product of
# two residues stays below 2^62, and the engine-vs-oracle agreement is tested
# at the largest prime below it, 2^31 - 1
MAX_CHARACTERISTIC = 2**31

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for machine-word sized inputs."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field Z/p for a prime p, acting on int representatives."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_CHARACTERISTIC):
        if p >= MAX_CHARACTERISTIC:
            raise ValueError(
                f"characteristic {p} is too large: the prime field needs p < 2^31"
            )
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

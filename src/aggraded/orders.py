"""Monomial and module-monomial orders.

Two flavors are supported, both with the reverse-lexicographic tie-break on
exponent vectors (variables in declaration order):

* ``global``: degree-compatible (graded reverse lex); a well-order, the
  leading term of a polynomial has maximal total degree.
* ``local``: degree-anticompatible; strictly smaller total degree means
  strictly larger in the order, so the leading term has *minimal* total
  degree and picks out the initial form.

Module monomials ``(component, exponents)`` are compared term-over-position
by the one module order, ``engine._make_keys``: first by shifted degree
``deg + shift[component]``, then by the same reverse-lex tie-break, with
ascending component index as the final tie-break.

Monomial orders are exposed as sort *keys* (larger key = larger monomial) so
that python's tuple comparison does the work in C.
"""

from __future__ import annotations

from dataclasses import dataclass

GLOBAL = "global"
LOCAL = "local"


def _negrev(exps):
    return tuple(-e for e in reversed(exps))


@dataclass(frozen=True)
class OrderSpec:
    """A total, multiplicative (module-)monomial order."""

    flavor: str = GLOBAL

    def __post_init__(self):
        if self.flavor not in (GLOBAL, LOCAL):
            raise ValueError(f"unknown order flavor {self.flavor!r}")

    @property
    def is_local(self) -> bool:
        return self.flavor == LOCAL

    def mon_key(self, exps):
        d = sum(exps)
        return (-d if self.is_local else d, _negrev(exps))


GREVLEX = OrderSpec(GLOBAL)
DS = OrderSpec(LOCAL)


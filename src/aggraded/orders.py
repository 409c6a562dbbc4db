"""The flavors of the monomial and module-monomial orders.

An ``OrderSpec`` names a flavor; the order itself, as sort keys on module
terms, is ``engine._make_keys``.  Two flavors are supported, both with the
reverse-lexicographic tie-break on exponent vectors (variables in
declaration order):

* ``global``: degree-compatible (graded reverse lex); a well-order, the
  leading term of a polynomial has maximal total degree.
* ``local``: degree-anticompatible; strictly smaller total degree means
  strictly larger in the order, so the leading term has *minimal* total
  degree and picks out the initial form.

Module monomials ``(component, exponents)`` are compared term-over-position:
first by shifted degree ``deg + shift[component]``, then by the same
reverse-lex tie-break, with ascending component index as the final
tie-break.  The keys are tuples, so python's tuple comparison does the work
in C.
"""

from __future__ import annotations

from dataclasses import dataclass

GLOBAL = "global"
LOCAL = "local"


@dataclass(frozen=True)
class OrderSpec:
    """The flavor of a total, multiplicative (module-)monomial order, whose
    sort keys are ``engine._make_keys``."""

    flavor: str = GLOBAL

    def __post_init__(self):
        if self.flavor not in (GLOBAL, LOCAL):
            raise ValueError(f"unknown order flavor {self.flavor!r}")

    @property
    def is_local(self) -> bool:
        return self.flavor == LOCAL


GREVLEX = OrderSpec(GLOBAL)
DS = OrderSpec(LOCAL)


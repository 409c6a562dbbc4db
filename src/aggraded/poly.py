"""Sparse polynomials and free-module elements over a prime field.

Values are term containers: dicts keyed by exponent tuples (polynomials) or
by ``(component, exponent-tuple)`` pairs (vectors), with int coefficients in
``[0, p)``, built by the parser, ``PolyRing.poly`` and ``Vector.from_polys``
and compared by value.  The engine and every computation work on the term
dicts directly.  The only arithmetic left is column ``+``, column ``-`` and
polynomial x column (``Vector.__rmul__``), which the Nakayama step
``complexes._cancel_unit``, ``complexes.minimalize`` and ``Matrix.compose``
use.  Values are immutable by convention: every operation builds a fresh
dict.  No value is bound to a monomial order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import add, le, sub

from .field import PrimeField

# ---------------------------------------------------------------- monomials


def mon_mul(a, b):
    return tuple(map(add, a, b))


def mon_div(a, b):
    """Exponent-wise difference a - b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mon_divides(a, b):
    return all(map(le, a, b))


def mon_lcm(a, b):
    return tuple(map(max, a, b))


def mon_deg(a):
    return sum(a)


@dataclass(frozen=True)
class FreeLayout:
    """Rank and per-basis-vector degree twists of a free module."""

    rank: int
    twists: tuple = ()

    def __post_init__(self):
        if not self.twists:
            object.__setattr__(self, "twists", (0,) * self.rank)
        if len(self.twists) != self.rank:
            raise ValueError("twists length must equal rank")

    def degree_of(self, comp, exps):
        return mon_deg(exps) + self.twists[comp]


# ----------------------------------------------------------------- the ring


class PolyRing:
    """The polynomial cover k[x_1..x_n] with a fixed prime field k."""

    __slots__ = ("names", "field", "nvars", "_zero_mon")

    def __init__(self, names, p_or_field=PrimeField()):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.field = p_or_field if isinstance(p_or_field, PrimeField) else PrimeField(p_or_field)
        self.nvars = len(self.names)
        self._zero_mon = (0,) * self.nvars

    @property
    def p(self):
        return self.field.p

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.names == self.names
            and other.field == self.field
        )

    def __hash__(self):
        return hash((self.names, self.field))

    def __repr__(self):
        return f"PolyRing({','.join(self.names)}; p={self.p})"

    def poly(self, terms):
        """Build a polynomial from an {exps: coeff} mapping, reducing mod p."""
        out = {}
        for e, c in terms.items():
            c %= self.p
            if c:
                out[tuple(e)] = c
        return Polynomial(self, out)

    def from_string(self, text):
        return _parse_poly(self, text)


# a variable name: one identifier token of the polynomial parser
NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9']*")
_TOKEN = re.compile(rf"\s*(?:(\d+)|({NAME.pattern})|(\^|\*|\+|-))")
# digits per int() call when a coefficient is read modulo p, below the
# interpreter's limit on converting long decimal strings
_DIGIT_CHUNK = 1000


def _residue(digits, p):
    """The decimal numeral ``digits`` modulo p, read chunk by chunk, so a
    coefficient of any length is reduced without converting it whole."""
    r = 0
    for i in range(0, len(digits), _DIGIT_CHUNK):
        chunk = digits[i:i + _DIGIT_CHUNK]
        r = (r * pow(10, len(chunk), p) + int(chunk)) % p
    return r


def _parse_poly(ring, text):
    """Parse sums of monomial terms: e.g. ``X*Z - Y^3 + 2*X``.  A term is
    factors joined by '*'; one sign may lead, and after a term comes '+',
    '-' or the end."""
    pos, n = 0, len(text)
    tokens = []
    while pos < n:
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot parse polynomial at ...{text[pos:]!r}")
            break
        tokens.append((m.group(1), m.group(2), m.group(3)))
        pos = m.end()
    if not tokens:
        raise ValueError("empty polynomial")
    var_index = {name: k for k, name in enumerate(ring.names)}
    terms = {}
    sign = tokens[0][2]
    i, nt = (1 if sign in ("+", "-") else 0), len(tokens)
    while True:
        coeff = -1 if sign == "-" else 1
        exps = [0] * ring.nvars
        while True:
            if i == nt:
                raise ValueError("polynomial ends where a factor is expected")
            num, name, op = tokens[i]
            i += 1
            if num is not None:
                coeff *= _residue(num, ring.p)
            elif name is not None:
                if name not in var_index:
                    raise ValueError(f"unknown variable {name!r}")
                e = 1
                if i < nt and tokens[i][2] == "^":
                    if i + 1 >= nt or tokens[i + 1][0] is None:
                        raise ValueError("exponent expected after '^'")
                    e = int(tokens[i + 1][0])
                    i += 2
                exps[var_index[name]] += e
            else:
                raise ValueError(f"unexpected {op!r} in polynomial")
            if i == nt or tokens[i][2] != "*":
                break
            i += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
        if i == nt:
            return ring.poly(terms)
        sign = tokens[i][2]
        if sign not in ("+", "-"):
            raise ValueError(f"'+' or '-' expected after a term in {text!r}")
        i += 1


# ------------------------------------------------------------- polynomials


class Polynomial:
    """A sparse polynomial; ``terms`` maps exponent tuples to nonzero ints."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def constant_term(self):
        return self.terms.get(self.ring._zero_mon, 0)

    def order(self):
        """Minimal total degree of the support (the m-adic order in k[x])."""
        if not self.terms:
            raise ValueError("order undefined for zero")
        return min(mon_deg(e) for e in self.terms)

    def initial_form(self):
        nu = self.order()
        return Polynomial(
            self.ring, {e: c for e, c in self.terms.items() if mon_deg(e) == nu}
        )

    def is_homogeneous(self):
        degs = {mon_deg(e) for e in self.terms}
        return len(degs) <= 1

    def __str__(self):
        if not self.terms:
            return "0"
        # display order: degree then lexicographic-ish, stable
        keys = sorted(self.terms, key=lambda e: (mon_deg(e), tuple(-x for x in e)))
        parts = []
        for e in keys:
            c = self.terms[e]
            factors = []
            for name, k in zip(self.ring.names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            body = "*".join(factors)
            # small signed representative for readability
            half = self.ring.p // 2
            cs = c - self.ring.p if c > half else c
            if not body:
                parts.append(f"{cs}")
            elif cs == 1:
                parts.append(body)
            elif cs == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{cs}*{body}")
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out

    __repr__ = __str__


# ------------------------------------------------------------------ vectors


class Vector:
    """An element of a free module; ``terms`` maps (comp, exps) to ints."""

    __slots__ = ("ring", "rank", "terms")

    def __init__(self, ring, rank, terms):
        self.ring = ring
        self.rank = rank
        self.terms = terms

    @classmethod
    def from_polys(cls, entries):
        """Column vector from a list of polynomials (one per component)."""
        ring = entries[0].ring
        terms = {}
        for comp, f in enumerate(entries):
            for e, c in f.terms.items():
                terms[(comp, e)] = c
        return cls(ring, len(entries), terms)

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Vector)
            and other.ring == self.ring
            and other.rank == self.rank
            and other.terms == self.terms
        )

    def component(self, comp):
        return Polynomial(
            self.ring, {e: c for (k, e), c in self.terms.items() if k == comp}
        )

    def components(self):
        """{comp: Polynomial} of the nonzero components, in ascending order.

        One pass over the terms; within a component the terms keep their
        order in ``terms``, as in ``component``.
        """
        groups = {}
        for (k, e), c in self.terms.items():
            groups.setdefault(k, {})[e] = c
        return {k: Polynomial(self.ring, groups[k]) for k in sorted(groups)}

    def entries(self):
        comps = self.components()
        return [comps.get(i) or Polynomial(self.ring, {}) for i in range(self.rank)]

    def __add__(self, other):
        p = self.ring.p
        out = dict(self.terms)
        for t, c in other.terms.items():
            v = (out.get(t, 0) + c) % p
            if v:
                out[t] = v
            else:
                out.pop(t, None)
        return Vector(self.ring, self.rank, out)

    def __neg__(self):
        p = self.ring.p
        return Vector(self.ring, self.rank, {t: p - c for t, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(other.__neg__())

    def __rmul__(self, other):
        """Polynomial times vector."""
        p = self.ring.p
        out = {}
        for e1, c1 in other.terms.items():
            for (k, e2), c2 in self.terms.items():
                t = (k, mon_mul(e1, e2))
                v = (out.get(t, 0) + c1 * c2) % p
                if v:
                    out[t] = v
                else:
                    out.pop(t, None)
        return Vector(self.ring, self.rank, out)

    def order(self):
        """Minimal total degree over the support (zero twists)."""
        if not self.terms:
            raise ValueError("order undefined for zero")
        return min(mon_deg(e) for (_, e) in self.terms)

    def initial_form(self):
        nu = self.order()
        return Vector(
            self.ring,
            self.rank,
            {t: c for t, c in self.terms.items() if mon_deg(t[1]) == nu},
        )

    def degree_in(self, layout: FreeLayout):
        """Homogeneous degree with respect to layout twists; raises if mixed."""
        degs = {layout.degree_of(c, e) for (c, e) in self.terms}
        if len(degs) > 1:
            raise ValueError("vector is not homogeneous for this layout")
        return degs.pop() if degs else None

    def is_homogeneous(self, layout: FreeLayout):
        return len({layout.degree_of(c, e) for (c, e) in self.terms}) <= 1

    def __str__(self):
        return "[" + ", ".join(str(f) for f in self.entries()) + "]"

    __repr__ = __str__


def ideal_columns(ideal, rank):
    """The columns g*e_c that generate I*F in a free module F of the given
    rank, g outer and c inner, for the polynomials g of ``ideal``."""
    return [Vector(g.ring, rank, {(c, e): a for e, a in g.terms.items()})
            for g in ideal for c in range(rank)]

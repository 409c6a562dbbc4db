"""Reference checks kept beside the tests: exact re-verifications of engine
and oracle output that no computation in the package needs.

- ``verify_certificate``: every s-vector of a standard basis reduces to zero;
- ``check_annihilates``: the target matrix times each syzygy column is zero;
- ``variable_maps``: the truncated multiplication maps of a quotient model;
- ``dense_rref_modp``: dense GF(p) row reduction, the reference for the
  oracle's sparse ``rref_modp``;
- ``dense``: an oracle echelon form written out as its matrix.
"""

import numpy as np

from aggraded.engine import (EngineError, StandardBasis, _sub_scaled, _weak_nf)
from aggraded.poly import Vector, mon_deg, mon_div, mon_lcm


def verify_certificate(sb: StandardBasis):
    """Re-reduce every s-vector of ``sb`` to zero; returns True or raises."""
    p = sb.ring.p
    reds = sb._reds
    for i, a in enumerate(reds):
        for j in range(i):
            b = reds[j]
            if a.lt[0] != b.lt[0]:
                continue
            L = mon_lcm(a.lt[1], b.lt[1])
            h = {}
            _sub_scaled(h, a.terms, mon_div(L, a.lt[1]), p - 1, p)
            _sub_scaled(h, b.terms, mon_div(L, b.lt[1]), 1, p)
            if not h:
                continue
            h = _weak_nf(h, sb._index, sb._key, sb._wdeg, p,
                         mora=sb.order.is_local, tail=False)
            if h:
                raise EngineError(f"certificate violated by pair ({j}, {i})")
    return True


def check_annihilates(syz, modulus=None):
    """Exact symbolic check: the target matrix of ``syz`` times each column is
    zero (modulo the defining ideal, when a certified ``modulus`` is given)."""
    tgt = syz.target
    for col in syz.columns:
        acc = None
        for j, f in col.components().items():
            w = f * tgt[j]
            acc = w if acc is None else acc + w
        if acc is None or acc.is_zero():
            continue
        if not isinstance(modulus, StandardBasis):
            return False
        # the modulus is a basis of the ideal: reduce each component
        if not all(modulus.contains(Vector.from_polys([f])) for f in acc.components().values()):
            return False
    return True


def _coords_of(model, index, vec: Vector):
    """Coordinates of the class of ``vec`` on the standard-monomial basis,
    ``index`` taking a basis element to its position."""
    free = model.free
    red = model.space.reduce(free.row_of(vec))
    out = np.zeros(len(model.basis), dtype=np.int64)
    for i, v in red.items():
        out[index[free.coords[i]]] = v
    return out


def variable_maps(model):
    """One truncated multiplication map per variable, on the basis of a
    ``TruncatedModel``."""
    cover = model.free.ring.cover
    index = {ce: i for i, ce in enumerate(model.basis)}
    maps = []
    for v in range(cover.nvars):
        M = np.zeros((len(model.basis), len(model.basis)), dtype=np.int64)
        for j, (c, e) in enumerate(model.basis):
            ee = list(e)
            ee[v] += 1
            ee = tuple(ee)
            if mon_deg(ee) >= model.t:
                continue
            M[:, j] = _coords_of(model, index, Vector(cover, model.free.rank, {(c, ee): 1}))
        maps.append(M)
    return maps


def dense(space):
    """The oracle echelon form ``space`` (a ``Subspace``) as its int64
    matrix, one row per pivot, in pivot order."""
    A = np.zeros(space.shape, dtype=np.int64)
    for i, c in enumerate(space.pivots):
        for j, v in space.rows[c].items():
            A[i, j] = v
    return A


def dense_rref_modp(rows, p):
    """Reduced row echelon form over GF(p) by a dense int64 loop, one pivot
    column at a time; returns (matrix, pivot columns).  Products of residues
    stay below 2^62 for p < 2^31."""
    A = np.asarray(rows, dtype=np.int64) % p
    if A.ndim == 1:
        A = A.reshape(1, -1)
    m, n = A.shape
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, p) % p
        f = A[:, c].copy()
        f[r] = 0
        mask = f != 0
        if mask.any():
            A[mask] = (A[mask] - np.outer(f[mask], A[r])) % p
        pivots.append(c)
        r += 1
    return A[:r], pivots

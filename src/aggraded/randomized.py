"""Randomized small presentations for engine-vs-oracle agreement runs.

Cases are tiny on purpose (<= 3 variables, <= 3 generator columns, term
degrees <= 3) so the truncation windows stay cheap.  Every case checks:

* generator column orders against the oracle's element orders,
* the equigeneration verdict along both theorem routes (inside
  ``equigenerated_at``, which also reconciles generator counts), and
* the Hilbert function of the associated graded module against the
  oracle's layer dimensions.

Any disagreement raises ``BridgeError``; a window violation skips the case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import oracle
from .graded import hilbert_series
from .modules import BridgeError, LocalModule, assoc_graded_module, equigenerated_at
from .poly import FreeLayout, PolyRing, Vector
from .rings import LocalRing

DEFAULT_SEED = 20260810


def ring_pool(p=32003):
    P2 = PolyRing(["x", "y"], p)
    P3 = PolyRing(["X", "Y", "Z"], p)
    return [
        (LocalRing(P2, []), 9),
        (LocalRing(P2, [P2.from_string("x*y")]), 9),
        (LocalRing(P2, [P2.from_string("x^2 - y^3")]), 9),
        (LocalRing(PolyRing(["u", "v", "w"], p), []), 9),
        (
            LocalRing(
                P3,
                [
                    P3.from_string("X*Z - Y^3"),
                    P3.from_string("Y*Z - X^4"),
                    P3.from_string("Z^2 - X^3*Y^2"),
                ],
            ),
            10,
        ),
    ]


def _random_entry(rng, ring, max_deg=3):
    cover = ring.cover
    terms = {}
    for _ in range(rng.randint(0, 2)):
        deg = rng.randint(1, max_deg)
        exps = [0] * cover.nvars
        for _ in range(deg):
            exps[rng.randrange(cover.nvars)] += 1
        c = rng.randint(1, 5) * rng.choice((1, -1))
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + c
    return cover.poly(terms)


def random_module(rng, ring, max_rank=2, max_gens=3):
    rank = rng.randint(1, max_rank)
    cols = []
    for _ in range(rng.randint(1, max_gens)):
        entries = [_random_entry(rng, ring) for _ in range(rank)]
        cols.append(Vector.from_polys(entries))
    return LocalModule(ring, FreeLayout(rank), cols)


@dataclass
class AgreementStats:
    checked: int = 0
    skipped_window: int = 0
    skipped_trivial: int = 0


def run_agreement_case(mod: LocalModule, truncation: int):
    """All cross-checks for one module; raises on any disagreement."""
    # one stability pair serves every oracle query of the case
    model = oracle.stability_pair(mod.ring, mod.layout.rank, truncation)
    for col in mod.gens:
        if col.order() != oracle.element_order(model, col):
            raise BridgeError("generator column order differs from the oracle's element order")
    rep = equigenerated_at(mod, model)
    gm = assoc_graded_module(mod)
    upto = truncation - 1
    if hilbert_series(gm).series(upto) != model.dims_by_degree(model.submodule(mod.gens))[:upto + 1]:
        raise BridgeError("Hilbert function of G(M) differs from the oracle's layer dimensions")
    if rep.verdict:
        # equigenerated: N | m^i F = m^{i-s} N throughout the window
        s = rep.order
        maxdeg = max(sum(e) for g in mod.gens for (_, e) in g.terms)
        layers = range(s, min(s + 3, truncation - maxdeg - oracle.WINDOW_SLACK) + 1)
        # deepest power first: each shallower one extends it
        powers = {i: model.submodule(mod.gens, min_mult_deg=i - s) for i in reversed(layers)}
        for i in layers:
            if oracle.filtration_intersection(model, mod.gens, i) != powers[i]:
                raise BridgeError(f"filtration equality fails at layer {i}")
    return rep


def run_agreement_suite(n_cases=100, seed=DEFAULT_SEED, p=32003, progress=None):
    """Run at least ``n_cases`` successful agreement checks; returns stats."""
    rng = random.Random(seed)
    pool = ring_pool(p)
    stats = AgreementStats()
    attempts = 0
    while stats.checked < n_cases:
        attempts += 1
        if attempts > 40 * n_cases:
            raise RuntimeError("case generation is not converging")
        ring, truncation = pool[rng.randrange(len(pool))]
        try:
            mod = random_module(rng, ring)
        except ValueError:
            stats.skipped_trivial += 1
            continue
        if mod.is_free:
            stats.skipped_trivial += 1
            continue
        try:
            run_agreement_case(mod, truncation)
        except oracle.OracleWindowError:
            stats.skipped_window += 1
            continue
        except oracle.ModelSizeError:
            stats.skipped_window += 1
            continue
        stats.checked += 1
        if progress and stats.checked % progress == 0:
            print(f"  {stats.checked}/{n_cases} cases agreed")
    return stats

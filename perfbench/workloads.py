"""Workload inputs, timed items and golden checks of the aggraded benchmark.

An item is one call into the public API: a session (``execute`` then
``render_report``) or one agreement case (``run_agreement_case``).  Its
outcome is a string compared with the golden recorded in ``goldens.json``:
the sha256 of the report text, or the ``EquigenReport`` fields / skip class
of an agreement case.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib
import random
import sys
from typing import Callable, NamedTuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"

WORKLOADS = ("sessions", "deep_resolution", "agreement")
SESSION_NAMES = ("semigroup", "squares", "fibre")
DEEP_SESSION, DEEP_MAX_HOMDEG = "semigroup", 8
AGREEMENT_CASES = 40
HELD_OUT_CASES_SEED = 2
CHARACTERISTIC = 32003


class Item(NamedTuple):
    name: str
    call: Callable[[], object]          # the timed call into the public API
    outcome: Callable[[object], str]    # untimed: result -> golden string


def import_package():
    """Import aggraded from this checkout's ``src`` and nowhere else."""
    if not (SRC / "aggraded" / "__init__.py").is_file():
        raise FileNotFoundError(f"no aggraded sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import aggraded
    if SRC not in pathlib.Path(aggraded.__file__).resolve().parents:
        raise ImportError(f"aggraded imported from {aggraded.__file__}, not {SRC}")
    return aggraded


def default_cases_seed():
    from aggraded.randomized import DEFAULT_SEED
    return DEFAULT_SEED


def _report_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# The calls look the API functions up on their module when they run, so a
# traced pass goes through the wrappers installed after the inputs were built.

def _run_session(ses, **overrides):
    from aggraded import session
    return session.render_report(session.execute(ses, **overrides)[0])


def _parse(name):
    from aggraded.session import parse_session
    return parse_session((ROOT / "sessions" / f"{name}.session").read_text())


def _session_items():
    return [Item(name, functools.partial(_run_session, _parse(name)), _report_digest)
            for name in SESSION_NAMES]


def _deep_items():
    call = functools.partial(_run_session, _parse(DEEP_SESSION), max_homdeg=DEEP_MAX_HOMDEG)
    return [Item(f"{DEEP_SESSION}@max_homdeg={DEEP_MAX_HOMDEG}", call, _report_digest)]


def agreement_modules(cases_seed, n_cases=AGREEMENT_CASES):
    """The first ``n_cases`` nontrivial modules that
    ``randomized.run_agreement_suite`` draws for ``cases_seed``."""
    from aggraded import randomized
    rng = random.Random(cases_seed)
    pool = randomized.ring_pool(CHARACTERISTIC)
    cases = []
    while len(cases) < n_cases:
        ring, truncation = pool[rng.randrange(len(pool))]
        try:
            mod = randomized.random_module(rng, ring)
        except ValueError:
            continue
        if not mod.is_free:
            cases.append((mod, truncation))
    return cases


def _agreement_outcome(result):
    if isinstance(result, Exception):
        return f"skip:{type(result).__name__}"
    return json.dumps(dataclasses.asdict(result), sort_keys=True, separators=(",", ":"))


def _run_case(mod, truncation):
    from aggraded import oracle, randomized
    try:
        return randomized.run_agreement_case(mod, truncation)
    except (oracle.OracleWindowError, oracle.ModelSizeError) as exc:
        return exc      # an expected skip; its class is part of the golden


def _agreement_items(cases_seed):
    return [Item(f"seed{cases_seed}/case{i:02d}", functools.partial(_run_case, mod, t),
                 _agreement_outcome)
            for i, (mod, t) in enumerate(agreement_modules(cases_seed))]


def build_items(workload, cases_seed):
    """Fresh inputs for one pass: new objects, so no cache of the package
    survives from an earlier pass."""
    if workload == "sessions":
        return _session_items()
    if workload == "deep_resolution":
        return _deep_items()
    if workload == "agreement":
        return _agreement_items(cases_seed)
    raise ValueError(f"unknown workload {workload!r}")


def load_goldens(path=GOLDENS):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_item(item, golden, clock):
    """Time one item; returns (seconds, outcome, failure reason or None).

    An unexpected exception or an outcome other than the golden is a
    failure; the item stays in the sample either way.
    """
    t0 = clock()
    try:
        result = item.call()
    except Exception as exc:          # any other exception is a failed item
        dt = clock() - t0
        return dt, f"error:{type(exc).__name__}", f"{type(exc).__name__}: {exc}"
    dt = clock() - t0
    outcome = item.outcome(result)
    if outcome != golden:
        return dt, outcome, "differs from golden"
    return dt, outcome, None

"""Spans and counters around the public functions of each aggraded layer.

The traced run installs them from outside the package: every binding of a
listed function (the defining module, each module that copied it with
``from .x import f``, and the package namespace) is replaced by a wrapper,
and methods are replaced on their defining class.  A span costs two
``perf_counter_ns`` reads, a list push/pop and a few integer additions, so
the 2.5 M ``rings.nf`` calls of a ``deep_resolution`` pass stay affordable.
Everything is kept in memory; ``Tracer.metrics`` summarises it at the end.

``field``, ``orders`` and ``poly`` are leaf data types without a boundary
worth a span; their time shows in the self time of the span that calls them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
import time

# layer (module of aggraded) -> functions the traced run wraps, by qualified
# name inside that module.  A span is named "<layer>.<function>".
LAYERS = {
    "engine": ("standard_basis", "syzygies", "normal_form"),
    "rings": ("_QuotientOps.nf", "_QuotientOps.nf_vector", "LocalRing.tangent_cone"),
    "complexes": ("resolve_bounded", "min_gens_with_syz", "minimalize"),
    "modules": ("local_minimal_resolution", "equigenerated_check", "submodule_initial",
                "assoc_graded_module"),
    "graded": ("minimal_graded_resolution", "hilbert_series", "numeric_invariants"),
    "purity": ("purity_verdict", "initial_complex", "verify_initial_complex",
               "koszul_fibre_check"),
    "herzog_kuhl": ("cmd_equivalence_report", "ring_local_invariants"),
    "oracle": ("rref_modp", "build_model", "filtration_intersection", "submodule_layer_data"),
    "session": ("execute", "render_report"),
}

SPAN_NAMES = tuple(f"{layer}.{qual.rsplit('.', 1)[-1]}"
                   for layer, quals in LAYERS.items() for qual in quals)

# hit-ratio metric -> the cached function whose misses open a resolve_bounded span
_RESOLUTION_CACHES = {
    "modules.resolution_hit_ratio": "modules.local_minimal_resolution",
    "graded.resolution_hit_ratio": "graded.minimal_graded_resolution",
}


def _count_basis(counts, args, result):
    counts["engine.basis_elems"] += len(result.gens)


def _count_syzygies(counts, args, result):
    counts["engine.syzygies.in_cols"] += len(result.target)
    counts["engine.syzygies.out_cols"] += len(result.columns)


def _count_nf(counts, args, result):
    if not args[1].terms:
        counts["rings.nf.zero_in"] += 1


def _count_min_gens(counts, args, result):
    counts["complexes.cand_in"] += len(args[0])
    counts["complexes.kept"] += len(result[0])


def _count_rref(counts, args, result):
    rows, reduced = args[0], result[0]
    m = 1 if getattr(rows, "ndim", 2) == 1 else len(rows)
    rank, n = reduced.shape
    counts["oracle.rref_modp.cells"] += m * n
    counts["oracle.rref_modp.ops"] += rank * m * n


# span -> counter hook called with (counts, args, result) after each return
_HOOKS = {
    "engine.standard_basis": _count_basis,
    "engine.syzygies": _count_syzygies,
    "rings.nf": _count_nf,
    "complexes.min_gens_with_syz": _count_min_gens,
    "oracle.rref_modp": _count_rref,
}

COUNTERS = ("engine.basis_elems", "engine.syzygies.in_cols", "engine.syzygies.out_cols",
            "rings.nf.zero_in", "complexes.cand_in", "complexes.kept",
            "oracle.rref_modp.cells", "oracle.rref_modp.ops")


class Tracer:
    """Span statistics of one traced pass, held in memory.

    Span id 0 is the root (the benchmark itself).  ``edges[a][b]`` counts
    the spans b opened directly inside a span a; ``self_ns[b]`` sums b's
    duration minus the part its child spans cover.
    """

    def __init__(self):
        self.names = ("root",) + SPAN_NAMES
        self.ids = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.edges = [[0] * n for _ in range(n)]
        self.self_ns = [0] * n
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.stack = [[0, 0]]          # frames: [child ns, span id]

    def wrap(self, fn, name):
        """Return ``fn`` wrapped in the span ``name``."""
        sid = self.ids[name]
        hook = _HOOKS.get(name)
        stack, edges, self_ns, counts = self.stack, self.edges, self.self_ns, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            edges[parent[1]][sid] += 1
            frame = [0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[0] += dur
                self_ns[sid] += dur - frame[0]
            if hook is not None:
                hook(counts, args, result)
            return result

        return span

    def calls(self, name):
        sid = self.ids[name]
        return sum(row[sid] for row in self.edges)

    def spanned_ns(self):
        """Total duration of the outermost spans (= sum of all self times)."""
        return self.stack[0][0]

    def metrics(self):
        """Per-layer metrics: calls and self seconds per span, layer self
        seconds, and the counts and ratios measured at the span boundaries."""
        if len(self.stack) != 1:
            raise RuntimeError(f"{len(self.stack) - 1} spans left open")
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls(name)
            out[f"{name}.self_s"] = self.self_ns[self.ids[name]] / 1e9
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(out[f"{name}.self_s"] for name in SPAN_NAMES
                                         if name.startswith(layer + "."))
        c = self.counts
        for key in ("engine.basis_elems", "engine.syzygies.in_cols", "engine.syzygies.out_cols"):
            out[key] = c[key]
        out["rings.nf.zero_in_ratio"] = _ratio(c["rings.nf.zero_in"], out["rings.nf.calls"])
        out["complexes.kept_ratio"] = _ratio(c["complexes.kept"], c["complexes.cand_in"])
        resolve = self.ids["complexes.resolve_bounded"]
        for metric, name in _RESOLUTION_CACHES.items():
            calls = out[f"{name}.calls"]
            misses = self.edges[self.ids[name]][resolve]
            out[metric] = _ratio(calls - misses, calls)
        for key in ("oracle.rref_modp.cells", "oracle.rref_modp.ops"):
            out[key] = c[key]
        return out


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _package_modules():
    import aggraded
    mods = [aggraded]
    for info in pkgutil.iter_modules(aggraded.__path__, "aggraded."):
        mods.append(importlib.import_module(info.name))
    return mods


def _bindings(mods):
    """(namespace object, attribute, value) for every module and class
    attribute of the package: the places a function object can be bound."""
    for mod in mods:
        for key, value in list(vars(mod).items()):
            yield mod, key, value
            if isinstance(value, type) and value.__module__.startswith("aggraded"):
                for ckey, cvalue in list(vars(value).items()):
                    yield value, ckey, cvalue


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every binding of every listed function for the ``with`` body."""
    mods = _package_modules()
    wrappers = {}                      # id(original) -> (original, wrapper)
    for layer, quals in LAYERS.items():
        mod = importlib.import_module(f"aggraded.{layer}")
        for qual in quals:
            *owners, attr = qual.split(".")
            owner = mod
            for part in owners:
                owner = getattr(owner, part)
            original = vars(owner)[attr]    # KeyError: not defined there
            wrappers[id(original)] = (original, tracer.wrap(original, f"{layer}.{attr}"))
    undo = []
    try:
        for space, key, value in _bindings(mods):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(space, key, hit[1])
                undo.append((space, key, value))
        left = [f"{getattr(space, '__name__', space)}.{key}"
                for space, key, value in _bindings(mods)
                if id(value) in wrappers and wrappers[id(value)][0] is value]
        if left:
            raise RuntimeError("unwrapped bindings after installation: " + ", ".join(left))
        yield tracer
    finally:
        for space, key, value in reversed(undo):
            setattr(space, key, value)

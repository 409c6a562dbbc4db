"""The memo contract of ``rings.cached``: derived data of a ring or module is
computed once per object, kept in that object's ``cache`` and never shared
between objects."""

import importlib
import pkgutil

import pytest

import aggraded
from aggraded.complexes import resolve_cached
from aggraded.graded import (GradedModule, cover_betti_table, hilbert_series,
                             minimal_graded_resolution, ring_as_module)
from aggraded.herzog_kuhl import ring_local_invariants, ring_pdim_over_cover
from aggraded.modules import LocalModule, assoc_graded_module, submodule_initial
from aggraded.poly import FreeLayout
from aggraded.rings import LocalRing

# every cached function, reached from a local ring R and the module M = R/<X>
CACHED = {
    "ideal_sb": lambda R, M: R.ideal_sb,
    "tangent_cone": lambda R, M: R.tangent_cone(),
    "graded_cover": lambda R, M: R.graded_cover,
    "polynomial_cover": lambda R, M: R.graded_cover.polynomial_cover,
    "ring_as_module": lambda R, M: ring_as_module(R.graded_cover),
    "cover_betti_table": lambda R, M: cover_betti_table(assoc_graded_module(M)),
    "hilbert_series": lambda R, M: hilbert_series(assoc_graded_module(M)),
    "submodule_initial": lambda R, M: submodule_initial(M),
    "assoc_graded_module": lambda R, M: assoc_graded_module(M),
    "ring_pdim_over_cover": lambda R, M: ring_pdim_over_cover(R),
    "ring_local_invariants": lambda R, M: ring_local_invariants(R),
}

WORK = ("standard_basis", "syzygies", "resolve_bounded")


def _fresh(semigroup_ring):
    """The semigroup ring and R/<X> again, with nothing cached."""
    ring = LocalRing(semigroup_ring.cover, semigroup_ring.ideal)
    return ring, LocalModule(ring, FreeLayout(1), [ring.cover.from_string("X")])


def _count_work(monkeypatch):
    """A list that grows by the name of each ``standard_basis``, ``syzygies``
    and ``resolve_bounded`` call from now on, through any binding in the
    package."""
    calls = []
    mods = [aggraded] + [importlib.import_module(info.name)
                         for info in pkgutil.iter_modules(aggraded.__path__, "aggraded.")]
    for mod in mods:
        for name in WORK:
            real = vars(mod).get(name)
            if real is not None:
                def counted(*args, _real=real, _name=name, **kwargs):
                    calls.append(_name)
                    return _real(*args, **kwargs)

                monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(CACHED))
def test_a_second_call_returns_the_kept_object_and_does_no_work(name, semigroup_ring, monkeypatch):
    get = CACHED[name]
    calls = _count_work(monkeypatch)
    ring, mod = _fresh(semigroup_ring)   # the module's constructor asks ideal_sb
    first = get(ring, mod)
    assert calls
    calls[:] = []
    assert get(ring, mod) is first
    assert not calls


def test_two_modules_over_one_ring_do_not_share_entries(semigroup_ring, monkeypatch):
    ring, mod = _fresh(semigroup_ring)
    twin = LocalModule(ring, FreeLayout(1), [ring.cover.from_string("X")])
    assert mod.cache is not twin.cache
    data = submodule_initial(mod)
    calls = _count_work(monkeypatch)
    twin_data = submodule_initial(twin)
    assert "standard_basis" in calls and twin_data is not data
    assert twin_data.generators == data.generators
    assert assoc_graded_module(twin) is twin_data.module is not data.module
    assoc_graded_module(mod)
    assert mod.cache.keys() == twin.cache.keys()
    assert all(twin.cache[key] is not value for key, value in mod.cache.items())


def test_the_free_associated_graded_module_keeps_its_resolution(semigroup_ring, monkeypatch):
    ring, _ = _fresh(semigroup_ring)
    free = LocalModule(ring, FreeLayout(2), [])
    gm = assoc_graded_module(free)
    assert isinstance(gm, GradedModule) and not gm.gens
    table = minimal_graded_resolution(gm, 2)
    calls = _count_work(monkeypatch)
    assert assoc_graded_module(free) is gm
    assert minimal_graded_resolution(gm, 3).entries == table.entries == {(0, 0): 2}
    assert resolve_cached(gm, 5).finite
    assert not calls

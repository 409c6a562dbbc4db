"""The constructors of the ring and module presentations of both flavors:
what each one rejects, with which exception class and message, and in which
order its checks run on one generator."""

import pytest

from aggraded.graded import GradedModule
from aggraded.modules import LocalModule, SubmoduleNotInMaximalIdeal
from aggraded.poly import FreeLayout, PolyRing, Vector
from aggraded.rings import GradedRing, LocalRing, UnitIdealError

P2 = PolyRing(["x", "y"], 32003)


def polys(*texts):
    return [P2.from_string(t) for t in texts]


REJECTIONS = {
    "local ring, unit generator": (
        lambda: LocalRing(P2, polys("x^2", "1 + x")),
        UnitIdealError, "defining ideal contains a unit"),
    # homogeneity is checked before units, one generator at a time
    "graded ring, unit first": (
        lambda: GradedRing(P2, polys("1", "x + x^2")),
        UnitIdealError, "defining ideal contains a unit"),
    "graded ring, inhomogeneous first": (
        lambda: GradedRing(P2, polys("x + x^2", "1")),
        ValueError, "graded ring needs homogeneous relations"),
    "local module, twisted layout": (
        lambda: LocalModule(LocalRing(P2, []), FreeLayout(1, (1,)), []),
        ValueError, "local layouts carry zero twists"),
    "local module, unit entry": (
        lambda: LocalModule(LocalRing(P2, []), FreeLayout(1), polys("x", "1 + x")),
        SubmoduleNotInMaximalIdeal, "N ⊆ mF required"),
    "graded module, inhomogeneous unit": (
        lambda: GradedModule(GradedRing(P2, []), FreeLayout(1), polys("1 + x")),
        ValueError, "relations must be homogeneous for the layout"),
    "graded module, unit": (
        lambda: GradedModule(GradedRing(P2, []), FreeLayout(1), polys("1")),
        ValueError, "minimal presentation needs relations inside the irrelevant ideal"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_constructor_rejects_with_its_class_and_message(case):
    build, cls, message = REJECTIONS[case]
    with pytest.raises(ValueError) as err:
        build()
    assert (type(err.value), str(err.value)) == (cls, message)


@pytest.mark.parametrize("flavor", [(LocalRing, LocalModule), (GradedRing, GradedModule)],
                         ids=["local", "graded"])
def test_module_rejects_a_column_of_the_wrong_rank(flavor):
    ring_cls, module_cls = flavor
    ring = ring_cls(P2, [])
    with pytest.raises(ValueError) as err:
        module_cls(ring, FreeLayout(2), [Vector.from_polys(polys("x"))])
    assert (type(err.value), str(err.value)) == (ValueError, "generator rank mismatch")

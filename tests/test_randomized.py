import pytest

from aggraded import oracle
from aggraded.modules import BridgeError, LocalModule
from aggraded.poly import FreeLayout
from aggraded.randomized import ring_pool, run_agreement_case


def test_order_disagreement_with_the_oracle_raises_bridge_error(monkeypatch):
    ring, truncation = ring_pool()[0]
    mod = LocalModule(ring, FreeLayout(1), [ring.cover.from_string("x^2 + y^3")])
    monkeypatch.setattr(oracle, "element_order", lambda model, col: 99)
    with pytest.raises(BridgeError, match="order"):
        run_agreement_case(mod, truncation)

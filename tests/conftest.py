import pytest

from epibvp import oracle


@pytest.fixture
def oracle_setting(monkeypatch):
    """Sets the oracle's least handoff radius r0 and its Taylor order for
    the rest of the test; each argument left out goes back to the module's
    own value."""
    def apply(r0=oracle._R0, order=oracle._TAYLOR_ORDER):
        monkeypatch.setattr(oracle, "_R0", r0)
        monkeypatch.setattr(oracle, "_TAYLOR_ORDER", order)

    return apply

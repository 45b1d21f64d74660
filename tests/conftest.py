"""Shared pytest configuration."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from effectgraph.core import _Store

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def replays(monkeypatch) -> list[tuple]:
    """The deltas a graph store replays from here on, one per
    ``_Store.apply`` call, in order."""
    calls: list[tuple] = []
    apply = _Store.apply

    def recording(store: _Store, *delta) -> None:
        calls.append(delta)
        apply(store, *delta)

    monkeypatch.setattr(_Store, "apply", recording)
    return calls

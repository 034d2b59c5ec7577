"""Shared fixtures."""

import pytest

from prosynth import autodiff as ad


@pytest.fixture
def made_nodes(monkeypatch):
    """A list that records every node the engine makes during the test."""
    made = []
    real = ad.fused

    def recording(data, inputs, backward):
        out = real(data, inputs, backward)
        made.append(out)
        return out

    monkeypatch.setattr(ad, "fused", recording)
    return made

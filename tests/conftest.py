"""Shared fixtures."""

import pytest

from prosynth import autodiff as ad


@pytest.fixture
def made_nodes(monkeypatch):
    """A list that records every node the engine makes during the test."""
    made = []
    real = ad._result

    def recording(data, parents, backward):
        out = real(data, parents, backward)
        made.append(out)
        return out

    monkeypatch.setattr(ad, "_result", recording)
    return made

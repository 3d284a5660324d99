import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def abs_gaussian():
    def make(n, d=3, seed=0):
        return np.abs(np.random.default_rng(seed).standard_normal((n, d)))

    return make


@pytest.fixture
def scalar_calls(monkeypatch):
    """The coalitions passed to CoalitionGame.value from here on: none while a
    game's coalition hooks serve every query."""
    from aspanel.baselines import CoalitionGame

    calls = []
    scalar = CoalitionGame.value
    monkeypatch.setattr(CoalitionGame, "value", lambda game, c: calls.append(c) or scalar(game, c))
    return calls

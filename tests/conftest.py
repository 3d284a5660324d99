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


@pytest.fixture
def study_config(tmp_path):
    """Write a study config whose ``panel =`` names a saved synthetic panel,
    the one ``aspanel synth --n-agents N --law LAW --seed SEED`` writes;
    returns the config path."""
    from aspanel.panel import SyntheticPanelSpec, generate_synthetic

    def write(body, n_agents, law="pareto_reach", seed=0, name="study.cfg"):
        pfile = tmp_path / f"synth-{n_agents}-{law}-{seed}.asp"
        generate_synthetic(SyntheticPanelSpec(n_agents, feature_law=law, seed=seed)).save(pfile)
        cfg = tmp_path / name
        cfg.write_text(f"panel = {pfile}\n{body}")
        return cfg

    return write

"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

# Keep hypothesis fast and deterministic in CI-style runs.
settings.register_profile("repro", max_examples=50, deadline=None)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    """Point the run ledger at a per-test path.

    CLI tests call ``main()`` in-process; without this they would write
    real rows into the developer's ``~/.tangled/ledger.db``.
    """
    monkeypatch.setenv("TANGLED_LEDGER", str(tmp_path / "ledger.db"))


def assemble_and_run(source: str, ways: int = 8, simulator: str = "functional"):
    """Assemble source (auto-appending a halting sys) and run it."""
    from repro.asm import assemble
    from repro.cpu import new_simulator

    if "sys" not in source:
        source = source + "\n\tlex\t$rv,0\n\tsys\n"
    program = assemble(source)
    sim = new_simulator(simulator, ways, "dense")
    sim.load(program)
    sim.run()
    return sim

"""The benchmark's tracer reaches into the package by name; keep those names.

``bench/spans.py`` replaces module attributes listed in ``PATCHES`` and
replays single-step public functions on a unit's trajectories.  A
renamed or trimmed API would otherwise only show up as a failed traced
benchmark run.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import rbmsens
from rbmsens import SimConfig, simulate_joint

from conftest import hr2d_model

BENCH = Path(__file__).resolve().parents[1] / "bench"

REPLAYED = ("sp_step", "OperatorCache", "DerivativeState", "derivative_step",
            "psi_increment", "brownian_increments", "RngContract")


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))


def test_patched_names_resolve(spans):
    missing = [f"{module}.{attr}" for module, attr, _, _ in spans.PATCHES
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_replayed_names_resolve():
    assert [name for name in REPLAYED if not hasattr(rbmsens, name)] == []


def test_replays_run_on_a_joint_trajectory(spans):
    model = hr2d_model()
    cfg = SimConfig(dt=0.01, horizon=1.0, seed=3)
    kept = [("sim.simulate_joint", (model, cfg), simulate_joint(model, cfg))]
    metrics = spans.replay_metrics(kept, replay_steps=20)
    assert metrics["skorokhod.picard_iters_max"] >= 1
    assert metrics["derivative.derivative_step.us"] > 0.0

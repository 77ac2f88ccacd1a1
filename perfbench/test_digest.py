"""Self-test of the output check: a perturbed output must fail it.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_digest.py
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from digest import count_mismatches, simulation_digest  # noqa: E402


def _short_run():
    """A leaky-DMA run long enough for the IAT daemon to log intervals."""
    from repro.experiments.common import leaky_dma_scenario

    scenario = leaky_dma_scenario(packet_size=1500, seed=0)
    scenario.attach_controller("iat")
    scenario.sim.run(2.0)
    return scenario.sim


@pytest.fixture(scope="module")
def sim():
    return _short_run()


@pytest.fixture(scope="module")
def reference(sim):
    return simulation_digest(sim)


def test_identical_runs_pass(sim, reference):
    again = simulation_digest(_short_run())
    assert again == reference
    assert count_mismatches([again], [reference]) == 0


def test_perturbed_counter_fails(sim, reference):
    record = sim.metrics.records[-1]
    record.ddio_hits += 1
    try:
        assert count_mismatches([simulation_digest(sim)], [reference]) == 1
    finally:
        record.ddio_hits -= 1
    assert simulation_digest(sim) == reference


def test_one_ulp_ipc_change_fails(sim, reference):
    snap = next(iter(sim.metrics.records[3].tenants.values()))
    original = snap.ipc
    snap.ipc = float(np.nextafter(original, np.inf))
    try:
        assert simulation_digest(sim) != reference
    finally:
        snap.ipc = original


def test_perturbed_controller_history_fails(sim, reference):
    history = sim.controllers[0].history
    assert history, "the daemon logged no interval"
    entry = history[-1]
    original = entry.ddio_ways
    entry.ddio_ways = original + 1
    try:
        assert simulation_digest(sim) != reference
    finally:
        entry.ddio_ways = original


def test_missing_or_extra_simulation_fails(reference):
    assert count_mismatches([reference], [reference, reference]) == 1
    assert count_mismatches([reference, reference], [reference]) == 1

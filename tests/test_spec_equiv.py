"""SPEC tenant loop: the batched fast path against the per-line oracle.

``SpecWorkload.run_core`` runs per line under scalar exec (the oracle)
and in budget-guarded batches under vector exec.  These tests pin that
the two are the same simulation on the Fig. 12 KVS co-run for one
profile of each access pattern, and that the vector loop leaves the
per-line ``CorePort.access`` path only to its budget tail.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cache.geometry import TINY_LLC
from repro.experiments.common import kvs_scenario
from repro.sim.config import PlatformSpec
from repro.sim.platform import Platform
from repro.workloads.base import CorePort, L2_HIT_CYCLES, LLC_HIT_CYCLES
from repro.workloads.spec import SPEC_PROFILES, SpecWorkload
from tests.test_engine_equiv import BACKEND

#: TINY_PLATFORM's LLC and quanta with the nine cores the KVS co-run needs.
SMALL = PlatformSpec(name="small", cores=12, llc=TINY_LLC, quantum_s=0.05,
                     subquanta=2)


def _kvs_records(app: str, exec_mode: str) -> list:
    spec = dataclasses.replace(SMALL, llc_backend=BACKEND[exec_mode])
    scen = kvs_scenario(app=app, ycsb_letter="A", spec=spec, seed=5)
    scen.sim.exec_mode = exec_mode
    metrics = scen.sim.run(0.4)
    assert scen.workloads["app"].instructions_retired > 0
    return [dataclasses.asdict(record) for record in metrics.records]


@pytest.mark.parametrize("app", ["mcf", "gcc", "milc"])
def test_kvs_corun_vector_equals_scalar_oracle(app):
    """mcf (random), gcc (mixed) and milc (stream) beside Redis/OVS:
    every field of every quantum record matches the oracle."""
    assert SPEC_PROFILES[app].pattern == {"mcf": "random", "gcc": "mixed",
                                          "milc": "stream"}[app]
    assert _kvs_records(app, "vector") == _kvs_records(app, "scalar")


@pytest.mark.parametrize("app", ["mcf", "gcc", "milc"])
def test_per_line_access_only_in_budget_tail(app, monkeypatch):
    """Within each vector ``run_core`` call, per-line ``CorePort.access``
    calls come after every batch and number at most the accesses that
    fit in one worst-case access of budget (plus the crossing one)."""
    platform = Platform(dataclasses.replace(SMALL, llc_backend="array"))
    work = SpecWorkload(SPEC_PROFILES[app])
    work.bind([platform.core_port(0, 1)], 1 << 32,
              np.random.default_rng(3))
    work.prefill()
    port = work.ports[0]
    prof = work.profile
    compute = prof.instructions_per_access * prof.base_cpi
    events: "list[str]" = []
    access = CorePort.access
    access_batch = CorePort.access_batch
    charge = CorePort.charge

    def record_access(self, addr, **kwargs):
        events.append("line")
        return access(self, addr, **kwargs)

    def record_batch(self, addrs, **kwargs):
        events.append("batch")
        return access_batch(self, addrs, **kwargs)

    def record_charge(self, instructions, cycles):
        events.append("charge")
        charge(self, instructions, cycles)

    monkeypatch.setattr(CorePort, "access", record_access)
    monkeypatch.setattr(CorePort, "access_batch", record_batch)
    monkeypatch.setattr(CorePort, "charge", record_charge)
    for step in range(4):
        work.begin_quantum(0.0)
        worst = compute + max(L2_HIT_CYCLES,
                              (LLC_HIT_CYCLES + port.dram_cycles) / prof.mlp)
        cheapest = compute + min(L2_HIT_CYCLES, LLC_HIT_CYCLES / prof.mlp)
        del events[:]
        work.run(100_000.0 + 7_777.0 * step, 0.0)
        assert events[-1] == "charge" and events.count("charge") == 1
        calls = events[:-1]
        lines = calls.count("line")
        assert calls.count("batch") > 0
        assert calls[len(calls) - lines:] == ["line"] * lines
        assert lines <= worst / cheapest + 1

"""Engine-level equivalence: the vector fast path against the oracle.

The quantum pipeline runs in one of two modes
(:data:`repro.sim.engine.EXEC_MODES`).  The *oracle* is scalar exec on
the scalar LLC backend: one Python access at a time into reference
lists.  The *fast path* is vector exec on the array backend: whole
chunks of packets planned with array ops and admitted speculatively
under the LLC's copy-on-write journal.  These tests pin the contract
the fast path relies on: both are *the same simulation* — every
recorded metric field and every controller decision must be identical,
across seeds and scenario shapes (fig. 8's OVS forwarding chain, fig.
9's many-flow variant, and a fig. 11-style managed run with the IAT
daemon in the loop).  They also pin where an invalid mode is rejected.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import ControlPlane, ControllerDaemon, create_policy
from repro.experiments.common import leaky_dma_scenario
from repro.net.traffic import TrafficSpec
from repro.sim.config import TINY_PLATFORM
from repro.sim.engine import EXEC_MODES, Simulation
from repro.sim.platform import Platform
from repro.tenants.tenant import Priority, Tenant
from repro.workloads.testpmd import TestPmd
from repro.workloads.xmem import XMem

#: The LLC backend each execution mode runs on.
BACKEND = {"vector": "array", "scalar": "scalar"}


def _spec(exec_mode: str, backend: "str | None" = None):
    return dataclasses.replace(TINY_PLATFORM,
                               llc_backend=backend or BACKEND[exec_mode])


def _records(metrics) -> list:
    """Field-for-field view of every quantum record (dataclass dump)."""
    return [dataclasses.asdict(record) for record in metrics.records]


def _run_leaky(exec_mode: str, seed: int, *, n_flows: int = 1,
               backend: "str | None" = None) -> list:
    scen = leaky_dma_scenario(packet_size=512, n_flows=n_flows,
                              ring_entries=128,
                              spec=_spec(exec_mode, backend), seed=seed)
    scen.sim.exec_mode = exec_mode
    return _records(scen.sim.run(0.5))


def _run_iat(exec_mode: str, seed: int,
             backend: "str | None" = None) -> "tuple[list, list]":
    """A fig. 11-flavoured managed run: PC testpmd + BE X-Mem under the
    IAT daemon, so controller decisions feed back into the pipeline."""
    platform = Platform(_spec(exec_mode, backend))
    sim = Simulation(platform, seed=seed, exec_mode=exec_mode)
    nic = platform.add_nic("n0", 40.0)
    vf = nic.add_vf(entries=64, name="vf0")
    pmd = TestPmd("pmd", [vf.rx_ring])
    sim.add_tenant(Tenant("pmd", cores=(0,), priority=Priority.PC,
                          is_io=True, initial_ways=2), pmd)
    xmem = XMem("xmem", 64 << 10)
    xmem.l2_bytes = 8 << 10
    sim.add_tenant(Tenant("xmem", cores=(1,), priority=Priority.BE,
                          initial_ways=2), xmem)
    sim.attach_traffic(nic, vf, TrafficSpec(pps=1500.0, packet_size=512,
                                            n_flows=64, zipf_theta=0.9,
                                            burstiness=0.3))
    control = ControlPlane(platform.pqos, sim.tenant_set(),
                           time_scale=platform.spec.time_scale)
    daemon = ControllerDaemon(control,
                              create_policy("iat", {"interval_s": 0.2}))
    sim.add_controller(daemon)
    metrics = sim.run(1.2)
    return _records(metrics), [dataclasses.asdict(h)
                               for h in daemon.history]


class TestVectorMatchesOracle:
    def test_exec_modes(self):
        assert EXEC_MODES == ("vector", "scalar")

    @pytest.mark.parametrize("seed", [8, 21, 77, 1234])
    def test_fig8(self, seed):
        assert _run_leaky("vector", seed) == _run_leaky("scalar", seed)

    def test_fig9_many_flows(self):
        assert (_run_leaky("vector", 11, n_flows=128)
                == _run_leaky("scalar", 11, n_flows=128))

    @pytest.mark.parametrize("seed", [7, 42])
    def test_iat_daemon(self, seed):
        vec_metrics, vec_history = _run_iat("vector", seed)
        sca_metrics, sca_history = _run_iat("scalar", seed)
        assert vec_history, "the daemon was expected to act"
        assert vec_metrics == sca_metrics
        assert vec_history == sca_history


class TestExecModeValidation:
    def test_unknown_mode_rejected_at_run(self):
        scen = leaky_dma_scenario(packet_size=512, spec=_spec("vector"))
        scen.sim.exec_mode = "batch"
        with pytest.raises(ValueError, match="exec_mode='scalar'"):
            scen.sim.run(0.1)
        assert scen.sim.now == 0.0

    def test_vector_rejected_on_scalar_backend(self):
        scen = leaky_dma_scenario(packet_size=512, spec=_spec("scalar"))
        assert scen.sim.exec_mode == "vector"
        with pytest.raises(ValueError, match="snapshot"):
            scen.sim.run(0.1)
        assert scen.sim.now == 0.0
        scen.sim.exec_mode = "scalar"
        scen.sim.run(0.1)
        assert scen.sim.now > 0.0

"""SPEC CPU2006 memory-behaviour models (paper Sec. VI-C).

The paper runs the memory-sensitive subset of SPEC2006 (per Jaleel's
characterization) with the ``ref`` input.  We model each benchmark as a
stationary access-stream profile: working-set size, read fraction,
pattern (random pointer-chasy vs. streaming), memory-level parallelism,
and instructions per LLC-level access.  The profiles below reproduce the
*relative* cache sensitivities the paper depends on: mcf/omnetpp/
xalancbmk are called out as the "heavy cache consumers" whose placement
against DDIO ways matters most (Fig. 14 discussion).

Execution-time degradation (Fig. 12) is measured as the inverse of the
achieved instruction rate versus a solo run, which equals normalized
execution time for a fixed-work benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import (CorePort, L2_HIT_CYCLES, LLC_HIT_CYCLES, Workload,
                   seq_accumulate)
from .streams import sequential_lines, uniform_lines

_BATCH = 256


@dataclass(frozen=True)
class SpecProfile:
    """Stationary memory profile of one benchmark."""

    name: str
    working_set_bytes: int
    read_fraction: float = 0.85
    pattern: str = "random"        # "random" | "stream" | "mixed"
    mlp: float = 1.5
    instructions_per_access: float = 30.0
    base_cpi: float = 0.7

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.pattern not in ("random", "stream", "mixed"):
            raise ValueError(f"unknown pattern {self.pattern!r}")


def _mb(n: float) -> int:
    return int(n * (1 << 20))


#: Memory-sensitive SPEC2006 subset, parameters following the working-set
#: and intensity characterization in Jaleel (2010).  The paper highlights
#: mcf, omnetpp and xalancbmk as the heaviest cache consumers.
SPEC_PROFILES = {
    # mcf/omnetpp/xalancbmk sustain tens of millions of LLC misses per
    # second on real hardware (MPKI in the tens); their effective MLP is
    # well above a pure dependent chain, which is what makes them the
    # paper's "heavy cache consumers".
    "mcf": SpecProfile("mcf", _mb(64), 0.9, "random", 3.0, 10.0, 0.9),
    "omnetpp": SpecProfile("omnetpp", _mb(40), 0.85, "random", 2.2, 16.0, 0.8),
    "xalancbmk": SpecProfile("xalancbmk", _mb(30), 0.9, "random", 2.5, 20.0, 0.8),
    "soplex": SpecProfile("soplex", _mb(50), 0.8, "mixed", 2.2, 28.0, 0.7),
    "milc": SpecProfile("milc", _mb(64), 0.75, "stream", 4.0, 35.0, 0.7),
    "libquantum": SpecProfile("libquantum", _mb(32), 0.8, "stream", 6.0, 40.0, 0.6),
    "sphinx3": SpecProfile("sphinx3", _mb(20), 0.9, "mixed", 2.0, 45.0, 0.7),
    "lbm": SpecProfile("lbm", _mb(64), 0.55, "stream", 4.5, 32.0, 0.7),
    "gcc": SpecProfile("gcc", _mb(8), 0.8, "mixed", 2.0, 60.0, 0.8),
    "bzip2": SpecProfile("bzip2", _mb(6), 0.7, "mixed", 2.5, 80.0, 0.8),
}

#: The "heavy cache consumers" the paper names explicitly.
CACHE_HEAVY = ("mcf", "omnetpp", "xalancbmk")


class SpecWorkload(Workload):
    """Runs one SPEC profile; performance = achieved instruction rate."""

    def __init__(self, profile: SpecProfile, *,
                 core_freq_hz: float = 2.3e9) -> None:
        super().__init__(f"spec.{profile.name}")
        self.profile = profile
        self.core_freq_hz = core_freq_hz
        self.instructions_retired = 0.0
        self._cursor = 0

    def prefill(self) -> None:
        self.warm_region(self.region_base, self.profile.working_set_bytes)

    def _addresses(self, count: int):
        prof = self.profile
        if prof.pattern == "random":
            return uniform_lines(self.rng, self.region_base,
                                 prof.working_set_bytes, count)
        if prof.pattern == "stream":
            addrs, self._cursor = sequential_lines(
                self.region_base, prof.working_set_bytes, self._cursor, count)
            return addrs
        # mixed: half random, half streaming
        half = count // 2
        rand = uniform_lines(self.rng, self.region_base,
                             prof.working_set_bytes, count - half)
        seq, self._cursor = sequential_lines(
            self.region_base, prof.working_set_bytes, self._cursor, half)
        return np.concatenate([rand, seq])

    def run_core(self, port: CorePort, budget_cycles: float,
                 now: float) -> None:
        if self.exec_mode == "vector":
            self._run_core_vector(port, budget_cycles)
            return
        prof = self.profile
        used = 0.0
        accesses = 0
        # Streaming patterns have no L2 reuse; random patterns keep the
        # hot fraction in L2.
        p_l2 = (0.0 if prof.pattern == "stream"
                else self.l2_hit_prob(prof.working_set_bytes))
        compute = prof.instructions_per_access * prof.base_cpi
        while used < budget_cycles:
            addrs = self._addresses(_BATCH)
            l2_hits = self.rng.random(len(addrs)) < p_l2
            writes = self.rng.random(len(addrs)) >= prof.read_fraction
            for addr, in_l2, is_write in zip(addrs.tolist(), l2_hits.tolist(),
                                             writes.tolist()):
                if in_l2:
                    latency = L2_HIT_CYCLES
                else:
                    latency = port.access(int(addr), write=is_write,
                                          mlp=prof.mlp)
                used += compute + latency
                accesses += 1
                if used >= budget_cycles:
                    break
        instructions = accesses * prof.instructions_per_access
        self.instructions_retired += instructions
        port.charge(instructions, used)

    def _run_core_vector(self, port: CorePort, budget_cycles: float) -> None:
        """Batched twin of the scalar loop: the same draws per 256
        accesses, LLC order and left-to-right ``used`` sum, with X-Mem's
        budget-guarded segments.  A segment holds only accesses that
        start below the budget even if every one costs the worst case,
        so its LLC lines go out as one batch; the budget tail, where
        one access may cross the budget, runs line by line."""
        prof = self.profile
        mlp = prof.mlp
        used = 0.0
        accesses = 0
        p_l2 = (0.0 if prof.pattern == "stream"
                else self.l2_hit_prob(prof.working_set_bytes))
        compute = prof.instructions_per_access * prof.base_cpi
        worst = compute + max(L2_HIT_CYCLES,
                              (LLC_HIT_CYCLES + port.dram_cycles) / mlp)
        while used < budget_cycles:
            addrs = self._addresses(_BATCH)
            l2_hits = self.rng.random(_BATCH) < p_l2
            writes = self.rng.random(_BATCH) >= prof.read_fraction
            start = 0
            while start < _BATCH and used < budget_cycles:
                safe = int((budget_cycles - used) // worst)
                if safe < 1:
                    if l2_hits[start]:
                        latency = L2_HIT_CYCLES
                    else:
                        latency = port.access(int(addrs[start]),
                                              write=bool(writes[start]),
                                              mlp=mlp)
                    used += compute + latency
                    accesses += 1
                    start += 1
                    continue
                stop = min(_BATCH, start + safe)
                llc = ~l2_hits[start:stop]
                cost = np.full(stop - start, compute + L2_HIT_CYCLES)
                if llc.any():
                    cost[llc] = compute + port.access_batch(
                        addrs[start:stop][llc],
                        write=writes[start:stop][llc], mlp=mlp)
                used = seq_accumulate(used, cost)
                accesses += stop - start
                start = stop
        instructions = accesses * prof.instructions_per_access
        self.instructions_retired += instructions
        port.charge(instructions, used)

    def instruction_rate(self, elapsed_seconds: float,
                         time_scale: float = 1.0) -> float:
        """Instructions/second (real-time equivalent)."""
        if elapsed_seconds <= 0:
            return 0.0
        return self.instructions_retired / elapsed_seconds / time_scale

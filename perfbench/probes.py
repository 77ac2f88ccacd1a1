"""Host-time probes and layer spans, installed from outside the program.

Nothing in ``src/`` is edited: every probe replaces a class attribute
(or a module global) of the simulator with a wrapper that calls the
original.  Two levels exist:

* :class:`Probe` is always installed.  It wraps three methods only —
  ``Platform.__init__`` (a scenario build starts), ``Simulation.__init__``
  (the build's simulation exists) and ``Simulation._run_quantum`` (one
  quantum) — to time set-up and every quantum, and to digest each
  simulation's output when the next build starts or the pass ends.
  These are the end-to-end probes: a few clock reads per quantum, and
  in untraced passes a :class:`Calibration` before each quantum and
  each build, outside the timed intervals.

* :class:`SpanTable` is installed only in traced passes.  It wraps the
  public entry point of every layer (see :func:`install_layer_spans`)
  in a span that records calls, inclusive time and self time (inclusive
  time minus the time of child spans), plus the counts the hooks take at
  the same boundary.  Self times telescope: their sum over all spans,
  including the root span around the whole pass, is the traced wall
  time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from digest import simulation_digest

clock = time.perf_counter

#: Root span of a pass; its self time is the unattributed residual.
ROOT = "bench.pass"


class Calibration:
    """A fixed kernel whose time tells how fast the host runs right now.

    Other load on a shared host slows the simulator by up to about 2x
    for minutes at a time, mostly through the memory system.  This
    kernel does the two kinds of work the simulator does: interpreter
    work on a dict, and NumPy gathers, sorts and bincounts over an 8 MiB
    table, larger than a core's private caches.  Timed right before a
    quantum, its time slows by nearly the same factor as the quantum's.
    """

    #: The kernel's time between quanta on the x86-64 host that defined
    #: the benchmark, with no other load on it.  Times scaled by
    #: ``NOMINAL_S / measured`` read as host time on that quiet host.
    NOMINAL_S = 0.75e-3

    def __init__(self) -> None:
        # Fixed pseudo-random contents from a multiplicative hash, so
        # building the kernel warms no generator the simulator uses.
        self.table = (np.arange(1 << 20) * 2654435761) % (1 << 30)
        self.index = (np.arange(4096) * 40503 * 2654435761) % (1 << 20)
        for _ in range(3):  # fault in the table, warm NumPy's code paths
            self()

    def __call__(self) -> float:
        """Run the kernel once; returns its host seconds."""
        start = clock()
        counts: "dict[int, int]" = {}
        for j in range(3000):
            counts[j & 255] = counts.get(j & 255, 0) + j
        for _ in range(20):
            gathered = self.table[self.index]
            order = np.argsort(gathered[:1024])
            np.bincount(gathered[order] & 1023, minlength=1024)
        return clock() - start


class Probe:
    """Set-up and quantum timing plus per-simulation output digests.

    ``exec_mode`` forces the execution mode of every simulation the
    pass builds (``"scalar"`` for the oracle; ``None`` keeps the
    builders' default, the vector fast path).  ``on_finish`` is called
    with each finished simulation before it is released (the traced
    pass uses it to read per-simulation counters).  With ``calibrate``
    a :class:`Calibration` runs before each quantum and three times
    before each build, outside the timed intervals; ``setup_cal_s``
    (the median of the three) and ``quantum_cal_s`` hold the kernel
    times that go with each set-up and each quantum.
    """

    def __init__(self, *, exec_mode: "str | None" = None,
                 on_open=None, on_finish=None,
                 calibrate: bool = False) -> None:
        self.exec_mode = exec_mode
        self.on_open = on_open
        self.on_finish = on_finish
        self.digests: "list[str]" = []
        #: Set-up seconds of each simulation, in build order.
        self.setup_sims: "list[float]" = []
        self.quantum_ms: "list[float]" = []
        self.calibration = Calibration() if calibrate else None
        #: Host seconds spent in the calibration kernel (not program time).
        self.calibration_s = 0.0
        self.setup_cal_s: "list[float]" = []
        self.quantum_cal_s: "list[float]" = []
        self._build_start: "float | None" = None
        self._build_cal: "float | None" = None
        self._sim = None
        self._sim_build_start = 0.0
        self._sim_build_cal: "float | None" = None
        self._started = False

    def install(self) -> None:
        from repro.sim.engine import Simulation
        from repro.sim.platform import Platform

        probe = self
        platform_init = Platform.__init__
        sim_init = Simulation.__init__
        run_quantum = Simulation._run_quantum

        def build_platform(platform, *args, **kwargs):
            probe.finish()
            if probe.calibration is not None:
                probe._build_cal = statistics.median(
                    probe._calibrate() for _ in range(3))
            probe._build_start = clock()
            platform_init(platform, *args, **kwargs)

        def build_simulation(sim, *args, **kwargs):
            if probe.exec_mode is not None:
                kwargs["exec_mode"] = probe.exec_mode
            sim_init(sim, *args, **kwargs)
            probe._open(sim)

        def timed_quantum(sim, dt):
            start = clock()
            if sim is not probe._sim:
                raise RuntimeError("simulations interleaved within a pass; "
                                   "per-simulation deltas would mix")
            if not probe._started:
                probe._started = True
                probe.setup_sims.append(start - probe._sim_build_start)
            cal = probe._calibrate()
            if cal is not None:
                if len(probe.setup_cal_s) < len(probe.setup_sims):
                    before = probe._sim_build_cal
                    probe.setup_cal_s.append(cal if before is None
                                             else before)
                probe.quantum_cal_s.append(cal)
                start = clock()
            run_quantum(sim, dt)
            probe.quantum_ms.append((clock() - start) * 1e3)

        Platform.__init__ = build_platform
        Simulation.__init__ = build_simulation
        Simulation._run_quantum = timed_quantum

    @property
    def setup_s(self) -> float:
        """Set-up seconds summed over the pass's simulations."""
        return sum(self.setup_sims)

    def _calibrate(self) -> "float | None":
        if self.calibration is None:
            return None
        start = clock()
        measured = self.calibration()
        self.calibration_s += clock() - start
        return measured

    def _open(self, sim) -> None:
        if self._sim is not None:
            self.finish()
        start = self._build_start
        self._build_start = None
        self._sim_build_cal, self._build_cal = self._build_cal, None
        self._sim = sim
        self._sim_build_start = clock() if start is None else start
        self._started = False
        if self.on_open is not None:
            self.on_open(sim)

    def finish(self) -> None:
        """Digest and release the open simulation, if any."""
        sim = self._sim
        if sim is None:
            return
        self._sim = None
        self.digests.append(simulation_digest(sim))
        if self.on_finish is not None:
            self.on_finish(sim)


# ---------------------------------------------------------------------------
# Layer spans (traced passes only)
# ---------------------------------------------------------------------------
class SpanTable:
    """Stack of open spans plus per-name totals.

    ``stats[name]`` is ``[calls, inclusive_s, self_s, llc_lines]`` where
    ``llc_lines`` counts the LLC lines issued while the span was open.
    A span that re-enters its own name (``super().prefill()``) is
    folded into the outer one.
    """

    def __init__(self) -> None:
        self.stack: "list[list]" = []
        self.stats: "dict[str, list]" = {}
        #: LLC lines issued so far (batched lines plus per-line calls).
        self.lines = [0]
        self.counts: "dict[str, float]" = {}
        #: Distinct flow ids the NICs delivered.
        self.flows: "set[int]" = set()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, hook=None):
        stack = self.stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        lines = self.lines

        def span(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0, lines[0]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result, stack)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                stats[3] += lines[0] - frame[2]
                if stack:
                    stack[-1][1] += elapsed
            return result

        return span

    def open_root(self) -> None:
        self.stats.setdefault(ROOT, [0, 0.0, 0.0, 0])
        self.stack.append([ROOT, 0.0, 0, clock()])

    def close_root(self) -> float:
        """Close the root span; returns the traced wall time."""
        frame = self.stack.pop()
        if self.stack:
            raise RuntimeError(f"spans left open: {self.stack}")
        elapsed = clock() - frame[3]
        stats = self.stats[ROOT]
        stats[0] += 1
        stats[1] += elapsed
        stats[2] += elapsed - frame[1]
        return elapsed

    def total(self, name: str, field: int) -> float:
        stats = self.stats.get(name)
        return stats[field] if stats else 0


def _parent(stack) -> "str | None":
    return stack[-2][0] if len(stack) >= 2 else None


def install_layer_spans(table: SpanTable) -> None:
    """Wrap every layer's public entry points in spans of ``table``."""
    from repro.cache import llc as llc_mod
    from repro.exec import runner as runner_mod
    from repro.net.traffic import TrafficGen
    from repro.pci.nic import Nic
    from repro.sim.engine import Simulation
    from repro.sim.platform import Platform
    from repro.vswitch.flowtable import FlowTables
    from repro.workloads.base import CorePort, VectorPlan, Workload

    SlicedLLC = llc_mod.SlicedLLC
    # Read from the module so a retuned threshold is measured as tuned.
    vector_min = llc_mod._VECTOR_MIN
    lines = table.lines
    add = table.add
    flows = table.flows

    def on_access_batch(args, kwargs, out, stack):
        n = len(out)
        lines[0] += n
        if n < vector_min:
            add("llc.small_calls", 1)
        if _parent(stack) != "cache.llc.ddio_write_batch":
            add("llc.core_lines", n)
            add("llc.core_hits", out.hits)

    def on_access(args, kwargs, out, stack):
        if _parent(stack) != "cache.llc.access_batch":
            lines[0] += 1
            add("llc.per_line", 1)
            add("llc.core_lines", 1)
            add("llc.core_hits", 1 if out.hit else 0)

    def on_ddio_write_batch(args, kwargs, out, stack):
        add("llc.ddio_lines", len(out))
        add("llc.ddio_hits", out.hits)

    def on_dma_burst(args, kwargs, accepted, stack):
        flow_ids = np.asarray(args[3])
        add("nic.offered", flow_ids.shape[0])
        add("nic.accepted", accepted)
        flows.update(np.unique(flow_ids).tolist())

    spans = [
        ("cache.llc.access_batch", SlicedLLC, "access_batch",
         on_access_batch),
        ("cache.llc.access", SlicedLLC, "access", on_access),
        ("cache.llc.ddio_write_batch", SlicedLLC, "ddio_write_batch",
         on_ddio_write_batch),
        ("pci.nic.dma_burst", Nic, "dma_burst", on_dma_burst),
        ("net.traffic.sample_quantum", TrafficGen, "sample_quantum", None),
        ("workloads.run", Workload, "run", None),
        ("workloads.port.access", CorePort, "access", None),
        ("workloads.port.run_plan", CorePort, "run_plan", None),
        ("workloads.plan.materialize", VectorPlan, "materialize", None),
        ("vswitch.flowtable.lookup_chunk", FlowTables, "lookup_chunk",
         None),
        ("sim.engine", Simulation, "run", None),
        ("sim.build", Platform, "__init__", None),
        ("sim.build", Simulation, "__init__", None),
        ("sim.build", Simulation, "add_tenant", None),
        ("sim.build", Simulation, "attach_traffic", None),
        ("exec.runner", runner_mod.ParallelRunner, "run", None),
    ]
    for cls in _subclasses(Workload):
        if "prefill" in vars(cls):
            spans.append(("workloads.prefill", cls, "prefill", None))
    for name, owner, attr, hook in spans:
        setattr(owner, attr, table.wrap(name, getattr(owner, attr), hook))
    # Module global looked up by ParallelRunner.run at call time.
    runner_mod._call_point = table.wrap("exec.point", runner_mod._call_point)

    # Controllers are wrapped per instance, so legacy policies and
    # ControllerDaemon subclasses are measured alike.
    add_controller = Simulation.add_controller

    def add_wrapped_controller(sim, controller):
        controller.on_interval = table.wrap("core.controller.on_interval",
                                            controller.on_interval)
        add_controller(sim, controller)

    Simulation.add_controller = add_wrapped_controller


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found

"""One benchmark pass of one workload, in a fresh process.

``run.py`` starts this script once per pass with BLAS/OpenMP threads
pinned to 1 and reads the JSON object on the last line of its output:
host times (``host``) and, in an untraced pass, the same times scaled
to the calibration's nominal host speed (``scaled``), the
per-simulation output digests, peak RSS and, for a traced pass, the
per-layer metrics.  Usage::

    python3 perfbench/worker.py --workload leaky-dma --index 3 [--trace]
        [--exec-mode scalar] --scratch DIR

``--index`` selects the row of the input table (see ``run.py``); the
same index always builds the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from probes import (ROOT as ROOT_SPAN, Calibration, Probe,  # noqa: E402
                    SpanTable, clock, install_layer_spans)

#: Fig. 8's run length (its ``duration_s``) for the leaky-DMA run.
LEAKY_DMA_SECONDS = 10.0
#: ``repro figure fig12 --fast`` at the commit that defined this
#: benchmark, written out so a later change to the CLI's fast settings
#: cannot silently change the benchmark.
FIG12_FAST = dict(scenarios=("kvs",), apps=("mcf", "gcc"), ycsb_letter="A",
                  warmup_s=1.0, measure_s=1.5)
#: ``repro figure fig11 --fast``, likewise: the full phase script on a
#: 9 s timeline, so a run holds several passes.
FIG11_FAST = dict(t_grow=2.0, t_ddio=6.0, t_end=9.0)


def leaky_dma(index: int, spec, scratch: str) -> None:
    """Fig. 8's scenario at 1.5 KB, bare: no controller, no prefill."""
    from repro.experiments.common import leaky_dma_scenario

    scenario = leaky_dma_scenario(packet_size=1500, seed=index, spec=spec)
    scenario.sim.run(LEAKY_DMA_SECONDS)


def app_corun(index: int, spec, scratch: str) -> None:
    """Fig. 12 --fast through the sweep runner with a cold cache."""
    from repro.exec import ParallelRunner, ResultCache
    from repro.experiments import fig12_exec_time

    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
    runner = ParallelRunner(jobs=1, cache=ResultCache(cache_dir))
    fig12_exec_time.run(seeds=(2 * index, 2 * index + 1), spec=spec,
                        runner=runner, **FIG12_FAST)


def iat_timeline(index: int, spec, scratch: str) -> None:
    """Fig. 11's point with its phase script and the IAT daemon."""
    from repro.experiments import fig11_timeline

    fig11_timeline.run_point(1500, seed=index, spec=spec, **FIG11_FAST)


WORKLOADS = {"leaky-dma": leaky_dma, "app-corun": app_corun,
             "iat-timeline": iat_timeline}


# ---------------------------------------------------------------------------
# Traced pass: per-simulation counters and per-layer metrics
# ---------------------------------------------------------------------------
class SimCounters:
    """Counters read around each simulation of a traced pass:
    ``ENGINE_STATS`` as a delta around exactly that simulation, the
    controller mask changes from its records, and its EMC totals."""

    def __init__(self) -> None:
        from repro.workloads.base import ENGINE_STATS

        self.stats = ENGINE_STATS
        self.before: "dict | None" = None
        self.engine = {key: 0 for key in ("chunks", "exec_packets",
                                          "spec_chunks", "rollbacks",
                                          "kernel_launches")}
        self.mask_changes = 0
        self.emc_hits = 0
        self.emc_lookups = 0

    def open(self, sim) -> None:
        self.before = self.stats.snapshot()

    def finish(self, sim) -> None:
        after = self.stats.snapshot()
        for key in self.engine:
            self.engine[key] += after[key] - self.before[key]
        last = None
        for record in sim.metrics.records:
            masks = (record.ddio_mask, tuple(
                (name, snap.mask)
                for name, snap in sorted(record.tenants.items())))
            if last is not None and masks != last:
                self.mask_changes += 1
            last = masks
        for binding in sim.bindings:
            tables = getattr(binding.workload, "tables", None)
            if tables is not None and hasattr(tables, "emc_hits"):
                self.emc_hits += tables.emc_hits
                self.emc_lookups += tables.emc_hits + tables.emc_misses


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(table: SpanTable, sims: SimCounters, wall_s: float,
                  setup_s: float) -> dict:
    """Per-layer metrics of one traced pass (values only)."""
    def calls(name):
        return table.total(name, 0)

    def incl(name):
        return table.total(name, 1)

    def self_s(name):
        return table.total(name, 2)

    counts = table.counts.get
    batch_lines = table.total("cache.llc.access_batch", 3)
    per_line = counts("llc.per_line", 0)
    engine = sims.engine
    attributed = sum(stats[2] for name, stats in table.stats.items()
                     if name != ROOT_SPAN)
    out = {
        "cache.llc.access_batch.calls": calls("cache.llc.access_batch"),
        "cache.llc.access_batch.lines": batch_lines,
        "cache.llc.access_batch.self_s": self_s("cache.llc.access_batch"),
        "cache.llc.access_batch.small_call_share": _ratio(
            counts("llc.small_calls", 0), calls("cache.llc.access_batch")),
        "cache.llc.access.calls": calls("cache.llc.access"),
        "cache.llc.access.s": incl("cache.llc.access"),
        "cache.llc.hit_ratio": _ratio(counts("llc.core_hits", 0),
                                      counts("llc.core_lines", 0)),
        "cache.llc.per_line_share": _ratio(per_line,
                                           per_line + batch_lines),
        "cache.llc.ddio_write_batch.lines": counts("llc.ddio_lines", 0),
        "cache.llc.ddio_write_batch.s": incl("cache.llc.ddio_write_batch"),
        "cache.llc.ddio_hit_ratio": _ratio(counts("llc.ddio_hits", 0),
                                           counts("llc.ddio_lines", 0)),
        "pci.nic.dma_burst.packets": counts("nic.offered", 0),
        "pci.nic.dma_burst.self_s": self_s("pci.nic.dma_burst"),
        "pci.nic.drop_ratio": _ratio(
            counts("nic.offered", 0) - counts("nic.accepted", 0),
            counts("nic.offered", 0)),
        "net.traffic.sample_quantum.self_s":
            self_s("net.traffic.sample_quantum"),
        "vswitch.flows.distinct": len(table.flows),
        "workloads.prefill.s": incl("workloads.prefill"),
        "workloads.prefill.lines": table.total("workloads.prefill", 3),
        "workloads.prefill.setup_share": _ratio(incl("workloads.prefill"),
                                                setup_s),
        "workloads.run.self_s": self_s("workloads.run"),
        "workloads.port.access.calls": calls("workloads.port.access"),
        "workloads.port.access.self_s": self_s("workloads.port.access"),
        "workloads.plan.materialize.calls":
            calls("workloads.plan.materialize"),
        "workloads.plan.materialize.self_s":
            self_s("workloads.plan.materialize"),
        "workloads.port.run_plan.self_s": self_s("workloads.port.run_plan"),
        "workloads.engine.chunk_packets_mean": _ratio(
            engine["exec_packets"], engine["chunks"]),
        "workloads.engine.kernel_launches_per_chunk": _ratio(
            engine["kernel_launches"], engine["chunks"]),
        "workloads.engine.rollback_rate": _ratio(engine["rollbacks"],
                                                 engine["spec_chunks"]),
        "vswitch.flowtable.lookup_chunk.self_s":
            self_s("vswitch.flowtable.lookup_chunk"),
        "vswitch.flowtable.emc_hit_ratio": _ratio(sims.emc_hits,
                                                  sims.emc_lookups),
        "core.controller.on_interval.calls":
            calls("core.controller.on_interval"),
        "core.controller.on_interval.s": incl("core.controller.on_interval"),
        "core.controller.mask_changes": sims.mask_changes,
        "sim.engine.self_s": self_s("sim.engine"),
        "sim.build.self_s": self_s("sim.build"),
        "exec.point.self_s": self_s("exec.point"),
        "exec.runner.self_s": self_s("exec.runner"),
        "exec.points": calls("exec.point"),
        "trace.wall_s": wall_s,
        "trace.residual_share": 1.0 - _ratio(attributed, wall_s),
    }
    return out


# ---------------------------------------------------------------------------
def timing_parts(wall_s: float, setup_sims: "list[float]",
                 quantum_ms: "list[float]") -> dict:
    """A pass's wall time split into the set-up of each simulation, each
    quantum, and the rest (sweep runner, digests, everything else)."""
    return {"setup_sims": setup_sims, "quantum_ms": quantum_ms,
            "rest_s": wall_s - sum(setup_sims) - sum(quantum_ms) / 1e3}


#: A quantum's kernel time is the median of the kernel times before it
#: and this many quanta on either side: one kernel run is noisier than
#: the host's speed changes, which last seconds.
CAL_HALF_WINDOW = 3


def scaled_parts(host: dict, probe: Probe) -> dict:
    """``host`` at the calibration's nominal host speed: each part times
    ``NOMINAL_S`` over the kernel time that goes with it (the rest uses
    the pass's median kernel time)."""
    nominal = Calibration.NOMINAL_S
    cal = probe.quantum_cal_s
    half = CAL_HALF_WINDOW
    quantum_cal = [statistics.median(cal[max(0, i - half):i + half + 1])
                   for i in range(len(cal))]
    return {
        "setup_sims": [t * nominal / c for t, c in
                       zip(host["setup_sims"], probe.setup_cal_s)],
        "quantum_ms": [t * nominal / c for t, c in
                       zip(host["quantum_ms"], quantum_cal)],
        "rest_s": host["rest_s"] * nominal / statistics.median(cal),
    }


def run_pass(workload: str, index: int, *, traced: bool,
             exec_mode: "str | None", scratch: str) -> dict:
    import numpy as np

    import repro.experiments  # noqa: F401  (imports every Workload class)
    from repro.sim.config import XEON_6140

    body = WORKLOADS[workload]
    spec = None
    if exec_mode == "scalar":
        import dataclasses
        spec = dataclasses.replace(XEON_6140, llc_backend="scalar")
    sims = SimCounters() if traced else None
    probe = Probe(exec_mode=exec_mode,
                  on_open=sims.open if traced else None,
                  on_finish=sims.finish if traced else None,
                  calibrate=not traced)
    probe.install()
    table = None
    if traced:
        table = SpanTable()
        install_layer_spans(table)
        if workload != "app-corun":
            body = table.wrap("exec.point", body)
        table.open_root()
    start = clock()
    body(index, spec, scratch)
    probe.finish()
    wall_s = clock() - start - probe.calibration_s
    host = timing_parts(wall_s, probe.setup_sims, probe.quantum_ms)
    result = {"wall_s": wall_s, "host": host, "digests": probe.digests,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "python": sys.version.split()[0], "numpy": np.__version__}
    if probe.calibration is not None:
        result["scaled"] = scaled_parts(host, probe)
    if traced:
        wall_s = table.close_root()
        result["layers"] = layer_metrics(table, sims, wall_s, probe.setup_s)
    return result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--exec-mode", choices=("scalar",), default=None)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.index, traced=args.trace,
                      exec_mode=args.exec_mode, scratch=args.scratch)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared machinery for packet-polling (DPDK-style) workloads.

A :class:`RingConsumer` busy-polls one or more descriptor rings; each
packet costs the lines of its buffer (read through the consumer's CAT
mask — this is where Leaky DMA bites: if the DDIO-written buffer was
evicted, these reads go to DRAM) plus an application-specific cost
implemented by the subclass.  Transmit is modelled as a device read of
the buffer lines (DDIO reads never allocate, Sec. II-B).

Per-packet latency samples combine queueing delay (time the packet sat
in the ring, from its arrival stamp) with the measured service cycles,
so tail latencies reflect backlog, not just cache misses.
"""

from __future__ import annotations

import numpy as np

from ..net.packet import lines_per_packet
from ..pci.ring import DescRing, PacketRecord
from .base import (CorePort, ENGINE_STATS, PKT_IOTA, VectorPlan, Workload,
                   seq_accumulate)

#: Cycles burned per empty poll of a ring (tight DPDK rx_burst loop).
EMPTY_POLL_CYCLES = 40.0

#: Instructions retired per empty poll (the spin loop is instruction-dense).
EMPTY_POLL_INSTR = 60.0

#: Maximum empty polls simulated per sub-step before the consumer is
#: considered idle for the rest of the budget (keeps the loop cheap while
#: still charging spin cycles/instructions).
MAX_EMPTY_POLLS = 4

#: Memory-level parallelism of streaming a packet buffer: sequential
#: lines are prefetched and overlap, so the per-line charge is the
#: latency divided by this factor (a ~1.5 KB copy costs tens of cycles
#: when LLC-resident, hundreds when leaked to DRAM).
BUFFER_MLP = 8.0

#: Maximum packets per vector drain chunk (bounds plan array sizes).
CHUNK_PACKETS = 256

#: Shared 0..CHUNK_PACKETS-1 ramp; chunks slice read-only views of it.
#: A view of the canonical ``PKT_IOTA`` so VectorPlan recognizes chunk
#: packet ids structurally (enabling the stage-template fast path).
_PKT_ARANGE = PKT_IOTA[:CHUNK_PACKETS]

#: Fraction of the EMA-predicted budget fit admitted per speculative
#: chunk.  Slightly under 1 so a well-predicted chunk *commits* and the
#: drain converges on the boundary with a couple of shrinking chunks;
#: rollback then only pays for genuine prediction error (cost spikes,
#: e.g. a leaked buffer turning buffer reads into DRAM misses).  Sweeping
#: 0.7–1.25 on the Fig. 8 workload: ≥1 rolls back ~10–50% of chunks and
#: re-executes up to ~60% of packets; 0.95 commits >99% of chunks at the
#: same wall time with the largest mean chunk of the no-waste settings.
SPEC_HEADROOM = 0.95

#: Speculative chunk size tried before any cost observation exists.
SPEC_BOOTSTRAP = 32

#: EMA smoothing factor for the observed mean per-packet service cost.
SPEC_ALPHA = 0.25


class RingConsumer(Workload):
    """Base for workloads that drain Rx rings under a cycle budget.

    ``stall_period``/``stall_durations`` model consumer scheduling
    jitter: every ``stall_period`` simulated seconds the consumer stops
    polling for the next duration in the cycle.  Because the simulator
    scales *rates* but not ring sizes, jitter durations are scaled UP by
    the same factor so the backlog in packets (rate x stall) matches the
    real machine — this is what makes shallow Rx rings overflow near
    saturation (paper Sec. III-A / Fig. 3).  Defaults to no jitter.
    """

    def __init__(self, name: str, rings: "list[DescRing]", *,
                 core_freq_hz: float = 2.3e9,
                 stall_period: float = 0.0,
                 stall_durations: "tuple[float, ...]" = (0.005, 0.02, 0.08)) -> None:
        super().__init__(name)
        if not rings:
            raise ValueError(f"{name}: need at least one ring to poll")
        self.rings = rings
        self.core_freq_hz = core_freq_hz
        self.stall_period = stall_period
        self.stall_durations = stall_durations
        self.packets_processed = 0
        self.tx_bytes = 0
        self._ring_cursor = 0
        self._next_stall = stall_period
        self._stalled_until = -1.0
        self._stall_index = 0
        #: 1-in-N latency sampling to bound memory.
        self.latency_sample_stride = 7
        # Vector-drain scratch: a reusable plan and the speculation
        # heuristic's running mean of per-packet service cycles (pure
        # chunk-sizing state — it never influences simulation results).
        self._vplan = VectorPlan()
        self._spec_ema = 0.0

    def begin_quantum(self, now: float) -> None:
        super().begin_quantum(now)
        if self.stall_period and now + 1e-12 >= self._next_stall:
            duration = self.stall_durations[
                self._stall_index % len(self.stall_durations)]
            self._stalled_until = now + duration
            self._stall_index += 1
            self._next_stall += self.stall_period

    # -- subclass interface ----------------------------------------------
    # Subclasses describe their per-packet accesses twice: issued one by
    # one in :meth:`packet_cost` (the scalar oracle) and staged for a
    # whole chunk in :meth:`plan_chunk` (the vector drain).  Addresses
    # must never depend on a prior access's hit/miss outcome.

    #: Plan rank used for the Tx device reads (runs after all app stages).
    TX_RANK = VectorPlan.MAX_RANK - 1

    def packet_cost(self, port: CorePort, record: PacketRecord,
                    now: float) -> "tuple[float, float]":
        """App-specific work for one packet: ``(instructions, cycles)``.

        Called after the buffer lines have been read; implementations
        issue their own table accesses through ``port`` and return the
        incremental cost.
        """
        raise NotImplementedError

    def plan_chunk(self, plan: VectorPlan, port: CorePort,
                   pkts: "np.ndarray", sizes: "np.ndarray",
                   flows: "np.ndarray", addrs: "np.ndarray",
                   arrivals: "np.ndarray", rings: "np.ndarray | None",
                   now: float) -> "tuple[float, np.ndarray]":
        """Vectorized twin of :meth:`packet_cost` for a whole chunk.

        ``pkts`` is ``arange(k)``; ``rings`` is the per-packet source ring
        index, or None when the workload polls a single ring.  Append the
        chunk's app accesses to ``plan`` (buffer reads are already staged
        at rank 0) and return ``(instructions_total, fixed_cycles)`` with
        ``fixed_cycles`` a per-packet float array.
        """
        raise NotImplementedError

    def transmit(self, port: CorePort, record: PacketRecord) -> None:
        """Default Tx: NIC reads the buffer lines out of LLC/DRAM."""
        line = 64
        addr = record.buf_addr
        for _ in range(lines_per_packet(record.size, line)):
            port.read_line_for_device(addr)
            addr += line
        self.tx_bytes += record.size

    def plan_transmit_chunk(self, plan: VectorPlan, pkts: "np.ndarray",
                            sizes: "np.ndarray", addrs: "np.ndarray",
                            nlines) -> None:
        """Vectorized twin of :meth:`transmit` for a whole chunk
        (``nlines`` is per-packet buffer line counts, scalar or array)."""
        plan.add_batch(addrs, nlines, pkts=pkts, rank=self.TX_RANK,
                       device=True)
        self.tx_bytes += int(sizes.sum())

    # -- poll loop ---------------------------------------------------------
    def _next_packet(self) -> "PacketRecord | None":
        """Round-robin consume across this workload's rings."""
        for offset in range(len(self.rings)):
            ring = self.rings[(self._ring_cursor + offset) % len(self.rings)]
            record = ring.consume()
            if record is not None:
                self._ring_cursor = (self._ring_cursor + offset + 1) % len(self.rings)
                return record
        return None

    def run_core(self, port: CorePort, budget_cycles: float,
                 now: float) -> None:
        if now < self._stalled_until:
            # Scheduled out: the ring keeps filling while we're away.
            port.charge(0, budget_cycles)
            return
        if self.exec_mode == "vector":
            self._run_core_vector(port, budget_cycles, now)
            return
        used = 0.0
        instructions = 0.0
        empty_polls = 0
        line = 64
        while used < budget_cycles:
            record = self._next_packet()
            if record is None:
                empty_polls += 1
                used += EMPTY_POLL_CYCLES
                instructions += EMPTY_POLL_INSTR
                if empty_polls >= MAX_EMPTY_POLLS:
                    # Idle-spin the rest of the budget at the poll loop's
                    # natural IPC without iterating packet-by-packet.
                    remaining = budget_cycles - used
                    if remaining > 0:
                        used = budget_cycles
                        instructions += (remaining / EMPTY_POLL_CYCLES
                                         * EMPTY_POLL_INSTR)
                    break
                continue
            empty_polls = 0
            service = 0.0
            addr = record.buf_addr
            for _ in range(lines_per_packet(record.size, line)):
                service += port.access(addr, mlp=BUFFER_MLP)
                addr += line
            instr, extra = self.packet_cost(port, record, now)
            service += extra
            instructions += instr
            self.transmit(port, record)
            used += service
            self.stats.busy_cycles += service
            self.packets_processed += 1
            # Queue wait in *elapsed cycles*: a simulated second carries
            # freq * time_scale cycles, so this is the real-equivalent
            # sojourn (ring sizes are unscaled, rates are scaled).
            queue_cycles = max(0.0, (now - record.arrival)
                               * self.core_freq_hz * self.time_scale)
            self.stats.record_op(
                queue_cycles + service,
                sample=self.stats.ops % self.latency_sample_stride == 0)
        port.charge(instructions, used)

    # -- speculation support ---------------------------------------------
    # Subclasses whose ``plan_chunk`` mutates state beyond the base
    # checkpoint (rings, counters, WorkloadStats) override these three
    # hooks; see OvsDataplane for the EMC/destination-ring example.
    def _spec_state(self):
        """Extra state snapshot taken at a speculative checkpoint."""
        return None

    def _spec_restore(self, state) -> None:
        """Undo the extra state back to :meth:`_spec_state`'s snapshot."""

    def _spec_commit_extra(self) -> None:
        """Discard any extra journal after a committed speculation."""

    def _spec_checkpoint(self, port: CorePort):
        """Checkpoint everything a speculative chunk may mutate.

        The LLC itself journals copy-on-write (``SlicedLLC.snapshot``);
        everything else touched by ``_exec_chunk`` is a handful of
        scalars: core counters, memory-controller traffic, this
        workload's ring cursors/counters and stats.  Ring *slot* writes
        need no undo — slots past the restored count are rewritten
        before they ever become readable.
        """
        port._llc.snapshot()
        mem = port._mem
        block = port.block
        stats = self.stats
        return (
            (block.llc_references, block.llc_misses),
            (mem.read_bytes, mem.write_bytes,
             mem._window_read, mem._window_write),
            tuple((r._head, r._rd, r._count, r.enqueued, r.dequeued,
                   r.dropped) for r in self.rings),
            self._ring_cursor,
            (self.packets_processed, self.tx_bytes),
            (stats.ops, stats.busy_cycles, stats.latency_sum_cycles,
             len(stats.latency_samples)),
            self._spec_state(),
        )

    def _spec_rollback(self, port: CorePort, ckpt) -> None:
        """Restore every side effect since :meth:`_spec_checkpoint`."""
        port._llc.rollback()
        blk, memc, ring_states, cursor, pkts, st, extra = ckpt
        block = port.block
        block.llc_references, block.llc_misses = blk
        mem = port._mem
        (mem.read_bytes, mem.write_bytes,
         mem._window_read, mem._window_write) = memc
        for ring, s in zip(self.rings, ring_states):
            (ring._head, ring._rd, ring._count, ring.enqueued,
             ring.dequeued, ring.dropped) = s
        self._ring_cursor = cursor
        self.packets_processed, self.tx_bytes = pkts
        stats = self.stats
        stats.ops, stats.busy_cycles, stats.latency_sum_cycles, nsamp = st
        del stats.latency_samples[nsamp:]
        self._spec_restore(extra)

    def _spec_commit(self, port: CorePort) -> None:
        port._llc.commit()
        self._spec_commit_extra()

    def _exec_chunk(self, port: CorePort, start: int, k: int, sizes,
                    flows, addrs, arrivals, ring_idx, nlines,
                    now: float) -> "tuple[float, np.ndarray]":
        """Consume, plan, and execute packets ``[start, start + k)`` of
        the backlog snapshot; returns ``(instructions, service)`` with
        ``service`` the per-packet charged cycles.  Caller accounting
        (``used``, stats, sampling) stays outside so speculative
        executions can be discarded wholesale.
        """
        rings = self.rings
        nrings = len(rings)
        sl = slice(start, start + k)
        # Consume before planning, as the scalar loop does (matters
        # only if an app stage posts back into a polled ring).
        if nrings == 1:
            rings[0].consume_batch(k)
            chunk_rings = None
        else:
            chunk_rings = ring_idx[sl]
            for r, cnt in enumerate(np.bincount(chunk_rings,
                                                minlength=nrings)):
                if cnt:
                    rings[r].consume_batch(int(cnt))
            self._ring_cursor = (int(chunk_rings[-1]) + 1) % nrings
        pkts = _PKT_ARANGE[:k]
        nl = nlines[sl]
        first = int(nl[0])
        counts = first if bool((nl == first).all()) else nl
        chunk_sizes = sizes[sl]
        chunk_addrs = addrs[sl]
        plan = self._vplan
        plan.reset()
        plan.add_batch(chunk_addrs, counts, pkts=pkts, rank=0,
                       mlp=BUFFER_MLP)
        instr, fixed = self.plan_chunk(
            plan, port, pkts, chunk_sizes, flows[sl], chunk_addrs,
            arrivals[sl], chunk_rings, now)
        self.plan_transmit_chunk(plan, pkts, chunk_sizes, chunk_addrs,
                                 counts)
        service = port.run_plan(plan, k) + fixed
        self.packets_processed += k
        ENGINE_STATS.record_chunk(k)
        return instr, service

    def _run_core_vector(self, port: CorePort, budget_cycles: float,
                         now: float) -> None:
        """Fully vectorized drain: snapshot the backlog once, then run
        speculative chunks with no per-packet Python.

        Equivalent to the scalar loop: nothing posts to this workload's
        rings while it runs, so the round-robin pop order over the whole
        drain is a pure function of the starting backlog — each ring's
        packets in FIFO order, ties at the same queue depth broken by
        ring distance from the cursor.  Empty polls then only ever
        happen as a trailing phase, exactly the order the per-packet
        loop produces.

        Admission is *speculative run-ahead* on the journaling LLC: a
        large chunk sized from the EMA of observed per-packet cost
        executes under a copy-on-write checkpoint, then the *actual*
        accumulated cost decides how many of its packets the scalar loop
        would have admitted (packet ``i`` runs iff the cost before it is
        below the budget — exactly the scalar ``while used < budget``
        test).  A fully admitted chunk commits; an overshoot rolls every
        side effect back and replays exactly the admitted prefix, which
        is bit-identical to its speculative execution because batched
        access is sequential-order exact.  Either way the admitted set,
        execution order, and left-to-right float accounting match the
        scalar loop bit-for-bit; speculation only changes how many
        packets execute per NumPy batch.  Requires an LLC backend with
        ``can_snapshot`` (the engine enforces this).
        """
        rings = self.rings
        nrings = len(rings)
        if nrings == 1:
            sizes, flows, addrs, arrivals = rings[0].peek_batch()
            ring_idx = None
            backlog = sizes.shape[0]
        else:
            parts = [ring.peek_batch() for ring in rings]
            lens = [part[0].shape[0] for part in parts]
            backlog = sum(lens)
            sizes = np.concatenate([part[0] for part in parts])
            flows = np.concatenate([part[1] for part in parts])
            addrs = np.concatenate([part[2] for part in parts])
            arrivals = np.concatenate([part[3] for part in parts])
            ring_idx = np.repeat(np.arange(nrings, dtype=np.int64), lens)
            within = np.concatenate(
                [np.arange(n, dtype=np.int64) for n in lens])
            # Pop order: FIFO depth first, then ring distance from the
            # round-robin cursor (primary key is the *last* lexsort key).
            order = np.lexsort(
                ((ring_idx - self._ring_cursor) % nrings, within))
            sizes = sizes[order]
            flows = flows[order]
            addrs = addrs[order]
            arrivals = arrivals[order]
            ring_idx = ring_idx[order]
        used = 0.0
        instructions = 0.0
        stats = self.stats
        estats = ENGINE_STATS
        freq_scale = self.core_freq_hz * self.time_scale
        stride = self.latency_sample_stride
        start = 0
        if backlog:
            nlines = -(-sizes // 64)
            queue_cycles = np.maximum(0.0, (now - arrivals) * freq_scale)
        cum_buf = np.empty(CHUNK_PACKETS + 1)
        while used < budget_cycles and start < backlog:
            ema = self._spec_ema
            guess = (int((budget_cycles - used) / ema * SPEC_HEADROOM) + 1
                     if ema > 0.0 else SPEC_BOOTSTRAP)
            k_spec = min(guess, CHUNK_PACKETS, backlog - start)
            if k_spec > 1:
                ckpt = self._spec_checkpoint(port)
                estats.spec_chunks += 1
                instr, service = self._exec_chunk(
                    port, start, k_spec, sizes, flows, addrs, arrivals,
                    ring_idx, nlines, now)
                cum = cum_buf[:k_spec + 1]
                cum[0] = used
                cum[1:] = service
                np.cumsum(cum, out=cum)
                # Packet i admitted iff i == 0 or the actual cost before
                # it is under budget — the scalar condition.
                k = 1 + int(np.searchsorted(cum[1:k_spec], budget_cycles,
                                            side="left"))
                mean = (float(cum[k_spec]) - used) / k_spec
                self._spec_ema = (mean if self._spec_ema <= 0.0
                                  else self._spec_ema + SPEC_ALPHA
                                  * (mean - self._spec_ema))
                if k < k_spec:
                    self._spec_rollback(port, ckpt)
                    estats.rollbacks += 1
                    estats.wasted_packets += k_spec
                    # Replay exactly the admitted prefix from the
                    # restored state — bit-identical to its speculative
                    # execution.
                    instr, service = self._exec_chunk(
                        port, start, k, sizes, flows, addrs, arrivals,
                        ring_idx, nlines, now)
                else:
                    self._spec_commit(port)
            else:
                # One packet is unconditionally admitted (the loop guard
                # already holds) — nothing to roll back.
                k = 1
                instr, service = self._exec_chunk(
                    port, start, 1, sizes, flows, addrs, arrivals,
                    ring_idx, nlines, now)
            instructions += instr
            estats.packets += k
            used = seq_accumulate(used, service)
            stats.busy_cycles = seq_accumulate(stats.busy_cycles, service)
            lat = queue_cycles[start:start + k] + service
            stats.latency_sum_cycles = seq_accumulate(
                stats.latency_sum_cycles, lat)
            # The next sampled op is a python-arithmetic question; build
            # the mask only for chunks that actually contain one.
            off = stats.ops % stride
            stats.ops += k
            if (stride - off) % stride < k:
                sample = (off + _PKT_ARANGE[:k]) % stride == 0
                stats.latency_samples.extend(lat[sample].tolist())
            start += k
        # Trailing empty polls, identical to the per-packet loop's.
        empty_polls = 0
        while used < budget_cycles:
            empty_polls += 1
            used += EMPTY_POLL_CYCLES
            instructions += EMPTY_POLL_INSTR
            if empty_polls >= MAX_EMPTY_POLLS:
                remaining = budget_cycles - used
                if remaining > 0:
                    used = budget_cycles
                    instructions += (remaining / EMPTY_POLL_CYCLES
                                     * EMPTY_POLL_INSTR)
                break
        port.charge(instructions, used)

    # -- reporting ---------------------------------------------------------
    @property
    def drops(self) -> int:
        return sum(ring.dropped for ring in self.rings)

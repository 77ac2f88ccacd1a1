"""Smoke tests for the per-figure experiment harnesses.

Each harness runs with sharply reduced parameters — these verify the
plumbing (scenario construction, measurement windows, result shapes and
table formatting), not the paper-scale numbers; the benchmarks in
``benchmarks/`` regenerate the real figures.
"""

import pytest

from repro.experiments import (common, fig03_ring_size,
                               fig04_latent_contender, fig08_leaky_dma,
                               fig09_flow_scaling, fig10_shuffle,
                               fig11_timeline, fig12_exec_time,
                               fig13_rocksdb_latency, fig14_redis_ycsb,
                               fig15_overhead)
from repro.experiments.appbench import corun, solo_app_run, solo_net_run


class TestFig03:
    def test_search_produces_rates(self):
        result = fig03_ring_size.run(ring_sizes=(64, 1024),
                                     packet_sizes=(1500,),
                                     measure_s=0.5, warmup_s=0.2,
                                     resolution=0.2, max_trials=3)
        assert set(result.max_pps) == {(1500, 64), (1500, 1024)}
        assert result.max_pps[(1500, 1024)] > 0
        assert 0 <= result.relative(1500, 64) <= 1.0
        assert "Fig. 3" in fig03_ring_size.format_table(result)


class TestFig04:
    def test_overlap_hurts(self):
        result = fig04_latent_contender.run(working_sets_mb=(8,),
                                            warmup_s=0.5, measure_s=1.0)
        point = result.points[0]
        assert point.throughput_dedicated > 0
        assert point.throughput_overlap < point.throughput_dedicated
        assert result.worst_latency_gain() > 0
        assert "Fig. 4" in fig04_latent_contender.format_table(result)


class TestFig08:
    def test_iat_beats_baseline_at_mtu(self):
        base = fig08_leaky_dma.run_one(1500, "baseline", duration_s=4.0,
                                       warmup_s=2.0)
        iat = fig08_leaky_dma.run_one(1500, "iat", duration_s=4.0,
                                      warmup_s=2.0)
        assert base.ddio_misses_per_s > iat.ddio_misses_per_s
        assert iat.ddio_ways_final > 2
        result = fig08_leaky_dma.Fig8Result([base, iat])
        assert result.mem_bw_reduction(1500) > 0
        assert "Fig. 8" in fig08_leaky_dma.format_table(result)


class TestFig09:
    def test_flow_growth_degrades_baseline(self):
        small = fig09_flow_scaling.run_one(100, "baseline",
                                           duration_s=3.0, warmup_s=1.5)
        large = fig09_flow_scaling.run_one(1_000_000, "baseline",
                                           duration_s=3.0, warmup_s=1.5)
        assert large.ovs_llc_misses_per_s > small.ovs_llc_misses_per_s
        assert large.ovs_ipc < small.ovs_ipc

    def test_iat_reports_the_daemons_final_ovs_ways(self, monkeypatch):
        built = []

        def capture(**kwargs):
            scenario = common.leaky_dma_scenario(**kwargs)
            built.append(scenario)
            return scenario

        monkeypatch.setattr(fig09_flow_scaling, "leaky_dma_scenario",
                            capture)
        point = fig09_flow_scaling.run_one(1_000_000, "iat",
                                           duration_s=4.0, warmup_s=2.0)
        history = built[0].controller.history
        assert point.ovs_ways_final == history[-1].group_ways["ovs"]

    def test_format(self):
        p = fig09_flow_scaling.Fig9Point(100, "baseline", 1.0, 1e6, 2)
        q = fig09_flow_scaling.Fig9Point(100, "iat", 1.1, 0.5e6, 4)
        table = fig09_flow_scaling.format_table(
            fig09_flow_scaling.Fig9Result([p, q]))
        assert "Fig. 9" in table


class TestFig10:
    def test_iat_run_produces_phases(self):
        point = fig10_shuffle.run_one("iat", 1024, t_grow=1.0, t_ddio=4.0,
                                      t_end=7.0, settle_s=1.0)
        assert point.phase2_throughput > 0
        assert point.phase3_throughput > 0
        table = fig10_shuffle.format_table(
            fig10_shuffle.Fig10Result([point]))
        assert "Fig. 10" in table


class TestFig11:
    def test_timeline_reacts(self):
        result = fig11_timeline.run(packet_size=1024, t_grow=2.0,
                                    t_ddio=6.0, t_end=9.0)
        assert len(result.times) == len(result.ddio_masks)
        # IAT reacts within a few sleep intervals of the phase change
        # ("react timely, within the timescale of sleep interval").
        assert result.reaction_delay(2.0, window=4.0) is not None
        assert "Fig. 11" in fig11_timeline.format_timeline(result)


class TestAppBench:
    def test_solo_app(self):
        metrics = solo_app_run("gcc", warmup_s=0.3, measure_s=0.6)
        assert metrics.app_rate > 0
        assert metrics.redis_tput is None

    def test_solo_net_reports_redis(self):
        metrics = solo_net_run("kvs", "C", warmup_s=0.3, measure_s=0.6)
        assert metrics.redis_tput > 0
        assert metrics.redis_p99_us >= metrics.redis_avg_us * 0.5

    def test_corun_baseline_and_iat(self):
        for mode in ("baseline", "iat"):
            metrics = corun("kvs", "gcc", mode, seed=1, warmup_s=0.3,
                            measure_s=0.6)
            assert metrics.app_rate > 0
            assert metrics.redis_tput > 0

    def test_nfv_corun(self):
        metrics = corun("nfv", "gcc", "iat", warmup_s=0.3, measure_s=0.6)
        assert metrics.app_rate > 0
        assert metrics.redis_tput is None

    def test_rocksdb_corun_reports_per_op(self):
        metrics = corun("kvs", "rocksdb", "baseline", ycsb_letter="A",
                        seed=0, warmup_s=0.3, measure_s=0.6)
        assert metrics.rocksdb_per_op
        assert any(v > 0 for v in metrics.rocksdb_per_op.values())

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            corun("kvs", "gcc", "nope")
        from repro.experiments.appbench import build_corun
        with pytest.raises(ValueError):
            build_corun("blah", "gcc")


class TestFig12to14Aggregation:
    def test_fig12_cells(self):
        result = fig12_exec_time.run(scenarios=("kvs",), apps=("gcc",),
                                     seeds=(0,), warmup_s=0.3,
                                     measure_s=0.6)
        cell = result.cell("kvs", "gcc")
        assert cell.baseline_min <= cell.baseline_max
        assert cell.iat > 0.5
        assert "Fig. 12" in fig12_exec_time.format_table(result)

    def test_fig13_weighted_latency(self):
        result = fig13_rocksdb_latency.run(scenarios=("kvs",),
                                           letters=("C",), seeds=(0,),
                                           warmup_s=0.3, measure_s=0.6)
        cell = result.cell("kvs", "C")
        assert cell.baseline_max >= cell.baseline_min > 0
        assert "Fig. 13" in fig13_rocksdb_latency.format_table(result)

    def test_fig13_weight_function(self):
        from repro.experiments.fig13_rocksdb_latency import weighted_latency
        from repro.workloads.ycsb import OpType, WORKLOAD_A
        solo = {OpType.READ: 100.0, OpType.UPDATE: 200.0}
        corun_lat = {OpType.READ: 110.0, OpType.UPDATE: 240.0}
        value = weighted_latency(corun_lat, solo, WORKLOAD_A)
        assert value == pytest.approx(0.5 * 1.1 + 0.5 * 1.2)

    def test_fig14_degradations(self):
        result = fig14_redis_ycsb.run(letters=("C",), seeds=(0,),
                                      warmup_s=0.3, measure_s=0.6)
        assert {c.metric for c in result.cells} \
            == {"throughput", "avg", "p99"}
        assert "Fig. 14" in fig14_redis_ycsb.format_table(result)


class TestFig15:
    def test_cost_grows_with_cores_sublinearly(self):
        result = fig15_overhead.run(one_core_counts=(1, 4, 16),
                                    two_core_counts=(2,), iterations=10)
        one = result.point(1, 1)
        four = result.point(4, 1)
        sixteen = result.point(16, 1)
        assert one.stable_us < four.stable_us < sixteen.stable_us
        # Sub-linear: 16x the cores costs well below 16x the time.
        assert sixteen.stable_us < 16 * one.stable_us
        # Unstable adds only a few register writes.
        assert sixteen.unstable_us < sixteen.stable_us * 2.5
        # Paper headline: well under 800 us per iteration.
        assert result.max_cost_us() < 800.0
        assert "Fig. 15" in fig15_overhead.format_table(result)

    def test_same_cores_fewer_tenants_cheaper(self):
        result = fig15_overhead.run(one_core_counts=(8,),
                                    two_core_counts=(4,), iterations=10)
        eight_one = result.point(8, 1)   # 8 groups over 8 cores
        four_two = result.point(4, 2)    # 4 groups over 8 cores
        assert four_two.stable_us < eight_one.stable_us

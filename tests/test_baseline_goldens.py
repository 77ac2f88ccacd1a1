"""Behaviour pins for the paper's Sec. VI-B comparison baselines.

``tests/data/baseline_goldens.json`` records, for the Core-only and
I/O-iso policies, the Fig. 10 harness at the daemon goldens' seeds and
``fig10_kwargs``: the per-quantum ``(ddio_mask, per-tenant masks)``
sequence the simulation recorded, and the exact ``repr`` of the
phase-2/3 throughput and latency.  It also records the static
baseline's random placements (``shuffle_seed`` 0-7) on the Fig. 12 KVS
and NFV tenant sets.  Any change to how the baselines plan or program
masks shows up here as a named quantum or field diff.

Regenerate (only for a deliberate behaviour change) with::

    PYTHONPATH=src python tests/test_baseline_goldens.py
"""

import json
from pathlib import Path

import pytest

from repro.core import StaticPolicy
from repro.experiments import common, fig10_shuffle

DATA = Path(__file__).parent / "data"
GOLDENS_PATH = DATA / "baseline_goldens.json"
DAEMON_META = json.loads(
    (DATA / "daemon_goldens.json").read_text())["meta"]
SEEDS = DAEMON_META["seeds"]
MODES = ("core-only", "io-iso")
STATIC_SEEDS = range(8)
STATIC_SCENARIOS = {
    "kvs": lambda: common.kvs_scenario(app="gcc"),
    "nfv": lambda: common.nfv_scenario(app="gcc"),
}


def record_fig10(mode: str, seed: int, monkeypatch) -> dict:
    """Run one Fig. 10 point and capture its scenario's mask sequence."""
    built = []

    def capture(**kwargs):
        scenario = common.shuffle_scenario(**kwargs)
        built.append(scenario)
        return scenario

    monkeypatch.setattr(fig10_shuffle, "shuffle_scenario", capture)
    point = fig10_shuffle.run_one(mode, seed=seed,
                                  **DAEMON_META["fig10_kwargs"])
    masks = [[record.ddio_mask,
              {name: snap.mask for name, snap in record.tenants.items()}]
             for record in built[0].sim.metrics.records]
    return {"masks": masks,
            "phase2_throughput": repr(point.phase2_throughput),
            "phase2_latency_ns": repr(point.phase2_latency_ns),
            "phase3_throughput": repr(point.phase3_throughput),
            "phase3_latency_ns": repr(point.phase3_latency_ns)}


def record_static(scenario_name: str, seed: int) -> dict:
    """Plan and program one static random placement."""
    scenario = STATIC_SCENARIOS[scenario_name]()
    policy = StaticPolicy(scenario.control_plane(), shuffle_seed=seed)
    policy.on_start(0.0)
    return {"group_masks": dict(policy.layout.group_masks),
            "ddio_mask": policy.layout.ddio_mask}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS_PATH.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", MODES)
def test_fig10_baseline_matches_golden(mode, seed, goldens, monkeypatch):
    actual = record_fig10(mode, seed, monkeypatch)
    golden = goldens["fig10"][mode][str(seed)]
    assert len(actual["masks"]) == len(golden["masks"])
    for quantum, (a, g) in enumerate(zip(actual["masks"],
                                         golden["masks"])):
        assert a == g, f"quantum {quantum} masks diverged: {a} != {g}"
    for key in ("phase2_throughput", "phase2_latency_ns",
                "phase3_throughput", "phase3_latency_ns"):
        assert actual[key] == golden[key], key


@pytest.mark.parametrize("scenario_name", sorted(STATIC_SCENARIOS))
def test_static_random_layouts_match_golden(scenario_name, goldens):
    for seed in STATIC_SEEDS:
        assert record_static(scenario_name, seed) == \
            goldens["static"][scenario_name][str(seed)], seed


def main() -> None:
    monkeypatch = pytest.MonkeyPatch()
    try:
        fig10 = {mode: {str(seed): record_fig10(mode, seed, monkeypatch)
                        for seed in SEEDS} for mode in MODES}
    finally:
        monkeypatch.undo()
    static = {name: {str(seed): record_static(name, seed)
                     for seed in STATIC_SEEDS}
              for name in sorted(STATIC_SCENARIOS)}
    doc = {"meta": {"seeds": SEEDS,
                    "fig10_kwargs": DAEMON_META["fig10_kwargs"],
                    "static_seeds": list(STATIC_SEEDS)},
           "fig10": fig10, "static": static}
    GOLDENS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True)
                            + "\n")
    print(f"wrote {GOLDENS_PATH}")


if __name__ == "__main__":
    main()

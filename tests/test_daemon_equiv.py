"""Behaviour-preservation contract for the controller-plane refactor.

``tests/data/daemon_goldens.json`` was captured from the *pre-refactor*
monolithic IAT daemon (the Fig. 10/11 harnesses at two seeds each).
These tests replay the same harness calls through the refactored stack
— ``ControllerDaemon`` driving a registry-constructed ``IATPolicy`` —
and require the iteration history to match field-for-field: same
timestamps, FSM states, change kinds, DDIO widths, per-group way
counts, and action strings.  Any behavioural drift in the policy split
shows up here as a named field diff, not a flaky figure.
"""

import json
from pathlib import Path

import pytest

from repro.core import ControllerDaemon, IATParams, create_policy
from repro.experiments import fig10_shuffle, fig11_timeline
from repro.experiments.common import shuffle_scenario

GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "daemon_goldens.json").read_text())
SEEDS = GOLDENS["meta"]["seeds"]


def serialize(history):
    """The goldens' field-for-field view of an iteration history."""
    return [{"time": entry.time, "state": entry.state.value,
             "kind": entry.kind.value, "ddio_ways": entry.ddio_ways,
             "group_ways": dict(entry.group_ways), "action": entry.action}
            for entry in history]


def assert_histories_equal(actual, golden):
    assert len(actual) == len(golden), \
        f"iteration count {len(actual)} != golden {len(golden)}"
    for i, (a, g) in enumerate(zip(actual, golden)):
        assert a == g, f"iteration {i} diverged: {a} != {g}"


@pytest.mark.parametrize("seed", SEEDS)
def test_fig11_history_matches_pre_refactor_golden(seed):
    result = fig11_timeline.run_point(seed=seed,
                                      **GOLDENS["meta"]["fig11_kwargs"])
    assert_histories_equal(serialize(result.daemon_history),
                           GOLDENS["fig11"][str(seed)])


@pytest.mark.parametrize("seed", SEEDS)
def test_fig10_iat_history_matches_pre_refactor_golden(seed):
    point = fig10_shuffle.run_one("iat", seed=seed,
                                  **GOLDENS["meta"]["fig10_kwargs"])
    assert_histories_equal(serialize(point.daemon_history),
                           GOLDENS["fig10"][str(seed)])


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_registry_constructed_iat_matches_shim(seed):
    """`create_policy("iat") + ControllerDaemon` via `attach_policy` is
    the same controller the figure harnesses' `attach_controller("iat")`
    constructs."""
    kwargs = GOLDENS["meta"]["fig11_kwargs"]

    def run(attach):
        scenario = shuffle_scenario(packet_size=kwargs["packet_size"],
                                    seed=seed)
        daemon = attach(scenario)
        c4 = scenario.workloads["c4"]
        scenario.sim.at(kwargs["t_grow"],
                        lambda: c4.set_working_set(10 << 20))
        scenario.sim.run(kwargs["t_end"])
        return serialize(daemon.history)

    via_shim = run(lambda sc: sc.attach_controller(
        "iat", manage_ddio=False))
    via_registry = run(lambda sc: sc.attach_policy(
        "iat", {"manage_ddio": False}))
    assert_histories_equal(via_registry, via_shim)


def test_registry_iat_is_a_controller_daemon():
    scenario = shuffle_scenario(packet_size=1500, seed=SEEDS[0])
    daemon = scenario.attach_policy("iat")
    assert isinstance(daemon, ControllerDaemon)
    assert daemon.policy.params == IATParams()
    assert daemon.interval_s == IATParams().interval_s

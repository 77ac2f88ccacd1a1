"""Output check: one digest per simulation, compared with the oracle.

A simulation's digest is a sha256 over every field of every
``QuantumRecord`` it recorded, in order, followed by every entry of
every controller's ``history`` (the daemon's iteration log).  Values are
rendered through canonical JSON (sorted keys, Python float ``repr``), so
two runs that agree bit for bit on every simulated statistic give the
same digest, and a change of one ulp in one IPC value does not.

Host-time fields (``ControllerDaemon.timings``) are deliberately left
out: they are wall-clock measurements and differ on every run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields, is_dataclass


def _plain(value):
    """JSON fallback for NumPy scalars, enums and FSM state objects."""
    if hasattr(value, "item"):
        return value.item()
    if hasattr(value, "value"):
        return value.value
    raise TypeError(f"cannot digest {type(value).__name__}")


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_plain).encode()


def _history_entry(entry) -> dict:
    if is_dataclass(entry):
        return {f.name: getattr(entry, f.name) for f in fields(entry)}
    return {"repr": repr(entry)}


def simulation_digest(sim) -> str:
    """Digest of one simulation's records and controller histories."""
    digest = hashlib.sha256()
    for record in sim.metrics.records:
        digest.update(_canonical(asdict(record)))
        digest.update(b"\n")
    for index, controller in enumerate(sim.controllers):
        digest.update(f"controller {index}\n".encode())
        for entry in getattr(controller, "history", None) or ():
            digest.update(_canonical(_history_entry(entry)))
            digest.update(b"\n")
    return digest.hexdigest()


def count_mismatches(observed: "list[str]", expected: "list[str]") -> int:
    """Failed operations of one pass: every simulation whose digest
    differs from the oracle's, plus every simulation missing or extra."""
    failed = sum(1 for a, b in zip(observed, expected) if a != b)
    return failed + abs(len(observed) - len(expected))

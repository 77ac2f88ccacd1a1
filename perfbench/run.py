"""Repository benchmark: host time of the simulator on three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload leaky-dma --seed 3 --seconds 55 \
        --trace 0

Each pass of the workload runs in a fresh process (``worker.py``) with
BLAS/OpenMP threads pinned to 1.  Passes repeat while one more, as slow
as the slowest so far, would end within ``--seconds`` (at least two).
Untraced passes scale their times to a nominal host speed with a
calibration kernel (``probes.Calibration``).  Every pass runs the same
input, so the end-to-end times take, for each quantum and each set-up,
its median over the passes (see :func:`per_item_median`).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

Every pass digests each simulation's output and compares it with the
scalar oracle's digest recorded in ``oracle.json``; a mismatch is a
failed operation.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from digest import count_mismatches

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
ORACLE = os.path.join(HERE, "oracle.json")
DECLARED = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("leaky-dma", "app-corun", "iat-timeline")
MIN_PASSES = 2
#: Every pass, and the whole run, must end within this many seconds.
DEADLINE_S = 170.0
#: A traced pass must attribute all but this share of its wall time to
#: layer spans (attribution closure).
RESIDUAL_BOUND = 0.05

def _fail(message: str) -> "int":
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------
def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git (a
    checkout that is not a repository reports ``unknown``)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha() -> str:
    """sha256 over ``src/**/*.py``: identifies the measured code even
    where no git metadata exists."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------
def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(workload: str, index: int, *, traced: bool, scratch: str,
               timeout: float, exec_mode: "str | None" = None) -> dict:
    """One pass in a fresh process; raises RuntimeError on failure."""
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--index", str(index), "--scratch", scratch]
    if traced:
        cmd.append("--trace")
    if exec_mode:
        cmd += ["--exec-mode", exec_mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{workload} pass exceeded {timeout:.0f} s") \
            from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} pass failed "
                           f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _percentile(values: "list[float]", pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def per_item_median(passes: "list[dict]", key: str) -> "list[float]":
    """Element-wise median of ``key`` over the passes of one run.

    Every pass of a run builds the same input, and the simulator is
    deterministic, so the i-th element is the same work in every pass
    (a quantum, or a simulation's set-up).
    """
    rows = [p[key] for p in passes]
    if len({len(row) for row in rows}) != 1:
        raise RuntimeError(f"passes of one input differ in their number "
                           f"of {key} samples")
    return [statistics.median(column) for column in zip(*rows)]


def typical_wall(passes: "list[dict]") -> float:
    """Wall time of a pass made of its typical parts: each set-up, each
    quantum and the rest (see ``worker.timing_parts``) at its median
    over the passes."""
    return (sum(per_item_median(passes, "setup_sims"))
            + sum(per_item_median(passes, "quantum_ms")) / 1e3
            + statistics.median(p["rest_s"] for p in passes))


def end_to_end(parts: "list[dict]") -> dict:
    quanta = per_item_median(parts, "quantum_ms")
    return {
        "setup_s": sum(per_item_median(parts, "setup_sims")),
        "wall_s": typical_wall(parts),
        "quantum_ms.p50": statistics.median(quanta),
        "quantum_ms.p90": _percentile(quanta, 90),
    }


def summarize(plain: "list[dict]", traced: "list[dict]") -> dict:
    """End-to-end metrics (no traced passes) or per-layer metrics."""
    if not traced:
        metrics = end_to_end([p["scaled"] for p in plain])
        metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"]
                                                   for p in plain)
        return metrics
    names = traced[0]["layers"]
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               for name in names}
    metrics["quantum_ms.samples"] = len(plain[0]["host"]["quantum_ms"])
    # Traced passes do not calibrate, so the overhead compares host times.
    metrics["trace.overhead"] = (
        typical_wall([p["host"] for p in traced])
        / typical_wall([p["host"] for p in plain]) - 1.0)
    return metrics


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # On SIGTERM, unwind: the running pass is killed and waited for, and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        return _fail(f"no simulator sources under {ROOT}/src")
    with open(ORACLE) as handle:
        oracle = json.load(handle)
    index = args.seed % oracle["inputs"]
    expected = oracle["digests"][args.workload].get(str(index))
    if expected is None:
        return _fail(f"oracle.json has no digests for {args.workload} "
                     f"input {index}")

    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    plain: "list[dict]" = []
    traced: "list[dict]" = []
    attempted = failed = 0
    residual_ok = True
    slowest = 0.0
    try:
        while True:
            passes = len(plain) + len(traced)
            elapsed = time.monotonic() - started
            if passes >= MIN_PASSES and (
                    elapsed + slowest > min(args.seconds, DEADLINE_S)):
                break
            trace_this = bool(args.trace) and passes % 2 == 1
            pass_start = time.monotonic()
            result = run_worker(args.workload, index, traced=trace_this,
                                scratch=scratch,
                                timeout=DEADLINE_S - elapsed)
            slowest = max(slowest, time.monotonic() - pass_start)
            attempted += len(result["digests"])
            failed += count_mismatches(result["digests"], expected)
            if trace_this:
                traced.append(result)
                share = result["layers"]["trace.residual_share"]
                residual_ok &= abs(share) <= RESIDUAL_BOUND
            else:
                plain.append(result)
        values = summarize(plain, traced)
    except RuntimeError as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    with open(DECLARED) as handle:
        declared = json.load(handle)
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        return _fail(f"metrics differ from BENCHMARK.json: "
                     f"{sorted(set(units) ^ set(values))}")
    provenance = {
        "workload": args.workload, "seed": args.seed, "input_index": index,
        "held_out_seed": oracle["held_out_seed"],
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": plain[0]["python"], "numpy": plain[0]["numpy"],
        "git_sha": _git_sha(), "source_sha256": _source_sha(),
        "residual_bound": RESIDUAL_BOUND,
        # The end-to-end times before scaling to the nominal host speed.
        "host_time": end_to_end([p["host"] for p in plain]),
    }
    print(json.dumps({"provenance": provenance}))
    for name, value in values.items():
        print(f"  {name:<48} {value:.6g}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    print(json.dumps({"correct": failed == 0 and residual_ok,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record or verify ``oracle.json``: the expected output digests.

The oracle is the simulator's reference configuration — scalar
execution (``exec_mode="scalar"``) on the scalar LLC backend — run once
per workload and input index.  ``run.py`` compares every timed pass of
the fast path against these digests.  Usage::

    python3 perfbench/oracle.py record [--jobs 2] [--workload W ...]
    python3 perfbench/oracle.py verify [--jobs 2] [--workload W ...]

``record`` runs the scalar oracle (slow) and rewrites the digests of the
named workloads (default: all) in ``oracle.json``.  Re-record only when
a change is meant to alter simulated results, and say so in the change.
``verify`` runs the vector fast path and exits non-zero if any digest
differs from the recorded one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

from run import ORACLE, ROOT, WORKLOADS, _git_sha, _source_sha, run_worker

#: Input indices in the table; ``run.py`` maps ``--seed`` onto them.
INPUTS = 16
#: Claims must also hold on this seed; never tune a change on it.
HELD_OUT_SEED = 15
#: Per-pass timeout; the scalar oracle runs up to ~10x slower.
TIMEOUT_S = 1800.0


def _collect(workloads, exec_mode: "str | None", jobs: int) -> dict:
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    tasks = [(w, i) for w in workloads for i in range(INPUTS)]

    def one(task):
        workload, index = task
        result = run_worker(workload, index, traced=False, scratch=scratch,
                            timeout=TIMEOUT_S, exec_mode=exec_mode)
        print(f"{workload} input {index}: {result['wall_s']:.1f} s",
              file=sys.stderr, flush=True)
        return task, result["digests"]

    try:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            found = dict(pool.map(one, tasks))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {w: {str(i): found[(w, i)] for i in range(INPUTS)}
            for w in workloads}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("record", "verify"))
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    workloads = args.workload or WORKLOADS
    if args.action == "record":
        doc = {"digests": {}}
        if os.path.exists(ORACLE):
            with open(ORACLE) as handle:
                doc = json.load(handle)
        doc["digests"].update(_collect(workloads, "scalar", args.jobs))
        doc.update(inputs=INPUTS, held_out_seed=HELD_OUT_SEED,
                   recorded_with={"exec_mode": "scalar",
                                  "llc_backend": "scalar",
                                  "git_sha": _git_sha(),
                                  "source_sha256": _source_sha()})
        with open(ORACLE, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return 0
    with open(ORACLE) as handle:
        expected = json.load(handle)["digests"]
    observed = _collect(workloads, None, args.jobs)
    bad = [(w, i) for w in workloads for i in expected[w]
           if observed[w][i] != expected[w][i]]
    for workload, index in bad:
        print(f"MISMATCH {workload} input {index}", file=sys.stderr)
    print(f"{len(bad)} of {len(workloads) * INPUTS} inputs differ from "
          f"the oracle", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

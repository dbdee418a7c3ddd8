"""Record the per-class error anchors in anchors.json.

    python3 perfbench/record_anchors.py

Run from the repository root.  Solves every problem of every workload for
seeds 0..SEEDS[workload]-1 and stores, per problem class, FACTOR times the
worst relative l2 error seen (at least FLOOR).  A later error above its class's anchor
fails the problem; the anchors are a record of this commit's accuracy, so
re-record them only when the generator changes, never to pass a run.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from run import BLAS_ENV

FACTOR = 10.0
FLOOR = 1e-12
# The Chebyshev d=3 n=10 errors have a rare region of large error: about 1
# draw in 400 is above 2e-2 and the largest seen in 2000 draws is 0.11, while
# the median is 4e-4.  spectral-direct gets enough draws to reach it.
SEEDS = {"lattice-periodic": 30, "lattice-restricted": 30, "spectral-direct": 300,
         "cli-certified": 30}


def main() -> int:
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    worst = {}
    for name in workloads.WORKLOADS:
        for seed in range(SEEDS[name]):
            for p in workloads.make_cycle(name, seed, 0, workloads.HERE / "out" / "anchors"):
                out = workloads.execute(p, {})
                if out.failure and not out.failure.startswith("no error anchor"):
                    print(f"{name} seed {seed} {p.label}: {out.failure}")
                if out.error == out.error:  # not NaN
                    worst[p.label] = max(worst.get(p.label, 0.0), out.error)
        print(f"{name}: done", flush=True)
    anchors = {k: max(FACTOR * v, FLOOR) for k, v in sorted(worst.items())}
    workloads.ANCHORS_PATH.write_text(json.dumps({
        "about": f"{FACTOR:g} x the worst relative l2 error over seeds 0..N-1, "
                 f"N per workload {SEEDS}, floor {FLOOR:g}", "worst": dict(sorted(worst.items())),
        "anchors": anchors}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

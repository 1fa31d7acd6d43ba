"""Benchmark of ``sst``: perturb-and-MAP draws, relaxed SST steps, annealed solves.

    python3 perfbench/run.py --workload perturb_map --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The command starts one fresh
worker process for the workload with the BLAS/OpenMP pools pinned to one
thread, waits for it, keeps its result under ``perfbench/out/`` and
prints the result as the last line of standard output:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see README.md).  A failed check of
``sst``'s outputs shows as ``"correct": false``; the exit code is not 0
when no result could be made.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("perturb_map", "relaxed_step", "anneal")
CHILD_TIMEOUT_S = 170
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sst", "__init__.py")):
        sys.stderr.write(f"perfbench: no sst sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED})
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run imports sst equally cold
    env.pop("PYTHONPATH", None)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # the last argument is the spawn time, on the clock the worker reads
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {tag} did not finish within {CHILD_TIMEOUT_S} s\n")
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"perfbench: worker for {tag} exited {proc.returncode}\n")
        return 4
    result = json.loads(lines[-1])
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    for failure in result.get("failures", []):
        sys.stderr.write(f"perfbench: check failed: {failure}\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

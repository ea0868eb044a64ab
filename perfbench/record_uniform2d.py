"""Record the optimum weights of the uniform2d pool for the default seed.

The benchmark compares its seed-0 answers with this record, so a change
that alters a weight fails the check even when its witness is
self-consistent.  Re-record only when the workload's pool changes:

    python3 perfbench/record_uniform2d.py
"""

from __future__ import annotations

import json
import os
import sys

from workloads import UNIFORM_RECORD, WORKLOADS, load_program

SEED = 0


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    prog = load_program(src)
    workload = WORKLOADS["uniform2d"]
    seeds, weights = [], []
    for _label, instance, source in workload.generate(prog, SEED):
        sol = prog.solver2d.solve_2d(prog.model.canonicalize(instance))
        seeds.append(source)
        weights.append(str(sol.weight))
    record = {"seed": SEED, "n": workload.n, "instance_seeds": seeds, "weights": weights}
    with open(UNIFORM_RECORD, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(weights)} weights to {UNIFORM_RECORD}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

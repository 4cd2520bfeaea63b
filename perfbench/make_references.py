"""Write ``references.json``: the output of every workload's input variants.

Run from the repository root, on the commit whose outputs are the reference::

    python3 perfbench/make_references.py                   # every workload
    python3 perfbench/make_references.py certify-region    # only the named ones

Regenerate only when a change is meant to move the outputs, and say why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import HERE, WORK, import_cli, run_op
from workloads import POOL, TINY, WORKLOADS


def main(names: list[str]) -> int:
    cli = import_cli()
    workloads = [*WORKLOADS.values(), TINY]
    unknown = set(names) - {w.name for w in workloads}
    if unknown:
        print(f"unknown workloads: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    path = HERE / "references.json"
    references: dict[str, dict[str, str]] = json.loads(path.read_text()) if names else {}
    for workload in workloads:
        if names and workload.name not in names:
            continue
        references[workload.name] = {}
        for variant in range(POOL):
            workdir = WORK / f"references-{os.getpid()}"
            workdir.mkdir(parents=True)
            try:
                op = run_op(cli, workload.op_argv(variant, workdir))
            finally:
                shutil.rmtree(workdir)
            if op.rc != 0:
                print(f"{workload.name} variant {variant} failed:\n{op.stderr}", file=sys.stderr)
                return 1
            references[workload.name][str(variant)] = op.stdout
            print(f"{workload.name} variant {variant}: {op.wall_s:.2f} s", flush=True)
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

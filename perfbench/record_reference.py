"""Record the reference stdout of every workload for a range of seeds.

Usage (from the repository root)::

    python3 perfbench/record_reference.py FIRST LAST [EXTRA_SEED ...] [--workload NAME ...]

Runs each workload (or each one named) once per seed in this process and merges the outputs
into ``perfbench/reference.json``, which the benchmark checks every call
against. Record only at a commit whose outputs are known to be right: the
file is the oracle later changes are held to.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import tempfile

from run import REFERENCE, ROOT, SRC
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", metavar="FIRST LAST [EXTRA_SEED ...]")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("give at least FIRST and LAST")
    first, last, *extra = args.seeds
    seeds = [*range(first, last + 1), *extra]
    sys.path.insert(0, str(SRC))
    from wassdep.cli import main as wassdep_main

    with open(REFERENCE) as fh:
        recorded = json.load(fh)
    for name in args.workload or WORKLOADS:
        workload = WORKLOADS[name]
        table = recorded.setdefault(name, {})
        for seed in seeds:
            outputs = []
            workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
            try:
                for k, argv in enumerate(workload.write_inputs(workdir, seed)):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        rc = wassdep_main(argv)
                    problem = workload.check(rc, out.getvalue(), None)
                    if problem is not None:
                        print(f"error: {name} seed {seed} problem {k}: {problem}", file=sys.stderr)
                        return 1
                    outputs.append(out.getvalue())
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            table[str(seed)] = outputs
        with open(REFERENCE, "w") as fh:
            json.dump(recorded, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(seeds)} seeds recorded", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

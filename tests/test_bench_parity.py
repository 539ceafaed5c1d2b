"""The benchmark's own output check, run in-process on each workload at seed 0,
and on conditional_n200k at the held-out seed 9973 too.

perfbench/run.py accepts a call only when it exits 0, prints the same stdout
as the untimed call before it, and matches perfbench/reference.json within
1e-10. This applies the same check through perfbench's own ``Workload`` so a
change that would fail the benchmark fails here first.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from wassdep.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()
SEED = 0
HELD_OUT_SEED = 9973


def _call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def _check(name, seed, directory):
    workload = WORKLOADS[name]
    with open(PERFBENCH / "reference.json") as fh:
        references = json.load(fh)[name][str(seed)]
    argvs = workload.write_inputs(str(directory), seed)
    assert len(argvs) == len(references)
    for argv, reference in zip(argvs, references):
        first, second = _call(argv), _call(argv)
        assert first == second
        assert workload.check(*first, reference) is None


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_output_passes_the_benchmark_check(name, tmp_path):
    _check(name, SEED, tmp_path)


def test_conditional_workload_passes_the_benchmark_check_at_the_held_out_seed(tmp_path):
    _check("conditional_n200k", HELD_OUT_SEED, tmp_path)

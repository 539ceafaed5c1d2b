"""The benchmark's own test: every workload at a small size through measure().

Run from the repository root: ``python3 -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import pytest

from layers import BindingError, LayerTrace
from run import END_TO_END, PER_LAYER, ROOT, SRC, load_reference, measure
from workloads import WORKLOADS

SMALL = {
    "joint_n1500": replace(WORKLOADS["joint_n1500"], n=60),
    "conditional_n200k": replace(WORKLOADS["conditional_n200k"], n=3000),
    "permtest_n200": replace(WORKLOADS["permtest_n200"], n=30, permutations=19),
    "ot_entropic_60x48": replace(WORKLOADS["ot_entropic_60x48"], n=12, m=10),
}
HELD_OUT_SEED = 9973


def test_benchmark_json_matches_the_code():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER


def test_reference_covers_every_workload_and_the_held_out_seed():
    for name, workload in WORKLOADS.items():
        for seed in (0, 99, HELD_OUT_SEED):
            assert len(load_reference(name, seed)) == workload.problems


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(SMALL))
def test_every_metric_is_emitted_and_no_call_fails(name, trace):
    run = measure(SMALL[name], seed=3, seconds=0.2, trace=trace, reference=None, min_fresh=2)
    assert run["failures"] == []
    assert run["metrics"]["fail_frac"] == 0.0
    listed = PER_LAYER if trace else END_TO_END
    assert set(listed) <= set(run["metrics"])
    if trace:
        assert run["metrics"]["cli.load_rows"] == SMALL[name].rows
    else:
        assert all(run["metrics"][m] > 0 for m in END_TO_END)


def test_a_corrupted_reference_value_counts_as_a_failure():
    workload = SMALL["permtest_n200"]
    good = measure(workload, seed=5, seconds=0.2, trace=False, reference=None, min_fresh=1)
    assert good["failures"] == []
    assert measure(workload, 5, 0.2, False, good["outputs"], min_fresh=1)["failures"] == []
    corrupted = json.loads(good["outputs"][0])
    corrupted["value"] *= 1.0 + 1e-8
    bad = measure(workload, 5, 0.2, False, [json.dumps(corrupted)], min_fresh=1)
    assert len(bad["failures"]) == bad["attempted"]
    assert bad["metrics"]["fail_frac"] == 1.0


def test_a_missing_rebound_name_fails_the_trace_and_names_it(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    import wassdep.cli  # noqa: F401  (loads every module the trace rebinds)
    import wassdep.exact

    monkeypatch.delattr(wassdep.exact, "linprog")
    tracer = LayerTrace()
    with pytest.raises(BindingError, match=r"wassdep\.exact\.linprog"):
        tracer.install()
    tracer.uninstall()
    assert not hasattr(wassdep.cli.load_sample, "__wrapped__")
    assert wassdep.exact.cost_matrix is sys.modules["wassdep.measures"].cost_matrix

"""wassdep benchmark: fixed-seed CLI workloads, end-to-end metrics, layer trace.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run writes the workload's inputs from ``--seed`` into a temporary
directory under the repository root, then:

* ``--trace 0`` starts one fresh interpreter (``worker.py``) that calls
  ``wassdep.cli.main`` once untimed per input. For ``--seconds`` in all it
  then alternates two things: the ``wassdep`` command run once as a fresh
  process, while the worker waits, and a chunk of warm ``main`` calls back
  to back in the worker (a closed loop with one caller). The fresh
  processes take about ``FRESH_SHARE`` of the time, and at least
  ``MIN_FRESH`` of them run. It reports the end-to-end metrics.
* ``--trace 1`` runs the same loop without the fresh processes, in four
  chunks that alternate untraced and traced calls. Traced calls run with
  the layer functions rebound to timing wrappers (see ``layers.py``). It
  reports the per-layer metrics.

Every call's output is checked: exit code 0, stdout byte-identical to the
untimed call's, the command's seed-free invariants, and, when
``reference.json`` holds this seed, every field against the recorded one.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it describe the machine and
give every metric with its sample counts. The run exits 1 without a result
when the sources under ``src/`` are missing or a process fails.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Workload
from worker import monotonic_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# Share of a --trace 0 run spent on fresh wassdep processes, and the fewest
# of them a run makes.
FRESH_SHARE = 0.4
MIN_FRESH = 3
RUN_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "cli_s.p50": "s",
    "call_s.p50": "s",
    "call_s.tail": "s",
    "cpu_s.p50": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.load_s": "s",
    "cli.load_rows": "rows",
    "empirical.partition_s": "s",
    "empirical.partition_groups": "groups",
    "empirical.product_estimator_s": "s",
    "empirical.product_estimator_calls": "count",
    "harness.permutation_test_s": "s",
    "harness.replicates": "count",
    "empirical.gmd_s": "s",
    "empirical.gmd_calls": "count",
    "empirical.dirac_s": "s",
    "empirical.dirac_calls": "count",
    "measures.cost_matrix_s": "s",
    "measures.cost_matrix_calls": "count",
    "measures.cost_matrix_cells": "cells",
    "exact.assignment_s": "s",
    "exact.assignment_calls": "count",
    "exact.assignment_cells": "cells",
    "exact.quantile_s": "s",
    "exact.quantile_calls": "count",
    "exact.quantile_atoms": "atoms",
    "exact.lp_s": "s",
    "exact.lp_calls": "count",
    "exact.lp_cells": "cells",
    "entropic.sinkhorn_s": "s",
    "entropic.lse_s": "s",
    "entropic.lse_calls": "count",
    "entropic.lse_cells": "cells",
    "joint.i_joint_s": "s",
    "conditional.i_conditional_s": "s",
    "cli.untraced_s": "s",
    "trace.overhead_s": "s",
}

# The wassdep console script, with the moment its import finished written
# to stderr so one fresh process yields both a set-up and a CLI sample.
FRESH = (
    "import sys, time\n"
    "from wassdep.cli import main\n"
    "sys.stderr.write('perfbench-imported-ns %d\\n' % time.clock_gettime_ns(time.CLOCK_MONOTONIC))\n"
    "sys.exit(main(sys.argv[1:]))\n"
)
IMPORTED = "perfbench-imported-ns "


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _fresh_call(argvs: list[list[str]], k: int, deadline: float) -> dict:
    """One ``wassdep`` invocation as its own process, timed from outside."""
    start = monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", FRESH, *argvs[k]], capture_output=True, text=True,
            cwd=ROOT, env=_environment(), timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a fresh wassdep process overran the run's {RUN_BUDGET_S:.0f} s budget") from None
    end = monotonic_ns()
    stamps = [line for line in proc.stderr.splitlines() if line.startswith(IMPORTED)]
    if not stamps:
        raise BenchError(f"fresh wassdep process failed before its import finished: {proc.stderr[-2000:]}")
    return {
        "phase": "fresh",
        "input": k,
        "rc": proc.returncode,
        "stdout": proc.stdout,
        "stderr": proc.stderr[-2000:],
        "setup_s": (int(stamps[-1][len(IMPORTED):]) - start) / 1e9,
        "wall_s": (end - start) / 1e9,
    }


class _Worker:
    """The worker process (``worker.py``), driven one command at a time."""

    def __init__(self, argvs: list[list[str]], deadline: float, workdir: str):
        self._stderr = open(os.path.join(workdir, "worker.stderr"), "w+")
        spec = {"argvs": argvs, "spawn_ns": monotonic_ns()}
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            text=True, cwd=ROOT, env=_environment(),
        )
        self._timer = threading.Timer(max(deadline - time.monotonic(), 1.0), self._proc.kill)
        self._timer.start()

    def __enter__(self) -> "_Worker":
        self._expect("ready")
        return self

    def __exit__(self, *exc) -> None:
        self._timer.cancel()
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._stderr.close()

    def _fail(self) -> BenchError:
        timed_out = self._timer.finished.is_set()
        self._proc.kill()
        self._proc.wait()
        if timed_out:
            return BenchError(f"the worker overran the run's {RUN_BUDGET_S:.0f} s budget")
        self._stderr.seek(0)
        return BenchError(f"worker exited with {self._proc.returncode}: {self._stderr.read()[-2000:]}")

    def _command(self, command: dict) -> str:
        try:
            self._proc.stdin.write(json.dumps(command) + "\n")
            self._proc.stdin.flush()
        except BrokenPipeError:
            raise self._fail() from None
        return self._proc.stdout.readline()

    def _expect(self, word: str) -> None:
        if self._proc.stdout.readline().strip() != word:
            raise self._fail()

    def run(self, until: float, traced: bool, final: bool) -> None:
        if self._command({"until": until, "traced": traced, "final": final}).strip() != "done":
            raise self._fail()

    def finish(self) -> dict:
        line = self._command({"finish": True})
        if not line.strip():
            raise self._fail()
        return json.loads(line)


def _unit(name: str) -> str:
    units = {**END_TO_END, **PER_LAYER, "fail_frac": "share"}
    return units.get(name, "s" if name.endswith("_s") else "count")


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    reference: list[str] | None,
    min_fresh: int = MIN_FRESH,
) -> dict:
    """Run one workload and return its checked calls and metrics.

    ``reference`` holds one recorded stdout per problem, or is None.
    ``metrics`` holds every metric this mode produces; ``details`` holds
    sample counts and the BLAS libraries; ``failures`` lists why calls
    failed; ``outputs`` holds the untimed stdout of each problem.
    """
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    fresh = []
    try:
        argvs = workload.write_inputs(workdir, seed)
        deadline = time.monotonic() + RUN_BUDGET_S
        # Chunks of warm calls alternate with the fresh processes (or with
        # traced chunks), so every figure spans the whole run and machine
        # speed that drifts within it weighs on all of them alike. The first
        # fresh process sets how many fit in their share of the run.
        with _Worker(argvs, deadline, workdir) as worker:
            if trace:
                for until, traced, final in ((0.25, False, False), (0.25, True, False),
                                             (0.5, False, False), (0.5, True, True)):
                    worker.run(until * seconds, traced, final)
            else:
                fresh.append(_fresh_call(argvs, 0, deadline))
                rounds = max(min_fresh, round(FRESH_SHARE * seconds / fresh[0]["wall_s"]))
                warm_s = (1.0 - FRESH_SHARE) * seconds
                for k in range(1, rounds + 1):
                    worker.run(warm_s * k / rounds, traced=False, final=k == rounds)
                    if k < rounds:
                        fresh.append(_fresh_call(argvs, k % len(argvs), deadline))
            result = worker.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calls = result["calls"] + fresh
    untimed = [c["stdout"] for c in calls if c["phase"] == "untimed"]
    failures = []
    for call in calls:
        k = call["input"]
        why = workload.check(call["rc"], call["stdout"], None if reference is None else reference[k])
        if why is None and call["stdout"] != untimed[k]:
            why = "stdout differs from the untimed call's"
        if why is not None:
            failures.append(f"{call['phase']} call: {why}; stderr: {call['stderr'].strip()[-300:]}")

    warm = sorted(c["wall_s"] for c in calls if c["phase"] == "warm")
    call_p50 = statistics.median(warm)
    # The tail is the call with ten slower calls beyond it. With fewer than
    # eleven calls none has, and the median stands in: the fastest of a
    # handful of calls swings with machine speed far more than their median.
    if len(warm) >= 11:
        call_tail, tail_percentile = warm[-11], 100.0 * (len(warm) - 10) / len(warm)
    else:
        call_tail, tail_percentile = call_p50, 50.0
    setups = [result["setup_s"]] + [c["setup_s"] for c in fresh]
    metrics: dict[str, float] = {}
    details = {
        "call_s.calls": len(warm),
        "call_s.tail_percentile": tail_percentile,
        "setup_s.samples": len(setups),
        "attempted": len(calls),
        "blas": result["blas"],
    }
    if trace:
        traced = [c for c in calls if c["phase"] == "traced"]
        for name in traced[0]["layers"]:
            # Counts repeat exactly from call to call; keep them whole.
            middle = statistics.median if name.endswith("_s") else statistics.median_low
            metrics[name] = middle(c["layers"][name] for c in traced)
        metrics["trace.overhead_s"] = statistics.median(c["wall_s"] for c in traced) - call_p50
        details["traced.calls"] = len(traced)
    else:
        metrics.update({
            "setup_s": statistics.median(setups),
            "cli_s.p50": statistics.median(c["wall_s"] for c in fresh),
            "call_s.p50": call_p50,
            "call_s.tail": call_tail,
            "cpu_s.p50": statistics.median(c["cpu_s"] for c in calls if c["phase"] == "warm"),
            "rows_per_s": workload.rows * len(warm) / sum(warm),
            "peak_rss_mb": result["peak_rss_mb"],
        })
        details["cli_s.calls"] = len(fresh)
    metrics["fail_frac"] = len(failures) / len(calls)
    return {
        "metrics": metrics,
        "details": details,
        "failures": failures,
        "attempted": len(calls),
        "outputs": untimed,
    }


def load_reference(workload: str, seed: int) -> list[str] | None:
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wassdep" / "cli.py").is_file():
        print(f"error: wassdep sources not found under {SRC}", file=sys.stderr)
        return 1
    reference = load_reference(args.workload, args.seed)
    try:
        run = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("machine: " + json.dumps({**machine(), "blas": run["details"].pop("blas")}))
    print(f"workload: {args.workload} seed {args.seed}; reference "
          + ("recorded" if reference is not None else "not recorded for this seed (invariants and call-to-call equality only)"))
    print("details: " + json.dumps(run["details"]))
    for name, value in run["metrics"].items():
        print(f"  {name} = {value!r} {_unit(name)}")
    for failure in run["failures"][:5]:
        print(f"FAILED {failure}")
    listed = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": {name: {"value": run["metrics"][name], "unit": unit} for name, unit in listed.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

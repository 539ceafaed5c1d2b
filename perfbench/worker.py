"""Warm in-process calls of ``wassdep.cli.main`` in one fresh interpreter.

Usage: ``python3 perfbench/worker.py SPEC`` where SPEC is a JSON object with
``argvs`` (one list of wassdep arguments per problem) and ``spawn_ns`` (the
parent's CLOCK_MONOTONIC reading just before it started this process).

The worker imports wassdep, calls ``main`` once untimed per problem and
prints ``ready``. It then reads one JSON command per stdin line:

* ``{"until": S, "traced": T, "final": F}`` calls ``main`` back to back,
  cycling through the problems, until the calls of this kind (traced when T
  is true, warm otherwise) have taken S seconds in all, earlier commands
  included; with F true it also completes the current cycle. It prints
  ``done``. Counting from the start of the loop keeps one chunk's overshoot
  from adding to the next.
* ``{"finish": true}`` prints one JSON object with every call's phase,
  problem, exit code, stdout, wall and CPU time (and layer figures when
  traced), plus the process's set-up time, peak memory and BLAS libraries,
  and exits.

Between commands the worker is idle, so the parent can time other
processes without contention.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import time


def monotonic_ns() -> int:
    """CLOCK_MONOTONIC is system-wide, so readings compare across processes."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _blas_libraries() -> list[dict]:
    """Each loaded OpenBLAS: file name, build configuration, thread count."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for name in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
            threads = getattr(lib, name.format("get_num_threads"), None)
            config = getattr(lib, name.format("get_config"), None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                entry.update(config=config().decode(), threads=threads())
                break
        found.append(entry)
    return found


def _call(invoke) -> dict:
    out, err = io.StringIO(), io.StringIO()
    cpu = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc, wall = invoke()
    return {
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
        "wall_s": wall,
        "cpu_s": time.process_time() - cpu,
    }


class _Loop:
    """Back-to-back calls that keep their place in the problem cycle."""

    def __init__(self, argvs: list[list[str]], wassdep_main):
        self.argvs = argvs
        self.main = wassdep_main
        self.next = 0
        self.calls: list[dict] = []
        self.spent = {"warm": 0.0, "traced": 0.0}

    def plain(self, k: int):
        start = time.perf_counter()
        rc = self.main(self.argvs[k])
        return rc, time.perf_counter() - start

    def untimed(self) -> None:
        for k in range(len(self.argvs)):
            record = _call(lambda: self.plain(k))
            record.update(phase="untimed", input=k)
            self.calls.append(record)

    def run(self, until: float, traced: bool, final: bool) -> None:
        """Call until this phase has spent ``until`` seconds in all; when
        ``final``, also until the cycle through the problems is complete."""
        phase = "traced" if traced else "warm"
        tracer = None
        if traced:
            from layers import LayerTrace

            tracer = LayerTrace()
            tracer.install()
        start = time.perf_counter()
        before = self.spent[phase]
        try:
            while before + time.perf_counter() - start < until or (final and self.next != 0):
                k = self.next
                if tracer is None:
                    record = _call(lambda: self.plain(k))
                else:
                    record = _call(lambda: tracer.call(self.main, self.argvs[k]))
                    record["layers"] = tracer.snapshot()
                    tracer.reset()
                record.update(phase=phase, input=k)
                self.calls.append(record)
                self.next = (k + 1) % len(self.argvs)
        finally:
            self.spent[phase] = before + time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()


def main() -> int:
    spec = json.loads(sys.argv[1])
    from wassdep.cli import main as wassdep_main

    setup_s = (monotonic_ns() - spec["spawn_ns"]) / 1e9
    loop = _Loop(spec["argvs"], wassdep_main)
    loop.untimed()
    print("ready", flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        if command.get("finish"):
            break
        loop.run(command["until"], command["traced"], command["final"])
        print("done", flush=True)
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas": _blas_libraries(),
        "calls": loop.calls,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

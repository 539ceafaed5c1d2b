"""Outside-in layer timing for wassdep.

The program is not modified. :class:`LayerTrace` rebinds each layer
function, and each solver-route name that wassdep's modules import, to a
timing wrapper in every loaded ``wassdep`` module that holds it. A layer's
self time is its wrapped calls' duration minus the time of the wrapped calls
nested inside them; ``cli.untraced`` is the part of a whole ``main`` call
that no span covers.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable

Counter = Callable[[tuple, dict, object], int]


def _rows(args, kwargs, result) -> int:
    return result.n


def _groups(args, kwargs, result) -> int:
    return result.k


def _replicates(args, kwargs, result) -> int:
    return kwargs["b"] if "b" in kwargs else args[2]


def _result_size(args, kwargs, result) -> int:
    return result.size


def _first_arg_size(args, kwargs, result) -> int:
    return args[0].size


def _quantile_atoms(args, kwargs, result) -> int:
    return len(args[0]) + len(args[2])


# (layer, module holding the name, name, modules that must import it,
#  work-count metric, work counter)
SPANS: tuple[tuple[str, str, str, tuple[str, ...], str | None, Counter | None], ...] = (
    ("cli.load", "cli", "load_sample", ("cli",), "cli.load_rows", _rows),
    ("cli.load", "cli", "load_cloud", ("cli",), "cli.load_rows", _rows),
    ("joint.i_joint", "joint", "i_joint", ("cli", "harness"), None, None),
    ("conditional.i_conditional", "conditional", "i_conditional", ("cli", "harness"), None, None),
    ("harness.permutation_test", "harness", "permutation_test", ("cli",), "harness.replicates", _replicates),
    ("entropic.sinkhorn", "entropic", "sinkhorn_discrepancy", ("cli", "conditional"), None, None),
    ("empirical.partition", "empirical", "partition", ("conditional",), "empirical.partition_groups", _groups),
    ("empirical.product_estimator", "empirical", "product_estimator", ("joint", "harness"), None, None),
    ("empirical.gmd", "empirical", "gmd_ustat", ("joint", "conditional"), None, None),
    ("empirical.dirac", "empirical", "dirac_transport_cost", ("conditional",), None, None),
    ("measures.cost_matrix", "measures", "cost_matrix", ("exact", "entropic", "empirical"), "measures.cost_matrix_cells", _result_size),
    ("exact.assignment", "exact", "linear_sum_assignment", ("exact",), "exact.assignment_cells", _first_arg_size),
    ("exact.quantile", "exact", "_quantile_cost", ("conditional",), "exact.quantile_atoms", _quantile_atoms),
    ("exact.lp", "exact", "linprog", ("exact",), "exact.lp_cells", _first_arg_size),
    ("entropic.lse", "entropic", "logsumexp", ("entropic",), "entropic.lse_cells", _first_arg_size),
)

ROOT = "cli.untraced"


class BindingError(RuntimeError):
    """A name the trace must rebind is gone from the module expected to hold it."""


class LayerTrace:
    """Per-call self time, call counts and work counts for each layer."""

    def __init__(self):
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def _wrap(self, layer: str, fn, work: str | None, counter: Counter | None):
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.seconds[layer] += elapsed - self._stack.pop()
                self.counts[f"{layer}_calls"] += 1
                if self._stack:
                    self._stack[-1] += elapsed
            if counter is not None:
                self.counts[work] += int(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every span's name in all loaded wassdep modules.

        Raises BindingError naming the first name that no longer exists
        where the table says, so a moved route fails instead of reading 0 s.
        """
        wassdep = [m for k, m in list(sys.modules.items()) if k == "wassdep" or k.startswith("wassdep.")]
        for layer, home, name, importers, work, counter in SPANS:
            module = importlib.import_module(f"wassdep.{home}")
            if not hasattr(module, name):
                raise BindingError(f"wassdep.{home}.{name} no longer exists; update perfbench/layers.py")
            original = getattr(module, name)
            for importer in importers:
                held = getattr(importlib.import_module(f"wassdep.{importer}"), name, None)
                if held is not original:
                    raise BindingError(
                        f"wassdep.{importer}.{name} is not wassdep.{home}.{name}; update perfbench/layers.py"
                    )
            wrapper = self._wrap(layer, original, work, counter)
            for mod in wassdep:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            mod, attr, original = self._restore.pop()
            setattr(mod, attr, original)

    def call(self, fn, *args):
        """Run one whole call under the root span; return (result, wall seconds)."""
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[ROOT] += elapsed - self._stack.pop()
        return result, elapsed

    def snapshot(self) -> dict[str, float]:
        """This call's layer metrics, with every span present (0 when unused)."""
        out: dict[str, float] = {ROOT + "_s": self.seconds[ROOT]}
        for layer, _, _, _, work, _ in SPANS:
            out[f"{layer}_s"] = self.seconds[layer]
            out[f"{layer}_calls"] = self.counts[f"{layer}_calls"]
            if work is not None:
                out[work] = self.counts[work]
        return out

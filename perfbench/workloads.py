"""The benchmark's workloads: seeded inputs, the wassdep argv, and output checks.

Each workload writes its CSV inputs from the workload seed and hands the
program only file paths and arguments. Generation happens before any timer
starts. Every call's stdout is checked against the seed-free invariants of
its command and, when this seed has a recorded reference, against that
reference.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

RHO = 0.6
# Sinkhorn's regularization as a share of the median squared distance. At
# 0.01 about 2% of draws exhaust the solver's sweep budget and exit 1, and a
# workload must not fail.
EPSILON_SHARE = 0.02
# Numeric fields may differ from the recorded reference by this share.
REFERENCE_RTOL = 1e-10


@dataclass(frozen=True)
class Workload:
    """One wassdep command line, run on data generated from the seed.

    ``kind`` selects the generator and the invariants; ``n`` is the row
    count of the pair (or the first cloud), ``m`` the second cloud's size,
    and ``permutations`` the test's replicate count. ``problems`` inputs are
    drawn per seed and called in turn, so a run averages over problems whose
    cost varies from draw to draw.
    """

    name: str
    kind: str
    n: int
    m: int = 0
    permutations: int = 0
    problems: int = 1
    tag: int = 0

    @property
    def rows(self) -> int:
        """Input rows the program reads per call."""
        return self.n + self.m

    def write_inputs(self, directory: str, seed: int) -> list[list[str]]:
        """Write this workload's inputs for ``seed``; return one argv per problem."""
        if seed < 0:
            raise ValueError("workload seed must be nonnegative")
        return [self._write_problem(directory, seed, k) for k in range(self.problems)]

    def _write_problem(self, directory: str, seed: int, k: int) -> list[str]:
        rng = np.random.default_rng([seed, self.tag, k])
        if self.kind == "ot":
            first = rng.standard_normal((self.n, 2))
            second = rng.standard_normal((self.m, 2)) + 1.0
            a_path = _write_csv(directory, f"a{k}.csv", first, "u,v")
            b_path = _write_csv(directory, f"b{k}.csv", second, "u,v")
            sq = ((first[:, None, :] - second[None, :, :]) ** 2).sum(axis=2)
            epsilon = EPSILON_SHARE * float(np.median(sq))
            return ["ot", a_path, b_path, "--p", "2", "--epsilon", repr(epsilon)]
        x = rng.standard_normal(self.n)
        y = RHO * x + math.sqrt(1.0 - RHO * RHO) * rng.standard_normal(self.n)
        path = _write_csv(directory, f"pair{k}.csv", np.column_stack([x, y]), "x,y")
        sample = ["--file", path, "--x", "0", "--y", "1"]
        if self.kind == "joint":
            return ["index", "joint", *sample, "--seed", "0"]
        if self.kind == "conditional":
            return ["index", "conditional", *sample]
        if self.kind == "test":
            return [
                "test", *sample, "--statistic", "d_joint",
                "--permutations", str(self.permutations), "--seed", "0",
            ]
        raise ValueError(f"unknown workload kind {self.kind!r}")

    def check(self, rc: int, stdout: str, reference: str | None) -> str | None:
        """Return why one call's result is wrong, or None when it is right."""
        if rc != 0:
            return f"exit code {rc}"
        try:
            out = json.loads(stdout)
        except json.JSONDecodeError:
            return f"stdout is not JSON: {stdout[:200]!r}"
        problem = self._invariant(out)
        if problem is None and reference is not None:
            problem = compare(out, json.loads(reference))
        return problem

    def _invariant(self, out: dict) -> str | None:
        if self.kind in ("joint", "conditional"):
            if not 0.0 <= out["value"] <= 1.0:
                return f"index value {out['value']!r} outside [0, 1]"
        elif self.kind == "test":
            b = out["permutations"]
            k = out["p_value"] * (b + 1) - 1
            if abs(k - round(k)) > 1e-9 or not 0 <= round(k) <= b:
                return f"p_value {out['p_value']!r} is not (1+k)/{b + 1} for an integer k"
        elif self.kind == "ot":
            floor = out["distance"] ** out["p"]
            if out["entropic_value"] < floor * (1.0 - REFERENCE_RTOL):
                return f"entropic_value {out['entropic_value']!r} below distance^p {floor!r}"
        return None


def compare(out: dict, ref: dict) -> str | None:
    """Numbers within REFERENCE_RTOL of the reference, every other field equal."""
    if out.keys() != ref.keys():
        return f"fields {sorted(out)} differ from the reference's {sorted(ref)}"
    for key, want in ref.items():
        got = out[key]
        numeric = isinstance(want, (int, float)) and not isinstance(want, bool)
        if numeric and isinstance(got, (int, float)) and not isinstance(got, bool):
            if abs(got - want) > REFERENCE_RTOL * abs(want):
                return f"{key} = {got!r}, reference {want!r}"
        elif got != want:
            return f"{key} = {got!r}, reference {want!r}"
    return None


def _write_csv(directory: str, name: str, values: np.ndarray, header: str) -> str:
    path = os.path.join(directory, name)
    # %.17g round-trips every float64 exactly.
    np.savetxt(path, values, fmt="%.17g", delimiter=",", header=header, comments="")
    return path


# Why these four: joint_n1500 is one large equal-size assignment with nothing
# shared (the bypass case for sharing across permutation replicates);
# conditional_n200k is CSV parsing plus the 1-D quantile route at 200k rows;
# permtest_n200 repeats 100 small assignments over shared marginals;
# ot_entropic_60x48 is the only one that reaches Sinkhorn and the LP route.
# Sinkhorn's sweep count varies by a third from draw to draw, so that
# workload cycles through 32 pairs per seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("joint_n1500", "joint", n=1500, tag=1),
        Workload("conditional_n200k", "conditional", n=200_000, tag=2),
        Workload("permtest_n200", "test", n=200, permutations=99, tag=3),
        Workload("ot_entropic_60x48", "ot", n=60, m=48, problems=32, tag=4),
    )
}

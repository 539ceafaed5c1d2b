"""Report containers and their canonical JSON serialization.

All user-facing numbers flow through one canonicalizer: floats are rounded
to 12 significant digits (idempotent, so parse -> emit round-trips are
byte-identical), keys are sorted, empty optional fields are dropped, and
non-finite values are rejected rather than emitted.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any

__all__ = ["IndexReport", "RateReport", "emit_report", "canonical_float"]


def canonical_float(x: float) -> float:
    """Round to 12 significant digits. format(^, '.12g') of the result
    reproduces the same string, which is what makes emission idempotent."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be reported")
    return float(format(x, ".12g"))


@dataclass
class IndexReport:
    """One dependence-index evaluation with its audit trail."""

    index: str
    value: float
    numerator: float | None = None
    denominator: float | None = None
    p: float | None = None
    q: float | None = None
    alpha: float | None = None
    epsilon: float | None = None
    estimator: str | None = None
    partition: str | None = None
    variant: str | None = None
    mode: str | None = None
    center: float | None = None
    n: int | None = None
    seed: int | None = None
    exceeds_unit: bool | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        extras = out.pop("extras")
        out.update(extras)
        return out


@dataclass
class RateReport:
    """Fitted convergence-rate summary for one (generator, estimator) pair."""

    experiment: str
    sizes: list[int]
    mean_errors: list[float]
    slope: float
    ci_low: float
    ci_high: float
    band_low: float
    band_high: float
    passed: bool
    replicates: int
    seed: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _canonicalize(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _canonicalize(v) for k, v in obj.items() if v is not None}
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        obj = obj.item()
    if isinstance(obj, float):
        return canonical_float(obj)
    return obj


def emit_report(report: Any) -> str:
    """Serialize a report (or plain dict) to stable, round-trippable JSON."""
    payload = report.to_dict() if hasattr(report, "to_dict") else report
    return json.dumps(_canonicalize(payload), sort_keys=True, allow_nan=False)

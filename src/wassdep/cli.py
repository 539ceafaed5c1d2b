"""Command-line entry point.

Subcommands: ``ot`` for a plain distance between two point clouds, ``index``
for the dependence indices, ``test`` for the permutation independence test,
and ``experiment`` for the rate/table/discontinuity reproductions. All
randomness flows from --seed, so identical invocations print identical
bytes. Exit codes: 0 success, 1 data or computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

import numpy as np

from .concordance import concordance_index
from .conditional import i_conditional
from .empirical import PairedSample, to_measure
from .entropic import sinkhorn_discrepancy
from .exact import solve_exact
from .exceptions import DataError, WassdepError
from .gaussian import gaussian_index_report
from .harness import (
    RATE_EXPERIMENTS,
    STATISTICS,
    discontinuity_demo,
    figure1_table,
    permutation_test,
    rate_experiment,
)
from .joint import default_marti_sets, i_joint, marti_index
from .measures import CostSpec, DiscreteMeasure
from .report import IndexReport, emit_report

__all__ = ["main", "load_sample", "load_cloud"]


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, rows


def _parse_cell(rows: list[list[str]], i: int, c: int, width: int) -> float:
    row = rows[i]
    if len(row) != width:
        raise DataError(f"row {i + 1}: expected {width} fields, found {len(row)}")
    try:
        value = float(row[c])
    except ValueError:
        raise DataError(f"row {i + 1}, column {c}: not numeric: {row[c]!r}") from None
    if not math.isfinite(value):
        raise DataError(f"row {i + 1}, column {c}: not finite: {row[c]!r}")
    return value


def _extract(rows: list[list[str]], width: int, *groups: list[int]) -> list[np.ndarray]:
    """One float array per group of column indices, each (rows, len(group)),
    scanned cell by cell, group after group, so the first bad cell is
    reported by its row and column."""
    return [
        np.array([[_parse_cell(rows, i, c, width) for c in cols] for i in range(len(rows))])
        for cols in groups
    ]


def _table_shape(raw: bytes) -> tuple[int, int] | None:
    """Header width and data row count of a file that ``csv`` and numpy's
    reader split into the same rows and fields, or None.

    That holds when the file has no quote and no bare carriage return, at
    least one data row, no blank line, no line longer than ``csv``'s field
    limit, and the same number of commas on every line. Whole-buffer scans
    decide it; a multi-byte UTF-8 character holds no newline or comma byte.
    numpy also strips the separators 0x1c-0x1f around a number, which
    ``float()`` refuses, so a file holding one is left to the scan.
    """
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")
    if any(byte in raw for byte in (b'"', b"\r", b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if not raw.endswith(b"\n"):
        ends = np.append(ends, len(raw))
    if len(ends) < 2:
        return None
    lengths = np.diff(ends, prepend=-1) - 1
    commas = np.diff(np.searchsorted(np.flatnonzero(buf == ord(",")), ends), prepend=0)
    if lengths.min() == 0 or lengths.max() > csv.field_size_limit() or (commas != commas[0]).any():
        return None
    return int(commas[0]) + 1, len(ends) - 1


def _read_fast(path: str, groups: list[list[int]] | None) -> list[np.ndarray] | None:
    """The requested columns through numpy's C reader, or None wherever the
    per-cell scan might read the file differently or reject it."""
    try:
        with open(path, "rb") as fh:
            shape = _table_shape(fh.read())
    except OSError:
        return None
    if shape is None:
        return None
    width, n_rows = shape
    if groups is None:
        groups = [list(range(width))]
    cols = sorted({c for g in groups for c in g})
    # numpy would fetch a name with a scheme, such as http://, as a URL.
    if not cols or cols[0] < 0 or cols[-1] >= width or "://" in path:
        return None
    try:
        table = np.loadtxt(
            path,
            delimiter=",",
            skiprows=1,
            usecols=cols,
            ndmin=2,
            comments=None,
            encoding="utf-8",
        )
    except (OSError, ValueError):
        # Cells that float() reads but numpy does not ("1_000", quoted or
        # non-ASCII digits), and bytes that are not UTF-8.
        return None
    if len(table) != n_rows or not np.isfinite(table).all():
        return None
    return [table[:, [cols.index(c) for c in g]] for g in groups]


def _read_columns(path: str, groups: list[list[int]] | None) -> list[np.ndarray]:
    """One float array per group of column indices (None: every column),
    from numpy's C reader when it reads the file as the per-cell scan would,
    else from the scan."""
    fast = _read_fast(path, groups)
    if fast is not None:
        return fast
    header, rows = _read_rows(path)
    if groups is None:
        groups = [list(range(len(header)))]
    for cols in groups:
        for c in cols:
            if c >= len(header) or c < 0:
                raise DataError(f"column {c} not in file (has {len(header)} columns)")
    return _extract(rows, len(header), *groups)


def load_sample(path: str, x_cols: list[int], y_cols: list[int], seed: int = 0) -> PairedSample:
    """Read a headered CSV and split the requested columns into a pair.

    Two paths read it. numpy's C reader takes a file whose rows all have the
    header's width and whose requested cells are finite numbers it parses.
    Any other file (quotes, blank lines, ragged rows, non-finite cells, cells
    only ``float()`` reads) goes to ``csv`` and a per-cell ``float()`` scan,
    which returns the same values or raises the error that names the first
    bad row, 1-based excluding the header, and column.
    """
    xs, ys = _read_columns(path, [x_cols, y_cols])
    return PairedSample(xs, ys, seed=seed)


def load_cloud(path: str) -> DiscreteMeasure:
    """Read a headered CSV as one point cloud (every column a coordinate)."""
    (pts,) = _read_columns(path, None)
    return to_measure(pts)


def _columns(text: str) -> list[int]:
    try:
        cols = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad column list {text!r}") from None
    if not cols:
        raise argparse.ArgumentTypeError("empty column list")
    return cols


def _bins(text: str) -> int | None:
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bins must be 'auto' or an integer, got {text!r}") from None


def _add_sample_args(p: argparse.ArgumentParser):
    p.add_argument("--file", required=True, help="CSV file with a header row")
    p.add_argument("--x", type=_columns, required=True, help="x column indices, e.g. 0 or 0,1")
    p.add_argument("--y", type=_columns, required=True, help="y column indices")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wassdep",
        description="Transport-based dependence measures and indices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ot = sub.add_parser("ot", help="exact distance between two point clouds")
    ot.add_argument("first")
    ot.add_argument("second")
    ot.add_argument("--p", type=float, default=2.0)
    ot.add_argument("--epsilon", type=float, default=None)

    index = sub.add_parser("index", help="dependence indices")
    index_sub = index.add_subparsers(dest="index_kind", required=True)

    joint = index_sub.add_parser("joint")
    _add_sample_args(joint)
    joint.add_argument("--p", type=float, default=1.0)
    joint.add_argument("--alpha", type=float, default=None)
    joint.add_argument("--estimator", choices=["split", "permute", "full"], default="permute")
    joint.add_argument("--variant", choices=["min_gmd", "scaled_metric"], default="min_gmd")

    cond = index_sub.add_parser("conditional")
    _add_sample_args(cond)
    cond.add_argument("--p", type=float, default=1.0)
    cond.add_argument("--partition", choices=["exact", "bins"], default="bins")
    cond.add_argument("--bins", type=_bins, default=None, help="'auto' or a cube count")

    gauss = index_sub.add_parser("gaussian")
    _add_sample_args(gauss)

    conc = index_sub.add_parser("concordance")
    _add_sample_args(conc)
    conc.add_argument("--mode", choices=["raw", "copula"], default="copula")
    conc.add_argument("--center", type=float, default=None, help="symmetry center a (raw mode)")

    marti = index_sub.add_parser("marti")
    _add_sample_args(marti)
    marti.add_argument("--p", type=float, default=1.0)

    test = sub.add_parser("test", help="permutation independence test")
    _add_sample_args(test)
    test.add_argument("--statistic", choices=sorted(STATISTICS), default="d_joint")
    test.add_argument("--permutations", type=int, default=99)

    exp = sub.add_parser("experiment", help="rate/table/discontinuity experiments")
    exp_sub = exp.add_subparsers(dest="experiment_kind", required=True)

    rates = exp_sub.add_parser("rates")
    rates.add_argument("--name", choices=sorted(RATE_EXPERIMENTS), default="w1_shift")
    rates.add_argument("--replicates", type=int, default=12)
    rates.add_argument("--seed", type=int, default=0)

    fig = exp_sub.add_parser("figure1")
    fig.add_argument("--grid", type=int, default=41)

    disc = exp_sub.add_parser("discontinuity")
    disc.add_argument("--n", type=int, default=1000)
    disc.add_argument("--seed", type=int, default=0)

    return parser


def _run_ot(args) -> str:
    first = load_cloud(args.first)
    second = load_cloud(args.second)
    spec = CostSpec(p=args.p)
    out = {
        "command": "ot",
        "p": args.p,
        "distance": solve_exact(first, second, spec) ** (1.0 / spec.p),
    }
    if args.epsilon is not None:
        out["epsilon"] = args.epsilon
        out["entropic_value"] = sinkhorn_discrepancy(first, second, args.epsilon, spec)
    return emit_report(out)


def _run_index(args) -> str:
    sample = load_sample(args.file, args.x, args.y, seed=args.seed)
    if args.index_kind == "joint":
        report = i_joint(
            sample,
            estimator=args.estimator,
            variant=args.variant,
            p=args.p,
            alpha=args.alpha,
        )
        return emit_report(report)
    if args.index_kind == "conditional":
        report = i_conditional(sample, mode=args.partition, p=args.p, phi=args.bins)
        return emit_report(report)
    if args.index_kind == "gaussian":
        return emit_report(gaussian_index_report(sample))
    if args.index_kind == "concordance":
        return emit_report(concordance_index(sample, a=args.center, mode=args.mode))
    if args.index_kind == "marti":
        c0, c1 = default_marti_sets(sample)
        spec = CostSpec(p=args.p, factor_dims=(sample.dx, sample.dy))
        value = marti_index(to_measure(sample.joint_rows()), c0, c1, spec)
        return emit_report(
            IndexReport(index="marti", value=value, p=args.p, n=sample.n, seed=args.seed)
        )
    raise DataError(f"unknown index {args.index_kind!r}")


def _run_test(args) -> str:
    sample = load_sample(args.file, args.x, args.y, seed=args.seed)
    value, p_value = permutation_test(sample, args.statistic, args.permutations, seed=args.seed)
    return emit_report(
        {
            "command": "test",
            "statistic": args.statistic,
            "value": value,
            "p_value": p_value,
            "permutations": args.permutations,
            "seed": args.seed,
            "n": sample.n,
        }
    )


def _format_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow(format(v, ".12g") if isinstance(v, float) else v for v in row.values())
    return buf.getvalue().rstrip("\n")


def _run_experiment(args) -> str:
    if args.experiment_kind == "rates":
        return emit_report(rate_experiment(args.name, replicates=args.replicates, seed=args.seed))
    if args.experiment_kind == "figure1":
        if args.grid < 2:
            raise DataError("grid needs at least 2 points")
        rows = figure1_table(np.linspace(-1.0, 1.0, args.grid))
        return _format_csv(rows)
    if args.experiment_kind == "discontinuity":
        return emit_report(discontinuity_demo(n=args.n, seed=args.seed))
    raise DataError(f"unknown experiment {args.experiment_kind!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "ot":
            out = _run_ot(args)
        elif args.command == "index":
            out = _run_index(args)
        elif args.command == "test":
            out = _run_test(args)
        else:
            out = _run_experiment(args)
    except (WassdepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

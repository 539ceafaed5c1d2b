"""End-to-end command-line checks: exit codes, schemas, and byte stability."""

import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from wassdep import cli
from wassdep.cli import _format_csv, load_cloud, load_sample, main
from wassdep.exceptions import DataError
from wassdep.harness import figure1_table


def _write_pair(path, n=40, seed=0, rho=0.9):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = rho * x + np.sqrt(1 - rho * rho) * rng.normal(size=n)
    lines = ["x,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_cloud(path, n=15, seed=0, shift=0.0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 2)) + shift
    lines = ["u,v"] + [f"{float(a)!r},{float(b)!r}" for a, b in pts]
    path.write_text("\n".join(lines) + "\n")
    return path


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ot_reports_distance_and_entropic_value(tmp_path, capsys):
    first = _write_cloud(tmp_path / "a.csv", seed=1)
    second = _write_cloud(tmp_path / "b.csv", seed=2, shift=1.0)
    code, out, _ = _run(capsys, ["ot", str(first), str(second), "--epsilon", "0.5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "ot"
    assert payload["p"] == 2.0
    assert payload["distance"] > 0.0
    assert payload["epsilon"] == 0.5
    assert payload["entropic_value"] >= payload["distance"] ** 2.0 - 1e-9


def test_every_index_subcommand_emits_its_schema(tmp_path, capsys):
    data = _write_pair(tmp_path / "pair.csv")
    base = ["--file", str(data), "--x", "0", "--y", "1"]
    for kind, name in [
        ("joint", "joint"),
        ("conditional", "conditional"),
        ("gaussian", "gaussian"),
        ("concordance", "concordance"),
        ("marti", "marti"),
    ]:
        code, out, err = _run(capsys, ["index", kind] + base)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["index"] == name
        assert "value" in payload
        assert payload["n"] == 40


def test_identical_invocations_print_identical_bytes(tmp_path, capsys):
    data = _write_pair(tmp_path / "pair.csv")
    argv = ["index", "joint", "--file", str(data), "--x", "0", "--y", "1", "--seed", "3"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second
    argv = ["test", "--file", str(data), "--x", "0", "--y", "1", "--permutations", "19"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_permutation_subcommand_schema(tmp_path, capsys):
    data = _write_pair(tmp_path / "pair.csv")
    code, out, _ = _run(
        capsys,
        ["test", "--file", str(data), "--x", "0", "--y", "1", "--permutations", "19"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "test"
    assert payload["statistic"] == "d_joint"
    assert payload["permutations"] == 19
    assert 0.0 < payload["p_value"] <= 1.0


def test_conditional_flags_reach_the_estimator(tmp_path, capsys):
    data = _write_pair(tmp_path / "pair.csv")
    code, out, _ = _run(
        capsys,
        ["index", "conditional", "--file", str(data), "--x", "0", "--y", "1", "--bins", "4"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["partition"] == "bins"
    assert payload["bins"] == 4
    assert payload["p"] == 1.0


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["index", "joint", "--no-such-flag"]) == 2
    assert main(["bogus"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_missing_file_exits_1_with_message(capsys):
    code, out, err = _run(
        capsys, ["index", "joint", "--file", "/nope/missing.csv", "--x", "0", "--y", "1"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "missing.csv" in err


def test_bad_cell_is_reported_with_row_and_column(tmp_path, capsys):
    rows = ["x,y"] + [f"{i}.0,{i}.5" for i in range(30)]
    rows[17] = "3.0,oops"  # data row 17 (1-based, header excluded)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    code, _, err = _run(capsys, ["index", "joint", "--file", str(bad), "--x", "0", "--y", "1"])
    assert code == 1
    assert "row 17" in err
    assert "column 1" in err
    assert "oops" in err


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
def test_non_finite_cell_is_reported_with_row_and_column(tmp_path, capsys, cell):
    rows = ["x,y"] + [f"{i}.0,{i}.5" for i in range(30)]
    rows[12] = f"{cell},3.5"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    code, _, err = _run(capsys, ["index", "joint", "--file", str(bad), "--x", "0", "--y", "1"])
    assert code == 1
    assert f"row 12, column 0: not finite: {cell!r}" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("x,y\n1.0,2.0\n\n4.0,5.0\n", "row 2: expected 2 fields, found 0"),
        ("x,y\n1.0,2.0,3.0\n4.0,5.0,6.0\n", "row 1: expected 2 fields, found 3"),
    ],
    ids=["blank_line", "every_row_wider"],
)
def test_rows_not_of_the_header_width_are_reported(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    code, _, err = _run(capsys, ["index", "gaussian", "--file", str(bad), "--x", "0", "--y", "1"])
    assert code == 1
    assert message in err


def test_unrequested_columns_may_hold_anything(tmp_path):
    data = tmp_path / "labelled.csv"
    data.write_text("x,label,y,extra\n1.0,a,2.0,nan\n3.0,b,5.0,inf\n4.0,,7.0,1\n")
    sample = load_sample(str(data), [0], [2])
    assert sample.xs[:, 0].tolist() == [1.0, 3.0, 4.0]
    assert sample.ys[:, 0].tolist() == [2.0, 5.0, 7.0]


def _write_labelled(tmp_path, label_cell=lambda i: f"g{i % 3}", n=300):
    """The same pair written with and without a text column between x and y."""
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(2, n))
    plain = tmp_path / "plain.csv"
    plain.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
    labelled = tmp_path / "labelled.csv"
    labelled.write_text(
        "x,label,y\n"
        + "".join(f"{a!r},{label_cell(i)},{b!r}\n" for i, (a, b) in enumerate(zip(x.tolist(), y.tolist())))
    )
    return plain, labelled


def test_text_column_elsewhere_keeps_the_one_pass_conversion(tmp_path, monkeypatch):
    plain, labelled = _write_labelled(tmp_path)
    want = load_sample(str(plain), [0], [1])

    def per_cell(*args):
        raise AssertionError("fell back to the per-cell parser")

    monkeypatch.setattr(cli, "_parse_cell", per_cell)
    got = load_sample(str(labelled), [0], [2])
    assert np.array_equal(got.xs, want.xs)
    assert np.array_equal(got.ys, want.ys)


def test_bad_requested_cell_beside_a_text_column_is_reported(tmp_path, capsys):
    _, labelled = _write_labelled(tmp_path)
    lines = labelled.read_text().splitlines()
    x, label, _ = lines[57].split(",")
    lines[57] = ",".join([x, label, "oops"])
    labelled.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r"row 57, column 2: not numeric: 'oops'"):
        load_sample(str(labelled), [0], [2])
    code, _, err = _run(
        capsys, ["index", "gaussian", "--file", str(labelled), "--x", "0", "--y", "2"]
    )
    assert code == 1
    assert "row 57, column 2" in err


def test_loaded_values_equal_float_of_each_cell(tmp_path):
    cells = [
        ["0.1", "1_000"],
        [" 1.5 ", '"2.25"'],
        ["-0", "1e-320"],
        ["١٢٣.٥", "\t3"],
        ['"-7e3"', "+4."],
    ]
    data = tmp_path / "odd.csv"
    data.write_text("x,y\n" + "".join(",".join(row) + "\n" for row in cells), encoding="utf-8")
    sample = load_sample(str(data), [0], [1])
    cloud = load_cloud(str(data))
    expected = np.array([[float(c.strip('"')) for c in row] for row in cells])
    assert np.array_equal(sample.joint_rows(), expected)
    assert np.array_equal(cloud.points, expected)
    assert np.array_equal(np.signbit(sample.xs[:, 0]), np.signbit(expected[:, 0]))


# Files on which numpy's C reader and the per-cell scan could disagree. The
# loaders must return the scan's values or raise its error on each.
READER_CASES = {
    "blank_line_at_end": ("x,y\n1.0,2.0\n4.0,5.0\n\n", "row 3: expected 2 fields, found 0"),
    "blank_line_crlf": ("x,y\r\n1.0,2.0\r\n\r\n4.0,5.0\r\n", "row 2: expected 2 fields, found 0"),
    "carriage_return_blank_line": ("x,y\n1.0,2.0\n\r4.0,5.0\n", "row 2: expected 2 fields, found 0"),
    "hash_row": ("x,y\n1.0,2.0\n#4.0,5.0\n", "row 2, column 0: not numeric: '#4.0'"),
    "hash_after_value": ("x,y\n1.0,2.0 # note\n", "row 1, column 1: not numeric: '2.0 # note'"),
    "hash_header": ("#x,y\n1.0,2.0\n", [[1.0, 2.0]]),
    "wider_row": ("x,y\n1.0,2.0\n4.0,5.0,6.0\n", "row 2: expected 2 fields, found 3"),
    "wider_and_narrower": ("x,y,z\n1,2,3,4\n5,6\n7,8,9\n", "row 1: expected 3 fields, found 4"),
    "nan": ("x,y\n" + "1.0,2.0\n" * 11 + "nan,3.5\n", "row 12, column 0: not finite: 'nan'"),
    "inf": ("x,y\n1.0,inf\n", "row 1, column 1: not finite: 'inf'"),
    "overflow": ("x,y\n1.0,2.0\n1e400,3.5\n", "row 2, column 0: not finite: '1e400'"),
    "quoted": ('x,y\n"1.5",2\n3,"-0"\n', [[1.5, 2.0], [3.0, -0.0]]),
    "underscore": ("x,y\n1_000,2\n", [[1000.0, 2.0]]),
    "arabic_indic_digits": ("x,y\n١٢٣.٥,2\n", [[123.5, 2.0]]),
    "file_separator_byte": ("x,y\n1.0,\x1c2.0\n", "row 1, column 1: not numeric: '\\x1c2.0'"),
    "header_only": ("x,y\n", "no data rows"),
    "header_only_no_newline": ("x,y", "no data rows"),
    "crlf": ("x,y\r\n1.5,-0\r\n2,3\r\n", [[1.5, -0.0], [2.0, 3.0]]),
    "no_final_newline": ("x,y\n1.5,-0\n2,3", [[1.5, -0.0], [2.0, 3.0]]),
    "bare_carriage_returns": ("x,y\r1.5,-0\r2,3\r", [[1.5, -0.0], [2.0, 3.0]]),
}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_loaders_agree_with_the_per_cell_scan(tmp_path, case):
    text, expected = READER_CASES[case]
    data = tmp_path / "case.csv"
    data.write_bytes(text.encode("utf-8"))
    loaders = [
        lambda: load_sample(str(data), [0], [1]).joint_rows(),
        lambda: load_cloud(str(data)).points,
    ]
    for load in loaders:
        if isinstance(expected, str):
            with pytest.raises(DataError, match=re.escape(expected)):
                load()
        else:
            got = load()
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


SAMPLE_CASES = {
    "one_column_blank_line": ("x\n1.0\n\n2.0\n", [0], "row 2: expected 1 fields, found 0"),
    "one_column_space_line": ("x\n1.0\n  \n2.0\n", [0], "row 2, column 0: not numeric: '  '"),
    "blank_header_line": ("\n1.0\n2.0\n", [0], "column 0 not in file (has 0 columns)"),
    # Each physical line has the header's comma count, but csv reads one
    # quoted cell across the first two.
    "quoted_newline_in_unrequested_column": (
        'x,label,y\n1.0,"a,3.0\n4.0,b",2.0\n5.0,c,6.0\n',
        [2],
        [[1.0, 2.0], [5.0, 6.0]],
    ),
}


@pytest.mark.parametrize("case", sorted(SAMPLE_CASES))
def test_sample_columns_agree_with_the_per_cell_scan(tmp_path, case):
    text, y_cols, expected = SAMPLE_CASES[case]
    data = tmp_path / "case.csv"
    data.write_bytes(text.encode("utf-8"))
    if isinstance(expected, str):
        with pytest.raises(DataError, match=re.escape(expected)):
            load_sample(str(data), [0], y_cols)
    else:
        assert np.array_equal(load_sample(str(data), [0], y_cols).joint_rows(), expected)


def test_well_formed_file_never_reaches_the_per_cell_scan(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    values = rng.standard_normal((5000, 3)) * np.logspace(-300, 300, 5000)[:, None]
    values[0] = [-0.0, 5e-324, -1e-310]
    data = tmp_path / "wide.csv"
    np.savetxt(data, values, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
    lines = data.read_text().splitlines()[1:]
    want = np.array([[float(cell) for cell in line.split(",")] for line in lines])
    assert np.array_equal(want, values)

    def scan(*args):
        raise AssertionError("fell back to the csv reader")

    monkeypatch.setattr(cli, "_read_rows", scan)
    sample = load_sample(str(data), [2, 0], [1])
    cloud = load_cloud(str(data))
    for got, cols in [(sample.xs, [2, 0]), (sample.ys, [1]), (cloud.points, [0, 1, 2])]:
        assert np.array_equal(got, want[:, cols])
        assert np.array_equal(np.signbit(got), np.signbit(want[:, cols]))


def test_ragged_row_is_reported(tmp_path, capsys):
    bad = tmp_path / "ragged.csv"
    bad.write_text("x,y\n1.0,2.0\n3.0\n4.0,5.0\n")
    code, _, err = _run(capsys, ["index", "gaussian", "--file", str(bad), "--x", "0", "--y", "1"])
    assert code == 1
    assert "row 2" in err
    assert "expected 2 fields" in err


def test_column_out_of_range(tmp_path, capsys):
    data = _write_pair(tmp_path / "pair.csv")
    code, _, err = _run(capsys, ["index", "joint", "--file", str(data), "--x", "0", "--y", "5"])
    assert code == 1
    assert "column 5" in err


def test_header_only_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("x,y\n")
    code, _, err = _run(capsys, ["index", "joint", "--file", str(empty), "--x", "0", "--y", "1"])
    assert code == 1
    assert "no data rows" in err


def test_raw_concordance_without_center_fails_cleanly(tmp_path, capsys):
    data = _write_pair(tmp_path / "pair.csv")
    code, _, err = _run(
        capsys,
        ["index", "concordance", "--file", str(data), "--x", "0", "--y", "1", "--mode", "raw"],
    )
    assert code == 1
    assert "center" in err


# Full stdout bytes: the schema test above checks only three keys and would
# miss a renamed or dropped "center" (0.0 must print, not be dropped as empty).
CONCORDANCE_STDOUT = {
    (): '{"center": 1.0, "denominator": 0.577169819031, "index": "concordance", '
    '"mode": "copula", "n": 40, "numerator": 0.166019577159, "value": 0.424711508867}\n',
    ("--mode", "raw", "--center", "0.0"): '{"center": 0.0, "denominator": 1.57424741255, '
    '"index": "concordance", "mode": "raw", "n": 40, "numerator": 0.409285320979, '
    '"value": 0.480024146503}\n',
    ("--mode", "raw", "--center", "0.25"): '{"center": 0.25, "denominator": 1.57424741255, '
    '"index": "concordance", "mode": "raw", "n": 40, "numerator": 0.409285320979, '
    '"value": 0.480024146503}\n',
}


@pytest.mark.parametrize("extra", sorted(CONCORDANCE_STDOUT))
def test_concordance_stdout_bytes_are_pinned(tmp_path, capsys, extra):
    data = _write_pair(tmp_path / "pair.csv")
    argv = ["index", "concordance", "--file", str(data), "--x", "0", "--y", "1", *extra]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out == CONCORDANCE_STDOUT[extra]


def test_figure1_csv_matches_the_library_table(capsys):
    code, out, _ = _run(capsys, ["experiment", "figure1", "--grid", "5"])
    assert code == 0
    expected = _format_csv(figure1_table(np.linspace(-1.0, 1.0, 5)))
    assert out == expected + "\n"
    header = out.splitlines()[0]
    assert header == "rho,conditional_index,gaussian_index,mori_lower,mori_upper"
    assert len(out.splitlines()) == 6


def test_discontinuity_subcommand(capsys):
    code, out, _ = _run(capsys, ["experiment", "discontinuity", "--n", "200"])
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_grouping_value"] == 1.0
    assert payload["binned_value"] < 0.5
    assert payload["n"] == 200


def test_rates_subcommand_schema(capsys):
    code, out, _ = _run(
        capsys, ["experiment", "rates", "--name", "w1_shift", "--replicates", "3"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["experiment"] == "w1_shift"
    assert payload["sizes"] == [200, 400, 800, 1600, 3200]
    assert "slope" in payload and "passed" in payload


def test_loaders_round_trip(tmp_path):
    data = _write_pair(tmp_path / "pair.csv", n=12, seed=5)
    sample = load_sample(str(data), [0], [1], seed=5)
    assert sample.n == 12
    cloud = load_cloud(str(data))
    assert cloud.n == 12 and cloud.dim == 2
    with pytest.raises(DataError):
        load_sample(str(data), [0], [9])


def test_module_execution_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "wassdep.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "wassdep" in proc.stdout


def test_scaled_metric_rejects_q_and_alpha(tmp_path, capsys):
    data = _write_pair(tmp_path / "pair.csv", n=300)
    base = ["index", "joint", "--file", str(data), "--x", "0", "--y", "1", "--variant", "scaled_metric"]
    code, out, _ = _run(capsys, base)
    assert code == 0 and json.loads(out)["variant"] == "scaled_metric"
    code, out, err = _run(capsys, base + ["--alpha", "2"])
    assert (code, out) == (1, "")
    assert "takes no alpha" in err
    # The cost of every joint variant is additive, so there is no --q.
    for argv in (base, base[:-2]):
        code, out, err = _run(capsys, argv + ["--q", "3"])
        assert (code, out) == (2, "")
        assert "--q" in err


@pytest.mark.parametrize("alpha", ["0", "-1", "nan"])
def test_bad_alpha_exits_1_naming_the_weight(tmp_path, capsys, alpha):
    # Zero alpha also zeroes the x discrepancy; the weight's own error must
    # win over "a marginal is empirically constant".
    data = _write_pair(tmp_path / "pair.csv")
    argv = ["index", "joint", "--file", str(data), "--x", "0", "--y", "1", "--alpha", alpha]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert "weight" in err and "constant" not in err


def test_cost_matrix_beyond_memory_exits_1(tmp_path, capsys, monkeypatch):
    from wassdep import measures

    data = _write_pair(tmp_path / "pair.csv", n=100)
    monkeypatch.setattr(measures, "PHYSICAL_MEMORY", 100 * 100 * 8 - 1)
    argv = ["index", "conditional", "--file", str(data), "--x", "0", "--y", "1", "--p", "3"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert "100 x 100 cost matrix needs 80000 bytes" in err


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_non_finite_epsilon_exits_1_without_warnings(tmp_path, capsys, eps):
    first = _write_cloud(tmp_path / "a.csv", seed=1)
    second = _write_cloud(tmp_path / "b.csv", seed=2, shift=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["ot", str(first), str(second), "--epsilon", eps])
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: regularization strength eps must be a finite positive real"]


@pytest.mark.parametrize("seed", [1, 3])  # at seed 3 the plan's exp overflows
def test_entropic_plan_off_its_marginals_exits_1(tmp_path, capsys, seed):
    first = _write_cloud(tmp_path / "a.csv", seed=seed)
    second = _write_cloud(tmp_path / "b.csv", seed=seed + 1, shift=1.0)
    code, out, err = _run(capsys, ["ot", str(first), str(second), "--epsilon", "1e-300"])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: plan misses its marginals")


def _run_without_warnings(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _run(capsys, argv)


def test_bin_count_beyond_exact_floats_exits_1(tmp_path, capsys):
    data = _write_pair(tmp_path / "pair.csv", n=50)
    argv = ["index", "conditional", "--file", str(data), "--x", "0", "--y", "1", "--bins"]
    code, out, err = _run_without_warnings(capsys, argv + [str(10**20)])
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: bin count must be at most 2**53, the largest integer a float holds exactly"
    ]
    code, out, _ = _run_without_warnings(capsys, argv + [str(2**53)])
    assert code == 0 and json.loads(out)["bins"] == 50


@pytest.mark.parametrize("replicates", ["0", "-1"])
def test_rates_without_replicates_exits_1(capsys, replicates):
    argv = ["experiment", "rates", "--replicates", replicates]
    code, out, err = _run_without_warnings(capsys, argv)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: replicates must be at least 1, got {replicates}"]


@pytest.mark.parametrize("n", ["0", "-5"])
def test_discontinuity_without_rows_exits_1(capsys, n):
    code, out, err = _run_without_warnings(capsys, ["experiment", "discontinuity", "--n", n])
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: n must be at least 1, got {n}"]

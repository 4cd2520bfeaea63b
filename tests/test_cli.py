from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

import uqflow.analyticity
import uqflow.cli
import uqflow.powerflow
import uqflow.sparse_grid
import uqflow.study
from uqflow.case_io import load_case, serialize_case
from uqflow.cli import main, parse_config_text
from uqflow.errors import UqflowError


def _csv_rows(text: str, command: str) -> list[list[str]]:
    lines = text.strip().splitlines()
    assert lines[0] == f"# uqflow-csv/1 {command}"
    return [line.split(",") for line in lines[1:]]


def test_config_parser_basics():
    cfg = parse_config_text(
        """
        # a comment
        case = bundled:case39
        Ref-Level = 4   # inline comment
        levels = 1,2,3
        """
    )
    assert cfg == {"case": "bundled:case39", "ref_level": "4", "levels": "1,2,3"}


def test_config_parser_rejects_bad_lines():
    with pytest.raises(UqflowError, match="line 2"):
        parse_config_text("\nnot a pair\n")


def test_solve_demo(capsys):
    assert main(["solve", "--case", "bundled:demo-3bus"]) == 0
    out = capsys.readouterr().out
    assert "converged in 4 iterations" in out
    assert "0.948952" in out  # load-bus voltage magnitude


def test_solve_demo_short_alias(capsys):
    assert main(["solve", "--case", "bundled:demo3"]) == 0
    assert "converged" in capsys.readouterr().out


def test_solve_missing_case(capsys):
    assert main(["solve", "--case", "/nope/missing.m"]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_empty_level_list_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["grid-info", "--levels", ""])
    assert exc.value.code == 2
    assert "no entries" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["certify", "--scalar-demo", "--sigma-hat", "abc"], "bad radius list"),
        (["certify", "--scalar-demo", "--sigma-hat", "-0.5"], "bad radius list"),
        (["grid-info", "--dims", "0"], "bad dimension count"),
        (["grid-info", "--levels", "-1"], "levels must be >= 0"),
        (["certify", "--scalar-demo", "--levels", "-1"], "levels must be >= 0"),
        (["certify", "--scalar-demo", "--sigma-cap", "-1"], "want a finite number >= 0"),
        (["certify", "--scalar-demo", "--sigma-cap", "nan"], "want a finite number >= 0"),
        (["certify", "--scalar-demo", "--m-tilde", "-1"], "want a finite number > 0"),
        (["certify", "--scalar-demo", "--m-tilde", "inf"], "want a finite number > 0"),
        (["certify", "--scalar-demo", "--lipschitz", "-1"], "want a finite number >= 0"),
        (["certify", "--scalar-demo", "--radius", "nan"], "want a finite number > 0"),
        (["certify", "--scalar-demo", "--probes", "0"], "bad probe count"),
        (["certify", "--scalar-demo", "--kappa-e", "-1", "--sigma-hat", "0.5"], "finite number > 0"),
        (["certify", "--scalar-demo", "--delta-e", "0"], "want a finite number > 0"),
        (["certify", "--scalar-demo", "--delta-e", "inf"], "want a finite number > 0"),
        (["solve", "--case", "bundled:demo3", "--max-iter", "-1"], "bad iteration cap"),
    ],
)
def test_bad_argument_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_zero_iteration_cap_reports_the_start_point(capsys):
    assert main(["solve", "--case", "bundled:demo3", "--max-iter", "0"]) == 1
    captured = capsys.readouterr()
    assert "DID NOT CONVERGE in 0 iterations" in captured.out
    assert "did not converge" in captured.err


def test_unknown_rule_in_config_is_named(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("case = bundled:demo3\nrule = foo\n")
    assert main(["uq-moments", "--config", str(cfg), "--levels", "0"]) == 1
    assert "unknown rule kind 'foo'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_coefficient_is_rejected(tmp_path, capsys, value):
    moments = ["uq-moments", "--case", "bundled:case39", "--dims", "1", "--levels", "0"]
    certify = ["certify", "--case", "bundled:case39", "--dims", "1", "--lipschitz", "10"]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"coefficient = {value}\n")
    for argv in (
        moments + ["--coefficient", value],
        moments + ["--config", str(cfg)],
        certify + ["--coefficient", value],
    ):
        assert main(argv) == 1
        assert f"coefficient must be finite, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize(("bus", "why"), [(2, "carries no load"), (31, "is the slack bus")])
def test_inert_load_bus_is_rejected(tmp_path, capsys, bus, why):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"load_buses = {bus}\n")
    argv = ["uq-moments", "--case", "bundled:case39", "--dims", "1", "--levels", "1"]
    assert main(argv + ["--config", str(cfg)]) == 1
    assert f"load term on bus {bus} {why}" in capsys.readouterr().err


def test_sigma_hat_count_must_match_dims(capsys):
    argv = ["certify", "--case", "bundled:case39", "--dims", "2", "--lipschitz", "10"]
    assert main(argv + ["--sigma-hat", "0.3,0.4,0.5"]) == 1
    assert "--sigma-hat gives 3 radii" in capsys.readouterr().err
    assert main(argv + ["--sigma-hat", "0.3,0.4"]) == 0
    assert "sigma_hat: 0.3, 0.4\n" in capsys.readouterr().out


def test_bad_qoi_is_reported_not_raised(capsys):
    args = ["uq-moments", "--case", "bundled:demo3", "--dims", "1", "--levels", "0"]
    for qoi in ("angle:1e9", "squirrel:3"):
        assert main(args + ["--qoi", qoi]) == 1
        assert "bad quantity of interest" in capsys.readouterr().err


def test_unknown_qoi_bus_is_reported(capsys):
    argv = ["uq-moments", "--case", "bundled:demo3", "--dims", "1", "--levels", "1"]
    assert main(argv + ["--qoi", "voltage:99"]) == 1
    assert "error: quantity of interest references unknown bus 99" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "abc"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, value):
    moments = ["uq-moments", "--case", "bundled:demo3", "--dims", "1", "--qoi", "voltage:3"]
    for argv in (
        ["solve", "--case", "bundled:demo3"],
        moments + ["--levels", "1"],
        ["uq-convergence", "--case", "bundled:demo3", "--dims", "1", "--levels", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", value])
        assert exc.value.code == 2
        assert f"bad value '{value}': want a finite number > 0" in capsys.readouterr().err
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"tol = {value}\n")
    assert main(moments + ["--levels", "1", "--config", str(cfg)]) == 1
    assert f"config key 'tol': bad value '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ("levels =", "config key 'levels': bad level list '': no entries"),
        ("levels = -1", "config key 'levels': bad level list '-1': levels must be >= 0"),
        ("levels = 1,x", "config key 'levels': bad level list '1,x'"),
        ("dims = 0", "config key 'dims': bad dimension count '0'"),
        ("dims = -3", "config key 'dims': bad dimension count '-3'"),
        ("cache =", "config key 'cache': bad directory ''"),
    ],
    ids=[
        "levels-empty", "levels-negative", "levels-not-int",
        "dims-zero", "dims-negative", "cache-empty",
    ],
)
def test_config_conversion_error_names_the_key(tmp_path, capsys, monkeypatch, line, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(f"case = bundled:demo3\nqoi = voltage:3\n{line}\n")
    key = line.split()[0]
    argv = ["uq-moments", "--config", "exp.cfg"]
    argv += [] if key == "levels" else ["--levels", "1"]
    argv += [] if key == "dims" else ["--dims", "1"]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


@pytest.mark.parametrize(
    ("command", "config", "flags", "message"),
    [
        ("uq-moments", "family = foo", [], "unknown node family 'foo' (use cc or gauss)"),
        ("uq-moments", " = 3", [], "config line 2: empty key"),
        ("uq-moments", "", [], "a case is required (--case or config key 'case')"),
        ("uq-moments", "", ["--dims", "5"], "load study needs 5 target buses, have 1 ("),
        (
            "uq-moments", "", ["--study", "admittance", "--dims", "10"],
            "admittance study needs 10 branches, have 3",
        ),
        ("uq-moments", "study = foo", [], "unknown study 'foo' (expected load or admittance)"),
        (
            "uq-convergence", "", ["--levels", "3", "--ref-level", "3"],
            "max(levels) = 3 must stay below the reference level 3",
        ),
        ("uq-convergence", "ref_level = x", [], "config key 'ref_level': "),
    ],
    ids=[
        "family", "empty-key", "no-case", "load-dims", "admittance-dims", "study",
        "ref-level-order", "ref-level-not-int",
    ],
)
def test_study_input_errors_are_named(tmp_path, capsys, command, config, flags, message):
    cfg = tmp_path / "exp.cfg"
    case = "" if message.startswith("a case") else "case = bundled:demo3"
    cfg.write_text(f"{case}\n{config}\n")
    argv = [command, "--config", str(cfg), "--qoi", "voltage:3"]
    argv += flags if "--dims" in flags else flags + ["--dims", "1"]
    assert main(argv) == 1
    assert message in capsys.readouterr().err


def test_uq_moments_accepts_unread_config_keys(tmp_path, capsys):
    # seed is never read, and ref_level is read by uq-convergence only
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("case = bundled:demo3\nref_level = x\nseed = abc\n")
    argv = ["uq-moments", "--config", str(cfg), "--qoi", "voltage:3", "--dims", "1"]
    assert main(argv + ["--levels", "1"]) == 0
    assert _csv_rows(capsys.readouterr().out, "uq-moments")[1][:2] == ["1", "3"]


def test_empty_cache_flag_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["uq-moments", "--case", "bundled:demo3", "--dims", "1", "--qoi", "voltage:3"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--levels", "1", "--cache", ""])
    assert exc.value.code == 2
    assert "bad directory ''" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_bad_config_value_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("case = bundled:demo3\ndims = abc\n")
    assert main(["uq-moments", "--config", str(cfg), "--levels", "0"]) == 1
    assert "config key 'dims'" in capsys.readouterr().err


def test_unknown_config_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    for line, key in (("load_bus = 3,4", "load_bus"), ("workers = 1", "workers")):
        cfg.write_text(f"case = bundled:demo3\n{line}\n")
        assert main(["uq-moments", "--config", str(cfg), "--levels", "0"]) == 1
        assert f"unknown config key '{key}'" in capsys.readouterr().err


def test_duplicate_perturbation_target_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    args = ["uq-moments", "--case", "bundled:case39", "--dims", "2", "--levels", "0"]
    cfg.write_text("load_buses = 3,3\n")
    assert main(args + ["--config", str(cfg)]) == 1
    assert "two load terms target bus 3" in capsys.readouterr().err
    cfg.write_text("branches = 2,2\n")
    assert main(args + ["--config", str(cfg), "--study", "admittance"]) == 1
    assert "two admittance terms target branch row 2 (1-39)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, study, key",
    [("branches = 5,6", "load", "branches"), ("load_buses = 3", "admittance", "load_buses")],
)
def test_list_key_the_study_does_not_read_is_rejected(tmp_path, capsys, line, study, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(line + "\n")
    args = ["uq-moments", "--case", "bundled:case39", "--dims", "2", "--levels", "0"]
    assert main(args + ["--config", str(cfg), "--study", study]) == 1
    assert f"config key '{key}' is read by" in capsys.readouterr().err


@pytest.mark.parametrize("row", [0, 47, -3])
def test_branch_row_out_of_range_is_named_as_written(tmp_path, capsys, row):
    # case39 has 46 branches; rows are 1-based as the README documents them
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"branches = 1,{row}\n")
    args = ["uq-moments", "--case", "bundled:case39", "--dims", "2", "--levels", "0"]
    assert main(args + ["--config", str(cfg), "--study", "admittance"]) == 1
    err = capsys.readouterr().err
    assert f"config key 'branches': row {row} is not a branch row of the case (1..46)" in err


def test_branches_number_case_table_rows_past_an_out_of_service_row(tmp_path, capsys):
    # demo3 with an out-of-service copy of branch 1-2 inserted as table row 1:
    # its in-service branches 1-2, 1-3 and 2-3 are table rows 2, 3 and 4
    demo = Path(uqflow.cli.__file__).parent / "cases" / "demo_3bus.m"
    text = demo.read_text()
    first = next(line for line in text.splitlines() if line.startswith("1\t2\t"))
    shadow = first.rsplit("\t", 3)[0] + "\t0\t-360\t360"
    case = tmp_path / "shadowed.m"
    case.write_text(text.replace(first, shadow + "\n" + first, 1))
    cfg = tmp_path / "exp.cfg"
    args = ["uq-moments", "--study", "admittance", "--qoi", "voltage:3", "--levels", "1"]
    args += ["--config", str(cfg), "--out"]
    runs = {}
    for name, path, row in (("shadowed", case, 4), ("plain", demo, 3)):
        cfg.write_text(f"case = {path}\ndims = 1\nbranches = {row}\n")
        runs[name] = tmp_path / f"{name}.csv"
        assert main(args + [str(runs[name])]) == 0
    assert _without_wall_ms(runs["shadowed"]) == _without_wall_ms(runs["plain"])
    for rows, message in (
        ("1,2", "config key 'branches': row 1 is out of service"),
        ("2,2", "two admittance terms target branch row 2 (1-2)"),
        ("3,5", "config key 'branches': row 5 is not a branch row of the case (1..4)"),
    ):
        cfg.write_text(f"case = {case}\ndims = 2\nbranches = {rows}\n")
        assert main(args + [str(tmp_path / "x.csv")]) == 1
        assert message in capsys.readouterr().err


def test_parse_case_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "canon.m"
    assert main(["parse-case", "--case", "bundled:case39", "--out", str(out_file)]) == 0
    report = capsys.readouterr().out
    assert "bus=39 gen=10 branch=46" in report
    # the written file parses back to the identical canonical text
    assert main(["parse-case", "--case", str(out_file), "--out", str(tmp_path / "again.m")]) == 0
    assert (tmp_path / "again.m").read_text() == out_file.read_text()


def test_parse_case_prints_every_warning(tmp_path, capsys):
    text = serialize_case(load_case("bundled:demo3"))
    edited = tmp_path / "edited.m"
    edited.write_text(text.replace("mpc.version = '2'", "mpc.version = '1'") + "mpc.foo = 3;\n")
    assert main(["parse-case", "--case", str(edited)]) == 0
    report = capsys.readouterr().out
    line = len(text.splitlines()) + 1
    assert "version: 2\n" in report
    assert report.endswith(
        f"warning: line {line}: skipped unknown field mpc.foo\n"
        "warning: unexpected case version '1' (treated as '2')\n"
    )


def test_parse_case_malformed(data_dir, capsys):
    assert main(["parse-case", "--case", str(data_dir / "bad_token.m")]) == 1
    err = capsys.readouterr().err
    assert "line 12" in err


def test_grid_info_table(capsys):
    assert main(["grid-info", "--dims", "2", "--levels", "0,1,2,3,4,5"]) == 0
    rows = _csv_rows(capsys.readouterr().out, "grid-info")
    assert rows[0] == ["w", "knots", "terms", "poly_dim"]
    assert [r[1] for r in rows[1:]] == ["1", "5", "13", "29", "65", "145"]


def test_grid_info_reaches_19_dims(capsys):
    assert main(["grid-info", "--dims", "19", "--levels", "0,1,2,3"]) == 0
    rows = _csv_rows(capsys.readouterr().out, "grid-info")[1:]
    assert [r[1] for r in rows] == ["1", "39", "761", "9957"]
    assert [r[2] for r in rows] == ["1", "20", "210", "1540"]
    assert [r[3] for r in rows] == [r[1] for r in rows]


def test_certify_bound_schedule_at_19_dims(capsys):
    argv = ["certify", "--case", "bundled:case39", "--dims", "19", "--lipschitz", "1"]
    argv += ["--sigma-hat", "0.3", "--m-tilde", "2", "--levels", "1,2,3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    for w, eta in ((1, 39), (2, 761), (3, 9957)):
        assert f"bound w={w} eta={eta} " in out


def test_uq_moments_demo(tmp_path):
    out = tmp_path / "m.csv"
    code = main(
        [
            "uq-moments",
            "--case",
            "bundled:demo-3bus",
            "--dims",
            "1",
            "--qoi",
            "voltage:3",
            "--levels",
            "0,2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = _csv_rows(out.read_text(), "uq-moments")
    assert rows[0] == ["w", "knots", "mean", "var", "wall_ms"]
    w0, w2 = rows[1], rows[2]
    assert float(w0[2]) == pytest.approx(0.9489523351354909, abs=1e-9)
    assert float(w0[3]) == 0.0  # single knot, no spread
    assert float(w2[3]) > 0.0


def test_uq_convergence_errors_shrink(tmp_path):
    out = tmp_path / "c.csv"
    args = [
        "uq-convergence",
        "--case",
        "bundled:case39",
        "--dims",
        "2",
        "--qoi",
        "voltage:22",
        "--levels",
        "1,2",
        "--ref-level",
        "3",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    rows = _csv_rows(out.read_text(), "uq-convergence")
    assert rows[0] == ["w", "knots", "mean", "var", "err_mean", "err_var", "wall_ms"]
    errs = [float(r[4]) for r in rows[1:]]
    assert errs[1] < errs[0]

    # a rerun reproduces every column except the timing one
    again = tmp_path / "c2.csv"
    assert main(args[:-1] + [str(again)]) == 0
    first = [r[:-1] for r in _csv_rows(out.read_text(), "uq-convergence")]
    second = [r[:-1] for r in _csv_rows(again.read_text(), "uq-convergence")]
    assert first == second


def test_uq_convergence_rejects_bad_reference(capsys):
    code = main(
        [
            "uq-convergence",
            "--case",
            "bundled:case39",
            "--levels",
            "3,4",
            "--ref-level",
            "3",
        ]
    )
    assert code == 1
    assert "reference" in capsys.readouterr().err


def test_surrogate_cache_roundtrip(tmp_path):
    cache = tmp_path / "cache"
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "uq-moments",
        "--case",
        "bundled:demo-3bus",
        "--dims",
        "1",
        "--qoi",
        "voltage:3",
        "--levels",
        "1,2",
        "--cache",
        str(cache),
    ]
    assert main(args + ["--out", str(out1)]) == 0
    cached = sorted(cache.glob("*.json"))
    assert len(cached) == 2
    stamps = [p.stat().st_mtime_ns for p in cached]
    assert main(args + ["--out", str(out2)]) == 0
    assert [p.stat().st_mtime_ns for p in sorted(cache.glob("*.json"))] == stamps
    first = [r[:-1] for r in _csv_rows(out1.read_text(), "uq-moments")]
    second = [r[:-1] for r in _csv_rows(out2.read_text(), "uq-moments")]
    assert first == second


def _without_wall_ms(path):
    return [line.rpartition(",")[0] for line in path.read_text().splitlines()]


def test_warm_csv_matches_the_cold_csv_byte_for_byte(tmp_path):
    # Three dimensions, so the warm op's grouped contraction sums terms.
    args = [
        "uq-moments",
        "--case",
        "bundled:case39",
        "--dims",
        "3",
        "--levels",
        "1,2,3",
        "--cache",
        str(tmp_path / "cache"),
        "--out",
    ]
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    assert main(args + [str(cold)]) == 0
    assert main(args + [str(warm)]) == 0

    assert _without_wall_ms(cold)[1] == "w,knots,mean,var"
    assert _without_wall_ms(warm) == _without_wall_ms(cold)


def test_truncated_cache_entry_is_recomputed(tmp_path):
    cache = tmp_path / "cache"
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "uq-moments",
        "--case",
        "bundled:demo-3bus",
        "--dims",
        "1",
        "--qoi",
        "voltage:3",
        "--levels",
        "1,2",
        "--cache",
        str(cache),
    ]
    assert main(args + ["--out", str(out1)]) == 0
    entry = sorted(cache.glob("*.json"))[0]
    text = entry.read_text()
    entry.write_text(text[: len(text) // 2])
    assert main(args + ["--out", str(out2)]) == 0
    assert entry.read_text() == text
    assert not list(cache.glob("*.tmp"))
    first = [r[:-1] for r in _csv_rows(out1.read_text(), "uq-moments")]
    second = [r[:-1] for r in _csv_rows(out2.read_text(), "uq-moments")]
    assert first == second


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: json.dumps({**p, "values": p["values"][:-1]}).encode(),
        lambda p: json.dumps([p]).encode(),
        lambda p: json.dumps({**p, "w": str(p["w"])}).encode(),
        lambda p: json.dumps({**p, "values": [[None] for _ in p["values"]]}).encode(),
        lambda p: b"\xff" + json.dumps(p).encode(),
    ],
    ids=["values one row short", "list payload", "w as text", "null values", "invalid utf-8"],
)
def test_corrupt_cache_entry_is_recomputed(tmp_path, corrupt):
    cache = tmp_path / "cache"
    args = [
        "uq-moments",
        "--case",
        "bundled:case39",
        "--dims",
        "2",
        "--levels",
        "2",
        "--cache",
        str(cache),
        "--out",
    ]
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    assert main(args + [str(cold)]) == 0
    (entry,) = cache.glob("*.json")
    text = entry.read_text()
    entry.write_bytes(corrupt(json.loads(text)))
    assert main(args + [str(warm)]) == 0
    assert entry.read_text() == text

    assert _without_wall_ms(warm) == _without_wall_ms(cold)


def test_entry_edited_to_another_level_is_rejected_before_any_plan(tmp_path, monkeypatch):
    """An entry whose w was edited to 14 is a miss, read against the plan the
    op built for its own level: no other plan is built (a 2-dim plan at
    w = 14 would take seconds and gigabytes)."""
    cache = tmp_path / "cache"
    args = ["uq-moments", "--case", "bundled:case39", "--dims", "2", "--levels", "2"]
    args += ["--cache", str(cache), "--out"]
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    assert main(args + [str(cold)]) == 0
    (entry,) = cache.glob("*.json")
    text = entry.read_text()
    entry.write_text(json.dumps({**json.loads(text), "w": 14}))
    plans = []
    build = uqflow.sparse_grid.build_plan

    def recorded(rule, w, dims):
        plans.append((w, dims))
        return build(rule, w, dims)

    monkeypatch.setattr(uqflow.sparse_grid, "build_plan", recorded)
    monkeypatch.setattr(uqflow.study, "build_plan", recorded)
    assert main(args + [str(warm)]) == 0
    assert plans == [(2, 2)]
    assert entry.read_text() == text
    assert _without_wall_ms(warm) == _without_wall_ms(cold)


def _count_problem_builds(monkeypatch) -> list:
    """Record every parametric_problem build: a knot-solving op makes one."""
    builds = []
    build = uqflow.powerflow.parametric_problem
    monkeypatch.setattr(
        uqflow.powerflow, "parametric_problem", lambda *a: builds.append(a) or build(*a)
    )
    return builds


def test_two_spellings_of_one_study_share_one_entry(tmp_path, monkeypatch):
    # 1, 3, 4 and 7 are the buses the load study picks by default for 4 dims
    config = tmp_path / "study.cfg"
    config.write_text("study = load\ncoefficient = 0.50\nload_buses = 1,3,4,7\n")
    cache = tmp_path / "cache"
    args = ["uq-moments", "--case", "bundled:case39", "--dims", "4", "--levels", "2"]
    args += ["--cache", str(cache), "--out"]
    written, spelled = tmp_path / "a.csv", tmp_path / "b.csv"
    builds = _count_problem_builds(monkeypatch)
    assert main(args + [str(written)]) == 0
    assert len(builds) == 1
    assert main(args + [str(spelled), "--config", str(config)]) == 0
    assert len(builds) == 1  # the second spelling solves no knot
    assert len(list(cache.glob("*.json"))) == 1
    assert _without_wall_ms(spelled) == _without_wall_ms(written)
    assert _without_wall_ms(written)[2] == "2,41,1.0500338133139355,1.3349693225052427e-06"
    config.write_text("load_buses = 1,3,4,8\n")  # another study: another entry
    assert main(args + [str(spelled), "--config", str(config)]) == 0
    assert len(builds) == 2
    assert len(list(cache.glob("*.json"))) == 2


def test_cache_survives_concurrent_writers(tmp_path, monkeypatch):
    """Two processes fill one cache with the same study at once; both
    succeed, no temporary file is left, and a third run solves no knot and
    prints the cold run's CSV."""
    cache = tmp_path / "cache"
    args = ["uq-moments", "--case", "bundled:case39", "--dims", "3", "--levels", "1,2,3"]
    args += ["--cache", str(cache), "--out"]
    env = dict(os.environ, PYTHONPATH=str(Path(uqflow.cli.__file__).parents[1]))
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "uqflow.cli", *args, str(tmp_path / f"cold{k}.csv")],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for k in range(2)
    ]
    for child in children:
        _, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
    assert len(list(cache.glob("*.json"))) == 3
    assert not list(cache.glob("*.tmp"))
    builds = _count_problem_builds(monkeypatch)
    warm = tmp_path / "warm.csv"
    assert main(args + [str(warm)]) == 0
    assert builds == []
    assert _without_wall_ms(warm) == _without_wall_ms(tmp_path / "cold0.csv")
    assert _without_wall_ms(warm) == _without_wall_ms(tmp_path / "cold1.csv")


_DEMO_MOMENTS = [
    "uq-moments",
    "--case",
    "bundled:demo-3bus",
    "--dims",
    "1",
    "--qoi",
    "voltage:3",
    "--levels",
    "1",
]


def test_entry_under_the_previous_cache_tag_is_a_miss(tmp_path, monkeypatch):
    # uqflow-cache/2 entries hold knots solved from the first-order chord
    # start, whose last bits differ from today's solve: reading one would
    # change the CSV
    cache = tmp_path / "cache"
    args = _DEMO_MOMENTS + ["--cache", str(cache)]
    with monkeypatch.context() as patch:
        patch.setattr(uqflow.study, "_CACHE_TAG", "uqflow-cache/2")
        assert main(args) == 0
    (old,) = cache.glob("*.json")
    payload = json.loads(old.read_text())
    payload["values"] = (np.asarray(payload["values"]) + 1.0).tolist()
    stale = json.dumps(payload)
    old.write_text(stale)
    out, fresh = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out)]) == 0
    assert old.read_text() == stale
    assert len(list(cache.glob("*.json"))) == 2
    assert main(_DEMO_MOMENTS + ["--out", str(fresh)]) == 0
    got = [r[:-1] for r in _csv_rows(out.read_text(), "uq-moments")]
    assert got == [r[:-1] for r in _csv_rows(fresh.read_text(), "uq-moments")]


def test_cache_keys_the_exact_network(tmp_path):
    # the nudged load differs from 286.53 only past the ninth significant
    # digit, where the canonical case text rounds: no entry is shared
    demo = Path(uqflow.cli.__file__).parent / "cases" / "demo_3bus.m"
    nudged = tmp_path / "nudged.m"
    nudged.write_text(demo.read_text().replace("\t286.53\t", "\t286.5300004\t", 1))
    args = ["uq-moments", "--dims", "1", "--qoi", "voltage:3", "--levels", "3", "--out"]
    cache = ["--cache", str(tmp_path / "cache")]
    runs = {}
    for name, case, extra in (("demo", demo, cache), ("warm", nudged, cache), ("cold", nudged, [])):
        runs[name] = tmp_path / f"{name}.csv"
        assert main(args + [str(runs[name]), "--case", str(case), *extra]) == 0
    assert _without_wall_ms(runs["warm"]) == _without_wall_ms(runs["cold"])
    assert _without_wall_ms(runs["cold"]) != _without_wall_ms(runs["demo"])
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


def test_warm_cached_op_builds_no_problem(tmp_path, monkeypatch):
    builds = _count_problem_builds(monkeypatch)
    args = _DEMO_MOMENTS + ["--cache", str(tmp_path / "cache"), "--out", str(tmp_path / "a.csv")]
    assert main(args) == 0
    assert len(builds) == 1  # the cold op solves its knots on one problem
    assert main(args) == 0
    assert len(builds) == 1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "case = bundled:demo-3bus\n"
        "dims = 1\n"
        "qoi = voltage:3\n"
        "levels = 0\n"
    )
    out = tmp_path / "o.csv"
    assert main(["uq-moments", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _csv_rows(out.read_text(), "uq-moments")
    assert [r[0] for r in rows[1:]] == ["0"]
    # explicit flag wins over the config value
    assert main(["uq-moments", "--config", str(cfg), "--levels", "1", "--out", str(out)]) == 0
    rows = _csv_rows(out.read_text(), "uq-moments")
    assert [r[0] for r in rows[1:]] == ["1"]


def test_zero_coefficient_damps_study(tmp_path):
    out = tmp_path / "z.csv"
    code = main(
        [
            "uq-convergence",
            "--case",
            "bundled:demo-3bus",
            "--dims",
            "1",
            "--qoi",
            "voltage:3",
            "--coefficient",
            "0",
            "--levels",
            "1,2",
            "--ref-level",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    for row in _csv_rows(out.read_text(), "uq-convergence")[1:]:
        # constant response: errors collapse to quadrature round-off
        assert float(row[4]) <= 1e-15
        assert float(row[5]) <= 1e-15


def test_certify_scalar_demo(capsys):
    assert main(["certify", "--scalar-demo", "--levels", "1,2"]) == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        if ":" in line:
            key, _, val = line.partition(":")
            values[key.strip()] = val.strip()
    assert float(values["h"]) == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert float(values["t_star"]) == pytest.approx(1.5 - math.sqrt(2.0), abs=1e-12)
    assert float(values["t_star_e"]) == pytest.approx(0.5, abs=1e-12)
    assert values["kantorovich satisfied"] == "True"
    assert float(values["sigma_hat"]) == pytest.approx(1.646484375, abs=1e-12)
    assert "bound w=1" in out and "bound w=2" in out


def test_certify_scalar_demo_degenerate_region_to_a_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    argv = ["certify", "--scalar-demo", "--sigma-hat", "0", "--delta-e", "0.25", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    report = out.read_text()
    assert "delta_e: 0.25\n" in report
    # h_e = 2 kappa_e L delta_e = 2 (2/3) 2 (1/4)
    assert "h_e: 0.6666666666666666\n" in report
    assert report.endswith(
        "sigma_hat: 0.0\nrate bounds: unavailable (degenerate region, sigma_hat = 0)\n"
    )


@pytest.mark.parametrize(
    ("study", "dims", "sigma_hat"),
    [
        ("load", 1, "0.96337890625"),
        ("load", 2, "0.356201171875, 0.356201171875"),
        ("admittance", 1, "0.01326751708984375"),
    ],
)
def test_certify_region_search_on_case39(capsys, study, dims, sigma_hat):
    argv = ["certify", "--case", "bundled:case39", "--study", study, "--dims", str(dims)]
    assert main(argv) == 0
    assert f"sigma_hat: {sigma_hat}\n" in capsys.readouterr().out


def test_certify_case_with_supplied_region(capsys):
    code = main(
        [
            "certify",
            "--case",
            "bundled:demo-3bus",
            "--dims",
            "1",
            "--qoi",
            "voltage:3",
            "--study",
            "load",
            "--lipschitz",
            "10",
            "--sigma-hat",
            "0.4",
            "--m-tilde",
            "3",
            "--levels",
            "1,2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "search skipped" in out
    assert "bound w=2" in out


@pytest.mark.parametrize(
    ("argv", "name"),
    [
        ("--case bundled:case39 --dims 2 --sigma-hat 1e-6 --m-tilde 1e150".split(), "q_coef"),
        ("--case bundled:case39 --dims 8 --sigma-hat 0.01 --m-tilde 1e40".split(), "q_coef"),
        ("--case bundled:demo3 --dims 1 --sigma-hat 1e-6 --m-tilde 1e300".split(), "c1"),
        (["--scalar-demo", "--sigma-hat", "1e3", "--m-tilde", "1"], "a_coef"),
        (["--scalar-demo", "--sigma-hat", "700", "--m-tilde", "1", "--levels", "2,10"], "bound"),
    ],
)
def test_overflowing_bound_constant_is_an_error(capsys, argv, name):
    assert main(["certify", "--lipschitz", "1", "--levels", "1", *argv]) == 1
    captured = capsys.readouterr()
    assert f"error: {name} is not finite (inf)" in captured.err
    assert "value=" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        "--case bundled:case39 --dims 1 --sigma-cap 1000 --m-tilde 2 --levels 1".split(),
        "--scalar-demo --sigma-cap 800 --levels 1 --m-tilde 2".split(),
    ],
)
def test_overflowing_sigma_cap_is_an_error(capsys, argv):
    assert main(["certify", *argv]) == 1
    assert "error: sigma_cap (" in capsys.readouterr().err


def test_non_finite_lipschitz_probe_is_an_error(capsys):
    argv = "certify --case bundled:case39 --dims 1 --radius 1e200 --m-tilde 2 --levels 1"
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Lipschitz probe pair 0 of 64 at radius 1e+200 ")


def test_certify_takes_few_dense_svds(capsys, monkeypatch):
    # 64 Lipschitz probe pairs and 73 region-search probes decided: the Gram
    # bound leaves a handful of exact SVDs, and the load study's all-zero
    # perturbation matrices need no spectral norm at all
    svdvals = mock.Mock(wraps=scipy.linalg.svdvals)
    bounds = uqflow.analyticity.PerturbationBounds
    decided = mock.Mock(wraps=bounds.certifies)
    norm = mock.Mock(wraps=np.linalg.norm)
    # newton looks svdvals up on scipy.linalg at every call
    monkeypatch.setattr(scipy.linalg, "svdvals", svdvals)
    monkeypatch.setattr(bounds, "certifies", lambda self, *args: decided(self, *args))
    monkeypatch.setattr(np.linalg, "norm", norm)
    argv = "certify --case bundled:case39 --dims 1 --m-tilde 2.0 --samples 0 --seed 0"
    assert main(argv.split()) == 0
    assert "lipschitz: 575.12781963168 (sampled (64 probes))" in capsys.readouterr().out
    assert svdvals.call_count <= 16  # one of them is kappa's
    assert decided.call_count == 73
    assert not [call for call in norm.call_args_list if call.args[1:] == (2,)]


def test_certify_seed_must_be_a_nonnegative_integer(capsys):
    argv = "certify --case bundled:case39 --dims 1 --seed -1".split()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "bad seed '-1': want an integer >= 0" in capsys.readouterr().err


def test_certify_needs_a_problem(capsys):
    assert main(["certify"]) == 1
    assert "scalar-demo" in capsys.readouterr().err


_SCIPY_AFTER_A_CHILD_RUN = """
import contextlib, io, sys
if len(sys.argv) > 1:
    from uqflow.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
else:
    import uqflow
print(" ".join(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_scipy_is_loaded_only_where_a_matrix_is_factored(tmp_path):
    """import uqflow, grid-info, parse-case and a warm uq-moments run on
    NumPy alone; a cold uq-moments and solve load scipy.linalg. Each run is
    a child process, because the suite's LinAlgWarning filter imports
    scipy.linalg into this one."""
    env = dict(os.environ, PYTHONPATH=str(Path(uqflow.cli.__file__).parents[1]))

    def scipy_modules(*argv: str) -> list[str]:
        printed = subprocess.run(
            [sys.executable, "-c", _SCIPY_AFTER_A_CHILD_RUN, *argv],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout
        return printed.split()

    moments = ["uq-moments", "--case", "bundled:case39", "--dims", "2", "--levels", "1,2"]
    moments += ["--cache", str(tmp_path)]
    assert "scipy.linalg" in scipy_modules(*moments)  # cold: solves the knots
    assert "scipy.linalg" in scipy_modules("solve", "--case", "bundled:demo3")
    assert scipy_modules() == []
    assert scipy_modules("grid-info", "--dims", "5", "--levels", "4") == []
    assert scipy_modules("parse-case", "--case", "bundled:case39") == []
    assert scipy_modules(*moments) == []  # warm: reads every knot from the cache

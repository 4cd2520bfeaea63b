"""The benchmark's own test, on a seconds-long variant (case39, dims 1, level 1)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import TINY  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(metrics: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in metrics.items()}


def _uqflow_attributes() -> dict:
    return {
        (name, attr): obj
        for name, module in list(sys.modules.items())
        if name == "uqflow" or name.startswith("uqflow.")
        for attr, obj in vars(module).items()
    }


def test_untraced_run_reports_every_end_to_end_metric():
    result = run.run_workload(TINY, 0, 0.0, False, run.reference_for(TINY, 0), setup_repeats=1)
    line = result["line"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert _units(line["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_corrupted_reference_fails_the_ops():
    lines = run.reference_for(TINY, 3).splitlines()
    fields = lines[2].split(",")
    fields[2] = repr(float(fields[2]) * (1.0 + 1e-9))  # mean, checked to 1e-12 relative
    corrupted = "\n".join([*lines[:2], ",".join(fields), *lines[3:]]) + "\n"
    line = run.run_workload(TINY, 3, 0.0, False, corrupted, setup_repeats=1)["line"]
    assert line["failed"] == line["attempted"] > 0
    assert not line["correct"]


def test_traced_run_restores_modules_and_reports_per_layer_metrics():
    run.import_cli()
    before = _uqflow_attributes()
    result = run.run_workload(TINY, 0, 0.0, True, run.reference_for(TINY, 0))
    after = _uqflow_attributes()
    assert all(after[key] is obj for key, obj in before.items())
    line = result["line"]
    assert line["correct"] and line["attempted"] >= 2
    assert _units(line["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    values = {name: m["value"] for name, m in line["metrics"].items()}
    assert None not in values.values()
    assert values["newton.solves"] == values["sparse_grid.knots_solved"] == 3
    assert values["sparse_grid.knots_requested"] == 3


def test_missing_hook_target_is_reported_not_fatal(monkeypatch):
    run.import_cli()
    import uqflow.case_io

    # cli keeps its own reference, so the program still runs without it.
    monkeypatch.delattr(uqflow.case_io, "serialize_case")
    line = run.run_workload(TINY, 0, 0.0, True, run.reference_for(TINY, 0))["line"]
    assert line["correct"]
    assert line["metrics"]["case_io.serialize_s"] == {"value": None, "unit": "s", "missing": True}
    assert line["metrics"]["case_io.load_s"]["value"] > 0


def test_certify_check_recomputes_lines_derived_from_a_moved_sigma_hat():
    cli = run.import_cli()
    from checks import check_output
    from uqflow.analyticity import EllipseRegion
    from workloads import WORKLOADS

    want = run.reference_for(WORKLOADS["certify-region"], 0)
    lines = want.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("sigma_hat:"))
    sigma_hat = float(lines[i].split(":")[1])

    def tail(scale: float) -> list[str]:
        region = EllipseRegion((sigma_hat * scale,))
        return cli._bound_schedule_lines(region, 2.0, cli._grid_rule("smolyak", "cc"), (1, 2, 3), 1)

    assert check_output("certify", "\n".join(lines[:i] + tail(1 + 5e-4)) + "\n", want) == []
    stale = lines[:i] + tail(1 + 5e-4)[:1] + lines[i + 1:]
    assert check_output("certify", "\n".join(stale) + "\n", want)
    assert check_output("certify", "\n".join(lines[:i] + tail(1 + 2e-3)) + "\n", want)

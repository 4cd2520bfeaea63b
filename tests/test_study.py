from __future__ import annotations

import dataclasses
import json
import math
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cc_fractions,
    two_bus_angle,
    two_bus_critical_coefficient,
    two_bus_moments,
    two_bus_radius,
    two_bus_singularity,
    two_bus_voltage,
)

from uqflow.case_io import load_case, to_network
from uqflow.cli import main
from uqflow.errors import UqflowError
from uqflow.nodes1d import chebyshev_coefficients, clenshaw_curtis_nodes
from uqflow.powerflow import QuantityOfInterest, StochasticPerturbation
from uqflow.sparse_grid import GridRule, build_plan
from uqflow.study import Study, _write_atomically, study_perturbation

DEMO = to_network(load_case("bundled:demo-3bus"))
V3 = QuantityOfInterest.parse("voltage:3")
DEMO2 = to_network(load_case("bundled:demo2"))
V2 = QuantityOfInterest.parse("voltage:2")
A2 = QuantityOfInterest.parse("angle:2")


@settings(max_examples=25, deadline=None)
@given(
    study=st.sampled_from([("load", 1), ("admittance", 1), ("admittance", 2)]),
    kind=st.sampled_from(["smolyak", "td", "hc"]),
    family=st.sampled_from(["clenshaw_curtis", "gauss_legendre"]),
    levels=st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
)
def test_a_level_does_not_depend_on_cache_state_or_level_order(study, kind, family, levels):
    pert = study_perturbation(DEMO, *study, 0.5)
    rule = GridRule(kind, family)

    def fresh(cache_dir=None):
        return Study.open(DEMO, pert, rule, V3, 1e-12, cache_dir)

    def values(study, w):
        r = study.level(w)
        return r.knots, r.mean, r.variance

    alone = {w: values(fresh(), w) for w in levels}  # a fresh study per level
    shared = fresh()
    assert {w: values(shared, w) for w in levels} == alone
    with tempfile.TemporaryDirectory() as cache:
        for _ in ("cold", "warm"):
            cached = fresh(cache)
            assert {w: values(cached, w) for w in levels} == alone
        assert len(list(Path(cache).glob("*.json"))) == len(levels)


def test_threads_writing_one_entry_do_not_collide(tmp_path):
    # Each thread needs its own temporary file: with a shared one, one
    # thread's os.replace moves the file another is still writing.
    path = tmp_path / "entry.json"
    texts = [str(n) * 800_000 for n in range(4)]
    start = threading.Barrier(len(texts))
    errors = []

    def write(text):
        start.wait()
        try:
            for _ in range(20):
                _write_atomically(path, text)
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(text,)) for text in texts]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert path.read_text() in texts
    assert [f.name for f in tmp_path.iterdir()] == ["entry.json"]


def test_an_entry_with_knot_key_text_is_still_a_hit(tmp_path):
    # Older entries carry each knot's node keys as text ("p/q" for
    # Clenshaw-Curtis nodes); the reader ignores that field.
    rule, w = GridRule("smolyak", "clenshaw_curtis"), 2
    pert = study_perturbation(DEMO, "admittance", 2, 0.5)
    cold = Study.open(DEMO, pert, rule, V3, 1e-12, str(tmp_path)).level(w)
    (entry,) = tmp_path.glob("*.json")
    payload = json.loads(entry.read_text())
    assert "keys" not in payload

    plan = build_plan(rule, w, 2)
    text = {}
    for count in plan.node_sets:
        keys = (f"{p}/{q}" for p, q in cc_fractions(count))
        text.update(zip(clenshaw_curtis_nodes(count).tolist(), keys))
    payload["keys"] = [[text[x] for x in knot] for knot in payload["knots"]]
    old = json.dumps(payload)
    entry.write_text(old)

    warm = Study.open(DEMO, pert, rule, V3, 1e-12, str(tmp_path))
    calls = []

    def sample(q):
        calls.append(q)
        return warm.sample(q)

    result = dataclasses.replace(warm, sample=sample).level(w)
    assert calls == []
    assert (result.knots, result.mean, result.variance) == (cold.knots, cold.mean, cold.variance)
    assert entry.read_text() == old


def test_a_tensor_rule_too_big_to_hold_fails_before_any_knot_is_solved():
    net = to_network(load_case("bundled:case39"))
    pert = study_perturbation(net, "load", 19, 0.5)
    study = Study.open(net, pert, GridRule("smolyak"), QuantityOfInterest.parse("voltage:22"), 1e-12)
    calls = []

    def sample(q):
        calls.append(q)
        raise AssertionError("a knot was solved before the tensor-rule guard")

    with pytest.raises(UqflowError, match="over 19 dims .* above the limit of 67108864"):
        dataclasses.replace(study, sample=sample).level(2)
    assert calls == []


def test_cache_keys_hold_every_load_coefficient(tmp_path):
    # 78 rows (P, then Q of 39 buses) of 19 coefficients: past 1,000 entries
    # NumPy elides an array's repr, so a key made from the array would not
    # hold every coefficient. The two matrices differ in row 77 (the Q load
    # of bus 39), dim 18, only.
    net = to_network(load_case("bundled:case39"))
    rule, qoi = GridRule("smolyak"), QuantityOfInterest.parse("voltage:22")
    loads = [np.array(study_perturbation(net, "load", 19, 0.5).load) for _ in range(2)]
    loads[0][77, 18], loads[1][77, 18] = 0.25, 0.5
    assert "..." in repr(loads[0])
    keys = []
    for load in loads:
        pert = StochasticPerturbation(19, load=load)
        pert.validate(net)
        keys.append(Study.open(net, pert, rule, qoi, 1e-12, str(tmp_path)).key)
    assert keys[0] != keys[1]


def _two_bus_study(qoi: QuantityOfInterest = V2) -> Study:
    """The 1-dim load study of bundled:demo2 at c = 0.5, knots solved to 1e-12."""
    pert = study_perturbation(DEMO2, "load", 1, 0.5)
    return Study.open(DEMO2, pert, GridRule("smolyak"), qoi, 1e-12)


def test_the_two_bus_knots_are_the_closed_form_voltage():
    study = _two_bus_study()
    for q in (-1.0, -0.5, 0.0, 0.5, 1.0):
        assert abs(study.sample(np.array([q])) - float(two_bus_voltage(q, 0.5))) <= 1e-13


def test_the_two_bus_knots_solve_up_to_the_nose_and_fail_past_it():
    study = _two_bus_study()
    q_star = two_bus_singularity(0.5)
    # the Jacobian turns singular at the nose, so the voltage error grows
    # there past the 1e-12 mismatch tolerance
    inside = 0.99 * q_star
    assert abs(study.sample(np.array([inside])) - float(two_bus_voltage(inside, 0.5))) <= 1e-10
    with pytest.raises(UqflowError, match=r"at q=\[2\.02\]"):
        study.sample(np.array([1.01 * q_star]))


def test_the_two_bus_voltage_has_the_closed_form_analyticity_radius():
    # A square-root branch point at q* gives Chebyshev coefficients
    # a_k ~ C k^(-3/2) exp(-sigma* k), so the corrected ratio of neighbours
    # reads sigma* where the a_k are still well above roundoff.
    study = _two_bus_study()
    a = chebyshev_coefficients(lambda y: np.array([study.sample(np.array([v])) for v in y]), 14)
    for k in range(8, 14):
        rate = -math.log(abs(a[k + 1] / a[k])) - 1.5 * math.log((k + 1) / k)
        assert abs(rate - two_bus_radius(0.5)) <= 0.01, (k, rate)


def test_the_two_bus_load_study_converges_to_the_exact_moments():
    # closed-form ground truth: a lossless line to one load, V^2 = (1 +
    # sqrt(1 - 4 P^2 X^2)) / 2, with the exact moments by mpmath.quad
    mean, var = two_bus_moments(0.5)
    study = _two_bus_study()
    errors = [(abs(r.mean - mean), abs(r.variance - var)) for r in map(study.level, (1, 2, 3, 4))]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine[0] < coarse[0] and fine[1] < coarse[1], errors
    assert errors[-1][0] <= 1e-13 and errors[-1][1] <= 1e-12, errors


def test_the_two_bus_angle_knots_are_the_closed_form_angle():
    study = _two_bus_study(A2)
    for knot in build_plan(GridRule("smolyak"), 4, 1).knots:
        assert abs(study.sample(knot) - float(two_bus_angle(knot[0], 0.5))) <= 1e-13, knot


def test_the_two_bus_angle_study_converges_to_the_exact_moments():
    mean, var = two_bus_moments(0.5, quantity=two_bus_angle)
    study = _two_bus_study(A2)
    errors = [(abs(r.mean - mean), abs(r.variance - var)) for r in map(study.level, (1, 2, 3, 4))]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine[0] < coarse[0] and fine[1] < coarse[1], errors
    assert errors[-1][0] <= 1e-13 and errors[-1][1] <= 1e-12, errors


def test_the_two_bus_angle_study_runs_below_the_critical_coefficient_only(capsys):
    # at c* = 1/(2 X P0) - 1 the load at q = 1 reaches the nose of the PV curve
    argv = ["uq-moments", "--case", "bundled:demo2", "--dims", "1", "--qoi", "angle:2"]
    argv += ["--levels", "1", "--coefficient"]
    c_star = two_bus_critical_coefficient()
    assert c_star == 1.0
    assert main(argv + [str(0.99 * c_star)]) == 0
    assert main(argv + [str(1.01 * c_star)]) == 1
    assert "q=[1.0]" in capsys.readouterr().err

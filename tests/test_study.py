from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from uqflow.case_io import load_case, to_network
from uqflow.powerflow import QuantityOfInterest
from uqflow.sparse_grid import GridRule
from uqflow.study import Study, study_perturbation

DEMO = to_network(load_case("bundled:demo-3bus"))
V3 = QuantityOfInterest.parse("voltage:3")


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

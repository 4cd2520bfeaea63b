from __future__ import annotations

import dataclasses
import json
import tempfile
import threading
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from uqflow.case_io import load_case, to_network
from uqflow.nodes1d import cc_node_keys, clenshaw_curtis_nodes
from uqflow.powerflow import QuantityOfInterest
from uqflow.sparse_grid import GridRule, build_plan
from uqflow.study import Study, _write_atomically, study_perturbation

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
        keys = (f"{p}/{q}" for p, q in cc_node_keys(count))
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

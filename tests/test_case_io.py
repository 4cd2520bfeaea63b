from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqflow.case_io import (
    CaseFile,
    bundled_case_names,
    load_case,
    parse_matpower,
    serialize_case,
    to_network,
)
from uqflow.errors import CaseFormatError, CaseValidationError


def test_case39_table_shapes():
    case = load_case("bundled:case39")
    assert case.name == "new_england_39"
    assert case.base_mva == 100.0
    assert case.bus.shape[0] == 39
    assert case.gen.shape[0] == 10
    assert case.branch.shape[0] == 46
    assert case.warnings == []


def test_demo_case_loads():
    case = load_case("bundled:demo-3bus")
    assert case.bus.shape[0] == 3
    assert case.gen.shape[0] == 2
    assert case.branch.shape[0] == 3


def test_bundled_aliases_resolve():
    names = bundled_case_names()
    assert "new-england-39" in names
    assert "demo-3bus" in names
    a = load_case("bundled:case39")
    b = load_case("bundled:new-england-39")
    assert a.name == b.name
    np.testing.assert_array_equal(a.bus, b.bus)


def test_the_two_bus_case_loads_under_each_alias():
    assert "demo-2bus" in bundled_case_names()
    cases = [load_case(f"bundled:{name}") for name in ("demo-2bus", "demo_2bus", "demo2bus", "demo2")]
    assert {serialize_case(case) for case in cases} == {serialize_case(cases[0])}
    assert (cases[0].bus.shape[0], cases[0].gen.shape[0], cases[0].branch.shape[0]) == (2, 1, 1)


def test_unknown_bundled_case():
    with pytest.raises(CaseValidationError):
        load_case("bundled:case9000")
    with pytest.raises(FileNotFoundError):
        load_case("/nowhere/case9000.m")


def test_serialization_is_a_fixed_point():
    case = load_case("bundled:case39")
    text = serialize_case(case)
    reparsed = parse_matpower(text, name=case.name)
    assert serialize_case(reparsed) == text
    np.testing.assert_array_equal(reparsed.bus, case.bus)
    np.testing.assert_array_equal(reparsed.gen, case.gen)
    np.testing.assert_array_equal(reparsed.branch, case.branch)


@st.composite
def _valid_cases(draw) -> CaseFile:
    """Bus, gen and branch tables that to_network accepts: distinct bus ids,
    one slack, an in-service generator on every slack and PV bus, branches
    between known buses with nonzero impedance. Every other entry, and up to
    two columns past the ones serialize_case writes, is any float."""
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(1, 99_999), min_size=n, max_size=n, unique=True))
    slack = draw(st.integers(0, n - 1))
    kinds = [3 if k == slack else draw(st.sampled_from([1, 2])) for k in range(n)]

    def rows(count: int, width: int) -> np.ndarray:
        extra = draw(st.integers(0, 2))
        cells = st.lists(st.floats(-1e4, 1e4), min_size=width + extra, max_size=width + extra)
        return np.array(draw(st.lists(cells, min_size=count, max_size=count)), ndmin=2)

    bus = rows(n, 13)
    bus[:, 0], bus[:, 1] = ids, kinds
    required = [bus_id for bus_id, kind in zip(ids, kinds) if kind != 1]
    more = draw(st.lists(st.sampled_from(ids), max_size=3))
    gen = rows(len(required) + len(more), 10)
    gen[:, 0] = required + more
    gen[: len(required), 7] = 1.0  # in service
    branch = rows(draw(st.integers(1, 8)), 13)
    branch[:, 0] = [draw(st.sampled_from(ids)) for _ in branch]
    branch[:, 1] = [draw(st.sampled_from(ids)) for _ in branch]
    branch[:, 3] = [draw(st.floats(-1e2, -1e-3) | st.floats(1e-3, 1e2)) for _ in branch]
    name = draw(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,11}", fullmatch=True))
    return CaseFile(name, draw(st.floats(1.0, 1e4)), bus, gen, branch)


@settings(max_examples=200, deadline=None)
@given(_valid_cases())
def test_serialization_is_a_fixed_point_of_every_valid_case(case):
    to_network(case)
    text = serialize_case(case)
    assert serialize_case(parse_matpower(text)) == text


@st.composite
def _relaid(draw, text: str) -> str:
    """The text with every matrix block laid out again: rows joined by ';' onto
    fewer lines, tabs, spaces or commas between values, '[' and ']' on data
    lines or on their own lines, '%' comments and blank lines."""

    def comment() -> str:
        return draw(st.sampled_from(["", " % note", "\t%% ] ; [ 1 2", "  %"]))

    def gap() -> list[str]:
        return draw(st.lists(st.sampled_from(["", " \t", "% own-line note", "  % ];"]), max_size=2))

    def block(m: re.Match) -> str:
        sep = draw(st.sampled_from(["\t", " ", "  ", ",", ", ", " ,\t"]))
        rows = [sep.join(row.split("\t")) for row in m.group(2).split("\n")]
        groups = []
        while rows:
            take = draw(st.integers(1, len(rows)))
            groups.append(";".join(rows[:take]) + draw(st.sampled_from(["", ";", " ;"])))
            rows = rows[take:]
        lines = [f"mpc.{m.group(1)} = ["]
        if draw(st.booleans()):
            lines[0] += draw(st.sampled_from(["", " ", "\t"])) + groups.pop(0)
        lines += [draw(st.sampled_from(["", " ", "\t"])) + g for g in groups]
        if draw(st.booleans()):
            lines[-1] += draw(st.sampled_from(["]", "];", " ] ;"]))
        else:
            lines.append(draw(st.sampled_from(["]", "];", "  ];"])))
        out = []
        for line in lines:
            out += gap() + [line + comment()]
        return "\n".join(out) + "\n"

    return re.sub(r"mpc\.(\w+) = \[\n(.*?)\n\];\n", block, text, flags=re.S)


@settings(max_examples=200, deadline=None)
@given(_valid_cases(), st.data())
def test_every_block_layout_parses_like_the_canonical_text(case, data):
    text = serialize_case(case)
    canonical = parse_matpower(text)
    relaid = parse_matpower(data.draw(_relaid(text)))
    for fld in ("bus", "gen", "branch"):
        a, b = getattr(relaid, fld), getattr(canonical, fld)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert (relaid.name, relaid.base_mva, relaid.warnings) == (
        canonical.name, canonical.base_mva, canonical.warnings,
    )


def test_parse_accepts_comments_and_semicolons():
    case = load_case("bundled:demo-3bus")
    text = serialize_case(case)
    commented = "% leading comment\n" + text.replace(
        "mpc.baseMVA = 100", "mpc.baseMVA = 100  % MVA base"
    )
    # the bus block opens and closes on one line, its rows split by ';'
    one_line = re.sub(
        r"mpc\.bus = \[\n(.*?)\n\];",
        lambda m: "mpc.bus = [" + m.group(1).replace("\n", "; ") + "];",
        commented,
        flags=re.S,
    )
    assert one_line.count("\n") == commented.count("\n") - 4
    reparsed = parse_matpower(one_line)
    np.testing.assert_array_equal(reparsed.bus, case.bus)
    np.testing.assert_array_equal(reparsed.gen, case.gen)
    np.testing.assert_array_equal(reparsed.branch, case.branch)


def _demo_text() -> str:
    # lines 4-8 hold the bus block, 9-12 the gen block and 13-17 the branch block
    return serialize_case(load_case("bundled:demo3"))


@pytest.mark.parametrize(
    ("edit", "line", "message"),
    [
        (
            lambda t: t.replace("mpc.baseMVA = 100;\n", "mpc.baseMVA = 100;\nbaseMVA = 100;\n"),
            4,
            "unrecognized statement 'baseMVA = 100;'",
        ),
        (
            lambda t: t.rsplit("];", 1)[0],
            16,
            "matrix mpc.branch starting on line 13 is never closed",
        ),
        (
            lambda t: t.replace("mpc.baseMVA = 100;\n", ""),
            16,
            "missing required scalar mpc.baseMVA",
        ),
        (
            lambda t: t.replace("mpc.baseMVA = 100;", "mpc.baseMVA = abc;"),
            17,
            "mpc.baseMVA is not a number: 'abc'",
        ),
        (
            lambda t: re.sub(r"mpc\.gen = \[.*?\];\n", "", t, flags=re.S),
            13,
            "missing required table mpc.gen",
        ),
        (
            lambda t: t.replace("\t0.9\n3\t", "\t0.9\t7\n3\t", 1),
            6,
            "ragged mpc.bus row: 14 columns where earlier rows have 13",
        ),
        (lambda t: t.replace("\n3\t1\t", "\nnan\t1\t"), 7, "bus id nan is not an integer"),
        (lambda t: t.replace("\n3\t1\t", "\ninf\t1\t"), 7, "bus id inf is not an integer"),
        (lambda t: t.replace("\n3\t1\t", "\n3.5\t1\t"), 7, "bus id 3.5 is not an integer"),
    ],
    ids=[
        "statement", "unclosed", "no-base", "bad-base", "no-table", "wide-row", "nan-id",
        "inf-id", "fractional-id",
    ],
)
def test_parse_errors_are_line_numbered(edit, line, message):
    with pytest.raises(CaseFormatError) as err:
        parse_matpower(edit(_demo_text()))
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_unexpected_version_becomes_warning():
    case = parse_matpower(_demo_text().replace("mpc.version = '2'", "mpc.version = '1'"))
    assert case.warnings == ["unexpected case version '1' (treated as '2')"]
    assert case.version == "2"
    assert parse_matpower(serialize_case(case)).warnings == []


def _edited(fld: str, row: int, col: int, value: float):
    def edit(case: CaseFile) -> None:
        getattr(case, fld)[row, col] = value

    return edit


def _extra_gen_on_bus(bus_id: int):
    def edit(case: CaseFile) -> None:
        case.gen = np.vstack([case.gen, case.gen[1]])
        case.gen[-1, 0] = bus_id

    return edit


def _based(value: float):
    return lambda case: setattr(case, "base_mva", value)


def _narrowed(table: str, width: int):
    def edit(case: CaseFile) -> None:
        setattr(case, table, getattr(case, table)[:, :width])

    return edit


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        (_based(0.0), "baseMVA must be finite and positive, got 0.0"),
        (_edited("bus", 2, 1, 4), "bus 3: unsupported type code 4"),
        (_edited("gen", 1, 7, 0), "bus 2 is pv but has no in-service generator"),
        (_extra_gen_on_bus(9), "generator references unknown bus 9"),
        (_edited("branch", 0, 3, 0.0), "branch 1-2 has zero impedance"),
        (_edited("bus", 2, 0, 2), "duplicate bus ids"),
        (_edited("bus", 1, 1, 3), "need exactly one slack bus, found 2"),
        (_edited("branch", 0, 1, 9), "branch 1-9 references an unknown bus"),
        (_edited("bus", 2, 0, math.nan), "bus row 3 column 1 (id): nan is not an integer"),
        (_edited("bus", 2, 0, math.inf), "bus row 3 column 1 (id): inf is not an integer"),
        (_edited("bus", 2, 0, 3.5), "bus row 3 column 1 (id): 3.5 is not an integer"),
        (_edited("bus", 1, 1, 2.5), "bus row 2 column 2 (type): 2.5 is not an integer"),
        (_edited("gen", 1, 0, 2.5), "gen row 2 column 1 (bus): 2.5 is not an integer"),
        (_edited("branch", 1, 1, 3.5), "branch row 2 column 2 (to): 3.5 is not an integer"),
        (_edited("branch", 2, 2, math.nan), "branch row 3 column 3 (r): nan is not finite"),
        (_edited("branch", 2, 3, math.inf), "branch row 3 column 4 (x): inf is not finite"),
        (_edited("bus", 2, 2, -math.inf), "bus row 3 column 3 (Pd): -inf is not finite"),
        (_edited("gen", 0, 7, math.nan), "gen row 1 column 8 (status): nan is not finite"),
        (_based(math.inf), "baseMVA must be finite and positive, got inf"),
        (_based(math.nan), "baseMVA must be finite and positive, got nan"),
        (_narrowed("bus", 8), "bus table has 8 columns, needs 9"),
        (_narrowed("gen", 7), "gen table has 7 columns, needs 8"),
        (_narrowed("branch", 10), "branch table has 10 columns, needs 11"),
    ],
    ids=[
        "base", "type-code", "pv-no-gen", "gen-bus", "zero-impedance", "duplicate-ids",
        "two-slacks", "branch-bus", "nan-id", "inf-id", "fractional-id", "fractional-type",
        "fractional-gen-bus", "fractional-branch-bus", "nan-r", "inf-x", "inf-load",
        "nan-status", "inf-base", "nan-base", "narrow-bus", "narrow-gen", "narrow-branch",
    ],
)
def test_invalid_tables_are_rejected(edit, message):
    case = load_case("bundled:demo3")
    edit(case)
    with pytest.raises(CaseValidationError) as err:
        to_network(case)
    assert str(err.value) == message


def test_inf_in_a_column_to_network_does_not_read_is_accepted():
    case = load_case("bundled:demo3")
    case.bus[:, 11] = math.inf  # Vmax
    case.branch[:, 5] = math.inf  # rateA
    assert to_network(case).n == 3


def test_serialize_rejects_a_short_table():
    case = load_case("bundled:demo3")
    case.branch = case.branch[:, :12]
    with pytest.raises(CaseValidationError) as err:
        serialize_case(case)
    assert str(err.value) == "branch table has 12 columns, cannot serialize 13"


def test_ragged_row_is_line_numbered(data_dir):
    with pytest.raises(CaseFormatError) as err:
        load_case(str(data_dir / "ragged_row.m"))
    assert err.value.line == 6
    assert "column" in str(err.value)


def test_bad_token_is_line_numbered(data_dir):
    with pytest.raises(CaseFormatError) as err:
        load_case(str(data_dir / "bad_token.m"))
    assert err.value.line == 12
    assert "oops" in str(err.value)


def test_duplicate_bus_is_line_numbered(data_dir):
    with pytest.raises(CaseFormatError) as err:
        load_case(str(data_dir / "duplicate_bus.m"))
    assert err.value.line == 6
    assert "duplicate" in str(err.value)


def test_unknown_field_becomes_warning(data_dir):
    case = load_case(str(data_dir / "unknown_field.m"))
    assert len(case.warnings) == 1
    assert "gencost" in case.warnings[0]
    assert case.bus.shape[0] == 2  # parsing continued past the unknown block


def test_to_network_structure():
    net = to_network(load_case("bundled:case39"))
    assert net.n == 39
    kinds = [b.kind for b in net.buses]
    assert kinds.count("slack") == 1
    assert kinds.count("pv") == 9
    assert kinds.count("pq") == 29
    assert len(net.non_slack) == 38
    assert net.n_unknowns == 38 + 29
    # position maps external ids to row order
    for row, bus in enumerate(net.buses):
        assert net.position[bus.id] == row


def test_to_network_demo_buses():
    net = to_network(load_case("bundled:demo-3bus"))
    slack, pv, pq = net.buses
    assert slack.kind == "slack" and slack.v_set == 1.0
    assert pv.kind == "pv" and pv.v_set == 1.05 and pv.p_gen == pytest.approx(0.6661)
    assert pq.kind == "pq"
    assert pq.p_load == pytest.approx(2.8653)
    assert pq.q_load == pytest.approx(1.2244)
    assert len(net.branches) == 3
    assert all(br.x == pytest.approx(0.1) for br in net.branches)

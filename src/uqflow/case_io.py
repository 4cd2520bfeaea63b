"""Reading and writing steady-state case tables (MATPOWER-style subset).

The accepted grammar: a `function mpc = <name>` header, `%` comments,
scalar assignments (`mpc.baseMVA`, `mpc.version`), and numeric matrix blocks
(`mpc.bus`, `mpc.gen`, `mpc.branch`) with one row per line or `;`-separated
rows, closed by `];`. Unknown `mpc.<field>` blocks are skipped with a
recorded warning. Parse failures raise CaseFormatError carrying the 1-based
line number.

What is rejected, and where:
  load_case and parse_matpower, by line (CaseFormatError): bytes that are not
    UTF-8 (named with the path), a bad number, a row shorter than the columns
    used or wider than the table's first row, and a bus id that is not an
    integer or repeats one defined earlier;
  to_network (CaseValidationError): a baseMVA that is not finite and positive,
    a table narrower than the columns it reads, and by table, 1-based row and
    column, an id or type code that is not an integer (bus id and type, gen
    bus, branch from and to) and a non-finite value in another column it reads
    (bus Pd Qd Gs Bs Vm Va, gen Pg Qg Vg status, branch r x b ratio angle
    status). The columns it does not read, such as rateA or Vmax, may hold Inf.

Column conventions (per-unit conversion happens in to_network):
  bus:    id type Pd Qd Gs Bs area Vm Va baseKV zone Vmax Vmin   (13 used)
  gen:    bus Pg Qg Qmax Qmin Vg mBase status Pmax Pmin          (10 used)
  branch: from to r x b rateA rateB rateC ratio angle status angmin angmax
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import CaseFormatError, CaseValidationError
from .powerflow import Branch, Bus, PowerNetwork

# Columns used per table: the least a parsed row may carry, and exactly what
# serialize_case writes.
_COLUMNS = {"bus": 13, "gen": 10, "branch": 13}


@dataclass
class CaseFile:
    name: str
    base_mva: float
    bus: np.ndarray
    gen: np.ndarray
    branch: np.ndarray
    version: str = "2"
    warnings: list[str] = field(default_factory=list)


_FUNC_RE = re.compile(r"^\s*function\s+mpc\s*=\s*(\w+)\s*;?\s*$")
_ASSIGN_RE = re.compile(r"^\s*mpc\.(\w+)\s*=\s*(.*)$")


def parse_matpower(text: str, name: str = "case") -> CaseFile:
    """Parse case text; see the module docstring for the accepted grammar."""
    tables: dict[str, list[tuple[int, list[float]]]] = {}  # (line, row) per known table
    scalars: dict[str, str] = {}
    warnings: list[str] = []

    lines = text.splitlines()
    current: str | None = None  # field name while inside a matrix block
    start_line = 0

    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("%", 1)[0].rstrip()
        if not line.strip():
            continue
        if current is None:
            m = _FUNC_RE.match(line)
            if m:
                name = m.group(1)
                continue
            m = _ASSIGN_RE.match(line)
            if m is None:
                raise CaseFormatError(line_no, f"unrecognized statement {line.strip()!r}")
            fld, rest = m.group(1), m.group(2).strip()
            if not rest.startswith("["):
                if fld in ("baseMVA", "version"):
                    scalars[fld] = rest.rstrip(";").strip().strip("'\"")
                else:
                    warnings.append(f"line {line_no}: skipped unknown field mpc.{fld}")
                continue
            if fld in _COLUMNS:
                tables[fld] = []
            else:
                warnings.append(f"line {line_no}: skipped unknown field mpc.{fld}")
            current, start_line, line = fld, line_no, rest[1:]
        body, closed, _ = line.partition("]")
        if current in _COLUMNS:  # an unknown block's content is skipped, not validated
            for piece in body.split(";"):
                row = []
                for tok in re.findall(r"[^,\s]+", piece):
                    try:
                        row.append(float(tok))
                    except ValueError:
                        raise CaseFormatError(
                            line_no, f"bad number {tok!r} in mpc.{current}"
                        ) from None
                if row:
                    tables[current].append((line_no, row))
        if closed:
            current = None

    if current is not None:
        raise CaseFormatError(
            len(lines), f"matrix mpc.{current} starting on line {start_line} is never closed"
        )
    if "baseMVA" not in scalars:
        raise CaseFormatError(len(lines), "missing required scalar mpc.baseMVA")
    try:
        base_mva = float(scalars["baseMVA"])
    except ValueError:
        raise CaseFormatError(
            len(lines), f"mpc.baseMVA is not a number: {scalars['baseMVA']!r}"
        ) from None
    for fld in ("bus", "gen", "branch"):
        if not tables.get(fld):
            raise CaseFormatError(len(lines), f"missing required table mpc.{fld}")

    for fld, rows in tables.items():
        want = _COLUMNS[fld]
        first_width = len(rows[0][1])
        for ln, row in rows:
            if len(row) < want:
                raise CaseFormatError(
                    ln, f"mpc.{fld} row has {len(row)} columns, expected at least {want}"
                )
            if len(row) != first_width:
                raise CaseFormatError(
                    ln,
                    f"ragged mpc.{fld} row: {len(row)} columns where earlier rows have "
                    f"{first_width}",
                )

    seen: dict[float, int] = {}
    for ln, (bus_id, *_) in tables["bus"]:
        if not bus_id.is_integer():
            raise CaseFormatError(ln, f"bus id {bus_id!r} is not an integer")
        if bus_id in seen:
            raise CaseFormatError(
                ln, f"duplicate bus id {int(bus_id)} (first defined on line {seen[bus_id]})"
            )
        seen[bus_id] = ln

    version = scalars.get("version", "")
    if version and version != "2":
        warnings.append(f"unexpected case version {version!r} (treated as '2')")

    bus, gen, branch = (
        np.array([row for _, row in tables[fld]], dtype=float) for fld in ("bus", "gen", "branch")
    )
    return CaseFile(name, base_mva, bus, gen, branch, version="2", warnings=warnings)


def serialize_case(case: CaseFile) -> str:
    """Canonical text form: fixed column counts, %.9g values, tab separators.

    serialize(parse(serialize(parse(text)))) == serialize(parse(text)), so
    canonical files are a fixed point of the round trip.
    """

    def block(fld: str, table: np.ndarray) -> str:
        ncol = _COLUMNS[fld]
        if table.shape[1] < ncol:
            raise CaseValidationError(
                f"{fld} table has {table.shape[1]} columns, cannot serialize {ncol}"
            )
        rows = "\n".join(
            "\t".join(f"{v:.9g}" for v in row[:ncol]) for row in table
        )
        return f"mpc.{fld} = [\n{rows}\n];\n"

    return (
        f"function mpc = {case.name}\n"
        f"mpc.version = '{case.version}';\n"
        f"mpc.baseMVA = {case.base_mva:.9g};\n"
        + block("bus", case.bus)
        + block("gen", case.gen)
        + block("branch", case.branch)
    )


_BUS_KINDS = {1: "pq", 2: "pv", 3: "slack"}

# The columns to_network reads (0-based) by their MATPOWER names: ids and type
# codes, which must be integers, then values, which must be finite. Columns it
# does not read, such as rateA or Vmax, may hold the Inf that MATPOWER files carry.
_READ_COLUMNS = {
    "bus": ({0: "id", 1: "type"}, {2: "Pd", 3: "Qd", 4: "Gs", 5: "Bs", 7: "Vm", 8: "Va"}),
    "gen": ({0: "bus"}, {1: "Pg", 2: "Qg", 5: "Vg", 7: "status"}),
    "branch": ({0: "from", 1: "to"}, {2: "r", 3: "x", 4: "b", 8: "ratio", 9: "angle", 10: "status"}),
}


def to_network(case: CaseFile) -> PowerNetwork:
    """Validate the tables and build the per-unit network model."""
    base = case.base_mva
    if not 0 < base < math.inf:
        raise CaseValidationError(f"baseMVA must be finite and positive, got {base}")
    for fld, (integer, real) in _READ_COLUMNS.items():
        names = {**integer, **real}
        cols = list(names)
        table, need = getattr(case, fld), max(cols) + 1
        if table.shape[1] < need:
            raise CaseValidationError(f"{fld} table has {table.shape[1]} columns, needs {need}")
        block = table[:, cols]
        whole = block[:, : len(integer)]
        bad = ~np.isfinite(block)
        bad[:, : len(integer)] |= whole != np.trunc(whole)
        if bad.any():
            row, k = np.argwhere(bad)[0]
            col = cols[k]
            raise CaseValidationError(
                f"{fld} row {row + 1} column {col + 1} ({names[col]}): {float(block[row, k])!r} "
                f"is not {'an integer' if col in integer else 'finite'}"
            )

    gen_p: dict[int, float] = {}
    gen_q: dict[int, float] = {}
    gen_v: dict[int, float] = {}
    for row in case.gen:
        bus_id = int(row[0])
        status = row[7]
        if status <= 0:
            continue
        gen_p[bus_id] = gen_p.get(bus_id, 0.0) + row[1] / base
        gen_q[bus_id] = gen_q.get(bus_id, 0.0) + row[2] / base
        if bus_id in gen_v and gen_v[bus_id] != row[5]:
            case.warnings.append(
                f"bus {bus_id}: generators disagree on voltage setpoint; using {gen_v[bus_id]}"
            )
        else:
            gen_v.setdefault(bus_id, row[5])

    buses = []
    for row in case.bus:
        bus_id = int(row[0])
        code = int(row[1])
        if code not in _BUS_KINDS:
            raise CaseValidationError(f"bus {bus_id}: unsupported type code {code}")
        kind = _BUS_KINDS[code]
        if kind != "pq" and bus_id not in gen_v:
            raise CaseValidationError(
                f"bus {bus_id} is {kind} but has no in-service generator"
            )
        v_set = gen_v.get(bus_id, 1.0) if kind != "pq" else 1.0
        buses.append(
            Bus(
                id=bus_id,
                kind=kind,  # type: ignore[arg-type]
                p_load=row[2] / base,
                q_load=row[3] / base,
                p_gen=gen_p.get(bus_id, 0.0),
                q_gen=gen_q.get(bus_id, 0.0) if kind == "pq" else 0.0,
                v_set=v_set,
                gs=row[4] / base,
                bs=row[5] / base,
                v0=row[7],
                theta0=math.radians(row[8]),
            )
        )
    known_ids = {b.id for b in buses}
    for row in case.gen:
        if int(row[0]) not in known_ids:
            raise CaseValidationError(f"generator references unknown bus {int(row[0])}")

    branches, out_of_service = [], []
    for n, row in enumerate(case.branch, start=1):
        if row[10] <= 0:  # an out-of-service branch is dropped; its row is kept
            out_of_service.append(n)
            continue
        branches.append(
            Branch(
                from_bus=int(row[0]),
                to_bus=int(row[1]),
                r=row[2],
                x=row[3],
                b_charge=row[4],
                tap=row[8] if row[8] != 0.0 else 1.0,
                phase=math.radians(row[9]),
            )
        )
    return PowerNetwork(
        name=case.name, base_mva=base, buses=tuple(buses), branches=tuple(branches),
        out_of_service_rows=tuple(out_of_service),
    )


# --- bundled fixtures ---------------------------------------------------------

_BUNDLED = {
    "new-england-39": "new_england_39.m",
    "new_england_39": "new_england_39.m",
    "newengland39": "new_england_39.m",
    "case39": "new_england_39.m",
    "demo-3bus": "demo_3bus.m",
    "demo_3bus": "demo_3bus.m",
    "demo3bus": "demo_3bus.m",
    "demo3": "demo_3bus.m",
    "demo-2bus": "demo_2bus.m",
    "demo_2bus": "demo_2bus.m",
    "demo2bus": "demo_2bus.m",
    "demo2": "demo_2bus.m",
}


def bundled_case_names() -> list[str]:
    return ["new-england-39", "demo-3bus", "demo-2bus"]


def bundled_case(name: str) -> CaseFile:
    key = name.strip().lower()
    if key not in _BUNDLED:
        raise CaseValidationError(
            f"unknown bundled case {name!r}; available: {', '.join(bundled_case_names())}"
        )
    text = resources.files("uqflow.cases").joinpath(_BUNDLED[key]).read_text("utf-8")
    return parse_matpower(text, name=_BUNDLED[key].removesuffix(".m"))


def load_case(spec: str) -> CaseFile:
    """'bundled:<name>' or a path to a case file."""
    if spec.startswith("bundled:"):
        return bundled_case(spec.removeprefix("bundled:"))
    with open(spec, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise CaseFormatError(line, f"{spec} is not UTF-8") from None
    stem = spec.rsplit("/", 1)[-1].removesuffix(".m")
    return parse_matpower(text, name=stem)

"""uqflow benchmark: closed-loop runs of the CLI on ``bundled:case39``.

Run from the repository root::

    python3 perfbench/run.py                      # every workload, one process each
    python3 perfbench/run.py --workload study-load-4d --seed 0 --seconds 25 --trace 0

One client runs a closed loop: each op is an in-process call of
``uqflow.cli.main(argv)`` with its output captured, and the next op starts
when the previous one ends.  Every op's output is checked against
``references.json`` (see ``checks.py``); an op fails on a nonzero exit or an
output outside tolerance.

``--trace 0`` prints the end-to-end metrics (per-op medians of wall and
CPU time, peak RSS of the workload's process, and the median of
``SETUP_REPEATS`` fresh-process set-ups).  ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics from the spans of
the traced ones (``tracing.py``).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with the host, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))

from checks import check_output  # noqa: E402
from tracing import Tracer, metric_units, summarize  # noqa: E402
from workloads import CASE, POOL, TINY, WORKLOADS, Workload  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def import_cli():
    """Import ``uqflow.cli`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "uqflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no uqflow source tree at {SRC / 'uqflow'}")
    sys.path.insert(0, str(SRC))
    import uqflow
    import uqflow.cli

    if Path(uqflow.__file__).resolve().parent != (SRC / "uqflow").resolve():
        raise SystemExit(f"perfbench: uqflow imported from {uqflow.__file__}, not from {SRC}")
    return uqflow.cli


# --- host record ----------------------------------------------------------------


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                threads = int(getter())
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
    }


# --- ops ------------------------------------------------------------------------


@dataclass
class Op:
    rc: object
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    traced: bool = False
    problems: tuple[str, ...] = ()


def run_op(cli, argv: list[str]) -> Op:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = perf_counter(), process_time()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an op that raises is a failed op, not a crashed benchmark
            rc = "exception"
            traceback.print_exc()
        wall, cpu = perf_counter() - t0, process_time() - c0
    return Op(rc, out.getvalue(), err.getvalue(), wall, cpu)


def _checked(op: Op, kind: str, reference: str) -> Op:
    if op.rc != 0:
        op.problems = (f"exit code {op.rc}: {op.stderr.strip()[-400:]}",)
    else:
        op.problems = tuple(check_output(kind, op.stdout, reference))
    return op


def _setup_probe(workload: Workload, seed: int, probe_dir: Path) -> int:
    """Body of one fresh-process set-up: imports, case load, cache warm-up."""
    cli = import_cli()
    from uqflow.case_io import load_case, to_network

    to_network(load_case(CASE))
    if not workload.uses_cache:
        return 0
    op = run_op(cli, workload.op_argv(seed, probe_dir.parent, probe_dir / "cache"))
    (probe_dir / "out.txt").write_text(op.stdout)
    sys.stderr.write(op.stderr)
    return 0 if op.rc == 0 else 1


def _setups(workload: Workload, seed: int, workdir: Path, repeats: int) -> tuple[list[float], list[str], Path]:
    """Time ``repeats`` set-ups, each in a fresh process; returns the last warm cache."""
    times, outputs = [], []
    for k in range(repeats):
        probe = workdir / f"setup-{k}"
        probe.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload.name, "--seed", str(seed),
               "--setup-probe", str(probe)]
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up {k} of {workload.name} failed:\n{proc.stderr[-2000:]}")
        if (probe / "out.txt").is_file():
            outputs.append((probe / "out.txt").read_text())
    return times, outputs, probe / "cache"


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    reference: str,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Set up, run the closed loop for ``seconds``, check every output; the full record."""
    cli = import_cli()
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    tracer = Tracer() if trace else None
    try:
        workdir.mkdir(parents=True)
        setup_times, setup_outputs, cache = _setups(workload, seed, workdir, 1 if trace else setup_repeats)
        setup_problems = [p for out in setup_outputs for p in check_output(workload.kind, out, reference)]
        argv = workload.op_argv(seed, workdir, cache)
        # Op 0 warms up (first-call costs of NumPy/SciPy and the program) before
        # the timed loop; it is checked but left out of every time metric.  With
        # tracing, the timed ops alternate traced/untraced.
        ops: list[Op] = [_checked(run_op(cli, argv), workload.kind, reference)]
        deadline = perf_counter() + seconds
        while len(ops) < 2 or perf_counter() < deadline or (trace and len(ops) < 3):
            traced = trace and len(ops) % 2 == 1
            if traced:
                tracer.install()
                tracer.op = len(ops)
            try:
                op = run_op(cli, argv)
            finally:
                if traced:
                    tracer.op = None
                    tracer.restore()
            op.traced = traced
            ops.append(_checked(op, workload.kind, reference))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for op in ops if op.problems)
    timed = ops[1:]
    untraced = [op for op in timed if not op.traced]
    if trace:
        units = metric_units()
        values = summarize([tracer.op_metrics(i) for i, op in enumerate(ops) if op.traced])
        traced_wall = statistics.median(op.wall_s for op in timed if op.traced)
        untraced_wall = statistics.median(op.wall_s for op in untraced)
        values.update({
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace_overhead_s": traced_wall - untraced_wall,
        })
    else:
        units = END_TO_END_UNITS
        values = {
            "wall_s": statistics.median(op.wall_s for op in timed),
            "cpu_s": statistics.median(op.cpu_s for op in timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        metrics[name] = {"value": value, "unit": unit} if value is not None else {"value": None, "unit": unit, "missing": True}
    return {
        "workload": workload.name,
        "variant": workload.variant(seed),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": argv,
        "host": host_record(),
        "setup_s_samples": setup_times,
        "setup_problems": setup_problems,
        "ops": [
            {
                "wall_s": op.wall_s,
                "cpu_s": op.cpu_s,
                "traced": op.traced,
                "warm_up": i == 0,
                "problems": list(op.problems),
            }
            for i, op in enumerate(ops)
        ],
        "line": {
            "correct": failed == 0 and not setup_problems,
            "attempted": len(ops),
            "failed": failed,
            "metrics": metrics,
        },
        "tracer": tracer,
    }


# --- reporting ------------------------------------------------------------------


def _tail(walls: list[float]) -> str:
    n = len(walls)
    # The highest percentile with at least ten samples beyond it.
    pct = int(100 * (1 - 10 / n)) if n >= 20 else None
    if pct is None:
        return f"{n} ops: too few for a percentile with ten samples beyond it; max {max(walls):.4f} s"
    return f"{n} ops: p{pct} {statistics.quantiles(walls, n=100)[pct - 1]:.4f} s"


def report(result: dict) -> None:
    line = result["line"]
    print(f"host: {json.dumps(result['host'], sort_keys=True)}")
    print(
        f"workload {result['workload']}: variant {result['variant']} of {POOL} (seed {result['seed']}), "
        f"closed loop, 1 client, {result['seconds']} s, trace {'on' if result['trace'] else 'off'}"
    )
    print("argv: uqflow " + " ".join(result["argv"]))
    print("setup_s samples: " + ", ".join(f"{t:.4f}" for t in result["setup_s_samples"]))
    walls = [op["wall_s"] for op in result["ops"] if not (op["traced"] or op["warm_up"])]
    print(f"wall_s: median {statistics.median(walls):.4f} s; {_tail(walls)}")
    print(f"ops_failed: {line['failed']}/{line['attempted']} = {line['failed'] / line['attempted']:.4f} (share)")
    for problem in result["setup_problems"] + [p for op in result["ops"] for p in op["problems"]][:10]:
        print(f"  problem: {problem}")
    for name, m in line["metrics"].items():
        value = "missing" if m.get("missing") else m["value"]
        print(f"  {name:32s} {value} {m['unit']}")


def _save(result: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    record = {k: v for k, v in result.items() if k != "tracer"}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result["tracer"] is not None:
        result["tracer"].write(OUT / f"{stem}-spans.jsonl")


def reference_for(workload: Workload, seed: int) -> str:
    references = json.loads((HERE / "references.json").read_text())
    return references[workload.name][str(workload.variant(seed))]


def _run_all(args) -> int:
    """Every workload in its own process, so that peak memory is per workload."""
    bad = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        last = proc.stdout.strip().splitlines()[-1:] if proc.returncode == 0 else []
        bad += not (last and json.loads(last[0])["correct"])
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, TINY.name], help="default: every workload")
    parser.add_argument("--seed", type=int, default=0, help=f"input variant: seed %% {POOL}; 0 is the plain command")
    parser.add_argument("--seconds", type=float, help="closed-loop length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS.get(args.workload, TINY)
    if args.setup_probe is not None:
        return _setup_probe(workload, args.seed, args.setup_probe)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    import_cli()  # fail before any set-up when the checkout has no source tree
    if args.workload is None:
        return _run_all(args)
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace), reference_for(workload, args.seed))
    _save(result)
    report(result)
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: uqflow CLI argument lists made from a seed.

Every workload runs on ``bundled:case39``.  ``--seed`` picks one of
``POOL`` input variants (``seed % POOL``); variant 0 is the plain command
with the CLI's own defaults.  The other variants perturb different load
buses or branches (through the CLI's ``load_buses``/``branches`` config
keys) or pass another ``--seed`` to ``certify``.  The program only ever
sees the generated arguments and config file.  ``references.json`` holds
the expected output of every variant.

Every variant of a workload does the same work on the seed code, so that
variants differ in their values, not in cost.  The study and moments
variants do so by construction.  The ``certify`` seed moves the random
boundary probes of the region search, and with them the number of
Jacobian and residual evaluations (7,882 to 11,974 G/B assemblies over
seeds 0-39), so its variants use the seeds that make the default's 9,994.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

CASE = "bundled:case39"
POOL = 8

# PQ buses of case39 that carry a nonzero load (the CLI refuses to perturb
# a zero load), and the 1-based rows of its 46 in-service branches.
CASE39_LOAD_BUSES = (1, 3, 4, 7, 8, 9, 12, 15, 16, 18, 20, 21, 23, 24, 25, 26, 27, 28, 29)
CASE39_BRANCH_ROWS = tuple(range(1, 47))

# ``certify --seed`` values for variants 1-7: the first seeds above 0 whose
# region search makes the same 9,994 G/B assemblies, 5,061 Jacobian and
# 4,933 residual evaluations as the default seed 0.
CERTIFY_SEEDS = (26, 39, 40, 43, 45, 50, 53)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple[str, ...]
    kind: str  # "csv" (uq-* commands) or "certify"
    dims: int = 0
    config_key: str | None = None  # "load_buses" or "branches"
    choices: tuple[int, ...] = ()
    uses_cache: bool = False
    certify_seeds: tuple[int, ...] = ()

    def variant(self, seed: int) -> int:
        return seed % POOL

    def op_argv(self, seed: int, workdir: Path, cache_dir: Path | None = None) -> list[str]:
        """Argument list for one op; writes the variant's config file into workdir."""
        argv = list(self.argv)
        v = self.variant(seed)
        if v != 0:
            rng = random.Random(f"{self.name}/{v}")
            if self.config_key is not None:
                picked = sorted(rng.sample(self.choices, self.dims))
                config = workdir / "inputs.cfg"
                config.write_text(f"{self.config_key} = {','.join(map(str, picked))}\n")
                argv += ["--config", str(config)]
            if self.certify_seeds:
                argv += ["--seed", str(self.certify_seeds[v - 1])]
        if self.uses_cache:
            argv += ["--cache", str(cache_dir if cache_dir is not None else workdir / "cache")]
        return argv


def _study(name: str, study: str, why: str, key: str, choices: tuple[int, ...]) -> Workload:
    return Workload(
        name=name,
        why=why,
        argv=(
            "uq-convergence", "--case", CASE, "--study", study,
            "--dims", "4", "--levels", "1,2,3", "--ref-level", "4",
        ),
        kind="csv",
        dims=4,
        config_key=key,
        choices=choices,
    )


WORKLOADS = {
    w.name: w
    for w in (
        _study(
            "study-load-4d",
            "load",
            "solve-bound: 401 unique Newton knot solves of 588 requested; G and B do not depend on q",
            "load_buses",
            CASE39_LOAD_BUSES,
        ),
        _study(
            "study-admittance-4d",
            "admittance",
            "same solver layer, but G and B change at every knot",
            "branches",
            CASE39_BRANCH_ROWS,
        ),
        Workload(
            name="moments-5d",
            why="warm cache: cache read, plan rebuild and tensor-Gauss moments; no Newton solve",
            argv=("uq-moments", "--case", CASE, "--dims", "5", "--levels", "4"),
            kind="csv",
            dims=5,
            config_key="load_buses",
            choices=CASE39_LOAD_BUSES,
            uses_cache=True,
        ),
        Workload(
            name="certify-region",
            why="analyticity region search: perturbation-norm estimates; no sparse grid or moments",
            argv=(
                "certify", "--case", CASE, "--dims", "1", "--study", "load",
                "--levels", "1,2,3", "--m-tilde", "2.0", "--samples", "0",
            ),
            kind="certify",
            certify_seeds=CERTIFY_SEEDS,
        ),
    )
}

# A seconds-long variant for the benchmark's own test; not a measured workload.
TINY = Workload(
    name="tiny",
    why="test only",
    argv=("uq-moments", "--case", CASE, "--dims", "1", "--levels", "1"),
    kind="csv",
    dims=1,
    config_key="load_buses",
    choices=CASE39_LOAD_BUSES,
)

"""The benchmark's workloads: fixed lists of user operations.

A workload is built once from the seed (system descriptions written to
a scratch directory, oracle seed, drawn modules, sample points) and
then run in rounds.  Each operation returns an exit code and the text
it produced; its check turns that text into a list of problems using
``checks`` only.  The package must already be importable (``run.py``
puts this checkout's ``src/`` first on the path).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
from dihedral_dynamics import cli, homology
from dihedral_dynamics.homology import InvolutionModule
from dihedral_dynamics.towers import Castle

GOLDEN = {"p": -1, "q": 1, "d": 5, "r": 2}      # (sqrt(5) - 1) / 2

SYSTEMS = {
    "golden": {"type": "denjoy_flip", "theta": GOLDEN},
    "sqrt2": {"type": "denjoy_flip", "theta": {"p": -1, "q": 1, "d": 2, "r": 1}},
    "sqrt3": {"type": "denjoy_flip", "theta": {"p": -1, "q": 1, "d": 3, "r": 2}},
    "golden-doubled": {"type": "doubled", "theta": GOLDEN},
    "odometer-3": {"type": "odometer", "base": 3, "growth": "geometric", "levels": 4},
    "odometer-2": {"type": "odometer", "base": 2, "growth": "geometric", "levels": 6},
}

# Sizes keep one round of a workload to a few seconds on a 2-core VM, so
# that a 35 s run holds five or more rounds and each operation's median
# has samples spread over the run (see ``run.py``).
HOMOLOGY_LEVELS = (("golden", 14), ("sqrt2", 10), ("sqrt3", 10))
DOUBLED_LEVEL = 12
CERTIFICATES = (("golden", "1/10"), ("golden", "1/25"), ("sqrt2", "1/10"),
                ("golden-doubled", "1/10"))

# oracle-check at --max-degree 2 costs the same for every seed; the
# CLI default (degree 5) varies by a quarter between seeds because the
# cell counts it draws vary.  The degree-5 bar matrices (up to
# 256 x 512) come from the drawn modules below, whose sizes are fixed.
ORACLE_COUNT = 100
ORACLE_MAX_DEGREE = 2

# (kind, fixed cells or +1 entries, swapped pairs or -1 entries); the
# seed only arranges the cells, so the bar matrices keep their sizes.
# The two 8-cell modules give the 256 x 512 matrices.
DRAWN_MODULES = [("perm", 4, 2), ("diag", 4, 4), ("perm", 1, 1), ("diag", 1, 1)]
BAR_DEGREES = range(6)

SAMPLE_POINTS = 64
SAMPLE_DENOMINATOR = 2_147_483_647    # prime, so no sample is a cut point


@dataclass
class Operation:
    """One user operation: ``run`` returns (exit code, output text)."""

    name: str
    span: str          # root span name in the layer trace
    run: Callable[[], tuple]
    check: Callable[[str], list]


def run_cli(argv: list) -> tuple:
    """``dihedral-dynamics <argv>`` in this process, output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    if code != 0:
        return code, err.getvalue()
    return code, out.getvalue()


def _cli_op(name: str, argv: list, check: Callable[[dict], list]) -> Operation:
    return Operation(name, f"cli.{argv[0]}", lambda: run_cli(argv),
                     lambda text: check(json.loads(text)))


def write_systems(workdir: Path, names: list) -> dict:
    paths = {}
    for name in names:
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(SYSTEMS[name]), encoding="utf-8")
    return paths


def homology_circle(seed: int, workdir: Path) -> list:
    paths = write_systems(workdir, ["golden", "sqrt2", "sqrt3", "golden-doubled"])
    ops = []
    for name, level in HOMOLOGY_LEVELS:
        ops.append(_cli_op(
            f"homology {name} L{level} both",
            ["homology", "--system", str(paths[name]), "--max-level", str(level),
             "--method", "both"],
            checks.circle_homology_problems))
    ops.append(_cli_op(
        f"homology golden-doubled L{DOUBLED_LEVEL}",
        ["homology", "--system", str(paths["golden-doubled"]), "--max-level",
         str(DOUBLED_LEVEL)],
        checks.doubled_homology_problems))
    return ops


def sample_points(rng: random.Random, system: dict) -> list:
    copies = 2 if system["type"] == "doubled" else 1
    return [(rng.randrange(copies), rng.randrange(1, SAMPLE_DENOMINATOR), SAMPLE_DENOMINATOR)
            for _ in range(SAMPLE_POINTS)]


def _certify_ops(name: str, eps: str, path: Path, out: Path, points: list) -> list:
    system, eps_value = SYSTEMS[name], Fraction(eps)

    def check_certificate(text: str) -> list:
        payload = json.loads(text)
        problems = checks.castle_problems(payload, system, eps_value, points)
        if json.loads(out.read_text(encoding="utf-8")) != payload:
            problems.append("certificate file differs from the printed payload")
        return problems

    def reverify() -> tuple:
        castle = Castle.from_json(json.loads(out.read_text(encoding="utf-8")))
        report = castle.verify().to_json()
        return 0, json.dumps(report, sort_keys=True)

    def check_report(text: str) -> list:
        report = json.loads(text)
        return [] if all(report.values()) else [f"re-verification failed: {report}"]

    argv = ["certify", "--system", str(path), "--eps", eps, "--out", str(out)]
    return [
        Operation(f"certify {name} eps={eps}", "cli.certify", lambda: run_cli(argv),
                  check_certificate),
        Operation(f"verify {name} eps={eps}", "library.verify", reverify, check_report),
    ]


def certify_circle(seed: int, workdir: Path) -> list:
    rng = random.Random(f"certify-circle/{seed}")
    paths = write_systems(workdir, ["golden", "sqrt2", "golden-doubled"])
    ops = []
    for i, (name, eps) in enumerate(CERTIFICATES):
        points = sample_points(rng, SYSTEMS[name])
        ops += _certify_ops(name, eps, paths[name], workdir / f"certificate-{i}.json", points)
    return ops


def draw_module(rng: random.Random, kind: str, first: int, second: int):
    """A module with the given counts, its cells arranged by ``rng``."""
    if kind == "perm":
        cells = list(range(first + 2 * second))
        rng.shuffle(cells)
        perm = list(range(len(cells)))
        for i in range(second):
            a, b = cells[2 * i], cells[2 * i + 1]
            perm[a], perm[b] = b, a
        return InvolutionModule.from_permutation(perm)
    n = first + second
    signs = [1] * first + [-1] * second
    rng.shuffle(signs)
    return InvolutionModule.of([[signs[i] if i == j else 0 for j in range(n)] for i in range(n)])


def _bar_op(rng: random.Random) -> Operation:
    drawn = [(spec, draw_module(rng, *spec)) for spec in DRAWN_MODULES]

    def run() -> tuple:
        # through the module, so that the layer trace sees the calls
        groups = [[homology.bar_homology(module, k).to_json() for k in BAR_DEGREES]
                  for _, module in drawn]
        return 0, json.dumps(groups)

    def check(text: str) -> list:
        problems = []
        for (spec, _), got in zip(drawn, json.loads(text)):
            want = [checks.bar_expected(*spec, k) for k in BAR_DEGREES]
            if got != want:
                problems.append(f"bar homology of {spec}: got {got}, expected {want}")
        return problems

    return Operation(f"bar homology of {len(drawn)} drawn modules", "library.bar_homology",
                     run, check)


def odometer_oracle(seed: int, workdir: Path) -> list:
    rng = random.Random(f"odometer-oracle/{seed}")
    paths = write_systems(workdir, ["odometer-3", "odometer-2"])
    ops = []
    for name in ("odometer-3", "odometer-2"):
        base = SYSTEMS[name]["base"]
        ops.append(_cli_op(
            f"homology {name} both",
            ["homology", "--system", str(paths[name]), "--method", "both"],
            lambda payload, base=base: checks.odometer_homology_problems(payload, base)))
    oracle_seed = rng.randrange(2 ** 31)
    ops.append(_cli_op(
        f"oracle-check seed={oracle_seed}",
        ["oracle-check", "--seed", str(oracle_seed), "--count", str(ORACLE_COUNT),
         "--max-degree", str(ORACLE_MAX_DEGREE)],
        lambda payload: checks.oracle_problems(payload, oracle_seed, ORACLE_COUNT,
                                               ORACLE_MAX_DEGREE)))
    ops.append(_bar_op(rng))
    return ops


WORKLOADS = {
    "homology-circle": homology_circle,
    "certify-circle": certify_circle,
    "odometer-oracle": odometer_oracle,
}

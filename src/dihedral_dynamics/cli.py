"""Command-line interface.

Commands: fixed-points, folner, castle, certify, homology, oracle-check.
All input and output is UTF-8 JSON; output is deterministic for a fixed
configuration (including the seed).  Exit codes: 0 ok, 2 bad
configuration, 3 non-stabilization, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction
from functools import cache

from .amenability import DEFAULT_TEST_SET, folner, folner_ratio, is_transversal
from .errors import NonStabilizationError, VerificationError
from .homology import (
    _BAR_MAX_CELLS,
    _BAR_MAX_DEGREE,
    InvolutionModule,
    bar_homologies,
    coinvariants,
    even_homology,
    homology_table,
    odd_homology,
)
from .systems import GroupElement, system_from_json
from .towers import almost_finite_certificate, first_return_castle

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NON_STABILIZATION = 3
EXIT_VERIFICATION = 4

#: The largest ``folner --m``; the payload lists all m elements of the window set.
MAX_FOLNER_M = 10 ** 5

#: The most digits ``str`` prints of an integer, as an eps in its certificate.
MAX_EPS_DIGITS = 4300


def _read_json(text: str):
    """JSON text as Python data; nesting too deep to parse is a ``ValueError``."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def _load_system(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = _read_json(fh.read())
        return system_from_json(data)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # JSON of the wrong shape surfaces as a lookup or type error
        raise ValueError(f"cannot load system: {exc}") from exc


def _parse_elements(text: str):
    try:
        data = _read_json(text)
        return [GroupElement.from_json(e) for e in data]
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad group-element list: {exc}") from exc


def _parse_eps(text: str) -> Fraction:
    # Fraction pays for an exponent by its value; at |exp| >= the bound plus
    # the text's length, its power of ten alone has more digits than the bound
    exp = re.search(r"[eE]([-+]?[\d_]+)\s*\Z", text)
    try:
        eps = None if exp and abs(int(exp[1])) >= MAX_EPS_DIGITS + len(text) else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad eps: {exc}") from exc
    if eps is None or max(abs(eps.numerator), eps.denominator) >= 10 ** MAX_EPS_DIGITS:
        raise ValueError(f"eps needs at most {MAX_EPS_DIGITS} digits in numerator and denominator")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return eps


def _check_range(flag: str, value, low: int, high=None):
    """An integer option as given (None when absent), or a config error
    naming its bound."""
    if value is not None and (value < low or high is not None and value > high):
        bound = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{flag} must be {bound}")
    return value


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            # before stdout, so a refused path prints no payload
            raise ValueError(f"cannot write --out {out_path}: {exc.strerror or exc}") from exc
    try:
        print(text)
        # flush inside the try, so a reader that went away is seen here
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush cannot fail too, and let the command return its own code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_fixed_points(args) -> int:
    system = _load_system(args.system)
    elements = _parse_elements(args.elements)
    max_level = _check_range("--max-level", args.max_level, 2)
    if any(g.is_identity() for g in elements):
        raise ValueError("the identity element has no fixed-point report")
    report = {str(g): system.fixed_point_report(g, max_level) for g in elements}
    _emit({"fixedPoints": report, "system": system.to_json()}, args.out)
    return EXIT_OK


def cmd_folner(args) -> int:
    m = _check_range("--m", args.m, 1, MAX_FOLNER_M)
    f = folner(m)
    payload = {"m": m, "elements": f.to_json()}
    if args.check_transversal:
        payload["transversal"] = is_transversal(f, m)
    if args.ratio is not None:
        test_set = _parse_elements(args.ratio)
        r = folner_ratio(f, test_set)
        payload["ratio"] = {"num": r.numerator, "den": r.denominator, "display": str(r)}
    _emit(payload, args.out)
    return EXIT_OK


def cmd_castle(args) -> int:
    system = _load_system(args.system)
    if args.base is not None:
        try:
            y = system.set_from_json(_read_json(args.base))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"bad base set: {exc}") from exc
    else:
        # the widest window: on a circle the arc of the cuts n*theta with
        # |n| <= 1, on an odometer the level-1 cylinder seen at level 2
        y = system.invariant_window(1)
    # first_return_castle refuses a base too small for its loop, and
    # raises unless the castle verifies
    _emit(first_return_castle(system, y).to_json(), args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    system = _load_system(args.system)
    eps = _parse_eps(args.eps)
    test_set = _parse_elements(args.K) if args.K else list(DEFAULT_TEST_SET)
    # almost_finite_certificate raises unless the castle verifies and
    # every ratio is below eps, and returns the ratios it checked
    castle, ratios = almost_finite_certificate(system, test_set, eps)
    payload = castle.to_json()
    payload["epsilon"] = str(eps)
    payload["testSet"] = [g.to_json() for g in test_set]
    payload["shapeRatios"] = [str(r) for r in ratios]
    _emit(payload, args.out)
    return EXIT_OK


def cmd_homology(args) -> int:
    system = _load_system(args.system)
    method = {"comp": "closed_form", "freeproduct": "freeproduct", "both": "both"}[args.method]
    max_level = _check_range("--max-level", args.max_level, 3)
    table, provenance = homology_table(system, max_level=max_level, method=method)
    payload = table.to_json()
    payload["provenance"] = provenance
    delta = provenance.get("delta")
    _emit(payload, args.out)
    if delta:
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    _check_range("--count", args.count, 0)
    # the bar oracle's guards, checked before any module is drawn
    _check_range("--max-cells", args.max_cells, 1, _BAR_MAX_CELLS)
    _check_range("--max-degree", args.max_degree, 0, _BAR_MAX_DEGREE)
    rng = random.Random(args.seed)
    mismatches = []
    checked = 0
    for case in range(args.count):
        n = rng.randint(1, args.max_cells)
        module = _random_involution(rng, n)
        for degree, got in enumerate(bar_homologies(module, args.max_degree)):
            expected = (
                coinvariants(module) if degree == 0
                else odd_homology(module) if degree % 2
                else even_homology(module)
            )
            checked += 1
            if got != expected:
                mismatches.append({
                    "case": case,
                    "degree": degree,
                    "matrix": [list(r) for r in module.matrix],
                    "expected": expected.to_json(),
                    "got": got.to_json(),
                })
    payload = {
        "seed": args.seed,
        "cases": args.count,
        "checked": checked,
        "mismatches": mismatches,
    }
    _emit(payload, args.out)
    return EXIT_OK if not mismatches else EXIT_VERIFICATION


def _random_involution(rng: random.Random, n: int) -> InvolutionModule:
    """A random involution: a permutation one, or a signed diagonal one."""
    if rng.random() < 0.7:
        perm = _random_involutive_permutation(rng, n)
        return InvolutionModule.from_permutation(perm)
    return InvolutionModule(tuple(range(n)), tuple(rng.choice((1, -1)) for _ in range(n)))


def _random_involutive_permutation(rng: random.Random, n: int):
    idx = list(range(n))
    rng.shuffle(idx)
    perm = list(range(n))
    i = 0
    while i + 1 < n:
        if rng.random() < 0.6:
            a, b = idx[i], idx[i + 1]
            perm[a], perm[b] = b, a
            i += 2
        else:
            i += 1
    return perm


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept: argparse
    leaves its builder objects in reference cycles, so one parser serves
    every ``main`` call in a process."""
    parser = argparse.ArgumentParser(
        prog="dihedral-dynamics",
        description="Exact castles, invariant windows and homology for "
                    "dihedral Cantor systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixed-points", help="exact fixed points / stable thread counts")
    p.add_argument("--system", required=True)
    p.add_argument("--elements", default="[[0,1],[1,1]]",
                   help="JSON list of [n,s] pairs")
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("folner", help="window sets, transversality, ratios")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--check-transversal", action="store_true")
    p.add_argument("--ratio", default=None, metavar="K_JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_folner)

    p = sub.add_parser("castle", help="first-return castle over a flip-invariant set")
    p.add_argument("--system", required=True)
    p.add_argument("--base", default=None, help="JSON clopen set; default: widest invariant window")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_castle)

    p = sub.add_parser("certify", help="almost-finiteness certificate castle")
    p.add_argument("--system", required=True)
    p.add_argument("--eps", required=True, help="rational like 1/10")
    p.add_argument("--K", default=None, help="JSON list of [n,s] pairs")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("homology", help="homology table of a system")
    p.add_argument("--system", required=True)
    p.add_argument("--max-level", type=int, default=16)
    p.add_argument("--method", choices=["comp", "freeproduct", "both"], default="comp")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("oracle-check", help="bar-complex oracle vs closed formulas")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-cells", type=int, default=8)
    p.add_argument("--max-degree", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonStabilizationError as exc:
        print(json.dumps({"error": str(exc), "level": exc.level}), file=sys.stderr)
        return EXIT_NON_STABILIZATION
    except VerificationError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_VERIFICATION
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

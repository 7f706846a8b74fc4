"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload homology-circle --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The package is imported from this
checkout's ``src/`` and the run fails (exit 2, no result) if it
resolves anywhere else.  Operations run in this process, one at a time,
in whole rounds until ``--seconds`` would be exceeded (at least one
round).  System descriptions and certificates go to a temporary
directory under ``.bench_tmp/`` that is removed at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  The
line before it records the run: git sha, seed, Python version, nproc,
package path, the median reference timing, and each operation's median
time, raw and scaled, and output digest.
``--workload all`` runs every workload, each in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_tmp"
SETUP_PROBES = 6
# Nominal time of ``time_reference`` on a quiet 2-core VM (see ``scale``).
REFERENCE_S = 0.020
WORKLOAD_NAMES = ["homology-circle", "certify-circle", "odometer-oracle"]
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_max_s": "s", "peak_rss_mb": "MB"}


class PackageError(RuntimeError):
    pass


def load_package(root: Path = ROOT):
    """Import ``dihedral_dynamics`` from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import dihedral_dynamics
    except ImportError as exc:
        raise PackageError(f"cannot import dihedral_dynamics from {src}: {exc}") from exc
    where = Path(dihedral_dynamics.__file__).resolve()
    if src not in where.parents:
        raise PackageError(f"dihedral_dynamics resolves to {where}, not under {src}")
    return dihedral_dynamics


def git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def probe_setup(workload: str, seed: int) -> tuple:
    """Wall time of a fresh interpreter that sets the workload up and
    exits, with the reference timings before and after it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    before = time_reference()
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    took = time.perf_counter() - t0
    return took, scale(took, before, time_reference())


def reference_work() -> int:
    """A fixed piece of pure-Python work that shares no code with the package."""
    total, items = 0, []
    for i in range(25_000):
        a = (i * 2654435761) % 1_000_003
        items.append((a, i))
        total += a * a // (i + 1)
    items.sort()
    table = dict(items[::2])
    return total + len(table)


def time_reference() -> float:
    """The median of three runs of ``reference_work``: one run alone may
    catch a momentary stall that the operation beside it does not."""
    took = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        took.append(time.perf_counter() - t0)
    return statistics.median(took)


def run_round(ops, digests: list, tracer=None) -> dict:
    """Run every operation once; time it, then check its answer.

    ``reference_work`` is timed before the first operation and after
    each one, so that every operation has a reference timing on each
    side of it.
    """
    times, refs, failures, wrong = [], [time_reference()], [], 0
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            code, text = tracer.call(op.span, op.run) if tracer else op.run()
        except Exception as exc:  # an uncaught exception fails the operation
            code, text = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        refs.append(time_reference())
        if code != 0:
            failures.append({"op": op.name, "exit": code, "output": text[-500:]})
            continue
        try:
            problems = op.check(text)
        except Exception as exc:  # a malformed answer is a wrong answer
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digests[i] is None:
            digests[i] = digest
        elif digests[i] != digest:
            problems.append("output differs from the first round")
        if problems:
            wrong += 1
            failures.append({"op": op.name, "exit": code, "problems": problems[:5]})
    return {"times": times, "refs": refs, "wall": sum(times), "failures": failures,
            "wrong": wrong}


def scale(took: float, before: float, after: float) -> float:
    """``took`` at the nominal host speed.

    The time is multiplied by ``REFERENCE_S`` over the mean of the
    reference timings on either side of it.  The host's speed drifts by
    up to 1.7x over tens of seconds and moves both alike, so the product
    varies far less between runs than the raw time, while a change in
    the program's own speed passes through unchanged.
    """
    return took * 2 * REFERENCE_S / (before + after)


def scaled_times(rnd: dict) -> list:
    refs = rnd["refs"]
    return [scale(t, refs[i], refs[i + 1]) for i, t in enumerate(rnd["times"])]


def run_workload(args) -> int:
    import workloads
    from layertrace import LAYER_METRICS, LayerTrace

    build = workloads.WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            ops = build(args.seed, Path(tmp))
            if args.setup_only:
                return 0
            # one set-up probe after each round, so that their median
            # spans the run's changes in host speed
            digests = [None] * len(ops)
            deadline = time.perf_counter() + args.seconds
            baseline = run_round(ops, digests) if args.trace else None
            rounds, layers, setup, spent = [], [], [], []
            while True:
                started = time.perf_counter()
                if args.trace:
                    tracer = LayerTrace()
                    tracer.install()
                    try:
                        rounds.append(run_round(ops, digests, tracer))
                    finally:
                        tracer.uninstall()
                    layers.append(tracer.layer_metrics(rounds[-1]["wall"] - baseline["wall"]))
                else:
                    rounds.append(run_round(ops, digests))
                setup.append(probe_setup(args.workload, args.seed))
                spent.append(time.perf_counter() - started)
                if time.perf_counter() + statistics.median(spent) > deadline:
                    break
            setup += [probe_setup(args.workload, args.seed)
                      for _ in range(SETUP_PROBES - len(setup))]
            if args.trace and args.spans_out:
                tracer.write_spans(args.spans_out)
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    done = rounds + ([baseline] if baseline else [])
    failures = [f for r in done for f in r["failures"]]
    if args.trace:
        metrics = {name: {"value": statistics.median(m[name] for m in layers), "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        scaled = [scaled_times(r) for r in rounds]
        per_op = [statistics.median(times[i] for times in scaled) for i in range(len(ops))]
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "wall_s": sum(per_op),
            "op_max_s": max(per_op),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    import dihedral_dynamics
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "gitSha": git_sha(ROOT),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "package": str(Path(dihedral_dynamics.__file__).resolve().parent),
        "rounds": len(rounds),
        "setupSamples": [took for took, _ in setup],
        "referenceMedian_s": statistics.median(x for r in rounds for x in r["refs"]),
        "ops": [{"name": op.name,
                 "median_s": statistics.median(r["times"][i] for r in rounds),
                 "scaled_median_s": statistics.median(scaled_times(r)[i] for r in rounds),
                 "sha256": digests[i]} for i, op in enumerate(ops)],
        "failures": failures[:20],
    }
    print(json.dumps({"run": record}))
    print(json.dumps({
        "correct": not any(r["wrong"] for r in done),
        "attempted": len(ops) * len(done),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter; the last line sums them."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        print(json.dumps({name: result}))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans-out", default=None,
                        help="with --trace 1, write the last round's spans as JSON lines")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        load_package()
    except PackageError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

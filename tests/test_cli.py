import contextlib
import copy
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dihedral_dynamics
from dihedral_dynamics import amenability, cli, systems, towers
from dihedral_dynamics.abgroups import FGAbGroup
from dihedral_dynamics.amenability import DEFAULT_TEST_SET
from dihedral_dynamics.cli import build_parser, main
from dihedral_dynamics.exact_circle import GOLDEN, Arc, ClopenSet, CutPoint, sort_by_cut
from dihedral_dynamics.systems import OdometerSystem, system_from_json
from dihedral_dynamics.towers import Castle

GOLDEN_THETA = {"p": -1, "q": 1, "d": 5, "r": 2}


def run_python(args, timeout, preexec_fn=None, env=None):
    """``python <args>`` with this checkout's package importable and the
    variables ``env`` set; returns the finished process and its wall time."""
    src = str(Path(dihedral_dynamics.__file__).resolve().parents[1])
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, *args], capture_output=True, env=env,
                          timeout=timeout, preexec_fn=preexec_fn)
    return proc, time.monotonic() - start


def run_module(args, timeout, preexec_fn=None):
    """``python -m dihedral_dynamics.cli <args>``, as ``run_python``."""
    return run_python(["-m", "dihedral_dynamics.cli", *args], timeout, preexec_fn)


@contextlib.contextmanager
def alarm(seconds: int):
    """Raise ``TimeoutError`` in this process if the block runs past
    ``seconds``, so that a hang fails the test instead of stalling it."""
    def overrun(signum, frame):
        raise TimeoutError(f"ran past its {seconds} s alarm")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def limit_address_space():
    """In the child: cap its address space at 1 GiB, so that an unbounded
    allocation fails there instead of pressing on the machine."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.fixture()
def denjoy_file(tmp_path):
    path = tmp_path / "denjoy.json"
    path.write_text(json.dumps({"type": "denjoy_flip", "theta": GOLDEN_THETA}))
    return str(path)


@pytest.fixture()
def odometer_file(tmp_path):
    path = tmp_path / "odometer.json"
    path.write_text(json.dumps({"type": "odometer", "base": 3, "growth": "geometric",
                                "levels": 6}))
    return str(path)


@pytest.fixture()
def doubled_file(tmp_path):
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps({"type": "doubled", "theta": GOLDEN_THETA}))
    return str(path)


def run(capsys, args):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestFixedPoints:
    def test_denjoy(self, capsys, denjoy_file):
        code, data = run(capsys, ["fixed-points", "--system", denjoy_file])
        assert code == 0
        assert data["fixedPoints"] == {
            "(0,1)": ["1/2"],
            "(1,1)": ["theta/2", "(1+theta)/2"],
        }

    def test_odometer(self, capsys, odometer_file):
        code, data = run(capsys, ["fixed-points", "--system", odometer_file,
                                  "--elements", "[[0,1]]"])
        assert code == 0
        assert data["fixedPoints"]["(0,1)"] == {"count": 1, "stabilizedAt": 1}

    def test_large_index_is_fast(self, denjoy_file):
        # the floor of N*theta takes its estimate from an exact integer
        # root, so a 24-digit index needs no walk of about N/2^40 steps
        proc, seconds = run_module(["fixed-points", "--system", denjoy_file,
                                    "--elements", f"[[{10 ** 23},1]]"], timeout=60)
        assert proc.returncode == 0
        assert seconds < 5
        assert json.loads(proc.stdout)["fixedPoints"] == {
            f"({10 ** 23},1)": ["(-61803398874989484820457+100000000000000000000000*theta)/2"]}

    def test_identity_rejected(self, capsys, denjoy_file):
        code = main(["fixed-points", "--system", denjoy_file, "--elements", "[[0,0]]"])
        capsys.readouterr()
        assert code == 2

    def test_missing_system(self, capsys, tmp_path):
        code = main(["fixed-points", "--system", str(tmp_path / "nope.json")])
        capsys.readouterr()
        assert code == 2

    def test_translation_fixing_a_wide_level_is_counted_not_listed(self, tmp_path):
        # (10^6, 0) fixes all 10^6 cylinders of the second level; the count
        # takes no memory per cylinder.  The child reports its own peak
        # (VmHWM): ru_maxrss would carry this process's peak over the exec.
        if not Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status for the peak resident size")
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"type": "odometer", "chain": [10, 1000000]}))
        script = ("import sys\n"
                  "from dihedral_dynamics.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "with open('/proc/self/status') as fh:\n"
                  "    print(next(l for l in fh if l.startswith('VmHWM:')), file=sys.stderr)\n"
                  "sys.exit(code)\n")
        proc, _ = run_python(["-c", script, "fixed-points", "--system", str(path),
                              "--elements", "[[1000000,0],[0,1],[3000000,0]]"], timeout=30)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)["fixedPoints"]
        assert report["(1000000,0)"] == {"count": 10, "stabilizedAt": 1}
        assert report["(3000000,0)"] == {"count": 10, "stabilizedAt": 1}
        peak_kb = int(proc.stderr.split()[-2])  # "VmHWM: <n> kB"
        assert peak_kb < 60 * 1024

    def test_geometric_levels_ceiling(self, tmp_path):
        # levels above the 128-level ceiling exit 2 before any base**i is
        # built; 20000 levels used to take seconds and end in Python's
        # integer-to-string error
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(
            {"type": "odometer", "base": 2, "growth": "geometric", "levels": 20000}))
        proc, seconds = run_module(["fixed-points", "--system", str(path),
                                    "--elements", "[[0,1]]"], timeout=10)
        assert seconds < 5
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert "ceiling of 128" in json.loads(proc.stderr)["error"]

    @pytest.mark.parametrize("system,field", [
        ({"type": "denjoy_flip", "theta": {**GOLDEN_THETA, "r": 2.5}}, "theta field 'r'"),
        ({"type": "odometer", "base": 3, "growth": "geometric", "levels": True},
         "odometer field 'levels'"),
    ], ids=["theta-float", "odometer-bool"])
    @pytest.mark.parametrize("command", [
        ["homology"], ["certify", "--eps", "1/10"], ["fixed-points"]])
    def test_non_integer_field_refused(self, tmp_path, system, field, command):
        # 2.5 and true used to be read by int() as 2 and 1, so the golden
        # system ran under the wrong name and every command exited 0
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system))
        proc, _ = run_module([command[0], "--system", str(path), *command[1:]], timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert f"{field} must be an integer" in json.loads(proc.stderr)["error"]

    def test_max_level_below_minimum(self, capsys, odometer_file):
        for level in ("0", "1", "-3"):
            code = main(["fixed-points", "--system", odometer_file, "--max-level", level])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "--max-level" in json.loads(captured.err)["error"]


class TestFolnerCommand:
    def test_window_with_checks(self, capsys):
        code, data = run(capsys, ["folner", "--m", "4", "--check-transversal",
                                  "--ratio", "[[0,0],[1,0],[0,1]]"])
        assert code == 0
        assert data["elements"] == [[-2, 1], [-1, 1], [0, 0], [1, 0]]
        assert data["transversal"] is True
        assert data["ratio"]["display"] == "1/2"

    def test_bad_ratio_json(self, capsys):
        code = main(["folner", "--m", "4", "--ratio", "oops"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("m", [0, cli.MAX_FOLNER_M + 1, 10 ** 12])
    def test_m_bounds_checked_before_any_work(self, capsys, monkeypatch, m):
        # the payload lists all m elements, so a large m is refused before
        # the window set is built
        def refuse(m):
            raise AssertionError("folner ran")

        monkeypatch.setattr(cli, "folner", refuse)
        code = main(["folner", "--m", str(m), "--check-transversal"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": f"--m must be in 1..{cli.MAX_FOLNER_M}"}


class TestCastleCommand:
    def test_default_window(self, capsys, denjoy_file):
        code, data = run(capsys, ["castle", "--system", denjoy_file])
        assert code == 0
        assert [t["J"] for t in data["towers"]] == [3, 5]
        assert data["verified"] == {"disjoint": True, "covers": True,
                                    "sigmaCompatible": True}

    def test_explicit_base(self, capsys, denjoy_file):
        base = json.dumps({"arcs": [{"left": {"m": 1, "n": -1}, "right": {"m": 0, "n": 1}}]})
        code, data = run(capsys, ["castle", "--system", denjoy_file, "--base", base])
        assert code == 0
        assert [t["J"] for t in data["towers"]] == [3, 5]

    def test_odometer_default_window(self, capsys, odometer_file):
        # the level-1 cylinder, 0 mod 3, seen at level 2: one tower of height 3
        code, data = run(capsys, ["castle", "--system", odometer_file])
        assert code == 0
        assert [(t["base"], t["J"]) for t in data["towers"]] == \
            [({"modulus": 9, "residues": [0, 3, 6]}, 3)]
        assert Castle.from_json(data).verify().all_ok()

    @pytest.mark.parametrize("base,code,heights,error", [
        ('{"modulus": 3, "residues": [1, 2]}', 0, [1, 2], None),
        ("not json", 2, None, "bad base set: "),
    ], ids=["level-set", "malformed"])
    def test_odometer_base(self, capsys, odometer_file, base, code, heights, error):
        # a flip-invariant level set at any level dividing the chain is a
        # base: 1 returns to 2 in one step and 2 to 1 in two
        got = main(["castle", "--system", odometer_file, "--base", base])
        captured = capsys.readouterr()
        assert got == code
        if error:
            assert captured.out == ""
            assert json.loads(captured.err)["error"].startswith(error)
        else:
            data = json.loads(captured.out)
            assert [t["J"] for t in data["towers"]] == heights
            assert Castle.from_json(data).verify().all_ok()

    def test_odometer_base_above_the_coset_ceiling(self, capsys, tmp_path):
        # ceil(1/measure) = 4000 passes the first-return loop's ceiling; the
        # level of 2 * 10^7 cosets is refused before the loop's first step
        modulus = 2 * 10 ** 7
        path = tmp_path / "fine.json"
        path.write_text(json.dumps({"type": "odometer", "chain": [2, modulus]}))
        base = {"modulus": modulus, "residues": list(range(0, modulus, 4000))}
        with alarm(5):
            code = main(["castle", "--system", str(path), "--base", json.dumps(base)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err) == {"error": f"a castle level of {modulus} cosets is "
                                                     "above the ceiling of 1000000 cosets"}


    def test_base_above_the_return_ceiling(self, denjoy_file):
        # the flip-invariant arc between the cuts at n = -98209 and 98209:
        # ceil(1/measure) = 439205, so about that many first-return steps
        base = {"arcs": [{"left": {"m": 60697, "n": -98209},
                          "right": {"m": -60696, "n": 98209}}]}
        proc, seconds = run_module(["castle", "--system", denjoy_file,
                                    "--base", json.dumps(base)], timeout=10)
        assert seconds < 5
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert "10^4" in json.loads(proc.stderr)["error"]


class TestHostileJson:
    @pytest.mark.parametrize("base", [
        [1],
        "x",
        {"arcs": 5},
        {"arcs": [{"left": {"m": None, "n": -1}, "right": {"m": 0, "n": 1}}]},
        # any truthy full was read as the whole circle, and its arcs ignored
        {"full": "no"},
        {"full": 1},
        {"full": [0]},
        {"full": False, "arcs": []},
        {"full": True, "arcs": [{"left": {"m": 1, "n": -1}, "right": {"m": 0, "n": 1}}]},
    ], ids=["list", "string", "arcs-not-a-list", "null-m", "full-string", "full-int",
            "full-list", "full-false", "full-with-arcs"])
    def test_castle_base(self, capsys, denjoy_file, base):
        code = main(["castle", "--system", denjoy_file, "--base", json.dumps(base)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "bad base set" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("args,error", [
        (["fixed-points", "--elements", "[[1e400,1]]"], "group element n must be an integer"),
        (["fixed-points", "--elements", "[[true,1]]"], "group element n must be an integer"),
        (["fixed-points", "--elements", "[[0,1.0]]"], "group element s must be an integer"),
        (["fixed-points", "--elements", '[{"0":1,"1":1}]'], "group element must be a pair"),
        (["certify", "--eps", "1/10", "--K", "[[1e400,0]]"], "group element n must be an integer"),
    ], ids=["elements-huge", "elements-bool", "elements-float", "elements-object", "certify-K"])
    def test_group_element_fields(self, capsys, denjoy_file, args, error):
        # 1e400 parses as an infinite float, on which int() raised
        # OverflowError; true and 1.0 were read as 1; an object of two
        # keys ended in a KeyError
        code = main([args[0], "--system", denjoy_file, *args[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert error in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("args", [
        ["fixed-points", "--system", "{system}", "--elements", "{text}"],
        ["folner", "--m", "4", "--ratio", "{text}"],
        ["certify", "--system", "{system}", "--eps", "1/10", "--K", "{text}"],
    ], ids=["elements", "ratio", "certify-K"])
    @pytest.mark.parametrize("text", ["{}", '{"a": [0, 1]}', '"ab"', "7"])
    def test_element_list_must_be_a_list(self, capsys, denjoy_file, args, text):
        # an object was iterated by its keys, so {} printed an empty
        # fixed-point report and a folner ratio of 1
        code = main([arg.format(system=denjoy_file, text=text) for arg in args])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err)["error"].startswith("bad group-element list: ")

    def test_folner_ratio_field(self, capsys):
        code = main(["folner", "--m", "4", "--ratio", "[[0,0],[1e400,0]]"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "group element n must be an integer" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("left,field", [
        ({"m": 1e400, "n": -1}, "cut field 'm'"),
        ({"m": 1, "n": -1.5}, "cut field 'n'"),
        ({"m": True, "n": -1}, "cut field 'm'"),
    ], ids=["huge-m", "float-n", "bool-m"])
    def test_castle_base_fields(self, capsys, denjoy_file, left, field):
        # -1.5 was read as -1, so a base other than the one given ran
        base = {"arcs": [{"left": left, "right": {"m": 0, "n": 1}}]}
        code = main(["castle", "--system", denjoy_file, "--base", json.dumps(base)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{field} must be an integer" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("value", [1e400, 5.0, True], ids=["huge", "float", "bool"])
    def test_castle_json_fields(self, capsys, denjoy_file, value):
        # a castle read back for re-verification takes its return times
        # and level sets through the same integer rule
        assert main(["castle", "--system", denjoy_file]) == 0
        data = json.loads(capsys.readouterr().out)
        data["towers"][0]["J"] = value
        with pytest.raises(ValueError, match="tower field 'J' must be an integer"):
            Castle.from_json(json.loads(json.dumps(data)))
        odometer = OdometerSystem([2, 4])
        with pytest.raises(ValueError, match="level set field 'modulus' must be an integer"):
            odometer.set_from_json({"modulus": value, "residues": [0]})
        with pytest.raises(ValueError, match="level set residue must be an integer"):
            odometer.set_from_json({"modulus": 4, "residues": [value]})

    @pytest.mark.parametrize("theta", [[1], {"p": -1}], ids=["list", "missing-keys"])
    def test_system_theta(self, capsys, tmp_path, theta):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"type": "denjoy_flip", "theta": theta}))
        code = main(["castle", "--system", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot load system" in json.loads(captured.err)["error"]


class TestCertifyCommand:
    def test_denjoy_tight(self, capsys, denjoy_file):
        code, data = run(capsys, ["certify", "--system", denjoy_file, "--eps", "1/10"])
        assert code == 0
        assert min(t["J"] for t in data["towers"]) >= 20
        for r in data["shapeRatios"]:
            num, den = map(int, r.split("/"))
            assert num * 10 < den
        restored = Castle.from_json(data)
        assert restored.verify().all_ok()

    def test_odometer(self, capsys, odometer_file):
        code, data = run(capsys, ["certify", "--system", odometer_file, "--eps", "1/10"])
        assert code == 0
        restored = Castle.from_json(data)
        assert restored.verify().all_ok()

    def test_tiny_eps_ends_quickly(self, denjoy_file):
        # no window below the 10^4 cap is invariant enough: an exhausted
        # budget is a configuration error (exit 2), not a failed check
        proc, seconds = run_module(
            ["certify", "--system", denjoy_file, "--eps", "1/1000000"], timeout=10)
        assert seconds < 10
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert "10^4" in json.loads(proc.stderr)["error"]

    def test_tiny_theta_ends_quickly(self, capsys, tmp_path):
        # theta = sqrt(2)/10^6: invariant window w up to 2^15 is the arc
        # [w theta, 1 - w theta), of measure above 0.9 and so too wide for
        # 21 disjoint translates, so the
        # search exhausts its window budget (exit 2) within a second; with
        # windows up to 2^23 it ran for minutes and held millions of cuts
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"type": "denjoy_flip",
                                    "theta": {"p": 0, "q": 1, "d": 2, "r": 10 ** 6}}))
        with alarm(10):
            start = time.monotonic()
            code = main(["certify", "--system", str(path), "--eps", "1/10"])
            seconds = time.monotonic() - start
        captured = capsys.readouterr()
        assert seconds < 5
        assert code == 2
        assert captured.out == ""
        assert "window 2^15" in json.loads(captured.err)["error"]

    def test_near_half_theta_ends_quickly(self, capsys, tmp_path):
        # theta = 1/2 + sqrt(2)/10^6: window 1 passes at once, but its
        # ceil(1/measure) = 353,554 is above max(10^4, 16 * 21), so
        # certify exits 2 before the first-return loop, which would take
        # that many steps (it ran past 15 s without the ceiling)
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"type": "denjoy_flip",
                                    "theta": {"p": 500_000, "q": 1, "d": 2, "r": 10 ** 6}}))
        with alarm(5):
            code = main(["certify", "--system", str(path), "--eps", "1/10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "ceiling of max(10^4, 16 * 21)" in json.loads(captured.err)["error"]

    def test_lying_sweep_prints_no_certificate(self, capsys, monkeypatch, denjoy_file):
        # at eps 1/30 the first window that passes the measure test fails
        # the sweep; called disjoint, it returns before the target and the
        # castle fails verification before anything is printed
        monkeypatch.setattr(systems, "_translates_disjoint", lambda system, y, n: True)
        code = main(["certify", "--system", denjoy_file, "--eps", "1/30"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "verification" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("system,eps", [
        ({"type": "denjoy_flip", "theta": GOLDEN_THETA}, "1/10"),
        ({"type": "doubled", "theta": GOLDEN_THETA}, "1/25"),
        ({"type": "odometer", "base": 3, "growth": "geometric", "levels": 4}, "1/10"),
    ], ids=["golden", "doubled", "3^i-4"])
    def test_each_shape_ratio_taken_once(self, capsys, monkeypatch, tmp_path, system, eps):
        # certify prints the ratios the certificate checked: one ratio per
        # tower, beside the base proposal's own (the closed-form target on
        # a circle, the level search on an odometer); the payload, pinned
        # for 3^i-4, reads back and verifies
        eps_q = Fraction(eps)
        ratio = towers.folner_ratio
        calls = []

        def counted(window, test_set):
            calls.append(window)
            return ratio(window, test_set)

        # the proposal looks its ratios up in amenability, the castle in towers
        monkeypatch.setattr(amenability, "folner_ratio", counted)
        monkeypatch.setattr(towers, "folner_ratio", counted)
        system_from_json(system).certificate_base(DEFAULT_TEST_SET, eps_q)
        target = len(calls)
        calls.clear()
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system))
        code, data = run(capsys, ["certify", "--system", str(path), "--eps", eps])
        assert code == 0
        assert len(calls) == target + len(data["towers"])
        assert Castle.from_json(data).verify().all_ok()

    def test_odometer_ratio_failure_prints_nothing(self, capsys, monkeypatch, odometer_file):
        # the odometer castle goes through the certificate's shared check
        # of the realized shapes: a ratio at eps fails it before anything
        # is printed
        monkeypatch.setattr(Castle, "shape_ratios",
                            lambda self, test_set: [Fraction(1, 10)])
        code = main(["certify", "--system", odometer_file, "--eps", "1/10"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "shape invariance violated" in json.loads(captured.err)["error"]

    def test_castle_level_ceiling(self, tmp_path):
        # the last level is the first invariant enough one, and its 10^12
        # cosets are above the ceiling: exit 2 before any level set is built
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"type": "odometer", "chain": [2, 4, 10 ** 12]}))
        proc, seconds = run_module(["certify", "--system", str(path), "--eps", "1/10"],
                                   timeout=10, preexec_fn=limit_address_space)
        assert seconds < 5
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert "ceiling of 1000000 cosets" in json.loads(proc.stderr)["error"]

    @pytest.mark.parametrize("command", [["certify", "--eps", "1/10"], ["castle"]])
    def test_cylinder_seen_at_its_own_level(self, capsys, tmp_path, command):
        # level 2's 3 * 10^7 cosets are above the ceiling, so level 1's
        # cylinder is seen at its own level: one tower of height 30
        path = tmp_path / "steep.json"
        path.write_text(json.dumps({"type": "odometer", "chain": [30, 3 * 10 ** 7]}))
        with alarm(5):
            code, data = run(capsys, [command[0], "--system", str(path), *command[1:]])
        assert code == 0
        assert [(t["base"], t["J"]) for t in data["towers"]] == \
            [({"modulus": 30, "residues": [0]}, 30)]
        assert Castle.from_json(data).verify().all_ok()

    @pytest.mark.parametrize("system", ["denjoy_file", "doubled_file", "odometer_file"])
    def test_empty_test_set(self, capsys, request, system):
        # no element to be invariant under: refused before any window or
        # chain level is scanned, with a message that says so
        code = main(["certify", "--system", request.getfixturevalue(system),
                     "--eps", "1/10", "--K", "[]"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "test set is empty" in json.loads(captured.err)["error"]

    def test_bad_eps(self, capsys, denjoy_file):
        assert main(["certify", "--system", denjoy_file, "--eps", "0"]) == 2
        capsys.readouterr()
        assert main(["certify", "--system", denjoy_file, "--eps", "x/y"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("eps", ["1e10000000", "1e100000"])
    def test_eps_too_long_to_print_is_refused_at_once(self, capsys, denjoy_file, eps):
        # an exponent costs its value, not its length: an eps whose power
        # of ten alone is past the digits a certificate can print is
        # refused before it is built, naming the bound
        with alarm(1):
            code = main(["certify", "--system", denjoy_file, "--eps", eps])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err) == {
            "error": f"eps needs at most {cli.MAX_EPS_DIGITS} digits in numerator and denominator"}

    @pytest.mark.parametrize("eps,shown", [("1/10", "1/10"), ("0.05", "1/20"), ("5e-2", "1/20")])
    def test_eps_forms(self, capsys, denjoy_file, eps, shown):
        code, data = run(capsys, ["certify", "--system", denjoy_file, "--eps", eps])
        assert (code, data["epsilon"]) == (0, shown)


@st.composite
def hostile_thetas(draw):
    """Valid thetas (p + q sqrt(d)) / r in (0, 1) that are tiny, near 1/2,
    near 1, or drawn at random."""
    kind = draw(st.sampled_from(["tiny", "half", "one", "any"]))
    d = draw(st.sampled_from([2, 3, 5, 7, 11]))
    r = 10 ** draw(st.integers(1, 30))
    if kind == "tiny":
        return {"p": 0, "q": 1, "d": d, "r": r}
    if kind == "half":
        return {"p": r, "q": draw(st.sampled_from([1, -1])), "d": d, "r": 2 * r}
    if kind == "one":
        return {"p": r, "q": -1, "d": d, "r": r}
    q = draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1]))
    r = draw(st.integers(1, 10 ** 6))
    # floor(q sqrt(d)); d is not a square, so q sqrt(d) is not an integer
    f = math.isqrt(q * q * d) if q > 0 else -math.isqrt(q * q * d) - 1
    # 0 < p + q sqrt(d) < r
    return {"p": draw(st.integers(-f, r - f - 1)), "q": q, "d": d, "r": r}


class TestHostileTheta:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(theta=hostile_thetas(), eps=st.sampled_from(["1/3", "1/10", "1/25"]))
    def test_certify_ends_with_an_exit_code(self, tmp_path_factory, theta, eps):
        # every valid theta ends in exit 0, 2, 3 or 4, within the alarm
        # and with no traceback
        path = tmp_path_factory.mktemp("theta") / "system.json"
        path.write_text(json.dumps({"type": "denjoy_flip", "theta": theta}))
        out, err = io.StringIO(), io.StringIO()
        with alarm(5), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["certify", "--system", str(path), "--eps", eps])
        assert code in {0, 2, 3, 4}
        assert "Traceback" not in err.getvalue()
        if code:
            assert "error" in json.loads(err.getvalue())


#: What a mutation puts in place of a JSON node: other types, extreme and
#: degenerate integers, and the deletion of the node.
DELETE = object()
SWAPS = [DELETE, None, True, 0, -1, 2 ** 70, 1.5, "x", [], {}, [0, 1]]


def json_nodes(value, path=()):
    """``(path, node)`` for every node of parsed JSON, the root first."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_nodes(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from json_nodes(item, path + (i,))


@st.composite
def mutated(draw, value, donors=()):
    """``value`` (parsed JSON) with one to three nodes deleted or replaced,
    each by a value of another type, an extreme integer, or a subtree of
    ``value`` or of one of the ``donors``, such as a field of another
    family's system or set."""
    value = copy.deepcopy(value)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([p for p, _ in json_nodes(value)]))
        pool = SWAPS + [node for tree in (value, *donors) for _, node in json_nodes(tree)]
        new = draw(st.sampled_from(pool))
        if new is not DELETE:
            new = copy.deepcopy(new)
        if not path:
            value = None if new is DELETE else new
            continue
        parent = value
        for key in path[:-1]:
            parent = parent[key]
        if new is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    return value


FUZZ_SYSTEMS = [
    {"type": "denjoy_flip", "theta": GOLDEN_THETA},
    {"type": "doubled", "theta": GOLDEN_THETA},
    {"type": "odometer", "base": 3, "growth": "geometric", "levels": 4},
    {"type": "odometer", "chain": [2, 6, 12, 60, 120]},
]
#: Each run's command, its fixed arguments, and the JSON option it takes
#: with a valid value; the odometer base is flip-invariant on both odometers.
FUZZ_COMMANDS = {
    "fixed-points": ("fixed-points", [], "--elements", [[0, 1], [1, 1]]),
    "castle": ("castle", [], "--base",
               {"arcs": [{"left": {"m": 1, "n": -1}, "right": {"m": 0, "n": 1}}]}),
    "castle-odometer": ("castle", [], "--base", {"modulus": 3, "residues": [1, 2]}),
    "certify": ("certify", ["--eps", "1/10"], "--K", [[0, 0], [1, 0], [0, 1]]),
    "homology": ("homology", ["--max-level", "4"], None, None),
}
#: Sets of every family, for a mutation to put in place of a field.
FUZZ_SETS = [FUZZ_COMMANDS["castle"][3], {"components": [{"arcs": []}, {"full": True}]},
             FUZZ_COMMANDS["castle-odometer"][3], {"modulus": 6, "residues": [0, 3]},
             {"modulus": 40, "residues": [0, 20]}]


#: Each JSON input: the arguments that read it, with {text} for its text
#: and {system} for a system file, its valid text, and the error it
#: prints for text it cannot parse; the system file itself holds {text}
#: when the input is --system.
JSON_INPUTS = {
    "--system": (["homology", "--system", "{system}"], json.dumps(FUZZ_SYSTEMS[0]),
                 "cannot load system: "),
    "--elements": (["fixed-points", "--system", "{system}", "--elements", "{text}"],
                   "[[0, 1], [1, 1]]", "bad group-element list: "),
    "--K": (["certify", "--system", "{system}", "--eps", "1/10", "--K", "{text}"],
            "[[1, 0], [0, 1]]", "bad group-element list: "),
    "--ratio": (["folner", "--m", "3", "--ratio", "{text}"], "[[1, 0]]",
                "bad group-element list: "),
    "--base": (["castle", "--system", "{system}", "--base", "{text}"],
               json.dumps(FUZZ_COMMANDS["castle"][3]), "bad base set: "),
}


class TestMutatedJson:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(data=st.data(), case=st.sampled_from(sorted(FUZZ_COMMANDS)),
           system=st.sampled_from(FUZZ_SYSTEMS))
    def test_every_run_ends_with_an_exit_code(self, tmp_path_factory, data, case, system):
        # a system file, castle --base (an arc set or a level set),
        # --elements or --K with fields deleted, retyped or taken from
        # another family: each run ends in an exit code, within the alarm,
        # and no exception escapes main
        command, args, flag, value = FUZZ_COMMANDS[case]
        donors = FUZZ_SYSTEMS + FUZZ_SETS + [{}]
        if flag is None or data.draw(st.booleans()):
            system = data.draw(mutated(system, donors))
        else:
            args = [*args, flag, json.dumps(data.draw(mutated(value, donors)))]
        path = tmp_path_factory.getbasetemp() / "fuzz-system.json"
        path.write_text(json.dumps(system))
        out, err = io.StringIO(), io.StringIO()
        with alarm(5), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--system", str(path), *args])
        assert code in {0, 2, 3, 4}
        if code:
            assert "error" in json.loads(err.getvalue())

    @pytest.mark.parametrize("damage", ["truncated", "nested"])
    @pytest.mark.parametrize("site", sorted(JSON_INPUTS))
    def test_unparsable_text_is_a_config_error(self, capsys, tmp_path, site, damage):
        # JSON text cut short, or arrays nested past the parser's
        # recursion limit, in any JSON input: exit 2 with that input's
        # error, and no exception escapes main
        argv, text, error = JSON_INPUTS[site]
        bad = text[:-1] if damage == "truncated" else "[" * 10 ** 5
        path = tmp_path / "system.json"
        path.write_text(bad if site == "--system" else json.dumps(FUZZ_SYSTEMS[0]))
        with alarm(5):
            code = main([arg.format(system=path, text=bad) for arg in argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err)["error"].startswith(error)

    def test_system_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        path.write_bytes(json.dumps(FUZZ_SYSTEMS[0]).encode()[:-1] + b"\xff}")
        assert main(["homology", "--system", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"].startswith("cannot load system: ")


#: Strings that argparse cannot read as integers.
NOT_INTS = ["x", "1.5", ""]
#: What a mutation puts in an integer option: its absence (the default),
#: negative, zero and extreme values, values on each side of the
#: options' bounds, and values that are not integers.
INT_SWAPS = [DELETE, -2 ** 70, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 32, 129, 2 ** 70, *NOT_INTS]
#: Each command's integer options and the values drawn for them.  Each
#: oracle case costs a bar complex, so --count is drawn small; a large
#: count costs what it asks for.
INT_OPTIONS = {
    "homology": {"--max-level": INT_SWAPS},
    "fixed-points": {"--max-level": INT_SWAPS},
    "folner": {},
    "oracle-check": {"--count": [-2 ** 70, -1, 0, 1, 2, 3, *NOT_INTS], "--max-cells": INT_SWAPS,
                     "--max-degree": INT_SWAPS, "--seed": INT_SWAPS},
}


class TestMutatedOptions:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), command=st.sampled_from(sorted(INT_OPTIONS)))
    def test_every_run_ends_with_an_exit_code(self, tmp_path_factory, data, command):
        # --max-level on circle, doubled and odometer systems, the
        # oracle-check options, and folner --ratio lists with fields
        # deleted, retyped or taken from a system, some of them not
        # integers or with --system dropped: each run ends in an exit
        # code, within the alarm, with its error as JSON
        args = [command]
        unreadable = False
        if command == "folner":
            ratio = data.draw(mutated([[0, 0], [1, 0], [0, 1]], FUZZ_SYSTEMS))
            args += ["--m", "6", "--ratio", json.dumps(ratio)]
        elif command != "oracle-check":
            path = tmp_path_factory.getbasetemp() / "option-system.json"
            path.write_text(json.dumps(data.draw(st.sampled_from(FUZZ_SYSTEMS))))
            if data.draw(st.sampled_from([True, True, True, False])):
                args += ["--system", str(path)]
            else:
                unreadable = True
        if command == "homology":
            args += ["--method", data.draw(st.sampled_from(["comp", "freeproduct", "both"]))]
        for flag, pool in INT_OPTIONS[command].items():
            value = data.draw(st.sampled_from(pool))
            if value is not DELETE:
                args += [flag, str(value)]
                unreadable |= value in NOT_INTS
        out, err = io.StringIO(), io.StringIO()
        with alarm(5), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        assert code in {0, 2, 3, 4}
        if unreadable:
            assert (code, out.getvalue()) == (2, "")
        if code:
            assert "error" in json.loads(err.getvalue())


    def test_unreadable_command_lines_are_json_errors(self, capsys):
        # argparse's refusals print JSON like every other configuration
        # error; --help still prints its text and exits 0
        for argv in (["homology", "--system", "s.json", "--max-level", "x"], ["homology"],
                     ["oracle-check", "--count", "1.5"], ["no-such-command"], []):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error" in json.loads(captured.err)
        assert main(["homology", "--help"]) == 0
        captured = capsys.readouterr()
        assert "--max-level" in captured.out and captured.err == ""


class TestHomologyCommand:
    def test_denjoy(self, capsys, denjoy_file):
        code, data = run(capsys, ["homology", "--system", denjoy_file,
                                  "--max-level", "8", "--method", "both"])
        assert code == 0
        assert data["H0"] == {"rank": 2, "torsion": []}
        assert data["H1"] == {"rank": 0, "torsion": [2, 2, 2]}
        assert data["H2"] == {"rank": 0, "torsion": []}
        assert data["provenance"]["delta"] == {}

    def test_doubled(self, capsys, doubled_file):
        code, data = run(capsys, ["homology", "--system", doubled_file])
        assert code == 0
        assert data["H0"] == {"rank": 2, "torsion": []}
        assert data["H1"] == {"rank": 1, "torsion": []}
        assert data["H2"] == {"rank": 0, "torsion": []}

    def test_odometer(self, capsys, odometer_file):
        code, data = run(capsys, ["homology", "--system", odometer_file,
                                  "--max-level", "5"])
        assert code == 0
        assert data["H0"]["localization"] == "Z[1/3]"
        assert data["H1"] == {"rank": 0, "torsion": [2, 2]}

    def test_determinism(self, capsys, denjoy_file, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        main(["homology", "--system", denjoy_file, "--max-level", "6", "--out", str(out1)])
        capsys.readouterr()
        main(["homology", "--system", denjoy_file, "--max-level", "6", "--out", str(out2)])
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_max_level_below_minimum(self, capsys, denjoy_file):
        for level in ("0", "2", "-1"):
            code = main(["homology", "--system", denjoy_file, "--max-level", level])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "--max-level" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("method", ["freeproduct", "both"])
    def test_free_product_needs_four_levels(self, capsys, denjoy_file, method):
        # the assembly starts at level 2, so --max-level 3 gives it two
        # levels; the message names the requirement
        code = main(["homology", "--system", denjoy_file, "--max-level", "3",
                     "--method", method])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert "max_level >= 4" in error and "starts at level 2" in error

    @pytest.mark.parametrize("method", ["comp", "freeproduct", "both"])
    def test_two_level_chain(self, capsys, tmp_path, method):
        # the default --max-level is 16; the chain, not the request, is
        # too short, and the message says so
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"type": "odometer", "chain": [2, 4]}))
        code = main(["homology", "--system", str(path), "--method", method])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == (
            "need at least 3 odometer levels with at most 512 cosets")

    def test_non_stabilization_exit_code(self, capsys, tmp_path):
        # the mixed chain's free-product H1 is still moving at its top level
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"type": "odometer", "chain": [2, 6, 12, 60, 120]}))
        code = main(["homology", "--system", str(path), "--method", "freeproduct"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "H1 still moving" in json.loads(captured.err)["error"]

    def test_doubled_freeproduct_rejected_before_levels(self, doubled_file):
        # the split case has no free-product route: exit 2 without
        # computing any level of the requested depth
        proc, seconds = run_module(
            ["homology", "--system", doubled_file, "--method", "freeproduct",
             "--max-level", "1000000"], timeout=10)
        assert seconds < 10
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert "split case" in json.loads(proc.stderr)["error"]

    @pytest.mark.parametrize("system", ["denjoy_file", "doubled_file"])
    def test_level_ceiling(self, request, system):
        # a request above the 128-level ceiling exits 2 before any level
        # is built
        proc, seconds = run_module(
            ["homology", "--system", request.getfixturevalue(system),
             "--max-level", "1000000"], timeout=10)
        assert seconds < 5
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert "128" in json.loads(proc.stderr)["error"]


class TestOracleCommand:
    def test_seeded_run(self, capsys):
        code, data = run(capsys, ["oracle-check", "--seed", "11", "--count", "6",
                                  "--max-degree", "3", "--max-cells", "5"])
        assert code == 0
        assert data["checked"] == 24
        assert data["mismatches"] == []

    def test_determinism(self, capsys):
        _, d1 = run(capsys, ["oracle-check", "--seed", "3", "--count", "4",
                             "--max-degree", "2", "--max-cells", "4"])
        _, d2 = run(capsys, ["oracle-check", "--seed", "3", "--count", "4",
                             "--max-degree", "2", "--max-cells", "4"])
        assert d1 == d2

    def test_wrong_formula_is_reported(self, capsys, monkeypatch):
        # the bar complex is an independent check: a wrong odd-degree
        # formula shows as a mismatch in every odd degree of every case
        monkeypatch.setattr(cli, "odd_homology", lambda module: FGAbGroup(0, (3,)))
        code, data = run(capsys, ["oracle-check", "--seed", "2", "--count", "3",
                                  "--max-degree", "3", "--max-cells", "4"])
        assert code == 4
        assert [(m["case"], m["degree"]) for m in data["mismatches"]] == [
            (case, degree) for case in range(3) for degree in (1, 3)]
        assert all(m["expected"] == {"rank": 0, "torsion": [3]} for m in data["mismatches"])

    @pytest.mark.parametrize("args,bound", [
        (["--count", "1", "--max-cells", "8000", "--seed", "15"], "--max-cells must be in 1..8"),
        (["--max-cells", "0"], "--max-cells must be in 1..8"),
        (["--max-degree", "7"], "--max-degree must be in 0..6"),
        (["--max-degree", "-1"], "--max-degree must be in 0..6"),
        (["--count", "-1"], "--count must be at least 0"),
    ], ids=["huge-cells", "no-cells", "deep", "negative-degree", "negative-count"])
    def test_bounds_checked_before_any_work(self, args, bound):
        # under a 1 GiB address space: a module drawn with thousands of
        # cells would fail there with MemoryError instead of exit 2
        proc, _ = run_module(["oracle-check", *args], timeout=30,
                             preexec_fn=limit_address_space)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert json.loads(proc.stderr) == {"error": bound}


class TestParser:
    def test_two_calls_build_one_parser(self, capsys):
        build_parser.cache_clear()
        code, first = run(capsys, ["folner", "--m", "2", "--check-transversal"])
        assert code == 0 and "transversal" in first
        # the kept parser carries nothing from one call into the next
        code, second = run(capsys, ["folner", "--m", "3"])
        assert code == 0 and "transversal" not in second
        assert build_parser.cache_info().misses == 1


class TestOutputFiles:
    def test_out_flag_writes_stdout_payload(self, capsys, denjoy_file, tmp_path):
        out = tmp_path / "res.json"
        code, data = run(capsys, ["fixed-points", "--system", denjoy_file,
                                  "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text()) == data

    @pytest.mark.parametrize("command", ["oracle-check", "homology"])
    def test_unwritable_out_is_a_config_error(self, command, denjoy_file, tmp_path):
        # a path in a missing directory, and a directory: exit 2 with the
        # path named, and no payload on stdout
        args = {"oracle-check": ["oracle-check", "--count", "1"],
                "homology": ["homology", "--system", denjoy_file, "--max-level", "4"]}[command]
        out = {"oracle-check": tmp_path / "missing" / "x.json", "homology": tmp_path}[command]
        proc, _ = run_module([*args, "--out", str(out)], timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert str(out) in json.loads(proc.stderr)["error"]


class TestFileInputs:
    """``@FILE`` in place of the inline JSON of ``--base``, ``--elements``,
    ``--K`` and ``--ratio``."""

    def test_base_of_300_arcs_from_a_file(self, capsys, denjoy_file, tmp_path):
        # the odd cells of the cut window |n| <= 300: the flip maps cell j
        # to cell 600 - j, so their 300 arcs form a flip-invariant base
        cuts = sort_by_cut(CutPoint.of(GOLDEN, n) for n in range(-300, 301))
        base = ClopenSet.from_arcs(GOLDEN, [Arc(cuts[j], cuts[j + 1]) for j in range(1, 600, 2)])
        assert len(base.arcs) == 300
        text = json.dumps(base.to_json())
        path = tmp_path / "base.json"
        path.write_text(text)
        proc, _ = run_module(["castle", "--system", denjoy_file, "--base", f"@{path}"],
                             timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert main(["castle", "--system", denjoy_file, "--base", text]) == 0
        assert proc.stdout.decode() == capsys.readouterr().out
        assert Castle.from_json(json.loads(proc.stdout)).verify().all_ok()

    @pytest.mark.parametrize("argv,option", [
        (["fixed-points", "--system", "{system}"], "--elements"),
        (["certify", "--system", "{system}", "--eps", "1/10"], "--K"),
        (["folner", "--m", "4"], "--ratio"),
    ], ids=["elements", "K", "ratio"])
    def test_group_elements_from_a_file(self, capsys, denjoy_file, tmp_path, argv, option):
        text = "[[0,1],[1,0],[-1,0]]"
        path = tmp_path / "elements.json"
        path.write_text(text)
        args = [arg.format(system=denjoy_file) for arg in argv]
        assert main([*args, option, text]) == 0
        inline = capsys.readouterr()
        assert main([*args, option, f"@{path}"]) == 0
        assert capsys.readouterr() == inline

    @pytest.mark.parametrize("option,error", [
        ("--base", "bad base set: cannot read "),
        ("--K", "bad group-element list: cannot read "),
    ])
    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_file_is_a_config_error(self, capsys, denjoy_file, tmp_path,
                                               option, error, kind):
        path = {"missing": tmp_path / "missing.json", "directory": tmp_path,
                "not-utf8": tmp_path / "latin1.json"}[kind]
        (tmp_path / "latin1.json").write_bytes(b'[[0, 1], "\xe9"]')
        command = "castle" if option == "--base" else "certify"
        extra = ["--eps", "1/10"] if command == "certify" else []
        code = main([command, "--system", denjoy_file, *extra, option, f"@{path}"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err)["error"].startswith(f"{error}{path}")


class TestClosedReader:
    def test_no_traceback_when_reader_closes(self, denjoy_file):
        src = str(Path(dihedral_dynamics.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dihedral_dynamics.cli", "fixed-points",
                 "--system", denjoy_file],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 0

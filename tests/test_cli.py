import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dihedral_dynamics
from dihedral_dynamics import cli
from dihedral_dynamics.abgroups import FGAbGroup
from dihedral_dynamics.cli import build_parser, main
from dihedral_dynamics.towers import Castle

GOLDEN_THETA = {"p": -1, "q": 1, "d": 5, "r": 2}
ODOMETER_CASTLE_ERROR = {
    "error": "first-return castles are for circle systems; use certify for odometers"}


def run_python(args, timeout, preexec_fn=None):
    """``python <args>`` with this checkout's package importable; returns
    the finished process and its wall time."""
    src = str(Path(dihedral_dynamics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, *args], capture_output=True, env=env,
                          timeout=timeout, preexec_fn=preexec_fn)
    return proc, time.monotonic() - start


def run_module(args, timeout, preexec_fn=None):
    """``python -m dihedral_dynamics.cli <args>``, as ``run_python``."""
    return run_python(["-m", "dihedral_dynamics.cli", *args], timeout, preexec_fn)


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

    def test_odometer_rejected(self, capsys, odometer_file):
        code = main(["castle", "--system", odometer_file])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err) == ODOMETER_CASTLE_ERROR

    @pytest.mark.parametrize("base", ['{"modulus": 3, "residues": [0]}', "not json"],
                             ids=["level-set", "malformed"])
    def test_odometer_rejected_before_base(self, capsys, odometer_file, base):
        # the system is rejected before its --base is parsed
        code = main(["castle", "--system", odometer_file, "--base", base])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err) == ODOMETER_CASTLE_ERROR


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
    ], ids=["list", "string", "arcs-not-a-list", "null-m"])
    def test_castle_base(self, capsys, denjoy_file, base):
        code = main(["castle", "--system", denjoy_file, "--base", json.dumps(base)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "bad base set" in json.loads(captured.err)["error"]

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

    def test_castle_level_ceiling(self, tmp_path):
        # level 3 is invariant enough and the castle is seen at level 4,
        # whose 10^12 cosets are above the ceiling: exit 2 before any
        # level set is built
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"type": "odometer", "chain": [2, 4, 1000, 10 ** 12]}))
        proc, seconds = run_module(["certify", "--system", str(path), "--eps", "1/10"],
                                   timeout=10, preexec_fn=limit_address_space)
        assert seconds < 5
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert "ceiling of 1000000 cosets" in json.loads(proc.stderr)["error"]

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

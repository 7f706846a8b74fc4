"""Pinned output digests of fast commands.

Each case runs ``cli.main`` in-process and compares the exit code and
the first 16 hex digits of the sha256 of stdout and of stderr with the
recorded values, so any byte of any output that changes fails here.
"""

import hashlib
import json

import pytest

from dihedral_dynamics.cli import main
from dihedral_dynamics.towers import Castle

SYSTEMS = {
    "golden": {"type": "denjoy_flip", "theta": {"p": -1, "q": 1, "d": 5, "r": 2}},
    "sqrt2": {"type": "denjoy_flip", "theta": {"p": -1, "q": 1, "d": 2, "r": 1}},
    "sqrt3": {"type": "denjoy_flip", "theta": {"p": -1, "q": 1, "d": 3, "r": 2}},
    "doubled": {"type": "doubled", "theta": {"p": -1, "q": 1, "d": 5, "r": 2}},
    "2^i-6": {"type": "odometer", "base": 2, "growth": "geometric", "levels": 6},
    "3^i-4": {"type": "odometer", "base": 3, "growth": "geometric", "levels": 4},
    "mixed": {"type": "odometer", "chain": [2, 6, 12, 60, 120]},
    "wide": {"type": "odometer", "chain": [600, 1200, 2400]},
}

EMPTY = hashlib.sha256(b"").hexdigest()[:16]

# (system, --max-level, --method, exit code, stdout digest, stderr digest)
CASES = [
    ("golden", 4, "comp", 0, "ee4dd954bda4c34f", EMPTY),
    ("golden", 4, "freeproduct", 0, "1d6517a1f80bc0ad", EMPTY),
    ("golden", 4, "both", 0, "45580b4065917e34", EMPTY),
    ("golden", 8, "comp", 0, "be0730875c69206b", EMPTY),
    ("golden", 8, "freeproduct", 0, "a7647f9bce3bb73f", EMPTY),
    ("golden", 8, "both", 0, "6510d4230590c2d0", EMPTY),
    ("golden", 64, "both", 0, "ec60f19bb1c8fd77", EMPTY),
    ("golden", 128, "comp", 0, "06cd45f29c73969c", EMPTY),
    ("sqrt2", 4, "comp", 0, "76b0f8663bd483d8", EMPTY),
    ("sqrt2", 4, "freeproduct", 0, "bdc80d5fa00e4cd1", EMPTY),
    ("sqrt2", 4, "both", 0, "399c498afd5bb86a", EMPTY),
    ("sqrt2", 8, "comp", 0, "ee278cb9394c0d6b", EMPTY),
    ("sqrt2", 8, "freeproduct", 0, "7d36853d3c805f1f", EMPTY),
    ("sqrt2", 8, "both", 0, "0ea9c078b1c732b2", EMPTY),
    ("sqrt2", 64, "both", 0, "7388bc83d7d9feff", EMPTY),
    ("sqrt3", 4, "comp", 0, "812800fa42eeeccc", EMPTY),
    ("sqrt3", 4, "freeproduct", 0, "674c954ef4d708c9", EMPTY),
    ("sqrt3", 4, "both", 0, "45ab6b84c4e302d7", EMPTY),
    ("sqrt3", 8, "comp", 0, "afb9054a5947d8c1", EMPTY),
    ("sqrt3", 8, "freeproduct", 0, "5b556ef3c9a21e22", EMPTY),
    ("sqrt3", 8, "both", 0, "46d6db191bad31b5", EMPTY),
    ("golden", 3, "comp", 0, "6130b06a52748a13", EMPTY),
    ("golden", 3, "freeproduct", 2, EMPTY, "b2eb478645e208af"),
    ("golden", 3, "both", 2, EMPTY, "b2eb478645e208af"),
    ("doubled", 8, "comp", 0, "74a5d70bf15e19b9", EMPTY),
    ("doubled", 8, "freeproduct", 2, EMPTY, "344073af6686e22b"),
    ("doubled", 12, "comp", 0, "18eec60c3a86cf88", EMPTY),
    ("doubled", 12, "freeproduct", 2, EMPTY, "344073af6686e22b"),
    ("2^i-6", 16, "comp", 0, "10de51f97e6fe5b7", EMPTY),
    ("2^i-6", 16, "freeproduct", 0, "2f9b927b64e38e9b", EMPTY),
    ("2^i-6", 16, "both", 0, "8bcfe58207f2c7f8", EMPTY),
    ("3^i-4", 16, "comp", 0, "2c1b53a82e8d33e6", EMPTY),
    ("3^i-4", 16, "freeproduct", 0, "433564f45534c891", EMPTY),
    ("3^i-4", 16, "both", 0, "34fe7647d166ea27", EMPTY),
    ("mixed", 16, "comp", 0, "9acf68911b5f0439", EMPTY),
    ("mixed", 16, "freeproduct", 3, EMPTY, "dc355dfabd303cfc"),
    ("wide", 16, "comp", 2, EMPTY, "8a46d0f2743b2acb"),
    ("wide", 16, "freeproduct", 2, EMPTY, "8a46d0f2743b2acb"),
    ("wide", 16, "both", 2, EMPTY, "8a46d0f2743b2acb"),
    # one level past the circle's ceiling of 128; an odometer's levels
    # stop at its chain, whatever the request
    ("golden", 129, "comp", 2, EMPTY, "67e92ca5740eba7d"),
    ("golden", 129, "both", 2, EMPTY, "67e92ca5740eba7d"),
    ("doubled", 129, "comp", 2, EMPTY, "67e92ca5740eba7d"),
    ("2^i-6", 129, "both", 0, "d7bb2a7fc8109d4e", EMPTY),
]


@pytest.fixture(scope="module")
def system_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("systems")
    paths = {}
    for name, data in SYSTEMS.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    return paths


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("system,level,method,code,out,err", CASES,
                         ids=[f"{c[0]}-L{c[1]}-{c[2]}" for c in CASES])
def test_homology_output_digest(capsys, system_files, system, level, method, code, out, err):
    got = main(["homology", "--system", str(system_files[system]),
                "--max-level", str(level), "--method", method])
    captured = capsys.readouterr()
    assert (got, _digest(captured.out), _digest(captured.err)) == (code, out, err)


# (argv with {system} files named, exit code, stdout digest, stderr digest)
COMMANDS = [
    (["oracle-check", "--seed", "229620266", "--count", "100", "--max-degree", "2"],
     0, "4ff22c38cb739a14", EMPTY),
    (["oracle-check", "--seed", "0", "--count", "20"], 0, "ae509e3163a7604d", EMPTY),
    (["oracle-check", "--seed", "7", "--count", "40", "--max-cells", "4", "--max-degree", "4"],
     0, "dc712ae58852474c", EMPTY),
    # these two reach the 256x512 and 512x1024 bar boundaries
    (["oracle-check", "--seed", "0", "--count", "100"], 0, "c96004617a6d7750", EMPTY),
    (["oracle-check", "--seed", "1", "--count", "30", "--max-cells", "8", "--max-degree", "6"],
     0, "4fef4c8f513669ec", EMPTY),
    (["fixed-points", "--system", "{golden}", "--elements", f"[[{10 ** 18},1]]"],
     0, "29eb0caf783a48d1", EMPTY),
    (["fixed-points", "--system", "{2^i-6}"], 0, "7d65af21f207767c", EMPTY),
    (["fixed-points", "--system", "{3^i-4}"], 0, "8b9be525a18f220f", EMPTY),
    # a reflection whose thread count settles only at the horizon
    (["fixed-points", "--system", "{mixed}", "--max-level", "4"], 3, EMPTY, "fda5b43be4fe53f8"),
    (["fixed-points", "--system", "{mixed}", "--elements",
      "[[0,1],[1,1],[2,1],[3,1],[6,0],[120,0]]"], 3, EMPTY, "dd7b8fd993460065"),
    (["castle", "--system", "{golden}"], 0, "18f53f85a3968d2a", EMPTY),
    (["castle", "--system", "{sqrt2}"], 0, "51459bf16970cf88", EMPTY),
    (["castle", "--system", "{doubled}"], 0, "f301528cc8f057db", EMPTY),
    # an odometer's default base: the level-1 cylinder seen at level 2
    (["castle", "--system", "{2^i-6}"], 0, "bc36d480b888ad67", EMPTY),
    (["castle", "--system", "{3^i-4}"], 0, "4b54371b507db618", EMPTY),
    (["castle", "--system", "{mixed}"], 0, "be8fc6c142d8f6a1", EMPTY),
    (["castle", "--system", "{wide}"], 0, "ed8cb73b5168e23d", EMPTY),
    (["certify", "--system", "{golden}", "--eps", "1/10"], 0, "c0163fc1c154bee6", EMPTY),
    (["certify", "--system", "{golden}", "--eps", "1/25"], 0, "42bb18d54fe2c09a", EMPTY),
    (["certify", "--system", "{golden}", "--eps", "1/100"], 0, "473a70a265e1c9f8", EMPTY),
    (["certify", "--system", "{sqrt2}", "--eps", "1/10"], 0, "7049615d72abcb52", EMPTY),
    (["certify", "--system", "{doubled}", "--eps", "1/10"], 0, "167e829cedcff028", EMPTY),
    (["certify", "--system", "{3^i-4}", "--eps", "1/10"], 0, "422783b1fbd4b191", EMPTY),
    (["certify", "--system", "{2^i-6}", "--eps", "1/10"], 0, "c55980132d38816d", EMPTY),
    (["certify", "--system", "{mixed}", "--eps", "1/20"], 0, "b877b80f7ace2d1f", EMPTY),
    (["certify", "--system", "{3^i-4}", "--eps", "1/25"], 0, "df8d9e634df38be3", EMPTY),
]


@pytest.mark.parametrize("argv,code,out,err", COMMANDS,
                         ids=["oracle-229620266", "oracle-0", "oracle-7", "oracle-0-100",
                              "oracle-1-deep", "fixed-points-1e18",
                              "fixed-points-2^i-6", "fixed-points-3^i-4",
                              "fixed-points-mixed-L4", "fixed-points-mixed-elements",
                              "castle-golden", "castle-sqrt2", "castle-doubled",
                              "castle-2^i-6", "castle-3^i-4", "castle-mixed", "castle-wide",
                              "certify-golden-1/10", "certify-golden-1/25", "certify-golden-1/100",
                              "certify-sqrt2-1/10", "certify-doubled-1/10", "certify-3^i-4-1/10",
                              "certify-2^i-6-1/10", "certify-mixed-1/20", "certify-3^i-4-1/25"])
def test_command_output_digest(capsys, system_files, argv, code, out, err):
    got = main([arg.format(**system_files) for arg in argv])
    captured = capsys.readouterr()
    assert (got, _digest(captured.out), _digest(captured.err)) == (code, out, err)


@pytest.mark.parametrize("system", ["2^i-6", "3^i-4", "mixed", "wide"])
def test_odometer_castle_reverifies(capsys, system_files, system):
    assert main(["castle", "--system", str(system_files[system])]) == 0
    assert Castle.from_json(json.loads(capsys.readouterr().out)).verify().all_ok()

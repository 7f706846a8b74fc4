"""Pinned output digests of fast homology commands.

Each case runs ``cli.main`` in-process and compares the exit code and
the first 16 hex digits of the sha256 of stdout and of stderr with the
recorded values, so any byte of any output that changes fails here.
"""

import hashlib
import json

import pytest

from dihedral_dynamics.cli import main

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
    ("golden", 4, "comp", 0, "e5614ae1d757944b", EMPTY),
    ("golden", 4, "freeproduct", 0, "86616ab8fc3cd471", EMPTY),
    ("golden", 4, "both", 0, "3a7a9bdf16768b93", EMPTY),
    ("golden", 8, "comp", 0, "94206ec490d02648", EMPTY),
    ("golden", 8, "freeproduct", 0, "1aa3d4008ed24720", EMPTY),
    ("golden", 8, "both", 0, "f503c8d557b2f83b", EMPTY),
    ("sqrt2", 4, "comp", 0, "f85d53a4a8b43537", EMPTY),
    ("sqrt2", 4, "freeproduct", 0, "0c3cc98ee663d268", EMPTY),
    ("sqrt2", 4, "both", 0, "4e3416fd7de34c93", EMPTY),
    ("sqrt2", 8, "comp", 0, "04202ef56828277c", EMPTY),
    ("sqrt2", 8, "freeproduct", 0, "efcc001924511e26", EMPTY),
    ("sqrt2", 8, "both", 0, "ba22b23e00f89409", EMPTY),
    ("sqrt3", 4, "comp", 0, "be62462e8ca613c7", EMPTY),
    ("sqrt3", 4, "freeproduct", 0, "99862ba81a336ce8", EMPTY),
    ("sqrt3", 4, "both", 0, "bb12a87637421cb2", EMPTY),
    ("sqrt3", 8, "comp", 0, "bbaa956450741f03", EMPTY),
    ("sqrt3", 8, "freeproduct", 0, "1868f8cfd204e6dc", EMPTY),
    ("sqrt3", 8, "both", 0, "9cd8523e202a167a", EMPTY),
    ("golden", 3, "comp", 3, EMPTY, "357d7a8c1c49da7b"),
    ("golden", 3, "freeproduct", 3, EMPTY, "357d7a8c1c49da7b"),
    ("golden", 3, "both", 3, EMPTY, "357d7a8c1c49da7b"),
    ("doubled", 8, "comp", 0, "5e573ff2e4c8f533", EMPTY),
    ("doubled", 8, "freeproduct", 2, EMPTY, "344073af6686e22b"),
    ("doubled", 12, "comp", 0, "ca5eefce82db34ed", EMPTY),
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

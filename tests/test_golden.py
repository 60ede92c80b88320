"""Golden outputs: exact stdout bytes, exit codes and transcript JSON.

Each CLI entry is argv -> (exit code, stdout); each library entry is the
to_json() of one detector call on a multi-label state, where any change in
amplitude rounding would move a sampled label. Every `projdetect ...` line of
the README command block must be one of the golden argv, so a README command
that stops running fails here.

Regenerate the data file with `PYTHONPATH=src python tests/test_golden.py`,
only when an output is meant to change.
"""

import contextlib
import io
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from projdetect.centre import CentreState
from projdetect.cli import SEED_ENV, run
from projdetect.detection import alice_detect
from projdetect.kron_lr import identity_lr_state, identity_pair_state, kron_detect, lr_detect
from projdetect.symgroup import partitions

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).with_name("golden.json")

DETECT_KRON = ["detect", "kron", "--n", "4", "--triple", "2,2;3,1;2,1,1"]
DETECT_LR = ["detect", "lr", "--m", "2", "--n", "2", "--triple", "3,1;2;1,1"]
EXTRA_ARGV = [
    DETECT_KRON + ["--json"],
    DETECT_LR + ["--json"],
    ["detect", "lr", "--m", "1", "--n", "1", "--triple", "2;1;1", "--json"],
    ["detect", "kron", "--n", "3", "--triple", "3;3;2,1"],
    ["detect", "zcsn", "--n", "6", "--r", "4,2"],
    ["detect", "classical", "--n", "4", "--r", "2,2", "--trials", "2", "--json"],
    ["kron", "--n", "4"],
    ["kron", "--n", "4", "--json"],
    ["kron", "--n", "4", "--table", "--json"],
    ["kron", "--n", "4", "--triple", "2,2;3,1;2,1,1"],
    ["kron", "--n", "4", "--triple", "2,2;3,1;2,1,1", "--json"],
    ["lr", "--m", "2", "--n", "3"],
    ["lr", "--m", "2", "--n", "3", "--json"],
    ["lr", "--m", "2", "--n", "3", "--table", "--json"],
    ["lr", "--m", "2", "--n", "2", "--triple", "3,1;2;1,1"],
    ["lr", "--m", "2", "--n", "2", "--triple", "3,1;2;1,1", "--json"],
    ["holo", "roundtrip", "--n", "3", "--capital-n", "4", "--r", "2,1"],
    ["kstar", "--n-max", "8", "--json"],
    ["kstar", "--n-max", "8", "--csv"],
    ["chars", "--n", "4"],
    ["chars", "--n", "4", "--csv"],
    ["holo", "roundtrip", "--n", "3", "--capital-n", "4", "--json"],
    ["holo", "roundtrip", "--n", "3", "--capital-n", "4", "--csv"],
    ["holo", "roundtrip", "--n", "3", "--capital-n", "4", "--r", "2,1", "--json"],
    ["holo", "roundtrip", "--n", "3", "--capital-n", "4", "--r", "2,1", "--csv"],
    ["holo", "roundtrip", "--n", "3", "--capital-n", "4", "--r", "2,1", "--json", "--csv"],
    ["holo", "cutoff-table", "--n-max", "6", "--json"],
    ["holo", "cutoff-table", "--n-max", "6", "--csv"],
    ["holo", "cost", "--lambda", "8", "--beta", "2.0", "--json"],
    ["report", "--n-max", "6", "--json"],
    ["kron", "--n", "4", "--csv"],
    ["kron", "--n", "4", "--triple", "2,2;3,1;2,1,1", "--csv"],
    ["lr", "--m", "2", "--n", "3", "--csv"],
    ["lr", "--m", "2", "--n", "2", "--triple", "3,1;2;1,1", "--csv"],
]


def readme_argv() -> list[list[str]]:
    """The argv of each `projdetect` line in the README's command block."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\s+```sh\n(.*?)```", text, re.S).group(1)
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("projdetect ")
    ]


def golden_argv() -> list[list[str]]:
    return readme_argv() + EXTRA_ARGV


def cli_output(argv: list[str]) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(list(argv))
    return [code, out.getvalue()]


def library_outputs() -> dict[str, str]:
    weights = {rep: 1 + i % 9 for i, rep in enumerate(partitions(8))}
    outputs = {}
    for seed in range(5):
        state = CentreState(8, weights)
        outputs[f"alice_detect n=8 seed={seed}"] = alice_detect(state, 8, seed=seed).to_json()
    for seed in range(10):
        outputs[f"kron_detect identity n=4 seed={seed}"] = kron_detect(
            identity_pair_state(4), seed
        ).to_json()
    for seed in range(10):
        outputs[f"lr_detect identity m=3 n=2 seed={seed}"] = lr_detect(
            identity_lr_state(3, 2), seed
        ).to_json()
    return outputs


def generate() -> dict:
    return {
        "cli": [[argv, *cli_output(argv)] for argv in golden_argv()],
        "library": library_outputs(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DATA.read_text())


def test_readme_commands_are_golden(golden):
    recorded = {tuple(argv): code for argv, code, _ in golden["cli"]}
    for argv in readme_argv():
        assert recorded.get(tuple(argv)) == 0, f"README command not golden with exit 0: {argv}"


@pytest.mark.parametrize("argv", golden_argv(), ids="_".join)
def test_cli_golden(golden, monkeypatch, argv):
    monkeypatch.delenv(SEED_ENV, raising=False)
    recorded = {tuple(a): [code, stdout] for a, code, stdout in golden["cli"]}
    assert cli_output(argv) == recorded[tuple(argv)]


@pytest.mark.parametrize("argv", golden_argv(), ids="_".join)
def test_out_file_matches_stdout(golden, monkeypatch, tmp_path, argv):
    """--out writes the golden stdout bytes: one final newline on both paths."""
    monkeypatch.delenv(SEED_ENV, raising=False)
    code, stdout = {tuple(a): [c, s] for a, c, s in golden["cli"]}[tuple(argv)]
    target = tmp_path / "out"
    assert cli_output([*argv, "--out", str(target)]) == [code, ""]
    assert (target.read_bytes() if target.exists() else b"") == stdout.encode()


def test_library_golden(golden):
    assert library_outputs() == golden["library"]


if __name__ == "__main__":
    os.environ.pop(SEED_ENV, None)
    DATA.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")

"""Command-line contract: formats, determinism, exit codes, seeds."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projdetect import cli
from projdetect.cli import LAMBDA_CAP, SEED_ENV, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spawn_python(args, **kwargs) -> subprocess.CompletedProcess:
    """Run `python args` in a child that imports this package's source."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def spawn_cli(argv, **kwargs) -> subprocess.CompletedProcess:
    """Run `python -m projdetect.cli argv` in a child that imports this package's source."""
    return spawn_python(["-m", "projdetect.cli", *argv], **kwargs)


def test_chars_n0_single_empty_row(capsys):
    code, out, _ = invoke(capsys, "chars", "--n", "0")
    assert code == 0
    assert out.strip() == "-: 1"


def test_chars_json_schema(capsys):
    code, out, _ = invoke(capsys, "chars", "--n", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "1"
    assert data["n"] == 3


def test_kstar_json_rows(capsys):
    code, out, _ = invoke(capsys, "kstar", "--n-max", "8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "1"
    assert data["rows"][0] == {"n": 2, "k_star": 2}
    assert {"n": 6, "k_star": 3} in data["rows"]
    assert all(set(row) == {"n", "k_star"} for row in data["rows"])


def test_kstar_signature_csv(capsys):
    code, out, _ = invoke(capsys, "kstar", "--n-max", "6", "--signatures-for", "4")
    assert code == 0
    assert out.splitlines()[0].rstrip() == "partition,T_2"


def test_detect_zcsn_flagship(capsys):
    code, out, _ = invoke(
        capsys, "detect", "zcsn", "--n", "6", "--r", "3,3", "--seed", "7", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["identified_label"] == "3,3"
    assert data["schema"] == "1"
    assert data["query_total"] == 12


def test_json_byte_identical(capsys):
    argv = ["detect", "zcsn", "--n", "6", "--r", "4,2", "--seed", "3", "--json"]
    code1, out1, _ = invoke(capsys, *argv)
    code2, out2, _ = invoke(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_malformed_partition_usage_error(capsys):
    code, _, err = invoke(capsys, "detect", "zcsn", "--n", "6", "--r", "3,x")
    assert code == 2
    assert "'x'" in err


def test_size_mismatch_usage_error(capsys):
    code, _, err = invoke(capsys, "detect", "zcsn", "--n", "6", "--r", "3,2")
    assert code == 2
    assert "does not match" in err
    assert err.startswith("usage: projdetect detect zcsn ")


def test_unknown_subcommand_usage_error(capsys):
    code, _, _ = invoke(capsys, "frobnicate")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "chars --n -1",
        "kron --n -1",
        "lr --m -1 --n 2",
        "holo roundtrip --n -1 --capital-n 3",
        "holo cost --lambda 0 --beta 0",
        "holo cost --lambda 8 --beta -1",
        "holo cost --lambda 2 --beta inf",
        "detect classical --n 1 --r 1",
        "detect classical --n 4 --r 2,2 --delta 0",
        "detect classical --n 4 --r 2,2 --delta 1.5",
        "detect zcsn --n 1 --r 1",
        "detect kron --n 1 --triple 1;1;1",
        "holo roundtrip --n 3 --capital-n 4 --rho 0",
        "holo roundtrip --n 3 --capital-n 4 --rho -1",
        "holo roundtrip --n 3 --capital-n 4 --rho inf",
        "kstar --n-max 1",
        "holo cutoff-table --n-max 0",
        "report --n-max -1",
        "chars --n 26",
        "chars --n 40",
        "kron --n 13",
        "kron --n 13 --table",
        "lr --m 9 --n 9",
        "lr --m 0 --n 18 --table",
        "detect kron --n 13 --triple 13;13;13",
        "detect lr --m 9 --n 9 --triple 18;9;9",
        "detect classical --n 3 --r 2,1 --seed -1",
        "detect classical --n 17 --r 17",
        "detect zcsn --n 6 --r 3,3 --seed -1",
        "detect kron --n 4 --triple 2,2;3,1;2,1,1 --seed -1",
        "detect lr --m 2 --n 2 --triple 3,1;2;1,1 --seed -1",
        "holo cost --lambda 126 --beta 1",
        "holo cost --lambda 8 --beta 1e308",
        "holo roundtrip --n 2 --capital-n 3 --lambda 600 --r 2",
        "holo roundtrip --n 2 --capital-n 25 --lambda 0 --r 2",
        "holo roundtrip --n 1 --capital-n 1000000000",
    ],
    ids=lambda argv: argv.replace(" ", "_"),
)
def test_out_of_range_flag_usage_error(capsys, argv):
    code, out, err = invoke(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"usage: projdetect {argv.split(' --')[0]} ")


@pytest.mark.parametrize(
    "argv, limit",
    [
        ("chars --n 26", "--n = 26 is past the chars table limit of 25"),
        ("kron --n 13 --json", "--n = 13 is past the kron table limit of 12"),
        ("lr --m 10 --n 8 --table", "--m + --n = 18 is past the lr table limit of 17"),
        (
            "detect lr --m 9 --n 9 --triple 18;9;9",
            "--m + --n = 18 is past the lr table limit of 17",
        ),
        ("holo cost --lambda 126 --beta 1", "--lambda = 126 is past the holo limit of 125"),
        (
            "holo roundtrip --n 2 --capital-n 3 --lambda 600 --r 2",
            "--lambda = 600 is past the holo limit of 125",
        ),
        (
            "holo roundtrip --n 24 --capital-n 25",
            "--capital-n = 25 is past the holo limit of 24",
        ),
        (
            "holo cost --lambda 8 --beta 1e308",
            "--beta = 1e+308 is past the limit of 340.3 at --lambda 8",
        ),
        (
            "holo cost --lambda 2 --beta 1024",
            "--beta = 1024.0 is past the limit of 1023 at --lambda 2",
        ),
        (
            "detect zcsn --n 54 --r 54 --json",
            "--n = 54 is past the detect zcsn limit of 53",
        ),
        ("kstar --n-max 48", "--n-max = 48 is past the kstar limit of 47"),
        (
            "kstar --n-max 2 --signatures-for 51",
            "--signatures-for = 51 is past the kstar limit of 50",
        ),
        ("report --n-max 48 --json", "--n-max = 48 is past the report limit of 47"),
        (
            "detect classical --n 3 --r 2,1 --trials 401",
            "--trials = 401 is past the detect classical limit of 400",
        ),
        (
            "detect classical --n 17 --r 17",
            "--n = 17 is past the detect classical limit of 16",
        ),
    ],
)
def test_table_cap_names_its_limit(capsys, argv, limit):
    code, out, err = invoke(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    command = argv.split(" --")[0]
    assert [line for line in err.splitlines() if "limit" in line] == [
        f"projdetect {command}: error: {limit}"
    ]


def test_single_coefficient_is_not_capped(capsys):
    assert invoke(capsys, "kron", "--n", "13", "--triple", "13;13;13") == (0, "1\n", "")
    assert invoke(capsys, "lr", "--m", "9", "--n", "9", "--triple", "18;9;9") == (0, "1\n", "")


def test_detect_failure_exit_one(capsys):
    code, _, err = invoke(
        capsys, "detect", "kron", "--n", "3", "--triple", "3;3;2,1"
    )
    assert code == 1
    assert "zero Kronecker" in err


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("PROJDETECT_SEED", "7")
    code, out, _ = invoke(capsys, "detect", "zcsn", "--n", "6", "--r", "3,3", "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 7
    monkeypatch.setenv("PROJDETECT_SEED", "junk")
    code, out, err = invoke(capsys, "detect", "zcsn", "--n", "6", "--r", "3,3", "--json")
    assert (code, out) == (2, "")
    assert "PROJDETECT_SEED" in err and "Traceback" not in err
    monkeypatch.setenv("PROJDETECT_SEED", "-3")
    for argv in (["zcsn", "--n", "6", "--r", "3,3"], ["classical", "--n", "3", "--r", "2,1"]):
        code, out, err = invoke(capsys, "detect", *argv)
        assert (code, out) == (2, "")
        assert err.endswith("error: PROJDETECT_SEED must be at least 0, got '-3'\n")


def test_holo_limits_are_inclusive(capsys, monkeypatch):
    assert invoke(capsys, "holo", "cost", "--lambda", "8", "--beta", "340")[0] == 0
    assert invoke(capsys, "holo", "cost", "--lambda", "1", "--beta", "1e308")[0] == 0
    monkeypatch.setattr(cli, "LAMBDA_CAP", 8)
    assert invoke(capsys, "holo", "cost", "--lambda", "8", "--beta", "1")[0] == 0
    assert invoke(capsys, "holo", "cost", "--lambda", "9", "--beta", "1")[0] == 2


@pytest.mark.parametrize(
    "command, flag, argv",
    [
        ("detect zcsn", "--n", ["detect", "zcsn", "--r", "{0}", "--n"]),
        ("kstar", "--n-max", ["kstar", "--n-max"]),
        ("kstar", "--signatures-for", ["kstar", "--n-max", "2", "--signatures-for"]),
        ("report", "--n-max", ["report", "--n-max"]),
        ("detect classical", "--trials", ["detect", "classical", "--n", "3", "--r", "2,1", "--trials"]),
        ("detect classical", "--n", ["detect", "classical", "--r", "{0}", "--n"]),
    ],
)
def test_size_caps_are_inclusive(capsys, monkeypatch, command, flag, argv):
    monkeypatch.setitem(cli.SIZE_CAPS, (command, flag), 4)
    for value, code in ((4, 0), (5, 2)):
        args = [a.format(value) for a in argv] + [str(value)]
        assert invoke(capsys, *args)[0] == code, args


def test_explicit_seed_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("PROJDETECT_SEED", "9")
    code, out, _ = invoke(
        capsys, "detect", "zcsn", "--n", "6", "--r", "3,3", "--seed", "2", "--json"
    )
    assert json.loads(out)["seed"] == 2


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "table.json"
    code, out, _ = invoke(
        capsys, "kstar", "--n-max", "5", "--json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["schema"] == "1"


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_usage_error(capsys, tmp_path, where):
    target = tmp_path if where == "directory" else tmp_path / "no" / "such" / "x"
    code, out, err = invoke(capsys, "kstar", "--n-max", "4", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert "cannot write --out" in err and "Traceback" not in err


def test_closed_stdout_usage_error():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = spawn_cli(
            ["chars", "--n", "14"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "projdetect: error: cannot write stdout: Broken pipe\n"


def test_signature_table_refuses_json(capsys):
    code, out, err = invoke(capsys, "kstar", "--n-max", "4", "--signatures-for", "6", "--json")
    assert (code, out) == (2, "")
    assert "--signatures-for" in err and "Traceback" not in err
    code, csv_out, _ = invoke(capsys, "kstar", "--n-max", "4", "--signatures-for", "6", "--csv")
    assert code == 0
    assert csv_out == invoke(capsys, "kstar", "--n-max", "4", "--signatures-for", "6")[1]


def test_kron_table_csv(capsys):
    code, out, _ = invoke(capsys, "kron", "--n", "3", "--table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "triple,kronecker"
    assert '"3;3;3",1' in lines
    assert len(lines) == 12


def test_lr_triple_value(capsys):
    code, out, _ = invoke(
        capsys, "lr", "--m", "2", "--n", "2", "--triple", "3,1;2;2"
    )
    assert code == 0
    assert out.strip() == "1"


def test_lr_table_header(capsys):
    code, out, _ = invoke(capsys, "lr", "--m", "2", "--n", "1", "--table")
    assert code == 0
    assert out.splitlines()[0] == "triple,coefficient"


def test_holo_roundtrip_all_match(capsys):
    code, out, _ = invoke(
        capsys, "holo", "roundtrip", "--n", "4", "--capital-n", "5", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_match"] is True
    assert len(data["rows"]) == 5


def test_capital_n_cap_is_accepted(capsys):
    code, out, _ = invoke(
        capsys, "holo", "roundtrip", "--n", "1", "--capital-n", str(cli.CAPITAL_N_CAP), "--r", "1"
    )
    assert code == 0
    assert out.startswith("rep=1 recovered=1 match=True")


def test_holo_profile_csv(capsys):
    code, out, _ = invoke(
        capsys,
        "holo", "roundtrip", "--n", "3", "--capital-n", "4", "--r", "2,1", "--csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "theta,u"


def test_holo_cost_json(capsys):
    code, out, _ = invoke(capsys, "holo", "cost", "--lambda", "8", "--beta", "0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "1"
    assert data["schema"] == "1"


def test_report_runs(capsys):
    code, out, _ = invoke(capsys, "report", "--n-max", "8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "1"
    assert {row["n"] for row in data["quantum"]} == set(range(2, 9))
    assert [row["n"] for row in data["classical"]] == [6, 7, 8]


# (argv, exit code): help, usage errors, a cap refusal, a detection failure,
# and successful runs, each run twice in one process
REPEATED_ARGV = [
    (["--help"], 0),
    (["detect", "zcsn", "--help"], 0),
    (["bogus"], 2),
    (["chars", "--n", "40"], 2),
    (["detect", "zcsn", "--n", "5", "--r", "3,3"], 2),
    (["detect", "kron", "--n", "3", "--triple", "3;3;2,1"], 1),
    (["detect", "zcsn", "--n", "6", "--r", "3,3", "--seed", "7", "--json"], 0),
    (["report", "--n-max", "6"], 0),
]


def test_parser_is_built_once_with_unchanged_bytes(capsys, monkeypatch):
    """run() reuses one parser: a second pass over the same argv adds no
    argument and gives the same exit codes, stdout and stderr."""
    first = [invoke(capsys, *argv) for argv, _ in REPEATED_ARGV]
    assert [code for code, _, _ in first] == [code for _, code in REPEATED_ARGV]
    added = []
    original = argparse.ArgumentParser.add_argument
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "add_argument",
        lambda self, *a, **k: added.append(a) or original(self, *a, **k),
    )
    assert [invoke(capsys, *argv) for argv, _ in REPEATED_ARGV] == first
    assert added == []


def test_import_builds_no_parser():
    """Importing the CLI module builds no parser; the first build_parser() does,
    and a second call builds nothing more."""
    probe = (
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: made.append(1) or init(self, *a, **k)\n"
        "import projdetect.cli\n"
        "counts = [len(made)]\n"
        "for _ in range(2):\n"
        "    projdetect.cli.build_parser()\n"
        "    counts.append(len(made))\n"
        "print(*counts)\n"
    )
    proc = spawn_python(["-c", probe], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    at_import, first, second = map(int, proc.stdout.split())
    assert at_import == 0 < first == second


def test_console_script_entry():
    proc = spawn_cli(
        ["kstar", "--n-max", "4", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == "1"


def test_classical_detect_cli(capsys):
    code, out, _ = invoke(
        capsys,
        "detect", "classical", "--n", "4", "--r", "2,2", "--trials", "2", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == 0
    assert data["trials"] == 2
    assert data["schema"] == "1"


ZCSN = ["detect", "zcsn", "--n", "4", "--r", "2,2"]
CLASSICAL = ["detect", "classical", "--n", "3", "--r", "2,1"]
ONE_DIAGRAM = ["holo", "roundtrip", "--n", "2", "--capital-n", "3", "--r", "2"]
# (argv, the flag whose value is fuzzed, or SEED_ENV for the environment)
FUZZED_FLAGS = [
    (ZCSN, "--seed"),
    (["detect", "kron", "--n", "3", "--triple", "3;3;3"], "--seed"),
    (["detect", "lr", "--m", "1", "--n", "1", "--triple", "2;1;1"], "--seed"),
    (CLASSICAL, "--seed"),
    (ZCSN, SEED_ENV),
    (CLASSICAL, SEED_ENV),
    (["holo", "cost", "--beta", "1"], "--lambda"),
    (ONE_DIAGRAM, "--lambda"),
    (["holo", "cost", "--lambda", "8"], "--beta"),
    (["holo", "cost", "--lambda", "2"], "--beta"),
    (ONE_DIAGRAM, "--rho"),
    (CLASSICAL, "--delta"),
]


def slow_lambda(text: str) -> bool:
    """A --lambda the holo commands accept but take more than a moment on."""
    try:
        return 12 < int(text) <= LAMBDA_CAP
    except ValueError:
        return False


FLAG_VALUES = st.one_of(
    st.integers(max_value=12).map(str),
    st.integers(min_value=LAMBDA_CAP + 1).map(str),
    st.floats().map(str),
    st.sampled_from(["0", "-0", "1e400", "1_000", " 7 ", ""]),
    st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=8),
).filter(lambda text: not slow_lambda(text))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FUZZED_FLAGS), FLAG_VALUES)
@example((ZCSN, "--seed"), "-1")
@example((CLASSICAL, "--seed"), "-1")
@example((CLASSICAL, SEED_ENV), "-3")
@example((["holo", "cost", "--beta", "1"], "--lambda"), "126")
@example((["holo", "cost", "--lambda", "8"], "--beta"), "1e308")
@example((CLASSICAL, "--delta"), "5e-324")
def test_fuzzed_flag_values_exit_cleanly(case, value):
    """Negative, zero, huge and non-numeric values end in exit 0, 1 or 2, never an exception."""
    argv, flag = case
    env = {SEED_ENV: value} if flag == SEED_ENV else {}
    argv = argv if flag == SEED_ENV else [*argv, f"{flag}={value}"]
    quiet = io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(quiet):
        with contextlib.redirect_stderr(quiet):
            assert run(argv) in (0, 1, 2)


# Whole argv: a subcommand path (some of them incomplete or unknown), then
# flags of any command, each bare, with its value or joined to it by "=".
# Sizes stay small so that every accepted run takes a moment; random text
# holds no digit, so it never parses as a larger size, and no "-", so it
# never names a flag such as --out.
FUZZED_COMMANDS = [
    "chars", "kstar", "detect zcsn", "detect kron", "detect lr", "detect classical",
    "kron", "lr", "holo roundtrip", "holo cutoff-table", "holo cost", "report",
    "detect", "holo", "bogus", "",
]
FUZZED_FLAG_NAMES = [
    "--n", "--m", "--r", "--triple", "--seed", "--n-max", "--signatures-for", "--json",
    "--csv", "--table", "--delta", "--trials", "--lambda", "--beta", "--rho", "--capital-n",
    "--help", "--bogus",
]
SMALL_VALUES = st.one_of(
    st.integers(min_value=-2, max_value=5).map(str),
    st.sampled_from(["3,2", "2,1", "2,2", "1", "", "2;1;1", "2,1;2,1;3", "3;2;1", "0.5", "-0", "1e400", "nan"]),
    st.text(
        st.characters(codec="utf-8", exclude_categories=["Nd"], exclude_characters="\x00-"),
        max_size=4,
    ),
)
FUZZED_FLAGS = st.tuples(
    st.sampled_from(FUZZED_FLAG_NAMES), SMALL_VALUES, st.sampled_from(["bare", "pair", "joined"])
).map(
    lambda f: {"bare": [f[0]], "pair": [f[0], f[1]], "joined": [f"{f[0]}={f[1]}"]}[f[2]]
)
FUZZED_ARGV = st.tuples(st.sampled_from(FUZZED_COMMANDS), st.lists(FUZZED_FLAGS, max_size=6)).map(
    lambda c: c[0].split() + [token for flag in c[1] for token in flag]
)


@settings(max_examples=200, deadline=None)
@given(FUZZED_ARGV)
@example(["detect", "zcsn", "--n", "5", "--r", "3,2", "--seed", "1", "--json"])
@example(["detect", "lr", "--m", "2", "--n", "1", "--triple", "2,1;2;1", "--n=4"])
@example(["holo", "roundtrip", "--n", "3", "--capital-n", "4", "--r", "2,1", "--csv"])
@example(["kstar", "--n-max", "5", "--signatures-for", "5", "--json"])
def test_fuzzed_argv_exits_cleanly(argv):
    """Whole argv drawn in one process, through the one shared parser: every
    run ends in exit 0, 1 or 2, with no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv

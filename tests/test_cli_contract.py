"""The CLI's exit-code contract, fuzzed over argv built from the parser's own flags.

Whatever flags are given, `rebel` exits 0 (success), 1 (a check failed),
2 (bad input or flags, one `error:` line) or 3 (numeric range); no other
exception escapes.  And every optional flag does something: given a valid
value, it changes some output byte against the same run without it, unless
it is listed as output-neutral.
"""
import argparse
import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rebel.cli as cli
from conftest import random_model
from rebel.io import save_model

# One valid value per flag dest, sized so that a run takes milliseconds.
# Input files are made once in `workdir`; outputs land in the run's copy of it.
VALID = {
    "data": "train.csv", "val": "train.csv", "labels": "col:-1", "val_labels": "col:-1",
    "costs": "costs.csv", "model": "model.txt", "out": "out.txt", "trace": "trace.csv",
    "out_train": "a.csv", "out_test": "b.csv", "out_costs": "c.csv",
    "rounds": "2", "depth": "3", "ntau": "4", "epsilon": "0.01", "k": "3", "clusters": "1",
    "d": "2", "train_total": "12", "test_total": "6", "seed": "1", "cost_seed": "2",
    "datasets": "1", "matrices": "2", "trials": "1", "n": "12", "debug_epsilon_scale": "1.0",
}
# Flags whose defaults would make a run take seconds: never left out, like
# the required flags, whose absence is argparse's own refusal.
ALWAYS = {"rounds", "datasets", "matrices", "trials", "n"}
# `--workers` within -3..2: each worker is a process
WORKERS = [str(w) for w in range(-3, 3)] + ["x"]


def _subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _flags(command):
    """(option string, dest, takes a value, always given) of a subcommand's flags but --help."""
    return [(a.option_strings[0], a.dest, a.nargs != 0, a.required or a.dest in ALWAYS)
            for a in _subparsers()[command]._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)]


def _optional_flags(command):
    return [a.option_strings[0] for a in _subparsers()[command]._actions
            if a.option_strings and not a.required and not isinstance(a, argparse._HelpAction)]


@st.composite
def _argv(draw, command):
    argv = [command]
    for option, dest, takes_value, always in _flags(command):
        if not always and not draw(st.booleans()):
            continue
        if not takes_value:
            argv.append(option)
            continue
        pool = WORKERS if dest == "workers" else [VALID[dest], "-1", "0", "x"]
        argv.append(f"{option}={draw(st.sampled_from(pool))}")
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(0)
    labels = np.arange(24) % 3 + 1
    features = rng.normal(size=(24, 2)) + labels[:, None]
    np.savetxt(path / "train.csv", np.column_stack([features, labels]), delimiter=",", fmt="%.17g")
    np.savetxt(path / "costs.csv", rng.uniform(0.5, 2.0, (3, 3)) * (1 - np.eye(3)),
               delimiter=",", fmt="%.17g")
    save_model(random_model(0, k=3, d=2, depth=2), path / "model.txt")
    return path


def _run_in(workdir, argv):
    """`rebel argv` in a fresh copy of `workdir`: (exit code, stdout, stderr,
    {file name: bytes} of the copy afterwards)."""
    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as run_dir:
        shutil.copytree(workdir, run_dir, dirs_exist_ok=True)
        os.chdir(run_dir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
        files = {path.name: path.read_bytes() for path in Path(run_dir).iterdir()}
    return code, out.getvalue(), err.getvalue(), files


@pytest.mark.parametrize("command", sorted(_subparsers()))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_exit_codes_keep_the_contract(workdir, command, data):
    argv = data.draw(_argv(command), label="argv")
    code, _, err, _ = _run_in(workdir, argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1


# Every optional flag of every subcommand, paired: a run with the flag at a
# valid value other than its default (None for a switch) against the same
# run without it, both also given the flags listed, on top of BASE.  The
# flags that `ALWAYS` holds are in BASE at one small value, and are paired
# at another.
BASE = {
    "train": ["--data", "train.csv", "--labels", "col:-1", "--rounds", "2", "--out", "m.txt"],
    "predict": ["--model", "model.txt", "--data", "features.csv"],
    "eval": ["--model", "model.txt", "--data", "train.csv", "--labels", "col:-1"],
    "synth": ["--out-train", "a.csv", "--out-test", "b.csv"],
    "compare": ["--datasets", "1", "--matrices", "1", "--rounds", "2", "--out", "c.csv"],
    "oracle-check": ["--trials", "1", "--rounds", "2", "--n", "12"],
}
PAIRS = {
    ("train", "--costs"): ("costs.csv", []),
    ("train", "--depth"): ("2", []),
    ("train", "--ntau"): ("4", []),
    ("train", "--epsilon"): ("0.01", []),
    ("train", "--no-a0"): (None, []),
    # a separable set stops on the certificate unless told not to
    ("train", "--no-early-stop"): (None, ["--data", "separable.csv", "--rounds", "8"]),
    ("train", "--trace"): ("t.csv", []),
    ("train", "--val"): ("train.csv", []),
    # the validation labels in column 0, not the last column
    ("train", "--val-labels"): ("col:0", ["--val", "val.csv", "--rounds", "8"]),
    # the run without it reads the label column as a feature and is refused
    ("predict", "--labels"): ("col:-1", ["--data", "train.csv"]),
    ("predict", "--out"): ("p.csv", []),
    ("eval", "--costs"): ("costs.csv", []),
    ("eval", "--out"): ("r.json", []),
    ("synth", "--k"): ("3", []),
    ("synth", "--clusters"): ("1", []),
    ("synth", "--d"): ("3", []),
    ("synth", "--train-total"): ("30", []),
    ("synth", "--test-total"): ("12", []),
    ("synth", "--seed"): ("1", []),
    ("synth", "--cost-seed"): ("2", ["--out-costs", "k.csv"]),
    ("synth", "--out-costs"): ("k.csv", []),
    ("compare", "--datasets"): ("2", []),
    ("compare", "--matrices"): ("2", []),
    ("compare", "--rounds"): ("3", []),
    ("compare", "--depth"): ("2", []),
    ("compare", "--seed"): ("1", []),
    ("compare", "--no-a0"): (None, []),
    ("compare", "--workers"): ("2", []),
    ("oracle-check", "--trials"): ("2", []),
    ("oracle-check", "--rounds"): ("3", []),
    ("oracle-check", "--n"): ("16", []),
    ("oracle-check", "--d"): ("3", []),
    ("oracle-check", "--ntau"): ("4", []),
    ("oracle-check", "--seed"): ("1", []),
    ("oracle-check", "--debug-epsilon-scale"): ("2.0", []),
    ("oracle-check", "--workers"): ("2", []),
}
# Flags that change no output byte: the worker count, since results come
# back in job order.
OUTPUT_NEUTRAL = {"--workers"}


@pytest.fixture(scope="module")
def pairdir(workdir, tmp_path_factory):
    """`workdir` plus the files some pairs need."""
    path = tmp_path_factory.mktemp("pairs")
    shutil.copytree(workdir, path, dirs_exist_ok=True)
    train = np.loadtxt(path / "train.csv", delimiter=",")
    np.savetxt(path / "features.csv", train[:, :2], delimiter=",", fmt="%.17g")
    x = np.arange(12.0)
    np.savetxt(path / "separable.csv", np.column_stack([x, x // 6 + 1]), delimiter=",", fmt="%.17g")
    # labels in both column 0 and column 2, around one feature column
    rng = np.random.default_rng(1)
    val = np.column_stack([rng.integers(1, 4, 24), rng.normal(size=24) * 3, train[:, 2]])
    np.savetxt(path / "val.csv", val, delimiter=",", fmt="%.17g")
    return path


@pytest.mark.parametrize("command, flag", [
    (command, option) for command in sorted(_subparsers())
    for option in _optional_flags(command)])
def test_each_flag_changes_an_output_or_is_listed_as_neutral(pairdir, command, flag):
    value, shared = PAIRS[command, flag]
    argv = [command] + BASE[command] + shared
    plain = _run_in(pairdir, argv)
    assert plain[0] == 0 or (command, flag) == ("predict", "--labels"), plain[2]
    given_flag = _run_in(pairdir, argv + [flag] + ([] if value is None else [value]))
    assert given_flag[0] in (0, 1), given_flag[2]  # 1: `--debug-epsilon-scale` fails the check
    if flag in OUTPUT_NEUTRAL:
        assert given_flag == plain
    else:
        assert given_flag != plain

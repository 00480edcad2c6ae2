"""The CLI's exit-code contract, fuzzed over argv built from the parser's own flags.

Whatever flags are given, `rebel` exits 0 (success), 1 (a check failed),
2 (bad input or flags, one `error:` line) or 3 (numeric range); no other
exception escapes.
"""
import argparse
import contextlib
import io
import os
import shutil
import tempfile

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
    np.savetxt(path / "train.csv", np.column_stack([features, labels]), delimiter=",", fmt="%r")
    np.savetxt(path / "costs.csv", rng.uniform(0.5, 2.0, (3, 3)) * (1 - np.eye(3)),
               delimiter=",", fmt="%r")
    save_model(random_model(0, k=3, d=2, depth=2), path / "model.txt")
    return path


@pytest.mark.parametrize("command", sorted(_subparsers()))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_exit_codes_keep_the_contract(workdir, command, data):
    argv = data.draw(_argv(command), label="argv")
    cwd = os.getcwd()
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as run_dir:
        shutil.copytree(workdir, run_dir, dirs_exist_ok=True)
        os.chdir(run_dir)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1

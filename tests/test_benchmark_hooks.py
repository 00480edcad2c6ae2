"""The benchmark's tracer (`perfbench/tracer.py`) still finds and reads every function it hooks.

The tracer rebinds named rebel functions to span-recording wrappers and
reads some of their arguments and results.  A rename, removal or signature
change of a hooked function shows here, not only in a traced benchmark run.
"""
import importlib.util
from pathlib import Path

import numpy as np

import rebel.baselines  # noqa: F401 - the tracer hooks functions of every module
import rebel.cli  # noqa: F401
import rebel.evaluation  # noqa: F401
import rebel.io  # noqa: F401
import rebel.loss  # noqa: F401
from rebel import boost, synth
from rebel.costs import CostMatrix
from rebel.io import Dataset

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_hooks_every_target_and_reads_every_count():
    rng = np.random.default_rng(3)
    labels = np.arange(40) % 3 + 1
    data = Dataset(rng.normal(size=(40, 2)) + labels[:, None], labels, 3)
    tracer = _tracer_class()()
    tracer.install()
    try:
        boost.train(data, CostMatrix.uniform(3), boost.TrainConfig(rounds=3, tree_depth=2))
        synth.run_comparison(n_datasets=1, n_matrices=2, rounds=3)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.hook_failures == set()
    summary = tracer.summary()
    assert tracer.hook_failures == set()
    assert summary["boost.train_calls"] == 1 and summary["boost.rounds_run"] == 3
    assert summary["weak.grow_layer_calls"] == 3
    assert summary["boost.rows_scored"] > 0
    assert boost.train.__module__ == "rebel.boost" and not hasattr(boost.train, "__wrapped__")

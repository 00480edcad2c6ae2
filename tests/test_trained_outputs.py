"""Trained models and traces, byte for byte, against files recorded in tests/data/trained/.

Two seeded runs are retrained and compared as text:

- a criterion-4-protocol block: one comparison dataset (seed 0's first
  dataset seed) trained with uniform costs and with each of 4 normalized
  half-normal cost matrices, 100 stump rounds, a0 fitted; retrained one
  matrix at a time and, as `run_comparison` trains it, in one `train_many`
  call;
- a depth-3, K=5, 70-round run on a problem with a constant feature and
  unequal cost rows, so that it passes WARM_ROUNDS into the smoothed-risk
  phase.

A change that alters any bit of training shows here as a changed file.  To
record a deliberate output change, run `python tests/test_trained_outputs.py`
from the repo root with `src` on the path, and say why in the change.  The
depth-3 run is also retrained under two OpenBLAS kernels, which must agree.
"""
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rebel
from rebel.boost import WARM_ROUNDS, TrainConfig, train, train_many
from rebel.costs import CostMatrix
from rebel.io import Dataset, model_to_text, write_trace
from rebel.synth import gen_cost_matrix, gen_dataset, random_mixture_spec

DATA = Path(__file__).parent / "data" / "trained"
# NumPy's AVX-512 dispatch targets; their `exp` and `log` give other low bits
# than the older paths, and the records were made with them enabled
RECORD_FEATURES = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def grid_block_runs():
    """(name, model, trace) for the block run_comparison(1, 4, seed=0) trains."""
    rng = np.random.default_rng(0)
    dataset_seed = int(rng.integers(1, 2 ** 31, size=1)[0])
    cost_seeds = rng.integers(1, 2 ** 31, size=4)
    spec = random_mixture_spec(seed=dataset_seed)
    train_data, _ = gen_dataset(spec)
    cfg = TrainConfig(rounds=100, tree_depth=1, fit_a0=True)
    runs = [("grid_uniform", *train(train_data, CostMatrix.uniform(spec.k), cfg))]
    for j, seed in enumerate(cost_seeds):
        costs = gen_cost_matrix(spec.k, int(seed), labels=train_data.labels)
        runs.append((f"grid_costs{j}", *train(train_data, costs, cfg)))
    return runs


def deep_risk_run():
    """(name, model, trace) of a depth-3, K=5 run that reaches the smoothed-risk phase."""
    rng = np.random.default_rng(2024)
    n, k = 400, 5
    labels = rng.integers(1, k + 1, size=n)
    centers = rng.uniform(-1.5, 1.5, size=(k, 3))
    x = centers[labels - 1] + rng.normal(size=(n, 3))
    features = np.column_stack([x[:, 0], np.full(n, 0.25), x[:, 1:]])
    entries = rng.uniform(0.2, 3.0, size=(k, k))
    np.fill_diagonal(entries, 0.0)
    data = Dataset(features, labels, k)
    model, trace = train(data, CostMatrix(entries),
                         TrainConfig(rounds=70, tree_depth=3, n_tau=50))
    return [("deep_risk", model, trace)]


def all_runs():
    return grid_block_runs() + deep_risk_run()


@pytest.fixture(scope="module")
def runs():
    return all_runs()


def test_deep_run_reaches_the_risk_phase(runs):
    trace = dict((name, t) for name, _, t in runs)["deep_risk"]
    assert len(trace.rounds) == 70
    assert [r.phase for r in trace.rounds].count("risk") == 70 - WARM_ROUNDS


def _cpu_note() -> str:
    """Which of RECORD_FEATURES NumPy uses here, for a failed comparison's message."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # NumPy before 2.0
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    enabled = [f for f in RECORD_FEATURES if f in __cpu_dispatch__ and __cpu_features__.get(f)]
    return ("the records were made with NumPy's X86_V4 dispatch (AVX-512 exp/log); of "
            f"{', '.join(RECORD_FEATURES)}, enabled here: {', '.join(enabled) or 'none'}")


def _assert_matches_record(name, model, trace, tmp_path):
    write_trace(trace, tmp_path / "trace.csv")
    text = model_to_text(model)
    assert text == (DATA / f"{name}.model").read_text(encoding="utf-8"), _cpu_note()
    trace_bytes = (tmp_path / "trace.csv").read_bytes()
    assert trace_bytes == (DATA / f"{name}.trace.csv").read_bytes(), _cpu_note()


@pytest.mark.parametrize("name", ["grid_uniform", "grid_costs0", "grid_costs1",
                                  "grid_costs2", "grid_costs3", "deep_risk"])
def test_retrained_outputs_match_the_record(runs, name, tmp_path):
    model, trace = dict((n, (m, t)) for n, m, t in runs)[name]
    _assert_matches_record(name, model, trace, tmp_path)


def test_lockstep_block_matches_the_record(tmp_path):
    """The grid block trained as run_comparison trains it, in one
    `train_many` call, gives the same files as training each matrix alone."""
    rng = np.random.default_rng(0)
    dataset_seed = int(rng.integers(1, 2 ** 31, size=1)[0])
    cost_seeds = rng.integers(1, 2 ** 31, size=4)
    spec = random_mixture_spec(seed=dataset_seed)
    train_data, _ = gen_dataset(spec)
    matrices = [CostMatrix.uniform(spec.k)] + [
        gen_cost_matrix(spec.k, int(seed), labels=train_data.labels) for seed in cost_seeds]
    names = ["grid_uniform"] + [f"grid_costs{j}" for j in range(4)]
    results = train_many(train_data, matrices, TrainConfig(rounds=100, tree_depth=1, fit_a0=True))
    assert len(results) == len(names)
    for name, (model, trace) in zip(names, results):
        _assert_matches_record(name, model, trace, tmp_path)


def _dynamic_arch_openblas() -> bool:
    """Whether NumPy's BLAS is an OpenBLAS that picks its kernel at run time on x86-64."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.26 reports no build dicts
        return False
    return (platform.machine() in ("x86_64", "AMD64") and "openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


# writes the deep run's model and trace into the directory argv[1]
_DEEP_RUN = f"""
import sys
from pathlib import Path
sys.path.insert(0, {str(Path(__file__).parent)!r})
from test_trained_outputs import deep_risk_run
from rebel.io import model_to_text, write_trace
_, model, trace = deep_risk_run()[0]
Path(sys.argv[1], "model").write_text(model_to_text(model), encoding="utf-8")
write_trace(trace, Path(sys.argv[1], "trace.csv"))
"""


@pytest.mark.skipif(not _dynamic_arch_openblas(), reason="needs a DYNAMIC_ARCH OpenBLAS on x86-64")
def test_deep_run_does_not_depend_on_the_blas_kernel(tmp_path):
    """The depth-3 run, trained under the kernel OpenBLAS picks for this CPU
    and under its oldest x86-64 one (Prescott), gives the same files."""
    src = str(Path(rebel.__file__).parents[1])
    outputs = []
    for coretype in (None, "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / (coretype or "default")
        out.mkdir()
        subprocess.run([sys.executable, "-c", _DEEP_RUN, str(out)], env=env, check=True)
        outputs.append(((out / "model").read_bytes(), (out / "trace.csv").read_bytes()))
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name, model, trace in all_runs():
        (DATA / f"{name}.model").write_text(model_to_text(model), encoding="utf-8")
        write_trace(trace, DATA / f"{name}.trace.csv")
        print(f"wrote {name}: {len(model.rounds)} rounds, stopped {trace.stopped}",
              file=sys.stderr)

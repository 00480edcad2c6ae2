"""Command-line interface: exit codes, file outputs, end-to-end pipeline."""
import json

import numpy as np
import pytest

import rebel.cli as cli
import rebel.synth
from rebel.boost import NumericOverflowError
from rebel.io import load_dataset, load_model
from rebel.synth import gen_dataset, random_mixture_spec


def run(argv):
    return cli.main([str(a) for a in argv])


def test_synth_train_eval_predict_pipeline(tmp_path, capsys):
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    costs_csv = tmp_path / "costs.csv"
    model_txt = tmp_path / "model.txt"
    trace_csv = tmp_path / "trace.csv"
    pred_csv = tmp_path / "pred.csv"

    assert run(["synth", "--k", 3, "--clusters", 2, "--train-total", 120,
                "--test-total", 60, "--seed", 7, "--cost-seed", 3,
                "--out-train", train_csv, "--out-test", test_csv,
                "--out-costs", costs_csv]) == 0
    out = capsys.readouterr().out
    assert "120 train / 60 test" in out
    assert costs_csv.exists()

    assert run(["train", "--data", train_csv, "--labels", "col:-1",
                "--costs", costs_csv, "--rounds", 15, "--out", model_txt,
                "--trace", trace_csv, "--val", test_csv]) == 0
    out = capsys.readouterr().out
    assert "trained" in out and "best validation round count" in out
    model = load_model(model_txt)
    assert model.k == 3
    assert trace_csv.read_text().startswith("round,loss")

    assert run(["eval", "--model", model_txt, "--data", test_csv,
                "--labels", "col:-1", "--costs", costs_csv]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["k"] == 3 and report["n"] == 60
    assert report["risk"] >= 0.0

    assert run(["predict", "--model", model_txt, "--data", test_csv,
                "--labels", "col:-1", "--out", pred_csv]) == 0
    lines = pred_csv.read_text().strip().split("\n")
    assert lines[0] == "pred,score_1,score_2,score_3"
    assert len(lines) == 61
    preds = [int(l.split(",", 1)[0]) for l in lines[1:]]
    assert set(preds) <= {1, 2, 3}


def test_predict_unlabeled_features_to_stdout(tmp_path, capsys):
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    model_txt = tmp_path / "model.txt"
    run(["synth", "--k", 2, "--train-total", 40, "--test-total", 10,
         "--seed", 1, "--out-train", train_csv, "--out-test", test_csv])
    run(["train", "--data", train_csv, "--labels", "col:-1", "--rounds", 5,
         "--out", model_txt])
    capsys.readouterr()
    feats = tmp_path / "plain.csv"
    feats.write_text("0.0,0.0\n1.0,-1.0\n")
    assert run(["predict", "--model", model_txt, "--data", feats]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "pred,score_1,score_2"
    assert len(out) == 3


def test_predict_rows_are_repr_of_scores(tmp_path):
    """Each output row is the argmax class, then every score's repr."""
    from conftest import random_model
    from rebel.io import save_model
    model = random_model(4, k=3, d=2, depth=2, rounds=6)
    model_txt = tmp_path / "model.txt"
    save_model(model, model_txt)
    feats = tmp_path / "plain.csv"
    x = np.random.default_rng(2).normal(size=(25, 2))
    feats.write_text("".join(f"{a!r},{b!r}\n" for a, b in x.tolist()))
    pred_csv = tmp_path / "pred.csv"
    assert run(["predict", "--model", model_txt, "--data", feats, "--out", pred_csv]) == 0
    scores = model.scores(x)
    expected = ["pred,score_1,score_2,score_3"] + [
        f"{int(np.argmax(row)) + 1}," + ",".join(repr(float(v)) for v in row) for row in scores]
    assert pred_csv.read_text() == "\n".join(expected) + "\n"


@pytest.mark.parametrize("a0", [
    [-0.0, 1e-05], [0.0001, 1e16], [123456789.0, -0.0],
    [-0.0, 1e-05, 0.0001, 1e16, 123456789.0, 9.999999999999999e-05, 1e-323, -1e16, 0.1],
])
def test_predict_text_at_repr_switch_points(tmp_path, a0):
    """repr switches to exponent notation below 1e-4 and from 1e16, and signs
    -0.0: a zero-round model scores every row with a0, so the rows pin the
    predict text at those points."""
    from rebel.boost import StrongClassifier
    from rebel.io import save_model
    model = StrongClassifier(k=len(a0), d=1, a0=np.array(a0), rounds=[])
    model_txt = tmp_path / "model.txt"
    save_model(model, model_txt)
    feats = tmp_path / "plain.csv"
    feats.write_text("0.5\n-2\n7\n")
    pred_csv = tmp_path / "pred.csv"
    assert run(["predict", "--model", model_txt, "--data", feats, "--out", pred_csv]) == 0
    scores = model.scores(np.array([[0.5], [-2.0], [7.0]]))
    preds = (np.argmax(scores, axis=1) + 1).tolist()
    header = "pred," + ",".join(f"score_{i}" for i in range(1, len(a0) + 1))
    rows = [f"{p}," + ",".join(map(repr, row)) for p, row in zip(preds, scores.tolist())]
    assert pred_csv.read_bytes() == ("\n".join([header] + rows) + "\n").encode()
    assert rows[0].split(",")[1:] == [repr(v) for v in a0]


@pytest.mark.parametrize("command", [
    ["train", "--data", "d.csv", "--labels", "col:-1", "--rounds", "2", "--out", "m.txt"],
    ["predict", "--model", "m.txt", "--data", "d.csv"],
    ["eval", "--model", "m.txt", "--data", "d.csv", "--labels", "col:-1"],
    ["synth", "--out-train", "a.csv", "--out-test", "b.csv"],
])
def test_workers_only_on_pooled_commands(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(command + ["--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    for pooled in (["compare", "--out", "c.csv"], ["oracle-check"]):
        assert cli.build_parser().parse_args(pooled + ["--workers", "2"]).workers == 2


def test_train_takes_no_seed(capsys):
    """Training is deterministic, so `train` has no seed to take."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["train", "--data", "d.csv", "--labels", "col:-1",
                                       "--rounds", "2", "--out", "m.txt", "--seed", "0"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_workers_default_to_one_whatever_the_environment(monkeypatch):
    monkeypatch.setenv("REBEL_WORKERS", "4")
    for pooled in (["compare", "--out", "c.csv"], ["oracle-check"]):
        assert cli.build_parser().parse_args(pooled).workers == 1


@pytest.mark.parametrize("flag", ["--k", "--clusters", "--train-total", "--test-total", "--seed"])
def test_synth_spec_with_a_mixture_flag_exits_2(tmp_path, capsys, flag):
    """The mixture comes from flags only: `--spec` is refused, alone or with a
    mixture flag, before anything is written; the flag alone still runs."""
    spec = tmp_path / "mix.spec"
    spec.write_text("k=3\nclusters_per_class=1\ntrain_total=30\ntest_total=12\nseed=4\n")
    out = ["--out-train", tmp_path / "a.csv", "--out-test", tmp_path / "b.csv"]
    for argv in (["synth", "--spec", spec, flag, 5] + out, ["synth", "--spec", spec] + out):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --spec" in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()
    assert run(["synth", flag, 5] + out) == 0
    capsys.readouterr()


def test_synth_flags_write_what_the_generator_draws(tmp_path, capsys):
    """Each flag is `random_mixture_spec`'s argument: the files are the
    datasets it draws, `--d` setting the feature count."""
    out = ["--out-train", tmp_path / "a.csv", "--out-test", tmp_path / "b.csv"]
    assert run(["synth", "--k", 3, "--clusters", 1, "--d", 3, "--train-total", 30,
                "--test-total", 12, "--seed", 4] + out) == 0
    assert "30 train / 12 test samples, k=3" in capsys.readouterr().out
    drawn = gen_dataset(random_mixture_spec(k=3, clusters_per_class=1, d=3, train_total=30,
                                            test_total=12, seed=4))
    for path, want in zip(out[1::2], drawn):
        data = load_dataset(path, "col:-1")
        assert data.features.shape == (want.labels.shape[0], 3)
        np.testing.assert_array_equal(data.features, want.features)
        np.testing.assert_array_equal(data.labels, want.labels)


def test_synth_flags_left_unset_take_the_generator_defaults(tmp_path, monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "random_mixture_spec",
                        lambda **kw: seen.append(kw) or random_mixture_spec(**kw))
    out = ["--out-train", tmp_path / "a.csv", "--out-test", tmp_path / "b.csv"]
    assert run(["synth"] + out) == 0
    assert run(["synth", "--clusters", 1, "--test-total", 20] + out) == 0
    assert run(["synth", "--d", 3] + out) == 0
    assert seen == [{}, {"clusters_per_class": 1, "test_total": 20}, {"d": 3}]
    assert "1000 train / 20 test samples, k=4" in capsys.readouterr().out


def test_val_labels_without_val_exits_2(tmp_path, capsys):
    model = tmp_path / "m.txt"
    assert run(["train", "--data", _three_class_train(tmp_path), "--labels", "col:-1",
                "--rounds", 3, "--out", model, "--val-labels", "col:-1"]) == 2
    assert "--val-labels needs --val" in capsys.readouterr().err
    assert not model.exists()


def test_missing_file_exits_2(tmp_path, capsys):
    assert run(["train", "--data", tmp_path / "nope.csv", "--labels", "col:-1",
                "--rounds", 3, "--out", tmp_path / "m.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["train"])  # missing required arguments
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_bad_epsilon_exits_2(tmp_path, capsys):
    """`--epsilon` is a number; left out, it is 1/(2NK), so `auto` is no value."""
    data = tmp_path / "d.csv"
    data.write_text("0.0,a\n1.0,b\n")
    model = tmp_path / "m.txt"
    for value in ("wat", "auto"):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", data, "--labels", "col:-1", "--rounds", 2,
                 "--epsilon", value, "--out", model])
        assert exc.value.code == 2
        assert f"--epsilon: invalid float value: '{value}'" in capsys.readouterr().err
    assert not model.exists()
    assert run(["train", "--data", data, "--labels", "col:-1", "--rounds", 2,
                "--epsilon", "0.25", "--out", model]) == 0
    capsys.readouterr()
    assert "epsilon=0.25 " in load_model(model).fingerprint


def test_bad_cost_cell_exits_2_naming_line_and_column(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("0.0,a\n1.0,b\n")
    costs = tmp_path / "costs.csv"
    costs.write_text("0,1\nnan,0\n")
    model = tmp_path / "m.txt"
    assert run(["train", "--data", data, "--labels", "col:-1", "--costs", costs,
                "--rounds", 2, "--out", model]) == 2
    assert f"{costs}: line 2, column 0: non-finite value 'nan'" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_cost_matrix_of_another_class_count_exits_2(tmp_path, capsys, command):
    data = _three_class_train(tmp_path)
    costs = tmp_path / "costs.csv"
    costs.write_text("0,1,1,1\n1,0,1,1\n1,1,0,1\n1,1,1,0\n")
    model = tmp_path / "m.txt"
    argv = ["--data", data, "--labels", "col:-1", "--costs", costs]
    if command == "eval":
        assert run(["train", "--data", data, "--labels", "col:-1", "--rounds", 2,
                    "--out", model]) == 0
        capsys.readouterr()
        assert run(["eval", "--model", model] + argv) == 2
    else:
        assert run(["train", "--rounds", 2, "--out", model] + argv) == 2
        assert not model.exists()
    assert "cost matrix has 4 classes, dataset has 3" in capsys.readouterr().err


def _three_class_train(tmp_path):
    data = tmp_path / "train.csv"
    data.write_text("0.0,a\n1.0,b\n2.0,c\n0.5,a\n1.5,b\n2.5,c\n")
    return data


def test_val_token_unseen_in_training_exits_2_before_training(tmp_path, capsys):
    val = tmp_path / "val.csv"
    val.write_text("0.0,a\n1.0,b\n\n2.0,d\n")
    model = tmp_path / "m.txt"
    assert run(["train", "--data", _three_class_train(tmp_path), "--labels", "col:-1",
                "--rounds", 3, "--out", model, "--val", val]) == 2
    captured = capsys.readouterr()
    assert "trained" not in captured.out
    assert f"{val}: line 4: label 'd' is not one of the training labels" in captured.err
    assert not model.exists()


def test_val_label_file_token_unseen_names_the_label_file(tmp_path, capsys):
    val = tmp_path / "val.csv"
    val.write_text("0.0\n1.0\n")
    val_labels = tmp_path / "val_labels.txt"
    val_labels.write_text("a\n\nz\n")
    assert run(["train", "--data", _three_class_train(tmp_path), "--labels", "col:-1",
                "--rounds", 3, "--out", tmp_path / "m.txt", "--val", val,
                "--val-labels", f"file:{val_labels}"]) == 2
    assert f"{val_labels}: line 3: label 'z'" in capsys.readouterr().err


def test_val_with_fewer_classes_maps_through_training_labels(tmp_path, capsys, monkeypatch):
    val = tmp_path / "val.csv"
    val.write_text("0.0,a\n2.0,c\n2.2,c\n")
    seen = []
    select = cli.select_rounds
    monkeypatch.setattr(cli, "select_rounds", lambda m, v, c: seen.append(v) or select(m, v, c))
    assert run(["train", "--data", _three_class_train(tmp_path), "--labels", "col:-1",
                "--rounds", 3, "--out", tmp_path / "m.txt", "--val", val]) == 0
    assert "best validation round count" in capsys.readouterr().out
    (got,) = seen
    assert got.k == 3 and got.label_names == ["a", "b", "c"]
    np.testing.assert_array_equal(got.labels, [1, 3, 3])


def test_val_feature_width_mismatch_exits_2_before_training(tmp_path, capsys):
    val = tmp_path / "val.csv"
    val.write_text("0.0,0.0,a\n")
    model = tmp_path / "m.txt"
    assert run(["train", "--data", _three_class_train(tmp_path), "--labels", "col:-1",
                "--rounds", 3, "--out", model, "--val", val]) == 2
    assert "2 features, training data has 1" in capsys.readouterr().err
    assert not model.exists()


def test_oracle_check_passes(capsys):
    assert run(["oracle-check", "--trials", 2, "--rounds", 8, "--n", 60,
                "--d", 3, "--seed", 11]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 2
    assert "oracle check passed" in out


def test_oracle_check_negative_control_fails(capsys):
    """Perturbing the smoothing constant must break binary-reduction parity."""
    assert run(["oracle-check", "--trials", 2, "--rounds", 10, "--n", 60,
                "--d", 3, "--seed", 11, "--debug-epsilon-scale", 10]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "oracle check FAILED" in captured.err


def test_overflow_exits_3(tmp_path, capsys, monkeypatch):
    def boom(*a, **kw):
        raise NumericOverflowError(round_index=4)

    monkeypatch.setattr(cli, "train", boom)
    data = tmp_path / "d.csv"
    data.write_text("0.0,a\n1.0,b\n")
    assert run(["train", "--data", data, "--labels", "col:-1", "--rounds", 2,
                "--out", tmp_path / "m.txt"]) == 3
    assert "overflow" in capsys.readouterr().err


def test_compare_tiny_run(tmp_path, capsys):
    out = tmp_path / "compare.csv"
    assert run(["compare", "--datasets", 1, "--matrices", 2, "--rounds", 5,
                "--seed", 3, "--out", out]) == 0
    assert "[a0 on]" in capsys.readouterr().out
    assert out.exists()
    header = out.read_text().split("\n", 1)[0]
    assert header == "trial_id,dataset_seed,cost_seed,rebel_risk,twostep_risk,winner"


@pytest.mark.parametrize("flags, fit_a0, tag", [([], True, "a0 on"), (["--no-a0"], False, "a0 off")])
def test_compare_fits_a0_unless_no_a0(tmp_path, monkeypatch, capsys, flags, fit_a0, tag):
    """`compare` takes `train`'s `--no-a0`: one grid run, written to `--out` only."""
    seen = []
    rows = [{"trial_id": 0, "dataset_seed": 1, "cost_seed": 2, "rebel_risk": 0.25,
             "twostep_risk": 0.5, "winner": "rebel"}]
    monkeypatch.setattr(cli, "run_comparison", lambda **kw: seen.append(kw) or rows)
    out = tmp_path / "c.csv"
    assert run(["compare", "--out", out] + flags) == 0
    assert [kw["fit_a0"] for kw in seen] == [fit_a0]
    assert [p.name for p in tmp_path.iterdir()] == ["c.csv"]
    assert capsys.readouterr().out == f"[{tag}] 1 trials, rebel win fraction 1.000 -> {out}\n"


def test_compare_has_no_a0_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["compare", "--out", "c.csv", "--a0-mode", "both"])
    assert exc.value.code == 2
    assert "--a0-mode" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["inf", "nan"])
def test_non_finite_epsilon_exits_2(tmp_path, capsys, epsilon):
    """An infinite epsilon would zero every vector (0.5 * (log inf - log inf)
    is nan, and nan is zeroed), so it is refused before a model is written."""
    model = tmp_path / "m.txt"
    assert run(["train", "--data", _three_class_train(tmp_path), "--labels", "col:-1",
                "--rounds", 3, f"--epsilon={epsilon}", "--out", model]) == 2
    assert "epsilon must be finite and >= 0" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("trials", [0, -3])
def test_oracle_check_needs_a_trial(capsys, trials):
    """A check over no trials checks nothing, so it is an input error, not a pass."""
    assert run(["oracle-check", f"--trials={trials}"]) == 2
    captured = capsys.readouterr()
    assert "--trials must be >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("scale", ["nan", "inf", "-1"])
def test_bad_debug_epsilon_scale_exits_2(capsys, monkeypatch, scale):
    """The smoothing's scale follows --epsilon's rule, checked before any trial runs."""
    monkeypatch.setattr(cli, "pool_map", lambda *a, **kw: pytest.fail("a trial ran"))
    assert run(["oracle-check", "--trials", 1, "--rounds", 20, "--n", 20, "--d", 2,
                f"--debug-epsilon-scale={scale}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --debug-epsilon-scale must be finite and >= 0\n"
    assert captured.out == ""


@pytest.mark.parametrize("workers", [0, -3])
@pytest.mark.parametrize("command", [["compare", "--datasets", 1, "--matrices", 1, "--rounds", 2],
                                     ["oracle-check", "--trials", 1, "--rounds", 2, "--n", 20,
                                      "--d", 2]])
def test_workers_below_one_exit_2(tmp_path, capsys, command, workers):
    """A worker count below 1 is an input error, not a serial run."""
    out = tmp_path / "c.csv"
    argv = command + (["--out", out] if command[0] == "compare" else [])
    assert run(argv + [f"--workers={workers}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: workers must be >= 1, got {workers}\n"
    assert captured.out == ""
    assert not out.exists()


def test_synth_cost_seed_needs_out_costs(tmp_path, capsys):
    """`--cost-seed` seeds only the `--out-costs` matrix, so alone it is refused;
    `--out-costs` alone draws with seed 0."""
    out = ["--k", 3, "--train-total", 30, "--test-total", 12, "--seed", 2,
           "--out-train", tmp_path / "a.csv", "--out-test", tmp_path / "b.csv"]
    assert run(["synth", "--cost-seed", 3] + out) == 2
    assert "--cost-seed needs --out-costs" in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()
    assert run(["synth", "--out-costs", tmp_path / "c.csv"] + out) == 0
    assert run(["synth", "--cost-seed", 0, "--out-costs", tmp_path / "c0.csv"] + out) == 0
    capsys.readouterr()
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "c0.csv").read_bytes()


@pytest.mark.parametrize("flag, value, message", [
    ("--k", 0, "spec needs per-class means/covariances for k >= 2 classes"),
    ("--clusters", 0, "each class needs matching non-empty mean/cov lists"),
    ("--clusters", -1, "each class needs matching non-empty mean/cov lists"),
    ("--d", 0, "inconsistent mixture dimensions"),
    ("--test-total", 0, "train counts must be >= 1, test counts >= 0 with a positive total"),
])
def test_synth_refuses_an_empty_mixture(tmp_path, capsys, flag, value, message):
    """Each of these once escaped as a traceback with exit 1, the code of a failed check."""
    out = ["--out-train", tmp_path / "a.csv", "--out-test", tmp_path / "b.csv"]
    assert run(["synth", flag, value] + out) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["synth", "--seed", -1], "seed must be >= 0, got -1"),
    (["synth", "--d", -1], "inconsistent mixture dimensions"),
    (["synth", "--cost-seed", -1, "--out-costs", "c.csv"], "seed must be >= 0, got -1"),
    (["compare", "--seed", -1, "--datasets", 1, "--matrices", 1, "--rounds", 2, "--out", "c.csv"],
     "seed must be >= 0, got -1"),
    (["oracle-check", "--seed", -1, "--trials", 1, "--rounds", 2, "--n", 20],
     "seed must be >= 0, got -1"),
])
def test_negative_seeds_and_sizes_exit_2_naming_the_rule(tmp_path, monkeypatch, capsys, argv,
                                                         message):
    """Each of these once exited 2 with NumPy's message ("expected non-negative integer",
    "negative dimensions are not allowed"); `--cost-seed -1` did so only after writing and
    reporting the train and test files."""
    monkeypatch.chdir(tmp_path)
    for module in (cli, rebel.synth):
        monkeypatch.setattr(module, "pool_map", lambda *a, **kw: pytest.fail("a trial ran"))
    out = ["--out-train", "a.csv", "--out-test", "b.csv"] if argv[0] == "synth" else []
    assert run(argv + out) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_oracle_check_refuses_zero_features(capsys):
    """`--d 0` once passed the "(N, d)" check and failed at the split search instead,
    with "every feature is constant; nothing to split on"."""
    assert run(["oracle-check", "--trials", 1, "--rounds", 2, "--n", 20, "--d", 0]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: features must be a non-empty (N, d) array\n"
    assert captured.out == ""

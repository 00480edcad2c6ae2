"""Command-line entry point.

Exit codes: 0 success, 1 check failure (oracle-check divergence), 2 invalid
input or flags, 3 numeric-range abort during training.
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .baselines import run_reduction_trial
from .boost import NumericOverflowError, TrainConfig, train
from .costs import CostMatrix
from .evaluation import report_text, select_rounds
from .io import (load_cost_matrix, load_dataset, load_features, load_model, save_cost_matrix,
                 save_dataset, save_model, write_trace)
from .synth import (check_seed, gen_cost_matrix, gen_dataset, pool_map, random_mixture_spec,
                    run_comparison, win_fraction, write_comparison_csv)
from .weak import check_features_shape

ORACLE_TOL = 1e-9


def _load_costs(path: str | None, k: int) -> CostMatrix:
    """The cost matrix at `path`, or 0-1 costs for k classes; `train` and `evaluate` check
    its class count."""
    return CostMatrix.uniform(k) if path is None else load_cost_matrix(path)


def _write_out(text: str, path: str | None) -> None:
    """Write `text` to `path`, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_train(args) -> int:
    if args.val_labels and not args.val:
        raise ValueError("--val-labels needs --val")
    data = load_dataset(args.data, args.labels)
    costs = _load_costs(args.costs, data.k)
    val = None
    if args.val:
        # read before training, with the training set's label order, so a
        # bad file fails before a model is written
        val = load_dataset(args.val, args.val_labels or args.labels, data.label_names)
        if val.features.shape[1] != data.features.shape[1]:
            raise ValueError(f"{args.val}: {val.features.shape[1]} features, "
                             f"training data has {data.features.shape[1]}")
    cfg = TrainConfig(rounds=args.rounds, tree_depth=args.depth, n_tau=args.ntau,
                      epsilon=args.epsilon, fit_a0=not args.no_a0,
                      early_stop_on_certificate=not args.no_early_stop)
    model, trace = train(data, costs, cfg)
    save_model(model, args.out)
    if args.trace:
        write_trace(trace, args.trace)
    final = trace.rounds[-1] if trace.rounds else None
    print(f"trained {len(model.rounds)} rounds (stop: {trace.stopped})")
    print(f"loss floor {trace.floor!r} certificate {trace.certificate!r}")
    if final is not None:
        print(f"final loss {final.loss!r} train error {final.train_error!r} "
              f"train risk {final.train_risk!r}")
    if val is not None:
        best = select_rounds(model, val, costs)
        print(f"best validation round count: {best}")
    return 0


def cmd_predict(args) -> int:
    if args.labels and args.labels.startswith("file:"):
        raise ValueError("predict's --labels names a label column to drop (col:IDX), "
                         f"not a label file: {args.labels!r}")
    model = load_model(args.model)
    if args.labels:
        features = load_dataset(args.data, args.labels).features
    else:
        features = load_features(args.data)
    scores = model.scores(features)
    preds = np.argmax(scores, axis=1) + 1
    # one format call over the (N, K + 1) cells: `%d` of an int is its str and
    # `%r` of a float its repr, which is most of the time left here
    cells = np.concatenate((preds[:, None], scores), axis=1, dtype=object)
    text = ("pred," + ",".join(f"score_{i}" for i in range(1, model.k + 1)) + "\n"
            + ("%d" + ",%r" * model.k + "\n") * len(cells) % tuple(cells.ravel().tolist()))
    _write_out(text, args.out)
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    data = load_dataset(args.data, args.labels)
    costs = _load_costs(args.costs, data.k)
    _write_out(report_text(model, data, costs) + "\n", args.out)
    return 0


def cmd_synth(args) -> int:
    # the flags given, passed on alone, so `random_mixture_spec` keeps the defaults
    drawn = {"k": args.k, "clusters_per_class": args.clusters, "d": args.d,
             "train_total": args.train_total, "test_total": args.test_total, "seed": args.seed}
    drawn = {key: value for key, value in drawn.items() if value is not None}
    if args.cost_seed is not None and not args.out_costs:
        raise ValueError("--cost-seed needs --out-costs")
    spec = random_mixture_spec(**drawn)
    train_data, test_data = gen_dataset(spec)
    # every draw before the first write, so a refused draw leaves no file
    if args.out_costs:
        costs = gen_cost_matrix(spec.k, args.cost_seed or 0, labels=train_data.labels)
    save_dataset(train_data, args.out_train)
    save_dataset(test_data, args.out_test)
    print(f"wrote {train_data.labels.shape[0]} train / {test_data.labels.shape[0]} test "
          f"samples, k={spec.k}")
    if args.out_costs:
        save_cost_matrix(costs, args.out_costs)
        print(f"wrote normalized cost matrix to {args.out_costs}")
    return 0


def cmd_compare(args) -> int:
    rows = run_comparison(n_datasets=args.datasets, n_matrices=args.matrices,
                          rounds=args.rounds, depth=args.depth, seed=args.seed,
                          fit_a0=not args.no_a0, workers=args.workers)
    write_comparison_csv(rows, args.out)
    tag = "a0 off" if args.no_a0 else "a0 on"
    print(f"[{tag}] {len(rows)} trials, rebel win fraction {win_fraction(rows):.3f} -> {args.out}")
    return 0


def cmd_oracle_check(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if not 0 <= args.debug_epsilon_scale < np.inf:
        raise ValueError("--debug-epsilon-scale must be finite and >= 0")
    check_features_shape((args.n, args.d))  # each trial's (n, d) features
    seeds = np.random.default_rng(check_seed(args.seed)).integers(1, 2 ** 31, size=args.trials)
    trial = functools.partial(run_reduction_trial, n=args.n, d=args.d, rounds=args.rounds,
                              n_tau=args.ntau, epsilon_scale=args.debug_epsilon_scale)
    results = pool_map(trial, [int(s) for s in seeds], args.workers)

    failures = 0
    for r in results:
        ok = (r["stump_mismatches"] == 0 and r["coeff_gap"] <= ORACLE_TOL
              and r["symmetry_gap"] <= ORACLE_TOL)
        status = "ok" if ok else "FAIL"
        print(f"seed {r['seed']}: {status} rounds={r['rounds_compared']} "
              f"stump_mismatches={r['stump_mismatches']} coeff_gap={r['coeff_gap']:.3e} "
              f"symmetry_gap={r['symmetry_gap']:.3e}")
        failures += 0 if ok else 1
    # the settings every trial shares, which its line does not show
    shared = (f"n={args.n} d={args.d} rounds={args.rounds} ntau={args.ntau} "
              f"epsilon_scale={args.debug_epsilon_scale!r}")
    if failures:
        print(f"oracle check FAILED on {failures}/{len(results)} trials "
              f"(tolerance {ORACLE_TOL:g}; {shared})", file=sys.stderr)
        return 1
    print(f"oracle check passed on {len(results)} trials ({shared})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rebel",
        description="Cost-sensitive multi-class boosting with binary weak learners.")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--data", required=True, help="training CSV")
    t.add_argument("--labels", required=True,
                   help="label spec: col:IDX (0-based, negatives from the end) or file:PATH")
    t.add_argument("--costs", help="cost matrix CSV (default: 0-1 costs)")
    t.add_argument("--rounds", type=int, required=True)
    t.add_argument("--depth", type=int, default=1, help="weak-learner tree depth")
    t.add_argument("--ntau", type=int, default=200, help="thresholds per feature")
    t.add_argument("--epsilon", type=float, help="smoothing (default 1/(2NK))")
    t.add_argument("--no-a0", action="store_true", help="skip the constant-offset fit")
    t.add_argument("--no-early-stop", action="store_true",
                   help="ignore the zero-risk certificate while training")
    t.add_argument("--out", required=True, help="model output path")
    t.add_argument("--trace", help="per-round trace CSV path")
    t.add_argument("--val", help="validation CSV for round selection")
    t.add_argument("--val-labels", help="label spec for --val (default: same as --labels)")
    t.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a feature CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labels", help="label spec if the CSV carries a label column to drop")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=cmd_predict)

    e = sub.add_parser("eval", help="evaluate a model on labeled data")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--labels", required=True)
    e.add_argument("--costs", help="cost matrix CSV (default: 0-1 costs)")
    e.add_argument("--out", help="report path (default stdout)")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("synth", help="generate a synthetic problem")
    # these draw a random mixture; unset, they take its defaults
    s.add_argument("--k", type=int)
    s.add_argument("--clusters", type=int)
    s.add_argument("--d", type=int, help="feature dimension")
    s.add_argument("--train-total", type=int)
    s.add_argument("--test-total", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--cost-seed", type=int, help="seed of the --out-costs matrix (default 0)")
    s.add_argument("--out-train", required=True)
    s.add_argument("--out-test", required=True)
    s.add_argument("--out-costs", help="also write a normalized random cost matrix")
    s.set_defaults(func=cmd_synth)

    f = sub.add_parser("compare", parents=[shared],
                       help="random-cost comparison harness (trained vs two-step)")
    f.add_argument("--datasets", type=int, default=10)
    f.add_argument("--matrices", type=int, default=20)
    f.add_argument("--rounds", type=int, default=100)
    f.add_argument("--depth", type=int, default=1)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--no-a0", action="store_true", help="skip the constant-offset fit")
    f.add_argument("--out", required=True, help="trial CSV path")
    f.set_defaults(func=cmd_compare)

    o = sub.add_parser("oracle-check", parents=[shared],
                       help="verify the binary reduction against discrete AdaBoost")
    o.add_argument("--trials", type=int, default=20)
    o.add_argument("--rounds", type=int, default=50)
    o.add_argument("--n", type=int, default=200)
    o.add_argument("--d", type=int, default=5)
    o.add_argument("--ntau", type=int, default=200)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--debug-epsilon-scale", type=float, default=1.0,
                   help="mis-scale the AdaBoost smoothing (diagnostic; 1.0 = matched)")
    o.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

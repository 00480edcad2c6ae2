"""Span tracing of the rebel modules, installed from outside the package.

Only the traced run uses this.  `Tracer.install` rebinds each target function
to a span-recording wrapper in every rebel module that holds a reference to
it (so `rebel.boost.stump_search` is traced as well as `rebel.weak.stump_search`),
and `Tracer.uninstall` puts every original back.  A target that a later
version of the package no longer has is skipped and listed in `missing`.

A span is (name, start, end, parent); spans and counts stay in memory until
the run ends.  A layer's self time is the time in its spans minus the time in
their direct child spans.
"""
import functools
import sys
import time

import numpy as np

# (defining module, attribute or Class.method, span name); the layer is the
# span name's first part
TARGETS = (
    ("rebel.io", "load_dataset", "io.load_dataset"),
    ("rebel.io", "load_features", "io.load_features"),
    ("rebel.io", "load_model", "io.load_model"),
    ("rebel.io", "save_model", "io.save_model"),
    ("rebel.io", "write_trace", "io.write_trace"),
    ("rebel.weak", "stump_search", "weak.stump_search"),
    ("rebel.weak", "accumulate_split", "weak.accumulate_split"),
    ("rebel.weak", "build_grid", "weak.build_grid"),
    ("rebel.weak", "grow_layer", "weak.grow_layer"),
    ("rebel.weak", "Tree.evaluate", "weak.tree_evaluate"),
    ("rebel.boost", "train", "boost.train"),
    ("rebel.boost", "update_weights", "boost.update_weights"),
    ("rebel.boost", "StrongClassifier.scores", "boost.scores"),
    ("rebel.costs", "dataset_terms", "costs.dataset_terms"),
    ("rebel.costs", "loss_floor", "costs.loss_floor"),
    ("rebel.synth", "run_comparison", "synth.run_comparison"),
    ("rebel.synth", "gen_dataset", "synth.gen_dataset"),
    ("rebel.synth", "gen_cost_matrix", "synth.gen_cost_matrix"),
    ("rebel.baselines", "posterior_all", "baselines.posterior_all"),
    ("rebel.baselines", "two_step_predict_all", "baselines.two_step_predict_all"),
    ("rebel.loss", "empirical_risk", "loss.empirical_risk"),
    ("rebel.evaluation", "select_rounds", "evaluation.select_rounds"),
    ("rebel.cli", "main", "cli.main"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []          # (name index, start, end, parent span index or -1)
        self.counts = {"io.rows_parsed": 0, "boost.rows_scored": 0,
                       "boost.rounds_run": 0, "boost.round_budget": 0}
        self.grown = []          # (tree, features, grown tree) per grow_layer call
        self.missing = []
        self.hook_failures = set()
        self._stack = [-1]
        self._undo = []

    # --- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent)
            if after is not None:
                try:
                    after(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the call's signature or result changed shape; keep the
                    # span, give up on the count
                    self.hook_failures.add(name)
            return result

        return wrapper

    def _after_hooks(self):
        counts = self.counts

        def rows_from_dataset(args, kwargs, result):
            counts["io.rows_parsed"] += int(result.features.shape[0])

        def rows_from_array(args, kwargs, result):
            counts["io.rows_parsed"] += int(result.shape[0])

        def rows_scored(args, kwargs, result):
            counts["boost.rows_scored"] += int(np.shape(result)[0])

        def rounds(args, kwargs, result):
            cfg = args[2] if len(args) > 2 else kwargs["cfg"]
            counts["boost.round_budget"] += int(cfg.rounds)
            counts["boost.rounds_run"] += len(result[1].rounds)

        def grown(args, kwargs, result):
            data = args[2] if len(args) > 2 else kwargs["data"]
            self.grown.append((args[0], data.features, result[0]))

        return {"io.load_dataset": rows_from_dataset, "io.load_features": rows_from_array,
                "boost.scores": rows_scored, "boost.train": rounds, "weak.grow_layer": grown}

    # --- install / uninstall -------------------------------------------------

    def install(self) -> None:
        hooks = self._after_hooks()
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "rebel" or n.startswith("rebel."))]
        for module_name, attr, span in TARGETS:
            home = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = (owner.__dict__.get(method) if isinstance(owner, type)
                        else getattr(owner, method, None))
            if not callable(original):
                self.missing.append(span)
                continue
            wrapper = self._wrap(span, original, hooks.get(span))
            if isinstance(owner, type):
                self._rebind(owner, method, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # --- summary -------------------------------------------------------------

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds the wrappers themselves add per span, measured on a no-op."""
        def noop():
            return None

        probe = Tracer()
        wrapped = probe._wrap("probe", noop)
        clock = time.perf_counter
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)

    def span_table(self) -> dict:
        return {"names": self.names, "spans": [list(s) for s in self.spans]}

    def summary(self) -> dict:
        """Per-layer metrics of this process; trace.overhead_s is left to run.py."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for index, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = {}
        calls = {}
        durations = {}
        layer_self = {}
        for slot, (index, start, end, parent) in enumerate(spans):
            name = self.names[index]
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(end - start)
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + (end - start - child_time[slot])

        def seconds(name):
            return total.get(name, 0.0)

        def quantile(name, q):
            values = sorted(durations.get(name, []))
            if not values:
                return 0.0
            return float(np.percentile(values, q))

        try:
            searched, changed = self._leaf_moves()
        except (AttributeError, IndexError, TypeError):
            self.hook_failures.add("weak.grow_layer")
            searched = changed = 0
        parse_s = seconds("io.load_dataset") + seconds("io.load_features")
        c = self.counts
        return {
            "io.load_dataset_s": seconds("io.load_dataset"),
            "io.load_features_s": seconds("io.load_features"),
            "io.rows_parsed": c["io.rows_parsed"],
            "io.parse_rows_per_s": c["io.rows_parsed"] / parse_s if parse_s > 0 else 0.0,
            "io.load_model_s": seconds("io.load_model"),
            "io.save_model_s": seconds("io.save_model"),
            "io.write_trace_s": seconds("io.write_trace"),
            "weak.stump_search_calls": calls.get("weak.stump_search", 0),
            "weak.stump_search_s": seconds("weak.stump_search"),
            "weak.accumulate_split_s": seconds("weak.accumulate_split"),
            "weak.build_grid_s": seconds("weak.build_grid"),
            "weak.grow_layer_calls": calls.get("weak.grow_layer", 0),
            "weak.grow_layer_s": seconds("weak.grow_layer"),
            "weak.leaves_changed_ratio": changed / searched if searched else 0.0,
            "weak.tree_evaluate_s": seconds("weak.tree_evaluate"),
            "boost.train_calls": calls.get("boost.train", 0),
            "boost.train_s": seconds("boost.train"),
            "boost.train_p50_s": quantile("boost.train", 50),
            "boost.train_p95_s": quantile("boost.train", 95),
            "boost.rounds_run": c["boost.rounds_run"],
            "boost.rounds_used_ratio": (c["boost.rounds_run"] / c["boost.round_budget"]
                                        if c["boost.round_budget"] else 0.0),
            "boost.update_weights_s": seconds("boost.update_weights"),
            "boost.self_s": layer_self.get("boost", 0.0),
            "boost.scores_s": seconds("boost.scores"),
            "boost.rows_scored": c["boost.rows_scored"],
            "costs.dataset_terms_calls": calls.get("costs.dataset_terms", 0),
            "costs.dataset_terms_s": seconds("costs.dataset_terms"),
            "costs.loss_floor_s": seconds("costs.loss_floor"),
            "synth.gen_dataset_s": seconds("synth.gen_dataset"),
            "synth.gen_cost_matrix_s": seconds("synth.gen_cost_matrix"),
            "synth.self_s": layer_self.get("synth", 0.0),
            "baselines.posterior_all_s": seconds("baselines.posterior_all"),
            "baselines.two_step_predict_all_s": seconds("baselines.two_step_predict_all"),
            "loss.empirical_risk_s": seconds("loss.empirical_risk"),
            "evaluation.select_rounds_s": seconds("evaluation.select_rounds"),
            "cli.self_s": layer_self.get("cli", 0.0),
            "trace.spans": len(spans),
            "trace.span_cost_s": len(spans) * self.span_cost(),
        }

    def _leaf_moves(self) -> tuple:
        """(leaves searched, leaves moved off their parent's stump) over grow_layer calls.

        A leaf slot is searched when some sample reaches it; it moved when
        the grown tree's stump there differs from the parent stump it
        started from.
        """
        searched = changed = 0
        for tree, features, grown in self.grown:
            _, slots = tree.route(features)
            first_parent = 2 ** (tree.depth - 1) - 1
            leaves = grown.nodes[len(tree.nodes):]
            for slot in np.unique(slots):
                searched += 1
                changed += leaves[slot] != tree.nodes[first_parent + slot // 2]
        return searched, int(changed)

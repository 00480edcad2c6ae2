"""CSV dataset loading and the plain-text model format."""
import dataclasses
import hashlib
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_model, random_problem
from reference_impl import cell_by_cell_dataset, cell_by_cell_parse
from rebel.baselines import adaboost_train, random_binary_dataset
from rebel.boost import StrongClassifier, TrainConfig, train
from rebel.io import (Dataset, ModelParseError, load_cost_matrix, load_dataset, load_features,
                      load_model, model_from_text, model_to_text, save_dataset,
                      save_model, write_trace)
from rebel.weak import Stump, Tree

DATA_DIR = Path(__file__).parent / "data"


class TestLoadDataset:
    def test_labels_map_by_sorted_token_order(self, tmp_path):
        """Tokens sort as strings: "10" lands between "1" and "2"."""
        path = tmp_path / "d.csv"
        path.write_text("0.5,1\n1.5,10\n2.5,2\n")
        data = load_dataset(path, "col:1")
        assert data.label_names == ["1", "10", "2"]
        np.testing.assert_array_equal(data.labels, [1, 2, 3])
        np.testing.assert_array_equal(data.features, [[0.5], [1.5], [2.5]])

    def test_negative_column_index(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,a\n3.0,4.0,b\n")
        data = load_dataset(path, "col:-1")
        assert data.label_names == ["a", "b"]
        np.testing.assert_array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_bare_integer_spec(self, tmp_path):
        """A label spec is `col:IDX` or `file:PATH`; a bare integer is refused."""
        path = tmp_path / "d.csv"
        path.write_text("a,1.0\nb,2.0\n")
        for spec in ("0", "-1"):
            with pytest.raises(ValueError, match=f"bad label spec '{spec}'; use col:IDX or file:PATH"):
                load_dataset(path, spec)

    def test_label_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        lab = tmp_path / "y.txt"
        lab.write_text("red\nblue\n")
        data = load_dataset(path, f"file:{lab}")
        assert data.label_names == ["blue", "red"]
        np.testing.assert_array_equal(data.labels, [2, 1])
        assert data.features.shape == (2, 2)

    def test_label_file_length_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0\n2.0\n")
        lab = tmp_path / "y.txt"
        lab.write_text("a\n")
        with pytest.raises(ValueError, match="1 labels for 2 data rows"):
            load_dataset(path, f"file:{lab}")

    def test_bad_label_spec(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,a\n")
        for spec in ("col:last", "col0", "COL:0", "0:col", "file"):
            with pytest.raises(ValueError, match=f"bad label spec '{spec}'"):
                load_dataset(path, spec)

    def test_label_column_out_of_range(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,a\n")
        with pytest.raises(ValueError, match="out of range"):
            load_dataset(path, "col:2")

    def test_no_feature_columns_left(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a\nb\n")
        with pytest.raises(ValueError, match="no feature columns"):
            load_dataset(path, "col:0")

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\n1.0,a\n\n2.0,b\n\n\n")
        data = load_dataset(path, "col:1")
        assert data.features.shape == (2, 1)

    def test_ragged_rows_name_the_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="line 2: expected 2 cells, got 1"):
            load_dataset(path, "col:-1")

    def test_bad_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,a\n3.0,oops,b\n")
        with pytest.raises(ValueError, match="line 2, column 1"):
            load_dataset(path, "col:-1")

    def test_huge_magnitudes(self, tmp_path):
        """1e308 is still a finite double; 1e309 overflows to inf and is rejected."""
        ok = tmp_path / "ok.csv"
        ok.write_text("1e308,a\n0.0,b\n")
        assert load_dataset(ok, "col:-1").features[0, 0] == 1e308
        bad = tmp_path / "bad.csv"
        bad.write_text("1e309,a\n0.0,b\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_dataset(bad, "col:-1")

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        data = Dataset(rng.normal(size=(25, 3)),
                       rng.integers(1, 4, size=25), 3)
        path = tmp_path / "d.csv"
        save_dataset(data, path)
        back = load_dataset(path, "col:-1")
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.labels, data.labels)


@pytest.mark.parametrize("features, labels, k, match", [
    ([1.0, 2.0], [1, 2], 2, r"features must be a non-empty \(N, d\) array"),
    (np.zeros((0, 2)), [], 2, r"features must be a non-empty \(N, d\) array"),
    ([[1.0], [2.0]], [1, 2, 1], 2, "labels must be 1-D and aligned with features"),
    ([[1.0], [2.0]], [[1], [2]], 2, "labels must be 1-D and aligned with features"),
    ([[1.0], [np.nan]], [1, 2], 2, "features contain non-finite values"),
    ([[1.0], [2.0]], [0, 1], 2, r"labels must lie in 1\.\.2"),
    ([[1.0], [2.0]], [1, 3], 2, r"labels must lie in 1\.\.2"),
    ([[1.0], [2.0]], [0, 2], None, r"labels must lie in 1\.\.2"),
    (np.zeros((2, 0)), [1, 2], 2, r"features must be a non-empty \(N, d\) array"),
])
def test_from_arrays_refuses_bad_arrays(features, labels, k, match):
    with pytest.raises(ValueError, match=match):
        Dataset(np.asarray(features), np.asarray(labels, dtype=np.int64), k)


def test_from_arrays_takes_k_from_the_largest_label():
    data = Dataset([[1.0], [2.0], [3.0]], [3, 1, 3])
    assert data.k == 3
    np.testing.assert_array_equal(data.labels, [3, 1, 3])
    assert Dataset([[1.0]], [1], k=4).k == 4


def test_dataset_refuses_label_names_of_another_count():
    with pytest.raises(ValueError, match="label_names must hold 3 names, got 2"):
        Dataset([[1.0], [2.0]], [1, 3], label_names=["a", "b"])
    assert Dataset([[1.0], [2.0]], [1, 2], label_names=["a", "b"]).label_names == ["a", "b"]


def test_dataset_is_a_value_holding_float64_features_uncopied():
    """A float64 feature array is kept as given, so building a dataset adds
    no copy of a large matrix; other inputs are converted."""
    features = np.arange(6.0).reshape(3, 2)
    data = Dataset(features, [1, 2, 1])
    assert data.features is features
    assert data.labels.dtype == np.int64
    assert Dataset([[1, 2]], [1]).features.dtype == np.float64
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.k = 3


def test_load_features_rejects_tokens(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1.0,2.0\n3.0,x\n")
    with pytest.raises(ValueError, match="line 2, column 1"):
        load_features(path)


def test_load_features_plain(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1.0,-2.5\n0.25,3.0\n")
    np.testing.assert_array_equal(load_features(path), [[1.0, -2.5], [0.25, 3.0]])


# cell tokens both readers must treat exactly as float() does: numbers
# NumPy's reader also takes (plain, padded, sign and exponent forms), then
# underscores and non-ASCII digits, then non-finite spellings, overflow and
# non-numbers
_PLAIN_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["+1.5", "-2e3", "+1E-3", ".5", "5.", "-0", "-0.0", "1e308"]),
)
_NUMBERS = st.one_of(_PLAIN_NUMBERS, st.sampled_from(["1_0", "1_000.5", "\u0661\u0662"]))
_ANY = st.one_of(
    _NUMBERS,
    st.sampled_from(["1e309", "-1e309", "nan", "NaN", "-inf", "Infinity", "", "abc", "1.2.3",
                     "0x10", "1__0", "_1", "1e", "- 1"]),
)
_LABELS = st.sampled_from(["a", "b", "1", "10", "2", "-0", "x y", "nan", ""])
# padding of a cell, or the whole of a whitespace-only line: first what both
# readers strip alike, then control and non-ASCII characters that `float()`,
# `str.strip` and NumPy's reader do not all treat alike
_PLAIN_PADS = st.sampled_from(["", " ", "\t", "  "])
_ANY_PADS = st.one_of(_PLAIN_PADS, st.sampled_from(
    ["\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028",
     "\u3000"]))


@st.composite
def _csv_text(draw, width, label_col=None):
    """Rows of `width` padded cells, the cells at `label_col` label-like.

    Half the files are clean: 1-6 rows of numbers NumPy's reader takes, with
    plain padding and empty lines between rows.  The others draw, per file,
    from everything the readers must agree on: any tokens and padding, 0
    rows, whitespace-only lines, a BOM, a trailing comma on every row, or
    one later row a cell short or long.  Line endings are LF, CRLF or lone
    CR.
    """
    clean = draw(st.booleans())

    def pick(plain, *others):
        return plain if clean else draw(st.sampled_from([plain, *others]))

    tokens = pick(_PLAIN_NUMBERS, _NUMBERS, _ANY)
    pads = pick(_PLAIN_PADS, _ANY_PADS)
    blank = st.just("") if clean else st.tuples(pads, pads).map("".join)
    cell = st.tuples(pads, tokens, pads).map("".join)
    label = st.tuples(pads, _LABELS, pads).map("".join)
    n = draw(st.integers(1 if clean else 0, 6))
    trailing = pick("", ",")
    ragged = None if clean or n < 2 or not draw(st.booleans()) else draw(st.integers(1, n - 1))
    lines = []
    for r in range(n):
        lines += [draw(blank) for _ in range(draw(st.integers(0, 1)))]
        cells = [draw(label if c == label_col else cell) for c in range(width)]
        if r == ragged:
            cells = cells[:-1] if draw(st.booleans()) else cells + [draw(cell)]
        lines.append(",".join(cells) + trailing)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return pick("", "\ufeff") + ending.join(lines) + ending * draw(st.integers(0, 2))


@st.composite
def _labelled_csv(draw):
    """A `_csv_text` with its label column, as a Python index (may be negative)."""
    width = draw(st.integers(2, 4))
    label_col = draw(st.integers(-width, width - 1))
    return draw(_csv_text(width, label_col % width)), label_col


def _outcome(parse):
    """The parsed arrays' shapes and bytes (and any other results), or the error message."""
    try:
        result = parse()
    except ValueError as exc:
        return "error", str(exc)
    return [(r.shape, r.tobytes()) if isinstance(r, np.ndarray) else r
            for r in (result if isinstance(result, tuple) else (result,))]


def _outcomes(text, *parsers):
    """Each parser's `_outcome` on one file holding `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        return [_outcome(lambda: parse(path)) for parse in parsers]


class TestBulkParse:
    """Both readers against a cell-by-cell reference: byte-equal arrays, equal
    labels and label names, or the same first-bad-cell message.

    The examples are the inputs on which NumPy's reader and `float()` were
    seen to differ; each fails if the guard that covers it is dropped.
    """

    @settings(max_examples=200, deadline=None)
    @given(text=st.integers(1, 4).flatmap(_csv_text))
    # float() rejects the cell, NumPy's reader strips the \x1c: the byte screen
    @example(text="1\x1c,2\n")
    # NumPy's reader rejects the whitespace-only line, which is skipped: the
    # fallback must be a complete parse
    @example(text="1,2\n  \n3,4\n")
    # NumPy's reader only warns on an empty file
    @example(text="")
    # NumPy's reader takes overflow to inf: the finiteness check
    @example(text="1,1e309\n")
    # plain files that `load_features` hands NumPy's reader before any line
    # pass: a short row, a trailing comma and a whitespace-only line, which
    # it rejects, and lone-CR endings, which it splits as the line pass does
    @example(text="1,2\n3\n")
    @example(text="1,2,\n3,4,\n")
    @example(text="1,2\n\t \n3,4\n")
    @example(text="1,2\r3,4\r\r")
    def test_load_features_matches_cell_by_cell(self, text):
        fast, reference = _outcomes(text, load_features, cell_by_cell_parse)
        assert fast == reference

    @settings(max_examples=200, deadline=None)
    @given(case=_labelled_csv())
    # NumPy's reader takes the chosen columns of a short row: the width check
    @example(case=("1.0,2.0\n3.0\n", -1))
    def test_load_dataset_matches_cell_by_cell(self, case):
        text, label_col = case

        def load(path):
            data = load_dataset(path, f"col:{label_col}")
            return data.features, data.labels, data.label_names

        fast, reference = _outcomes(text, load, lambda path: cell_by_cell_dataset(path, label_col))
        assert fast == reference

    def test_only_plain_files_reach_the_c_reader(self, tmp_path, monkeypatch):
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(a) or loadtxt(*a, **kw))
        plain = tmp_path / "plain.csv"
        plain.write_text(" 1.5,-2\t\r\n3,4e1\n")
        np.testing.assert_array_equal(load_features(plain), [[1.5, -2.0], [3.0, 40.0]])
        assert len(calls) == 1
        padded = tmp_path / "padded.csv"
        padded.write_text("1.5,\xa0-2\n3,4e1\n", encoding="utf-8")
        np.testing.assert_array_equal(load_features(padded), [[1.5, -2.0], [3.0, 40.0]])
        assert len(calls) == 1
        # a cost file and its non-ASCII twin: the same two readers, the same bytes
        costs = tmp_path / "costs.csv"
        costs.write_text("0, 2.5\t\r\n4e1,0\n")
        costs_padded = tmp_path / "costs_padded.csv"
        costs_padded.write_text("0,\u3000 2.5\r\n4e1\xa0,0\n", encoding="utf-8")
        entries = load_cost_matrix(costs).entries
        np.testing.assert_array_equal(entries, [[0.0, 2.5], [40.0, 0.0]])
        assert len(calls) == 2
        assert load_cost_matrix(costs_padded).entries.tobytes() == entries.tobytes()
        assert len(calls) == 2


def _line_starts(text):
    """Byte offsets where a line of `text` starts; an unterminated last line
    counts as closed, so the offset just past it counts too."""
    data = text.encode("utf-8") + b"\n"
    return {0} | {i + 1 for i, byte in enumerate(data) if byte == ord("\n")}


@st.composite
def _edited_model_texts(draw):
    """A model's text with one to three edits: a line replaced by a keyed line
    with odd fields, dropped, repeated, or the text cut short.  The config
    line may hold non-ASCII text, so byte and character offsets differ."""
    model = random_model(draw(st.integers(0, 10 ** 6)), k=draw(st.integers(2, 4)), d=3,
                         depth=draw(st.integers(1, 2)), rounds=draw(st.integers(0, 3)))
    model = dataclasses.replace(model, fingerprint=draw(
        st.text(st.characters(codec="utf-8", exclude_characters="\n"), max_size=6)))
    lines = model_to_text(model).split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["replace", "drop", "repeat", "cut"]))
        if edit == "replace":
            key = draw(st.sampled_from(["k", "d", "config", "a0", "rounds", "tree", "node", "a",
                                        "end", ""]))
            fields = draw(st.lists(st.sampled_from(["-1", "0", "1", "2", "3", "0.5", "nan",
                                                    "x", "\xe9"]), max_size=4))
            lines[i] = " ".join([key] + fields)
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        else:
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
            del lines[i + 1:]
        if not lines:
            lines = [""]
    return "\n".join(lines)


@st.composite
def _models_and_rows(draw):
    """A model with rows to score: either random, with K 2-9 and 0-5 rounds
    of trees of depth 1-4 whose values include signed zeros, the least
    subnormal and the largest finite floats, or trained by `adaboost_train`
    for 0-5 rounds."""
    floats = (st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
              | st.floats(allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        data = random_binary_dataset(draw(st.integers(0, 1000)), n=40, d=3)
        model = adaboost_train(data, rounds=draw(st.integers(0, 5)), n_tau=20)
    else:
        k, d = draw(st.integers(2, 9)), draw(st.integers(1, 4))

        def vector():
            return np.array(draw(st.lists(floats, min_size=k, max_size=k)))

        rounds = []
        for _ in range(draw(st.integers(0, 5))):
            depth = draw(st.integers(1, 4))
            nodes = [Stump(feature=draw(st.integers(0, d - 1)), threshold=draw(floats),
                           polarity=draw(st.sampled_from([1, -1])))
                     for _ in range(2 ** depth - 1)]
            rounds.append((Tree(depth=depth, nodes=nodes), vector()))
        model = StrongClassifier(k=k, d=d, a0=vector(), rounds=rounds, fingerprint=draw(
            st.text(st.characters(codec="utf-8", exclude_characters="\n"), max_size=6)))
    rows = draw(arrays(np.float64, (draw(st.integers(1, 8)), model.d), elements=floats))
    return model, rows


class TestModelFormat:
    @settings(max_examples=200, deadline=None)
    @given(case=_models_and_rows())
    def test_round_trip_is_byte_and_bit_exact(self, case):
        model, rows = case
        text = model_to_text(model)
        back = model_from_text(text)
        assert model_to_text(back) == text
        with np.errstate(over="ignore", invalid="ignore"):
            assert back.scores(rows).tobytes() == model.scores(rows).tobytes()

    def test_text_round_trip_is_byte_identical(self):
        for seed, depth in [(1, 1), (2, 2), (3, 3)]:
            model = random_model(seed, k=3 + seed % 2, d=5, depth=depth, rounds=4)
            text = model_to_text(model)
            assert model_to_text(model_from_text(text)) == text

    def test_file_round_trip_prediction_parity(self, tmp_path):
        data, costs = random_problem(21, n=60, d=3, k=3)
        model, _ = train(data, costs, TrainConfig(rounds=8))
        path = tmp_path / "m.txt"
        save_model(model, path)
        back = load_model(path)
        assert back.fingerprint == model.fingerprint
        probe = np.random.default_rng(5).normal(size=(40, 3))
        np.testing.assert_array_equal(back.scores(probe), model.scores(probe))

    def test_golden_model(self):
        """The committed model file parses, re-serializes byte for byte, and
        reproduces frozen scores exactly."""
        text = (DATA_DIR / "golden_model.txt").read_text()
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "9dbf2d817e0b80d04a25273ba94380ac481ac73cdcc5e4fcec65faee84a64fbc"
        model = model_from_text(text)
        assert (model.k, model.d, len(model.rounds)) == (4, 6, 12)
        assert model_to_text(model) == text
        probe = np.array([[0.5, -1.25, 2.0, 0.0, -0.75, 1.5],
                          [-2.0, 3.0, -0.5, 1.0, 0.25, -1.0]])
        frozen = np.array([
            [-0.3636666818687703, 4.384124013710435,
             2.151100521729843, -5.190271462185771],
            [2.753065160368806, 3.3704134968174286,
             0.846365230474402, 5.106657842750565]])
        np.testing.assert_array_equal(model.scores(probe), frozen)

    def test_truncation_reports_byte_offset(self):
        text = model_to_text(random_model(7, rounds=1))
        lines = text.split("\n")
        with pytest.raises(ModelParseError, match="unexpected end") as exc:
            model_from_text("\n".join(lines[:3]))
        assert exc.value.byte_offset == sum(len(l) + 1 for l in lines[:3])

    def test_corrupt_polarity_reports_byte_offset(self):
        text = model_to_text(random_model(7, rounds=1))
        lines = text.split("\n")
        idx = next(i for i, l in enumerate(lines) if l.startswith("node "))
        lines[idx] = " ".join(lines[idx].split()[:3] + ["5"])
        with pytest.raises(ModelParseError, match="polarity") as exc:
            model_from_text("\n".join(lines))
        assert exc.value.byte_offset == sum(len(l) + 1 for l in lines[:idx])

    @pytest.mark.parametrize("key, value, match", [
        ("k", "1", "bad dimensions k=1"),
        ("d", "0", "bad dimensions k=3 d=0"),
        ("rounds", "-1", "negative round count"),
        ("tree", "0", "bad tree depth"),
        ("tree", "4000000000", "bad tree depth 4000000000"),
        ("a0", "1.0 x 2.0", "a0: bad float"),
        ("a", "nan 1.0 2.0", "a: non-finite value"),
        ("node", "x 0.5 1", "bad node fields in 'node x 0.5 1'"),
        ("node", "4 0.5 1", "node feature 4 out of range"),
        ("end", "x", "expected end, got 'end x'"),
    ])
    def test_range_errors_report_their_line(self, key, value, match):
        """A value out of range, a field that is not a finite number and a
        line that is not `end` are refused at their line's start."""
        lines = model_to_text(random_model(7, rounds=2)).split("\n")
        idx = next(i for i, line in enumerate(lines) if line.split()[0] == key)
        lines[idx] = f"{key} {value}"
        with pytest.raises(ModelParseError, match=match) as exc:
            model_from_text("\n".join(lines))
        assert exc.value.byte_offset == sum(len(line) + 1 for line in lines[:idx])

    @pytest.mark.parametrize("feature, threshold, polarity, message", [
        (0, 0.0, 0, "node polarity must be +-1, got 0"),
        (0, 0.0, 2, "node polarity must be +-1, got 2"),
        (-1, 0.0, 1, "node feature -1 out of range"),
        (0, math.nan, 1, "non-finite node threshold"),
        (0, math.inf, 1, "non-finite node threshold"),
        (0, -math.inf, 1, "non-finite node threshold"),
    ])
    def test_a_broken_node_is_refused_when_built_and_when_read(self, feature, threshold,
                                                              polarity, message):
        """The node rules are `Stump`'s: a broken node is refused when built,
        and in a model text at its line's start, with the same message.  Each
        once built a model that `model_to_text` wrote and the reader refused;
        polarity 0 also scored differently in `scores` and `staged_scores`."""
        with pytest.raises(ValueError, match=re.escape(message)):
            Stump(feature, threshold, polarity)
        lines = model_to_text(random_model(7, rounds=2)).split("\n")
        idx = next(i for i, line in enumerate(lines) if line.startswith("node "))
        lines[idx] = f"node {feature} {threshold!r} {polarity}"
        with pytest.raises(ModelParseError, match=re.escape(message)) as exc:
            model_from_text("\n".join(lines))
        assert exc.value.byte_offset == sum(len(line) + 1 for line in lines[:idx])

    def test_tree_depth_is_checked_against_the_lines_left(self):
        """A tree whose node lines cannot fit in the rest of the text has a bad
        depth, named at its own line; one whose nodes fit fails further on."""
        lines = model_to_text(random_model(7, depth=2, rounds=1)).split("\n")
        idx = next(i for i, line in enumerate(lines) if line.startswith("tree "))
        cut = lines[:idx + 4]  # the tree line and its three node lines, no a line
        with pytest.raises(ModelParseError, match="unexpected end of file, wanted a"):
            model_from_text("\n".join(cut))
        cut[idx] = "tree 3"
        with pytest.raises(ModelParseError, match="bad tree depth 3") as exc:
            model_from_text("\n".join(cut))
        assert exc.value.byte_offset == sum(len(line) + 1 for line in cut[:idx])

    def test_offsets_count_bytes_not_characters(self):
        """The config line's two-byte character moves the next line's offset by
        two: 32 bytes, where a count of characters gives 31."""
        text = "rebel-model 1\nk 2\nd 1\nconfig \xe9\na0 1.0\n"
        with pytest.raises(ModelParseError, match="a0: expected 2 values, got 1") as exc:
            model_from_text(text)
        assert exc.value.byte_offset == 32

    @pytest.mark.parametrize("line", ["configXabc", "config\tabc", "configuration"])
    def test_config_key_needs_a_space_or_the_line_end(self, line):
        """Only `config` and a space, or a bare `config`, open the config line;
        a fingerprint read past another character would not round-trip."""
        text = "rebel-model 1\nk 2\nd 1\nconfig abc\na0 1.0 2.0\nrounds 0\nend\n"
        assert model_from_text(text).fingerprint == "abc"
        assert model_from_text(text.replace("config abc", "config")).fingerprint == ""
        with pytest.raises(ModelParseError, match="expected config line") as exc:
            model_from_text(text.replace("config abc", line))
        assert exc.value.byte_offset == len("rebel-model 1\nk 2\nd 1\n")

    def test_bad_dimensions_name_the_k_line_first(self):
        text = model_to_text(random_model(7, rounds=0))
        with pytest.raises(ModelParseError, match="bad dimensions") as exc:
            model_from_text(text.replace("\nk 3\nd 4\n", "\nk 0\nd 0\n", 1))
        assert exc.value.byte_offset == len("rebel-model 1\n")

    @settings(max_examples=300, deadline=None)
    @given(text=_edited_model_texts() | st.text(max_size=40))
    def test_rejections_point_at_a_line_start(self, text):
        """Every rejection names the byte offset of a line's start, and a
        message that quotes a line quotes the one at that offset."""
        try:
            model_from_text(text)
        except ModelParseError as exc:
            assert exc.byte_offset in _line_starts(text)
            quoted = text.encode("utf-8")[exc.byte_offset:].split(b"\n", 1)[0].decode("utf-8")
            if "got '" in str(exc) or "in '" in str(exc) or "content '" in str(exc):
                assert repr(quoted) in str(exc)

    @settings(max_examples=300, deadline=None)
    @given(text=_edited_model_texts())
    def test_accepted_texts_have_a_canonical_form(self, text):
        """A text the reader accepts need not re-serialize to itself (`a0 1e0 2`,
        a doubled space, a bare `config` or trailing blank lines do not), but
        its canonical text, the model's own, loads back to those bytes and to
        bit-equal scores."""
        try:
            model = model_from_text(text)
        except ModelParseError:
            return
        canonical = model_to_text(model)
        back = model_from_text(canonical)
        assert model_to_text(back) == canonical
        rows = np.random.default_rng(0).normal(size=(6, model.d))
        assert back.scores(rows).tobytes() == model.scores(rows).tobytes()

    def test_version_mismatch(self):
        text = model_to_text(random_model(7, rounds=1))
        with pytest.raises(ModelParseError, match="unsupported model version"):
            model_from_text(text.replace("rebel-model 1", "rebel-model 2", 1))

    def test_wrong_magic(self):
        with pytest.raises(ModelParseError, match="not a model file"):
            model_from_text("something-else 1\n")

    def test_trailing_content_rejected(self):
        text = model_to_text(random_model(7, rounds=1))
        with pytest.raises(ModelParseError, match="trailing content"):
            model_from_text(text + "extra\n")
        # extra blank lines are fine
        model_from_text(text + "\n\n")

    def test_wrong_vector_width(self):
        text = model_to_text(random_model(7, k=3, rounds=0))
        lines = text.split("\n")
        idx = next(i for i, l in enumerate(lines) if l.startswith("a0 "))
        lines[idx] = "a0 1.0 2.0"
        with pytest.raises(ModelParseError, match="expected 3 values, got 2"):
            model_from_text("\n".join(lines))

    def test_non_finite_threshold_rejected(self):
        text = model_to_text(random_model(7, rounds=1))
        lines = text.split("\n")
        idx = next(i for i, l in enumerate(lines) if l.startswith("node "))
        parts = lines[idx].split()
        parts[2] = "inf"
        lines[idx] = " ".join(parts)
        with pytest.raises(ModelParseError, match="non-finite"):
            model_from_text("\n".join(lines))

    def test_feature_out_of_range_rejected(self):
        text = model_to_text(random_model(7, d=4, rounds=1))
        lines = text.split("\n")
        idx = next(i for i, l in enumerate(lines) if l.startswith("node "))
        parts = lines[idx].split()
        parts[1] = "4"
        lines[idx] = " ".join(parts)
        with pytest.raises(ModelParseError, match="out of range"):
            model_from_text("\n".join(lines))


def test_write_trace_csv(tmp_path):
    data, costs = random_problem(12, n=50, d=2, k=3)
    _, trace = train(data, costs, TrainConfig(rounds=4))
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ("round,loss,loss_excess,gamma,phi,train_error,train_risk,phase,"
                        "smoothed_risk,learner")
    assert len(lines) == 1 + len(trace.rounds)
    first = lines[1].split(",")
    assert float(first[1]) == trace.rounds[0].loss

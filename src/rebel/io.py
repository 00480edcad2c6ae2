"""Every text input and output: CSV datasets, cost matrices and the versioned model format.

Model files serialize floats with repr (shortest round-trip form), so
save -> load -> save reproduces the original file byte for byte.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .boost import StrongClassifier
from .costs import CostMatrix
from .weak import Stump, Tree, check_features_shape

MODEL_MAGIC = "rebel-model"
MODEL_VERSION = 1


class ModelParseError(ValueError):
    def __init__(self, message: str, byte_offset: int):
        self.byte_offset = byte_offset
        super().__init__(f"{message} (byte offset {byte_offset})")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix with 1-based integer labels; label_names records the raw-token mapping.

    Built from any (N, d) features and N labels, checked: the features are
    kept as float64 (a float64 array as given, not copied), the labels as
    int64, and `k` defaults to the largest label.  `label_names`, if given,
    holds one name per class.  `==` is identity.
    """

    features: np.ndarray
    labels: np.ndarray
    k: int | None = None
    label_names: list[str] | None = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        check_features_shape(features.shape)
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be 1-D and aligned with features")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite values")
        k = int(labels.max()) if self.k is None else self.k
        if labels.min() < 1 or labels.max() > k:
            raise ValueError(f"labels must lie in 1..{k}")
        if self.label_names is not None and len(self.label_names) != k:
            raise ValueError(f"label_names must hold {k} names, got {len(self.label_names)}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "k", k)


# The bytes of a file NumPy's C reader is given.  On them it strips a cell of
# the same whitespace as `float()` and converts it with the same
# `PyOS_string_to_double`.  It also strips `\x1c` to `\x1f`, which `float()`
# rejects, and it reads non-ASCII digits and whitespace unlike `float()`.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n\r"


def _is_plain(path) -> bool:
    """Whether every byte of the file is printable ASCII, tab, LF or CR.

    Reads 1 MiB at a time, so no second copy of the whole file is held.
    """
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            if chunk.translate(None, _PLAIN_BYTES):
                return False
    return True


def nonblank_lines(path) -> list[tuple[int, str]]:
    """The (line number, stripped line) of every nonblank line of a UTF-8 text file.

    Lines are split on LF, CRLF or a lone CR and stripped of Unicode
    whitespace; blank lines, trailing or otherwise, are skipped.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return [(line_no, stripped) for line_no, line in enumerate(fh, 1)
                if (stripped := line.strip())]


def _read_lines(path) -> tuple[list[tuple[int, str]], int]:
    """`nonblank_lines`, and their cell count: every line must hold the first line's."""
    lines = nonblank_lines(path)
    if not lines:
        raise ValueError(f"{path}: no data rows")
    commas = lines[0][1].count(",")
    for line_no, stripped in lines:
        if stripped.count(",") != commas:
            raise ValueError(f"{path}: line {line_no}: expected {commas + 1} cells, "
                             f"got {stripped.count(',') + 1}")
    return lines, commas + 1


def _c_read(path, cols: list[int] | None = None) -> np.ndarray | None:
    """NumPy's C reader (`np.loadtxt`) on a plain file: the float matrix of
    columns `cols` (all if None), or None where the file is not plain or the
    reader refuses it, warns (raised as an error) or reads a non-finite
    value.  Without `cols` it refuses a row of another width than the first.
    """
    if not _is_plain(path):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(path, delimiter=",", dtype=np.float64, comments=None,
                                ndmin=2, usecols=cols, encoding="utf-8")
    except (ValueError, Warning):
        return None  # e.g. `1_0` or a whitespace-only line, which float() takes
    return values if np.isfinite(values).all() else None


def _float_columns(path, lines: list[tuple[int, str]], cols: list[int]) -> np.ndarray:
    """The (N, len(cols)) float matrix of the chosen columns of `_read_lines`
    output, through `float()`: one pass over all chosen cells, one finiteness
    check, and only if either fails, a cell-by-cell scan that reports the
    first bad cell by line and column."""
    tokens = [cells[col] for cells in (stripped.split(",") for _, stripped in lines)
              for col in cols]
    try:
        flat = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        flat = None
    if flat is not None and np.isfinite(flat).all():
        return flat.reshape(len(lines), len(cols))
    for line_no, stripped in lines:
        cells = stripped.split(",")
        for col in cols:
            try:
                val = float(cells[col])
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}, column {col}: "
                                 f"not a number: {cells[col]!r}") from exc
            if not math.isfinite(val):
                raise ValueError(f"{path}: line {line_no}, column {col}: "
                                 f"non-finite value {cells[col]!r}")
    raise AssertionError("bulk parse failed on cells that parse one by one")


def load_dataset(path, labels: str, label_names: list[str] | None = None) -> Dataset:
    """Load a feature CSV plus labels from a column or a side file.

    `labels` is "col:IDX" (0-based, negatives count from the end) or
    "file:PATH" pointing at one label token per line.  Raw label tokens are
    mapped to 1..K by sorted order and the order is kept in label_names.
    Given `label_names` (a training set's, say), tokens are mapped through
    them instead, K is their count, and a token not among them is an error
    naming its file and line.

    Nonblank lines are stripped and must all hold the same number of
    comma-separated cells.  A label token is its stripped line's cell,
    untrimmed.  The features come from `_c_read` if it reads one row per
    nonblank line, else from `_float_columns`.  Both hand a plain cell,
    stripped, to `PyOS_string_to_double`, so the values, the accepted inputs
    and the messages are those of `float()`.  The C reader sees no ragged
    row: `_read_lines` has checked every line's width.
    """
    lines, width = _read_lines(path)

    if labels.startswith("file:"):
        label_path = labels[5:]
        numbered = nonblank_lines(label_path)
        if len(numbered) != len(lines):
            raise ValueError(f"{label_path}: {len(numbered)} labels for {len(lines)} data rows")
        token_source, token_lines = label_path, numbered
        tokens = [token for _, token in numbered]
        feature_cols = list(range(width))
    else:
        try:
            if not labels.startswith("col:"):
                raise ValueError
            idx = int(labels[4:])
        except ValueError as exc:
            raise ValueError(f"bad label spec {labels!r}; use col:IDX or file:PATH") from exc
        if not -width <= idx < width:
            raise ValueError(f"label column {idx} out of range for {width} columns")
        idx %= width
        if idx == width - 1:
            tokens = [stripped.rpartition(",")[2] for _, stripped in lines]
        else:
            tokens = [stripped.split(",", idx + 1)[idx] for _, stripped in lines]
        feature_cols = [c for c in range(width) if c != idx]
        token_source, token_lines = path, lines

    if not feature_cols:
        raise ValueError(f"{path}: no feature columns left")
    features = _c_read(path, feature_cols)
    if features is None or features.shape != (len(lines), len(feature_cols)):
        features = _float_columns(path, lines, feature_cols)

    names = sorted(set(tokens)) if label_names is None else list(label_names)
    index = {name: i + 1 for i, name in enumerate(names)}
    mapped = np.array([index.get(t, 0) for t in tokens], dtype=np.int64)
    if not mapped.all():
        unseen = int(np.argmin(mapped))  # the first 0
        raise ValueError(f"{token_source}: line {token_lines[unseen][0]}: label "
                         f"{tokens[unseen]!r} is not one of the training labels {names}")
    return Dataset(features, mapped, k=len(names), label_names=names)


def load_features(path) -> np.ndarray:
    """Load an all-numeric CSV (no label column) as a feature matrix.

    The same rules, readers and messages as `load_dataset`, but a plain file
    goes to the C reader before any line pass, its widths unchecked: the
    reader refuses a ragged file itself.  Only a file it refuses (an empty
    one too) gets `_read_lines` and `float()`, which name the bad line and
    column.
    """
    values = _c_read(path)
    if values is not None:
        return values
    lines, width = _read_lines(path)
    return _float_columns(path, lines, list(range(width)))


def load_cost_matrix(path) -> CostMatrix:
    """Read a K x K cost matrix from a headerless CSV file.

    The same line and width rules and the same two readers as `load_features`.
    """
    return CostMatrix(load_features(path))


def save_cost_matrix(costs: CostMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in costs.entries:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def save_dataset(data: Dataset, path) -> None:
    """Write features plus a trailing label-token column."""
    names = data.label_names or [str(i) for i in range(1, data.k + 1)]
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in zip(data.features, data.labels):
            cells = [repr(float(v)) for v in x] + [names[y - 1]]
            fh.write(",".join(cells) + "\n")


# --- model format ---------------------------------------------------------


def model_to_text(model: StrongClassifier) -> str:
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION}",
             f"k {model.k}",
             f"d {model.d}",
             f"config {model.fingerprint}",
             "a0 " + " ".join(repr(float(v)) for v in model.a0),
             f"rounds {len(model.rounds)}"]
    for tree, vector in model.rounds:
        lines.append(f"tree {tree.depth}")
        for node in tree.nodes:
            lines.append(f"node {node.feature} {node.threshold!r} {node.polarity}")
        lines.append("a " + " ".join(repr(float(v)) for v in vector))
    lines.append("end")
    return "\n".join(lines) + "\n"


def save_model(model: StrongClassifier, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_text(model))


class _LineReader:
    """A model text's lines, read in order.  An error names the byte offset of
    a line's start, counted only when the error is made."""

    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.at = -1  # index of the line last read

    def error(self, message: str, at: int | None = None) -> ModelParseError:
        """The error at line `at` (default: the line last read)."""
        at = self.at if at is None else at
        return ModelParseError(message, sum(len(l.encode("utf-8")) + 1 for l in self.lines[:at]))

    def next(self, what: str) -> str:
        self.at += 1
        if self.at >= len(self.lines):
            raise self.error(f"unexpected end of file, wanted {what}")
        return self.lines[self.at]

    def fields(self, key: str, count: int | None = None) -> list[str]:
        """The fields after `key` on the next line, `count` of them if given.
        The one-field lines hold an integer, named `'key N'` in the error."""
        line = self.next(key)
        parts = line.split()
        if not parts or parts[0] != key or count is not None and len(parts) != count + 1:
            want = f"'{key} N'" if count == 1 else f"{key} line"
            raise self.error(f"expected {want}, got {line!r}")
        return parts[1:]

    def integer(self, key: str) -> int:
        (field,) = self.fields(key, 1)
        try:
            return int(field)
        except ValueError:
            raise self.error(f"bad integer in {self.lines[self.at]!r}") from None

    def floats(self, key: str, count: int) -> np.ndarray:
        parts = self.fields(key)
        if len(parts) != count:
            raise self.error(f"{key}: expected {count} values, got {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise self.error(f"{key}: bad float") from None
        if not all(map(math.isfinite, vals)):
            raise self.error(f"{key}: non-finite value")
        return np.array(vals)

    def done(self) -> None:
        for at in range(self.at + 1, len(self.lines)):
            if self.lines[at].strip():
                raise self.error(f"trailing content {self.lines[at]!r} after end", at)


def model_from_text(text: str) -> StrongClassifier:
    rd = _LineReader(text)

    line = rd.next("header")
    parts = line.split()
    if len(parts) != 2 or parts[0] != MODEL_MAGIC:
        raise rd.error(f"not a model file (header {line!r})")
    if parts[1] != str(MODEL_VERSION):
        raise rd.error(f"unsupported model version {parts[1]}")

    k = rd.integer("k")
    d = rd.integer("d")
    if k < 2 or d < 1:
        raise rd.error(f"bad dimensions k={k} d={d}", rd.at - 1 if k < 2 else rd.at)

    # `config`, a space and the fingerprint as written, or a bare `config`
    line = rd.next("config")
    key, _, fingerprint = line.partition(" ")
    if key != "config":
        raise rd.error(f"expected config line, got {line!r}")

    a0 = rd.floats("a0", k)
    n_rounds = rd.integer("rounds")
    if n_rounds < 0:
        raise rd.error(f"negative round count {n_rounds}")

    rounds = []
    for _ in range(n_rounds):
        depth = rd.integer("tree")
        # 2^depth - 1 node lines must fit in the lines left; compared by bit
        # length, since 2 ** depth of a corrupt depth can take gigabytes
        if depth < 1 or depth >= (len(rd.lines) - rd.at).bit_length():
            raise rd.error(f"bad tree depth {depth}")
        nodes = []
        for _ in range(2 ** depth - 1):
            feature, threshold, polarity = rd.fields("node", 3)
            try:
                feature, threshold, polarity = int(feature), float(threshold), int(polarity)
            except ValueError:
                raise rd.error(f"bad node fields in {rd.lines[rd.at]!r}") from None
            # the model refuses the feature too, but only here can the line be named
            if feature >= d:
                raise rd.error(f"node feature {feature} out of range")
            try:
                nodes.append(Stump(feature=feature, threshold=threshold, polarity=polarity))
            except ValueError as exc:
                raise rd.error(str(exc)) from None
        rounds.append((Tree(depth=depth, nodes=nodes), rd.floats("a", k)))

    line = rd.next("end")
    if line != "end":
        raise rd.error(f"expected end, got {line!r}")
    rd.done()
    return StrongClassifier(k=k, d=d, a0=a0, rounds=rounds, fingerprint=fingerprint)


def load_model(path) -> StrongClassifier:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_text(fh.read())


def write_trace(trace, path) -> None:
    """Per-round training trace as CSV."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round,loss,loss_excess,gamma,phi,train_error,train_risk,phase,"
                 "smoothed_risk,learner\n")
        for r in trace.rounds:
            learner = f"d{r.depth}:f{r.feature}@{r.threshold!r}"
            fh.write(f"{r.index},{r.loss!r},{r.excess!r},{r.gamma!r},{r.phi!r},"
                     f"{r.train_error!r},{r.train_risk!r},{r.phase},{r.smoothed_risk!r},"
                     f"{learner}\n")

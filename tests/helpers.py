"""Test oracles and conveniences that the library itself has no use for."""

import csv
import itertools
import math
import operator
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from matchgan.datasets import LABEL_CODES, UNLABELED, IngestError, RecordSet
from matchgan.features import _tokens, qgrams
from matchgan.nn import (Buffers, MlpModel, classifier_backward, discriminator_backward,
                         forward_pass, generator_backward)


# The scalar reference for the q-gram kernel: one pair and one pair of
# gram sets at a time, with Python's set operations and int / int.


def qgram_jaccard(s1: str, s2: str, q: int = 2) -> float:
    """Jaccard overlap of the two strings' q-gram sets, in [0, 1].

    Two empty gram sets score 1.0 (agreement on absence); exactly one
    empty scores 0.0. Total function, symmetric in its string arguments.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    grams1, grams2 = qgrams(s1, q), qgrams(s2, q)
    if not grams1 and not grams2:
        return 1.0
    if not grams1 or not grams2:
        return 0.0
    return len(grams1 & grams2) / len(grams1 | grams2)


def block_by_token(records: RecordSet, attr: str) -> dict[str, list[str]]:
    """Map each case-folded whitespace token of the attribute to record ids,
    each record listed once per block."""
    col = records.schema.index(attr)
    blocks: dict[str, list[str]] = {}
    for rec in records.records:
        for token in _tokens(rec.attributes[col]):
            blocks.setdefault(token, []).append(rec.id)
    return blocks


def generate_pairs(set1: RecordSet, set2: RecordSet | None = None, block_on: str | None = None):
    """Stream candidate record pairs in sorted (id_i, id_j) order.

    One set yields all C(n, 2) unordered pairs; two sets yield the full
    cross product. With block_on only the pairs whose block_on attributes
    share a token appear.
    """
    by_id = operator.attrgetter("id")
    left = sorted(set1.records, key=by_id)
    pairs = (itertools.combinations(left, 2) if set2 is None
             else itertools.product(left, sorted(set2.records, key=by_id)))
    col = None if block_on is None else set1.schema.index(block_on)
    for r_i, r_j in pairs:
        if col is None or not _tokens(r_i.attributes[col]).keys().isdisjoint(
                _tokens(r_j.attributes[col])):
            yield r_i, r_j


def zero_mlp(layer_dims) -> MlpModel:
    """All-zero parameters; the network outputs exactly 0.5 everywhere."""
    dims = tuple(layer_dims)
    weights = [np.zeros((fan_out, fan_in)) for fan_in, fan_out in zip(dims[:-1], dims[1:])]
    return MlpModel(dims, weights, [np.zeros(fan_out) for fan_out in dims[1:]])


def copy_model(model: MlpModel) -> MlpModel:
    """A model with the same parameters in storage of its own."""
    return MlpModel(model.layer_dims, model.weights, model.biases)


# The three gradients as training computes them: each pass on Buffers
# that hold its rows, built here once per call.


def generator_grad(gen: MlpModel, disc: MlpModel, X) -> np.ndarray:
    """generator_backward on rows X, after the recording pass of gen and
    the [X | G(X)] input that inner_train fills in first."""
    g_buf, s_buf = Buffers(gen, len(X)), Buffers(disc, len(X))
    g_buf.x[...] = X
    forward_pass(g_buf)
    s_buf.x[:, :-1] = X
    s_buf.x[:, -1] = g_buf.out
    return generator_backward(g_buf, s_buf)


def discriminator_grad(disc: MlpModel, fake, real, real_weight: float) -> np.ndarray:
    """discriminator_backward on the rows of fake stacked above those of real."""
    buf = Buffers(disc, len(fake) + len(real))
    np.concatenate((fake, real), out=buf.x)
    return discriminator_backward(buf, len(fake), real_weight)


def classifier_grad(clf: MlpModel, X, targets) -> np.ndarray:
    """classifier_backward on rows X."""
    buf = Buffers(clf, len(X))
    buf.x[...] = X
    return classifier_backward(buf, targets)


def save_records(recordset: RecordSet, path, id_column: str = "id", delimiter: str = ",") -> None:
    """Write records as load_records reads them: a header, then one row each."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow((id_column, *recordset.schema))
        for rec in recordset.records:
            writer.writerow((rec.id, *rec.attributes))


def reference_read_instance_file(path):
    """The oracle for datasets.read_instance_file: the file read one line at
    a time, with Python's float() for every feature cell.

    Faults are found in the same order: a data line with the wrong column
    count or a cell that float() refuses, then the first unknown label,
    then the first row with a feature outside [0, 1] or two equal ids. Each
    names its file line. Unlike read_instance_file it accepts what only
    float() reads, such as ``0.1_0`` and non-ASCII digits.
    """
    return _reference_instance_file(path)[1:]


def reference_read_truth_file(path):
    """The oracle for evaluate's truth file: an instance file read as
    reference_read_instance_file reads it, and then the first row without
    a label is a fault."""
    linenos, ids, features, codes, meta = _reference_instance_file(path)
    for lineno, code in zip(linenos, codes.tolist()):
        if code == UNLABELED:
            raise IngestError(f"{path}:{lineno}: empty label")
    return ids, features, codes, meta


def _reference_instance_file(path):
    """(file lines, ids, features, label codes, meta) of an instance file."""
    path = Path(path)
    if not path.exists():
        raise IngestError(f"missing file: {path}")
    meta = {}
    with path.open(encoding="utf-8") as fh:
        first = fh.readline()
        words = first.split()
        if not first.startswith("# instances") or words[1:3] != ["instances", "v1"] or not all(
                re.fullmatch(r"[^=]+=.+", word) for word in words[3:]):
            raise IngestError(f"{path}: not an instance file (bad header)")
        for word in words[3:]:
            key, value = word.split("=", 1)
            meta[key] = int(value) if value.isdecimal() else value
        header = fh.readline().rstrip("\n").split("\t")
        if header[:2] != ["id_a", "id_b"]:
            raise IngestError(f"{path}: malformed column header")
        has_label = header[-1] == "label"
        meta["schema"] = tuple(header[2 : -1 if has_label else len(header)])
        rows = _reference_rows(path, fh, 3, len(meta["schema"]), has_label)
    return *rows, meta


def reference_read_labels_file(path):
    """The oracle for datasets.read_labels_file: the header must be exactly
    id_a, id_b, label; the rows are read as reference_read_instance_file
    reads them, from line 2; and then the first empty label is a fault."""
    path = Path(path)
    if not path.exists():
        raise IngestError(f"missing file: {path}")
    with path.open(encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != "id_a\tid_b\tlabel":
            raise IngestError(f"{path}: not a labels file")
        linenos, ids, _, codes = _reference_rows(path, fh, 2, 0, True)
    for lineno, code in zip(linenos, codes.tolist()):
        if code == UNLABELED:
            raise IngestError(f"{path}:{lineno}: empty label")
    return ids, codes


def _reference_rows(path, fh, start, n_feats, has_label):
    """(file lines, ids, features, label codes) of the data lines of fh,
    the first of which is file line start; blank lines are skipped."""
    expected = 2 + n_feats + has_label
    linenos, ids, rows, cells = [], [], [], []
    for lineno, line in enumerate(fh, start=start):
        if line == "\n":
            continue
        row = line.rstrip("\n").split("\t")
        if len(row) != expected:
            raise IngestError(f"{path}:{lineno}: expected {expected} columns, got {len(row)}")
        try:
            rows.append([float(cell) for cell in row[2 : 2 + n_feats]])
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from None
        linenos.append(lineno)
        ids.append((row[0], row[1]))
        cells.append(row[-1] if has_label else "")
    codes = {**LABEL_CODES, "": UNLABELED}
    for lineno, cell in zip(linenos, cells):
        if cell not in codes:
            raise IngestError(f"{path}:{lineno}: unknown label {cell!r}")
    for lineno, (id_a, id_b), row in zip(linenos, ids, rows):
        if not all(0.0 <= value <= 1.0 for value in row):
            raise IngestError(f"{path}:{lineno}: instance features must be finite and lie in [0, 1]")
        if id_a == id_b:
            raise IngestError(f"{path}:{lineno}: instance pair ids must be distinct")
    features = np.array(rows, dtype=np.float64).reshape(len(rows), n_feats)
    return linenos, ids, features, np.array([codes[cell] for cell in cells], dtype=np.int8)


# ids over a small alphabet, so that equal ids also occur by chance; "#"
# and '"' are plain characters in the file, neither comment nor quote
_ID = st.text(alphabet='ab#" ', min_size=1, max_size=3)
_GOOD_CELL = st.floats(min_value=0.0, max_value=1.0).map(repr)
# cells that both float() and numpy refuse, and cells both read outside [0, 1]
_BAD_CELL = st.sampled_from(["x", "", " ", "1e", "--1", "1.2.3", "0x1p-1", "M"])
_OUT_CELL = st.sampled_from(["1.5", "-0.25", "nan", "inf", "-inf", "1e999"])
# first lines other than the writer's: valid ones, then one of another
# format version, with no version and with a token that is not key=value
_HEADS = ["# instances v1", "# instances v1 q=2 note=a=b", "# instances v1 q=\u00b2",
          "# instances\tv1 q=3", "# instances v9 q=2", "# instances banana",
          "# instancesXYZ q=abc", "# instances", "# instances q=2 v1", "# instances v1 q=2 junk",
          "# instances v1 =2", "# instances v1 q=", "#instances v1 q=2", "#  instances v1", ""]
_ROW_KINDS = ["valid"] * 8 + ["blank", "short", "extra", "unparsable", "out_of_range",
                              "bad_label", "same_ids", "repeat"]


@st.composite
def instance_texts(draw):
    """The text of an instance file whose data lines are mostly valid, with
    blank lines and rows of every fault mixed in."""
    n_feats = draw(st.integers(0, 3))
    has_label = draw(st.booleans())
    header = ["id_a", "id_b", *(f"f{k}" for k in range(n_feats)), *(["label"] if has_label else [])]
    lines, pairs = [], []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(_ROW_KINDS))
        pair = [draw(_ID), draw(_ID)]
        if kind == "same_ids":
            pair[1] = pair[0]
        elif kind == "repeat" and pairs:
            pair = list(draw(st.sampled_from(pairs)))
        pairs.append(tuple(pair))
        cells = [draw(_GOOD_CELL) for _ in range(n_feats)]
        if kind in ("unparsable", "out_of_range") and n_feats:
            cells[draw(st.integers(0, n_feats - 1))] = draw(
                _BAD_CELL if kind == "unparsable" else _OUT_CELL)
        row = pair + cells
        if has_label:
            row.append(draw(st.sampled_from(["X", "m", "MM", " M"] if kind == "bad_label"
                                            else ["M", "N", ""])))
        if kind == "short":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif kind == "extra":
            row.append(draw(st.sampled_from(["", "x", "0.5"])))
        lines.append("" if kind == "blank" else "\t".join(row))
    body = "\n".join(lines) + ("\n" if lines and draw(st.booleans()) else "")
    # the writer's first line in three draws of four
    first = draw(st.sampled_from([f"# instances v1 q={draw(st.integers(1, 4))}"] * 45 + _HEADS))
    return first + "\n" + "\t".join(header) + "\n" + body


_LABEL_ROW_KINDS = ["valid"] * 8 + ["blank", "short", "extra", "bad_label", "empty_label",
                                    "same_ids", "repeat"]
_FAULTS = ["short", "extra", "bad_label", "empty_label", "same_ids"]


@st.composite
def labels_texts(draw, malformed=False):
    """The text of a labels file whose data lines are mostly valid, with
    blank lines, repeated pairs and rows of every fault mixed in. When
    malformed, the header or at least one row breaks a rule."""
    kinds = draw(st.lists(st.sampled_from(_LABEL_ROW_KINDS), max_size=8))
    header = "id_a\tid_b\tlabel"
    if malformed and draw(st.booleans()):
        header = draw(st.sampled_from(["id_a\tid_b", "id_a\tid_b\tlabel\tf0",
                                       "id_a\tid_b\tLabel", "# instances v1 q=2", ""]))
    elif malformed:
        kinds.insert(draw(st.integers(0, len(kinds))), draw(st.sampled_from(_FAULTS)))
    lines, pairs = [], []
    for kind in kinds:
        pair = [draw(_ID), draw(_ID)]
        if kind == "same_ids":
            pair[1] = pair[0]
        elif kind == "repeat" and pairs:
            pair = list(draw(st.sampled_from(pairs)))
        pairs.append(tuple(pair))
        label = {"bad_label": st.sampled_from(["X", "m", "MM", " M", "0"]),
                 "empty_label": st.just("")}.get(kind, st.sampled_from(["M", "N"]))
        row = pair + [draw(label)]
        if kind == "short":
            row = row[: draw(st.integers(1, 2))]
        elif kind == "extra":
            row.append(draw(st.sampled_from(["", "x", "0.5"])))
        lines.append("" if kind == "blank" else "\t".join(row))
    body = "\n".join(lines) + ("\n" if lines and draw(st.booleans()) else "")
    return header + "\n" + body


def fault_of(exc: IngestError, path) -> tuple[str, str]:
    """(file line, kind of fault) that a reader's error names; the line is
    empty for a fault of the whole file."""
    text = str(exc).removeprefix(f"{path}:")
    line, message = text.split(":", 1) if text[:1].isdigit() else ("", text)
    kinds = ("expected", "convert", "unknown label", "empty label", "lie in", "distinct",
             "not a labels file", "malformed column header", "bad header")
    return line, next(kind for kind in kinds if kind in message)


def l21_norm(counts) -> float:
    """Sum of square roots of the per-subspace selection counts."""
    if any(c < 0 for c in counts):
        raise ValueError("counts must be non-negative")
    return float(sum(math.sqrt(c) for c in counts))


@dataclass
class DiscreteJointDistribution:
    """Two discrete distributions over shared (x, y) support points."""

    points: list
    p_real: np.ndarray
    p_generated: np.ndarray

    def __post_init__(self):
        self.p_real = np.asarray(self.p_real, dtype=np.float64)
        self.p_generated = np.asarray(self.p_generated, dtype=np.float64)
        for p in (self.p_real, self.p_generated):
            if np.any(p < 0.0):
                raise ValueError("probabilities must be non-negative")
            if abs(float(p.sum()) - 1.0) > 1e-9:
                raise ValueError("each distribution must sum to 1")


def ternary_max(objective, lo: float, hi: float, iters: int = 200) -> float:
    """Maximizer of a function that is concave on [lo, hi]."""
    for _ in range(iters):
        third = (hi - lo) / 3.0
        a, b = lo + third, hi - third
        if objective(a) < objective(b):
            lo = a
        else:
            hi = b
    return 0.5 * (lo + hi)


def optimal_discriminator_check(
    dist: DiscreteJointDistribution, real_weight: float = 1.0
) -> list[tuple[float, float]]:
    """Closed-form vs. numeric pointwise optimum of the discriminator objective.

    At each support point the objective w*p_real*log(d) + p_gen*log(1-d)
    is concave in d; its maximizer has the closed form
    w*p_real / (w*p_real + p_gen). The numeric value comes from ternary
    search, independent of that formula. Points with both probabilities
    zero are skipped.
    """
    out: list[tuple[float, float]] = []
    for p_d, p_g in zip(dist.p_real, dist.p_generated):
        if p_d == 0.0 and p_g == 0.0:
            continue
        closed = real_weight * p_d / (real_weight * p_d + p_g)

        def pointwise(d, p_d=p_d, p_g=p_g):
            return real_weight * p_d * np.log(d) + p_g * np.log(1.0 - d)

        numeric = ternary_max(pointwise, 1e-9, 1.0 - 1e-9)
        out.append((float(closed), float(numeric)))
    return out

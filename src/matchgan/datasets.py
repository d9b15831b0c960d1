"""Input data: records, gold standards, the instance pool and its file.

Records and gold standards arrive as delimited text; a gold standard lists
matching id pairs, every pair it does not list is a non-match, and
GoldStandard.label_codes is the one rule that labels pair ids by it. A
pool of record-pair instances lives in memory only as InstancePool's
columns (pair ids, a float64 feature matrix, an int8 label column); no
object stands for a row. write_instance_tiles writes every instance
file, a pool's or featurize's, and the file is read back into columns.
A labels file is the same table without the comment line or features.
generate_synthetic builds such a pool directly, with class overlap set by
one knob, so imbalanced workloads of any size are deterministic.
"""

from __future__ import annotations

import csv
import itertools
import json
import operator
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MATCH = "M"
NON_MATCH = "N"

PairId = tuple[str, str]

INSTANCE_FORMAT_VERSION = 1

# Label column codes; UNLABELED marks a row without a real label.
UNLABELED = -1
LABEL_CODES = {MATCH: 1, NON_MATCH: 0}
# LABEL_NAMES[code] is a code's cell in a file; UNLABELED (-1) takes the empty last one
LABEL_NAMES = np.array([NON_MATCH, MATCH, ""])

_FEATURE_RULE = "instance features must be finite and lie in [0, 1]"

_BREAK = re.compile("[\t\n\r]")

_FILE_TILE = 1 << 15  # rows that write_instance_file writes at a time

# Fixed sampling width of each class's feature distribution; class centres
# move apart as separation grows.
_CLASS_WIDTH = 0.10
_CENTER_GAP = 0.45
# Fraction of non-match features pinned to exactly 0.0 at full separation.
# Mirrors real record-pair data, where most non-matching attribute pairs
# share no q-grams at all.
_ZERO_MASS = 0.9


class IngestError(ValueError):
    """Malformed or inconsistent input data."""


class RowError(IngestError):
    """An IngestError about the row-th row of a pool's columns as given."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


@contextmanager
def open_text(path: str | Path, newline: str | None = None):
    """path opened as UTF-8 text for a reader's with block. A missing file,
    a byte that is not UTF-8 and text that the block cannot parse as JSON
    each raise IngestError naming path."""
    path = Path(path)
    if not path.exists():
        raise IngestError(f"missing file: {path}")
    try:
        with path.open(encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        # not exc's position, which counts from the decoder's last chunk
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise IngestError(f"{path}:{exc.lineno}: column {exc.colno}: {exc.msg}") from None


@dataclass(frozen=True)
class Record:
    """One entity record: an id plus an ordered list of attribute values."""

    id: str
    attributes: tuple[str, ...]


@dataclass
class RecordSet:
    schema: tuple[str, ...]
    records: list[Record]

    def __post_init__(self):
        width = len(self.schema)
        for rec in self.records:
            if len(rec.attributes) != width:
                raise IngestError(
                    f"record {rec.id!r} has {len(rec.attributes)} attributes, "
                    f"schema has {width}"
                )

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class GoldStandard:
    """Set of matching id pairs; any pair not present is a non-match."""

    matches: set[frozenset[str]] = field(default_factory=set)

    def add(self, id_a: str, id_b: str) -> None:
        if id_a == id_b:
            raise IngestError(f"self-pair ({id_a!r}, {id_a!r}) is not a valid match")
        self.matches.add(frozenset((id_a, id_b)))

    def label_codes(self, ids: list[PairId]) -> np.ndarray:
        """The int8 label code of each pair id, its two ids in either order."""
        return np.fromiter(map(self.matches.__contains__, map(frozenset, ids)), np.int8, len(ids))

    def __len__(self) -> int:
        return len(self.matches)


def _check_columns(ids: list[PairId], features: np.ndarray,
                   labels: np.ndarray) -> tuple[int, str] | None:
    """(row, message) of the first row that breaks an instance rule, or None.

    Every feature must be finite and in [0, 1], the two ids of a pair must
    differ and a label code must be UNLABELED, 0 or 1.
    """
    faults = []
    valid = (np.isfinite(features) & (features >= 0.0) & (features <= 1.0)).all(axis=-1)
    if not valid.all():
        faults.append((int(np.argmin(valid)), _FEATURE_RULE))
    row = next(itertools.compress(itertools.count(), itertools.starmap(operator.eq, ids)), None)
    if row is not None:
        faults.append((row, f"instance pair ids must be distinct: {ids[row]}"))
    bad = np.flatnonzero((labels < UNLABELED) | (labels > 1))
    if len(bad):
        faults.append((int(bad[0]), f"unknown label code {labels[bad[0]]}"))
    return min(faults, default=None)


class InstancePool:
    """Pool columns in canonical row order.

    Rows are sorted by pair id, so positional indices are deterministic and
    id-ascending. features is a float64 (rows, attributes) matrix and
    real_labels holds one label code per row (UNLABELED where the truth is
    unknown). Which rows a run has labeled is kept by the run, not here.
    The row rules, and that no id holds a tab or line break (which a file
    read never yields), are checked here unless _checked says that
    read_instance_file has just checked these very columns.
    """

    def __init__(self, ids: list[PairId], features: np.ndarray, real_labels: np.ndarray,
                 *, _checked: bool = False):
        features = np.array(features, dtype=np.float64)
        real_labels = np.array(real_labels, dtype=np.int8)
        if features.ndim != 2 or len(features) != len(ids) or real_labels.shape != (len(ids),):
            raise IngestError("a pool needs one feature row and one label code per pair id")
        if not _checked:
            fault = _check_columns(ids, features, real_labels)
            if fault is not None:
                raise IngestError(fault[1])
            # a tab or line break in an id would break its row in a file
            if _BREAK.search("".join(itertools.chain.from_iterable(ids))):
                pair = next(pair for pair in ids if _BREAK.search("".join(pair)))
                raise IngestError(f"instance pair id {pair} contains a tab or line break")
        # ids that strictly ascend are already in order and hold no repeat
        if not all(map(operator.lt, ids, itertools.islice(ids, 1, None))):
            order = sorted(range(len(ids)), key=ids.__getitem__)
            ranked = [ids[k] for k in order]
            # the sort keeps equal ids in row order: an id equal to the one
            # ranked before it repeats an earlier row
            repeats = itertools.compress(
                order[1:], map(operator.eq, ranked, itertools.islice(ranked, 1, None)))
            row = min(repeats, default=None)
            if row is not None:
                raise RowError(row, f"repeated pair id {ids[row]}")
            ids = ranked
            features, real_labels = features[order], real_labels[order]
        self.ids: list[PairId] = list(ids)
        self.features = features
        self.real_labels = real_labels

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass
class SyntheticConfig:
    n_matches: int
    imbalance_rate: int
    n_features: int = 4
    separation: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.n_matches < 1:
            raise IngestError("n_matches must be at least 1")
        if self.imbalance_rate < 1:
            raise IngestError("imbalance_rate must be at least 1")
        if self.n_features < 1:
            raise IngestError("n_features must be at least 1")
        if not 0.0 <= self.separation <= 1.0:
            raise IngestError("separation must lie in [0, 1]")
        if self.seed < 0:
            raise IngestError("seed must be non-negative")


def load_records(
    path: str | Path,
    schema: list[str] | tuple[str, ...] | None = None,
    id_column: str = "id",
    delimiter: str = ",",
) -> RecordSet:
    """Load one record per data row; missing cells become empty strings.

    The schema defaults to every header column but the id column, in
    header order.
    """
    records: list[Record] = []
    seen: set[str] = set()
    with open_text(path, newline="") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter, strict=True)
        try:
            header = reader.fieldnames or []
            if schema is None:
                schema = [col for col in header if col != id_column]
            schema = tuple(schema)
            for col in (id_column, *schema):
                if col not in header:
                    raise IngestError(f"missing column {col!r} in {path}")
            for row in reader:
                rid = row[id_column]
                if _BREAK.search(rid):
                    raise IngestError(f"{path}:{reader.line_num}: record id {rid!r}"
                                      " contains a tab or line break")
                if rid in seen:
                    raise IngestError(f"{path}:{reader.line_num}: duplicate id {rid!r}")
                seen.add(rid)
                values = tuple((row.get(col) or "") for col in schema)
                records.append(Record(id=rid, attributes=values))
        except csv.Error as exc:
            # the line at which strict CSV parsing failed
            raise IngestError(f"{path}:{reader.reader.line_num}: {exc}") from None
    return RecordSet(schema=schema, records=records)


def load_gold(path: str | Path, has_header: bool = False) -> GoldStandard:
    """Load a symmetric, deduplicated match set from a two-column file."""
    gold = GoldStandard()
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh, strict=True)
        try:
            if has_header:
                next(reader, None)
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise IngestError(
                        f"{path}:{reader.line_num}: expected two columns, got {len(row)}")
                try:
                    gold.add(row[0], row[1])
                except IngestError as exc:
                    raise IngestError(f"{path}:{reader.line_num}: {exc}") from None
        except csv.Error as exc:
            raise IngestError(f"{path}:{reader.line_num}: {exc}") from None
    return gold


def save_gold(gold: GoldStandard, path: str | Path) -> None:
    rows = sorted(tuple(sorted(pair)) for pair in gold.matches)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def write_instance_tiles(path: str | Path, schema, q: int, labeled: bool, tiles) -> int:
    """Write the format line, the column header (with a label column when
    labeled) and the rows of each (ids_a, ids_b, features, codes) tile as
    an instance file, and return its row count; a failed write leaves no
    file. Floats are told apart by their bits, and each is written as its
    own repr, called once per distinct value in a tile."""
    count = 0
    with Path(path).open("w", encoding="utf-8") as fh:
        try:
            fh.write(f"# instances v{INSTANCE_FORMAT_VERSION} q={q}\n")
            fh.write("\t".join(["id_a", "id_b", *schema] + ["label"] * labeled) + "\n")
            for ids_a, ids_b, feats, codes in tiles:
                bits, inverse = np.unique(feats.view(np.int64), return_inverse=True)
                table = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
                cols = [ids_a.tolist(), ids_b.tolist(),
                        *table[inverse.reshape(feats.shape)].T.tolist()]
                if labeled:
                    cols.append(LABEL_NAMES[codes].tolist())
                fh.write("\n".join(map("\t".join, zip(*cols))) + "\n")
                count += len(ids_a)
        except BaseException:
            Path(path).unlink()
            raise
    return count


def write_instance_file(path: str | Path, pool: InstancePool) -> None:
    """Write a pool's rows in row order, _FILE_TILE rows at a time, under
    feature columns f0, f1, ... and the header's default q=2. The label
    column is written only when some row has a real label; an unlabeled
    row's cell is then empty."""
    labeled = bool(np.any(pool.real_labels != UNLABELED))
    spans = (slice(lo, lo + _FILE_TILE) for lo in range(0, len(pool), _FILE_TILE))
    tiles = ((*np.array(pool.ids[rows], dtype=object).T, pool.features[rows],
              pool.real_labels[rows]) for rows in spans)
    write_instance_tiles(path, [f"f{k}" for k in range(pool.n_features)], 2, labeled, tiles)


def read_instance_file(path: str | Path) -> tuple[list[PairId], np.ndarray, np.ndarray, dict]:
    """Read an instance file as columns: (ids, features, labels, meta).

    ids lists the pair ids in file order, features is a float64 (n, d)
    matrix and labels an int8 column of label codes (UNLABELED where the
    file gives none); meta is {'q': int, 'schema': tuple}. The first line
    must be "# instances v1" and then only key=value tokens.
    """
    path = Path(path)
    meta: dict = {}
    with open_text(path) as fh:
        first = fh.readline()
        if not first.startswith("# instances"):
            raise IngestError(f"{path}: not an instance file (bad header)")
        tokens = first.split()
        if tokens[1:3] != ["instances", f"v{INSTANCE_FORMAT_VERSION}"]:
            raise IngestError(f"{path}: bad header: not instance format v{INSTANCE_FORMAT_VERSION}")
        for token in tokens[3:]:
            key, _, value = token.partition("=")
            if not (key and value):
                raise IngestError(f"{path}: bad header: {token!r} is not key=value")
            meta[key] = int(value) if value.isdecimal() else value
        header = fh.readline().rstrip("\n").split("\t")
        if header[:2] != ["id_a", "id_b"]:
            raise IngestError(f"{path}: malformed column header")
        has_label = header[-1] == "label"
        meta["schema"] = tuple(header[2 : -1 if has_label else len(header)])
        ids, features, labels = _read_rows(path, fh, len(meta["schema"]), has_label)
    return ids, features, labels, meta


def read_labels_file(path: str | Path) -> tuple[list[PairId], np.ndarray]:
    """(ids, label codes) of a labels file: an instance file's table with no
    comment line and no feature columns, read by the same rules, in which
    no label may be empty."""
    path = Path(path)
    with open_text(path) as fh:
        if fh.readline().rstrip("\n") != "id_a\tid_b\tlabel":
            raise IngestError(f"{path}: not a labels file")
        ids, _, codes = _read_rows(path, fh, 0, True)
    if UNLABELED in codes:
        raise row_fault(path, int(np.argmax(codes == UNLABELED)), "empty label")
    return ids, codes


def write_labels_file(path: str | Path, ids: list[PairId], codes: np.ndarray) -> None:
    """Write pair ids and their label codes, named by LABEL_NAMES, as a labels file."""
    names = LABEL_NAMES[codes].tolist()
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("id_a\tid_b\tlabel\n")
        fh.writelines(f"{a}\t{b}\t{name}\n" for (a, b), name in zip(ids, names))


def _read_rows(path: Path, fh, n_features: int, has_label: bool):
    """(ids, features, labels) of the rows after fh's column header; the
    first row that breaks a rule raises IngestError naming its file line.

    numpy's C text reader parses every row in one call into one structured
    array; blank lines are skipped. features is a view into that array,
    not a copy: InstancePool copies it, and a caller that only wants ids
    and labels, as evaluate does, never pays for one.
    """
    fields = [("id_a", object), ("id_b", object), ("f", np.float64, (n_features,))]
    dtype = np.dtype(fields + [("label", object)] if has_label else fields)
    start = fh.tell()
    # loadtxt warns on input without rows, so a file without any is not handed to it
    rows = np.empty(0, dtype)
    if any(line != "\n" for line in iter(fh.readline, "")):
        fh.seek(start)
        try:
            rows = _load_rows(fh, dtype)
        except ValueError:
            fh.seek(start)
            raise _first_rejected(path, fh, dtype) from None

    ids = rows[["id_a", "id_b"]].tolist()
    features = rows["f"]
    labels = np.full(len(ids), UNLABELED, dtype=np.int8)
    if has_label:
        cells = rows["label"]
        for name, code in LABEL_CODES.items():
            labels[cells == name] = code
        unknown = np.flatnonzero((labels == UNLABELED) & (cells != ""))
        if len(unknown):
            raise row_fault(path, int(unknown[0]), f"unknown label {cells[unknown[0]]!r}")
    fault = _check_columns(ids, features, labels)
    if fault is not None:
        raise row_fault(path, *fault)
    return ids, features, labels


def _load_rows(lines, dtype: np.dtype) -> np.ndarray:
    """The rows of tab-separated lines (a text file or a list of lines) as
    one structured array of dtype."""
    return np.loadtxt(lines, dtype=dtype, delimiter="\t", comments=None, ndmin=1)


def _rejection(lines, dtype: np.dtype) -> str | None:
    """loadtxt's message for the first of lines that _load_rows rejects, or None."""
    try:
        _load_rows(lines, dtype)
    except ValueError as exc:
        return str(exc)
    return None


def _first_rejected(path: Path, fh, dtype: np.dtype) -> IngestError:
    """IngestError naming the first of fh's data rows that _load_rows rejects.

    fh stands at the first data line and some row ahead is rejected. Each
    row is judged on its own, so a run of rows parses iff none of them is
    rejected, and bisection finds the first row that is.
    """
    lines = [line for line in fh if line != "\n"]
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _rejection(lines[lo:mid], dtype) is None:
            lo = mid
        else:
            hi = mid
    expected = 2 + dtype["f"].shape[0] + ("label" in dtype.names)
    got = lines[lo].count("\t") + 1
    if got != expected:
        return row_fault(path, lo, f"expected {expected} columns, got {got}")
    # numpy ends its message with "at row R, column C."; R counts the lines
    # it was given, so only the column carries over to the file
    reason = _rejection(lines[lo : lo + 1], dtype)
    found = re.fullmatch(r"(.*) at row \d+, (column \d+)\.", reason)
    return row_fault(path, lo, f"{found[2]}: {found[1]}" if found else reason)


def row_fault(path: str | Path, row: int, message: str) -> IngestError:
    """IngestError naming the file line of data row `row` of an instance or
    labels file (lines up to the column header and blank lines skipped)."""
    with open(path, encoding="utf-8") as fh:
        header = 1 + fh.readline().startswith("# instances")
        lines = (n for n, line in enumerate(fh, start=2) if n > header and line != "\n")
        lineno = next(itertools.islice(lines, row, None))
    return IngestError(f"{path}:{lineno}: {message}")


def class_feature_params(separation: float) -> tuple[tuple[float, float], tuple[float, float], float]:
    """Sampling intervals (lo, hi) for match / non-match features plus the
    non-match zero-inflation probability, all as a function of separation."""
    m_center = 0.5 + _CENTER_GAP * separation
    n_center = 0.5 - _CENTER_GAP * separation
    half = _CLASS_WIDTH / 2.0
    match_range = (m_center - half, min(m_center + half, 1.0))
    nonmatch_range = (max(n_center - half, 0.0), n_center + half)
    return match_range, nonmatch_range, _ZERO_MASS * separation


def generate_synthetic(cfg: SyntheticConfig) -> tuple[InstancePool, GoldStandard]:
    """Deterministically generate a labeled instance pool plus a gold standard.

    Match feature vectors are drawn near 1, non-matches near 0 (with a
    separation-scaled fraction of features exactly 0.0). Returns
    (InstancePool, GoldStandard) with class counts exactly n_matches and
    n_matches * imbalance_rate; the matches come first in pair-id order.
    """
    rng = np.random.default_rng(cfg.seed)
    n_non = cfg.n_matches * cfg.imbalance_rate
    match_range, nonmatch_range, zero_prob = class_feature_params(cfg.separation)

    match_feats = rng.uniform(*match_range, size=(cfg.n_matches, cfg.n_features))
    non_feats = rng.uniform(*nonmatch_range, size=(n_non, cfg.n_features))
    zero_mask = rng.random(size=non_feats.shape) < zero_prob
    non_feats[zero_mask] = 0.0

    width = len(str(cfg.n_matches + n_non))
    ids = [(f"s{k:0{width}d}a", f"s{k:0{width}d}b") for k in range(cfg.n_matches + n_non)]
    gold = GoldStandard()
    for pair in ids[: cfg.n_matches]:
        gold.add(*pair)
    labels = np.repeat([LABEL_CODES[MATCH], LABEL_CODES[NON_MATCH]], [cfg.n_matches, n_non])
    return InstancePool(ids, np.vstack([match_feats, non_feats]), labels), gold

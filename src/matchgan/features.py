"""Candidate pair streaming and per-attribute similarity featurization.

A pair of records becomes an instance: a vector with one similarity value
per attribute, each in [0, 1]. featurize_to_file writes every candidate
pair in sorted id order straight to a delimited instance file, one tile
of pairs at a time in a single process: per attribute, each record's
q-gram set becomes a row of gram ids, a tile's intersection counts come
from one product of 0/1 indicator blocks, and Jaccard is
I / (|A| + |B| - I). qgram_jaccard, featurize_pair and generate_pairs
stay as the scalar reference that this kernel reproduces bit for bit.
A pool lives in memory only as InstancePool's columns (an id list, a
float64 feature matrix and an int8 label column), and the instance file
is read into and written from those columns; no object stands for a row.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .datasets import MATCH, NON_MATCH, GoldStandard, IngestError, Record, RecordSet

PairId = tuple[str, str]

INSTANCE_FORMAT_VERSION = 1

# Label column codes; UNLABELED marks a row without a real label.
UNLABELED = -1
LABEL_CODES = {MATCH: 1, NON_MATCH: 0}
# LABEL_NAMES[code] turns 0/1 codes back into label strings
LABEL_NAMES = np.array([NON_MATCH, MATCH])

_FEATURE_RULE = "instance features must be finite and lie in [0, 1]"


def _valid_rows(features: np.ndarray) -> np.ndarray:
    """Per row of features: True iff every value is finite and in [0, 1]."""
    ok = np.isfinite(features) & (features >= 0.0) & (features <= 1.0)
    return ok.all(axis=-1)


def _check_columns(ids: list[PairId], features: np.ndarray,
                   labels: np.ndarray) -> tuple[int, str] | None:
    """(row, message) of the first row that breaks an instance rule, or None.

    Every feature must be finite and in [0, 1], the two ids of a pair must
    differ and a label code must be UNLABELED, 0 or 1.
    """
    faults = []
    valid = _valid_rows(features)
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
    The row rules are checked here unless _checked says that
    read_instance_file has just checked these very columns.
    """

    def __init__(self, ids: list[PairId], features: np.ndarray, real_labels: np.ndarray,
                 *, _checked: bool = False):
        features = np.asarray(features, dtype=np.float64)
        real_labels = np.asarray(real_labels, dtype=np.int8)
        if features.ndim != 2 or len(features) != len(ids) or real_labels.shape != (len(ids),):
            raise IngestError("a pool needs one feature row and one label code per pair id")
        fault = None if _checked else _check_columns(ids, features, real_labels)
        if fault is not None:
            raise IngestError(fault[1])
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.ids: list[PairId] = [ids[k] for k in order]
        if any(map(operator.eq, self.ids, self.ids[1:])):
            raise IngestError("duplicate pair ids in pool")
        self.features = features[order]
        self.real_labels = real_labels[order]

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def row_of(self, pair_id: PairId) -> int:
        row = bisect_left(self.ids, pair_id)
        if row == len(self.ids) or self.ids[row] != pair_id:
            raise KeyError(pair_id)
        return row


@dataclass(frozen=True)
class BlockingSpec:
    """Token blocking on one attribute: only same-block pairs are compared."""

    attribute: str


def qgrams(text: str, q: int) -> frozenset[str]:
    """Set of overlapping q-grams of the case-folded string (empty if too short)."""
    folded = text.casefold()
    return frozenset(folded[i : i + q] for i in range(len(folded) - q + 1))


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


def featurize_pair(
    r_i: Record,
    r_j: Record,
    sim: Callable[[str, str, int], float] = qgram_jaccard,
    q: int = 2,
) -> np.ndarray:
    """Feature vector whose k-th value is sim applied to attribute k of both
    records."""
    if len(r_i.attributes) != len(r_j.attributes):
        raise IngestError(
            f"schema mismatch: {len(r_i.attributes)} vs {len(r_j.attributes)} attributes"
        )
    return np.array(
        [sim(a, b, q) for a, b in zip(r_i.attributes, r_j.attributes)],
        dtype=np.float64,
    )


def block_by_token(records: RecordSet, attr: str) -> dict[str, list[str]]:
    """Map each case-folded whitespace token of the attribute to record ids,
    each record listed once per block."""
    col = records.attribute_index(attr)
    blocks: dict[str, list[str]] = {}
    for rec in records.records:
        for token in dict.fromkeys(rec.attributes[col].casefold().split()):
            blocks.setdefault(token, []).append(rec.id)
    return blocks


def _blocked_pair_ids(
    left: RecordSet, right: RecordSet | None, blocking: BlockingSpec
) -> list[PairId]:
    left_blocks = block_by_token(left, blocking.attribute)
    seen: set[PairId] = set()
    if right is None:
        for ids in left_blocks.values():
            for a, b in itertools.combinations(sorted(ids), 2):
                seen.add((a, b))
    else:
        right_blocks = block_by_token(right, blocking.attribute)
        for token, left_ids in left_blocks.items():
            for a in left_ids:
                for b in right_blocks.get(token, ()):
                    seen.add((a, b))
    return sorted(seen)


def generate_pairs(
    set1: RecordSet,
    set2: RecordSet | None = None,
    blocking: BlockingSpec | None = None,
) -> Iterator[tuple[Record, Record]]:
    """Stream candidate record pairs in sorted (id_i, id_j) order.

    One set yields all C(n, 2) unordered pairs; two sets yield the full
    cross product. With blocking only same-block pairs appear, each once.
    """
    if blocking is not None:
        by_id_left = {rec.id: rec for rec in set1.records}
        by_id_right = by_id_left if set2 is None else {rec.id: rec for rec in set2.records}
        for a, b in _blocked_pair_ids(set1, set2, blocking):
            yield by_id_left[a], by_id_right[b]
        return
    if set2 is None:
        ordered = sorted(set1.records, key=lambda rec: rec.id)
        for r_i, r_j in itertools.combinations(ordered, 2):
            yield r_i, r_j
    else:
        left = sorted(set1.records, key=lambda rec: rec.id)
        right = sorted(set2.records, key=lambda rec: rec.id)
        for r_i in left:
            for r_j in right:
                yield r_i, r_j


# A tile takes as many left records as keep its left-by-right product
# block at PAIR_TILE entries (at least one record), so no array grows with
# the number of pairs.
PAIR_TILE = 1 << 15


def featurize_to_file(
    out_path: str | Path,
    left: RecordSet,
    right: RecordSet | None = None,
    gold: GoldStandard | None = None,
    q: int = 2,
    blocking: BlockingSpec | None = None,
) -> int:
    """Featurize all candidate pairs straight to an instance file.

    Rows come in generate_pairs order and hold the features featurize_pair
    gives, bit for bit: for each tile of pairs and each attribute, the
    gram-set intersections come from one indicator-matrix product and the
    Jaccard values from one divide. Returns the number of instances
    written.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    if right is not None and len(right.schema) != len(left.schema):
        raise IngestError(
            f"schema mismatch: {len(left.schema)} vs {len(right.schema)} attributes"
        )
    lrecs = sorted(left.records, key=operator.attrgetter("id"))
    rrecs = lrecs if right is None else sorted(right.records, key=operator.attrgetter("id"))
    n_left, n_right = len(lrecs), len(rrecs)
    # right records follow the left ones in the gram rows of a linkage
    offset = 0 if right is None else n_left
    records = lrecs if right is None else lrecs + rrecs
    grams = [_gram_rows([rec.attributes[k] for rec in records], q)
             for k in range(len(left.schema))]
    left_row = {rec.id: k for k, rec in enumerate(lrecs)}
    right_row = left_row if right is None else {rec.id: k for k, rec in enumerate(rrecs)}
    blocked = None
    if blocking is not None:
        pairs = _blocked_pair_ids(left, right, blocking)
        blocked = (np.array([left_row[a] for a, _ in pairs], dtype=np.int64),
                   np.array([right_row[b] for _, b in pairs], dtype=np.int64))
    match_keys = None
    if gold is not None:
        match_keys = np.array([
            left_row[a] * n_right + right_row[b]
            for pair in gold.matches for a, b in itertools.permutations(pair)
            if a in left_row and b in right_row
        ], dtype=np.int64)
    left_ids = np.array([rec.id for rec in lrecs], dtype=object)
    right_ids = np.array([rec.id for rec in rrecs], dtype=object)

    count = 0
    with Path(out_path).open("w", encoding="utf-8") as fh:
        _write_instance_header(fh, left.schema, q, labeled=gold is not None)
        for ia, ib in _pair_tiles(n_left, n_right, right is None, blocked):
            ids_a, ids_b = left_ids[ia], right_ids[ib]
            same = np.flatnonzero(ids_a == ids_b)
            if len(same):
                pair = (ids_a[same[0]], ids_b[same[0]])
                raise IngestError(f"instance pair ids must be distinct: {pair}")
            labels = None
            if match_keys is not None:
                labels = np.where(np.isin(ia * n_right + ib, match_keys), MATCH, NON_MATCH)
            _write_tile(fh, ids_a, ids_b, _tile_features(grams, ia, ib + offset), labels)
            count += len(ia)
    return count


def _gram_rows(texts: list[str], q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, gram ids, sizes): text k's q-grams get the ids
    ids[starts[k]:starts[k + 1]], and sizes[k] counts them."""
    sets = [qgrams(text, q) for text in texts]
    sizes = np.fromiter(map(len, sets), np.int64, len(sets))
    starts = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    vocab: dict[str, int] = {}
    ids = np.fromiter(
        (vocab.setdefault(gram, len(vocab)) for grams in sets for gram in grams),
        np.int64, int(starts[-1]),
    )
    return starts, ids, sizes.astype(np.float64)


def _pair_tiles(n_left: int, n_right: int, all_pairs: bool, blocked):
    """(left rows, right rows) of each tile's pairs, in generate_pairs order.

    all_pairs gives the upper triangle of the left records against
    themselves; blocked, when given, holds the (left, right) rows of the
    candidate pairs ordered by left row; otherwise left x right.
    """
    step = max(1, PAIR_TILE // max(n_right, 1))
    for lo in range(0, n_left, step):
        hi = min(lo + step, n_left)
        if blocked is not None:
            a, b = np.searchsorted(blocked[0], [lo, hi])
            ia, ib = blocked[0][a:b], blocked[1][a:b]
        elif all_pairs:
            ia, ib = np.triu_indices(hi - lo, lo + 1, n_left)
            ia = ia + lo
        else:
            ia = np.repeat(np.arange(lo, hi), n_right)
            ib = np.tile(np.arange(n_right), hi - lo)
        if len(ia):
            yield ia, ib


def _tile_features(grams, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """(len(ia), attributes) Jaccard features of the gram rows (ia, ib).

    Intersection counts are exact integers in float32 (they stay far below
    2**24), and a float64 divide of exact integers rounds as Python's
    int / int does, so the values equal qgram_jaccard's.
    """
    rows_a, at_a = np.unique(ia, return_inverse=True)
    rows_b, at_b = np.unique(ib, return_inverse=True)
    feats = np.empty((len(ia), len(grams)))
    for k, (starts, ids, sizes) in enumerate(grams):
        pos_a, grams_a = _gather(starts, ids, rows_a)
        # only grams of the left rows can be shared
        cols, col_a = np.unique(grams_a, return_inverse=True)
        pos_b, grams_b = _gather(starts, ids, rows_b)
        shared = np.isin(grams_b, cols)
        left_block = np.zeros((len(rows_a), len(cols)), dtype=np.float32)
        left_block[pos_a, col_a] = 1.0
        right_block = np.zeros((len(rows_b), len(cols)), dtype=np.float32)
        right_block[pos_b[shared], np.searchsorted(cols, grams_b[shared])] = 1.0
        inter = (left_block @ right_block.T)[at_a, at_b].astype(np.float64)
        union = sizes[ia] + sizes[ib] - inter
        # two empty gram sets agree on absence
        feats[:, k] = np.divide(inter, union, out=np.ones_like(inter), where=union > 0)
    return feats


def _gather(starts: np.ndarray, ids: np.ndarray, rows: np.ndarray):
    """(position in rows, gram id) of every gram of the given gram rows."""
    lens = starts[rows + 1] - starts[rows]
    first = np.cumsum(lens) - lens
    flat = np.arange(int(lens.sum())) + np.repeat(starts[rows] - first, lens)
    return np.repeat(np.arange(len(rows)), lens), ids[flat]


def _write_tile(fh, ids_a: np.ndarray, ids_b: np.ndarray, feats: np.ndarray, labels) -> None:
    """Write one tile of instance rows, calling repr once per distinct value.

    Values are told apart by their bits, so each float is written as its
    own repr.
    """
    bits, inverse = np.unique(feats.view(np.int64), return_inverse=True)
    table = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    cols = [ids_a.tolist(), ids_b.tolist(), *table[inverse.reshape(feats.shape)].T.tolist()]
    if labels is not None:
        cols.append(labels.tolist())
    fh.write("\n".join(map("\t".join, zip(*cols))) + "\n")


def _chunked(stream: Iterator, size: int) -> Iterator[list]:
    while True:
        chunk = list(itertools.islice(stream, size))
        if not chunk:
            return
        yield chunk


def _write_instance_header(fh, schema: tuple[str, ...], q: int, labeled: bool) -> None:
    fh.write(f"# instances v{INSTANCE_FORMAT_VERSION} q={q}\n")
    cols = ["id_a", "id_b", *schema]
    if labeled:
        cols.append("label")
    fh.write("\t".join(cols) + "\n")


def write_instance_file(
    path: str | Path,
    pool: InstancePool,
    schema: tuple[str, ...] | None = None,
    q: int = 2,
) -> None:
    """Write a pool's rows in row order, PAIR_TILE rows at a time. The label
    column is written only when some row has a real label; an unlabeled
    row's cell is then empty."""
    labeled = bool(np.any(pool.real_labels != UNLABELED))
    if schema is None:
        schema = tuple(f"f{k}" for k in range(pool.n_features))
    cells = np.where(pool.real_labels == UNLABELED, "", LABEL_NAMES[pool.real_labels])
    with Path(path).open("w", encoding="utf-8") as fh:
        _write_instance_header(fh, schema, q, labeled)
        for lo in range(0, len(pool), PAIR_TILE):
            ids = np.array(pool.ids[lo : lo + PAIR_TILE], dtype=object)
            _write_tile(fh, ids[:, 0], ids[:, 1], pool.features[lo : lo + PAIR_TILE],
                        cells[lo : lo + PAIR_TILE] if labeled else None)


def read_instance_file(path: str | Path) -> tuple[list[PairId], np.ndarray, np.ndarray, dict]:
    """Read an instance file as columns: (ids, features, labels, meta).

    ids lists the pair ids in file order, features is a float64 (n, d)
    matrix and labels an int8 column of label codes (UNLABELED where the
    file gives none); meta is {'q': int, 'schema': tuple}. Rows are parsed
    a chunk at a time, so only one chunk's cell strings are alive at once.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"missing file: {path}")
    meta: dict = {}
    ids: list[PairId] = []
    label_cells: list[str] = []
    blocks: list[np.ndarray] = []
    with path.open(encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("# instances"):
            raise IngestError(f"{path}: not an instance file (bad header)")
        for token in first.split():
            if "=" in token:
                key, value = token.split("=", 1)
                meta[key] = int(value) if value.isdigit() else value
        header = fh.readline().rstrip("\n").split("\t")
        if header[:2] != ["id_a", "id_b"]:
            raise IngestError(f"{path}: malformed column header")
        has_label = header[-1] == "label"
        attr_cols = header[2 : -1 if has_label else len(header)]
        meta["schema"] = tuple(attr_cols)
        n_feats = len(attr_cols)
        expected = 2 + n_feats + (1 if has_label else 0)
        for chunk in _chunked(fh, 256):
            rows = [line.rstrip("\n").split("\t") for line in chunk if line != "\n"]
            for k, row in enumerate(rows):
                if len(row) != expected:
                    raise _row_fault(path, len(ids) + k, f"expected {expected} columns")
            cells = itertools.chain.from_iterable(row[2 : 2 + n_feats] for row in rows)
            try:
                blocks.append(np.fromiter(map(float, cells), np.float64, len(rows) * n_feats))
            except ValueError as exc:
                raise IngestError(f"{path}: {exc}") from None
            ids.extend((row[0], row[1]) for row in rows)
            label_cells.extend(row[-1] if has_label else "" for row in rows)

    features = np.concatenate(blocks or [np.empty(0)]).reshape(len(ids), n_feats)
    codes = {**LABEL_CODES, "": UNLABELED}
    for k, cell in enumerate(label_cells):
        if cell not in codes:
            raise _row_fault(path, k, f"unknown label {cell!r}")
    labels = np.array([codes[cell] for cell in label_cells], dtype=np.int8)
    fault = _check_columns(ids, features, labels)
    if fault is not None:
        raise _row_fault(path, *fault)
    return ids, features, labels, meta


def _row_fault(path: Path, row: int, message: str) -> IngestError:
    """IngestError naming the file line of data row `row` (blank lines skipped)."""
    with path.open(encoding="utf-8") as fh:
        lines = (n for n, line in enumerate(fh, start=1) if n > 2 and line != "\n")
        lineno = next(itertools.islice(lines, row, None))
    return IngestError(f"{path}:{lineno}: {message}")

"""The q-gram similarity kernel: candidate pairs become feature rows.

A pair of records becomes an instance: a vector with one similarity value
per attribute, each in [0, 1]. featurize_to_file computes every candidate
pair in sorted id order, one tile of pairs at a time in a single process,
and hands the tiles to datasets.write_instance_tiles, which writes every
instance file; a tile's labels come from GoldStandard.label_codes, the
one gold rule. Per attribute, each record's q-gram set becomes a row of
gram ids, a tile's intersection counts come from one product of 0/1
indicator blocks, and Jaccard is I / (|A| + |B| - I). Blocking tokens
become rows of token ids the same way, and a tile's blocked candidates
are its left records' tokens expanded into the right records that hold
them. featurize_pair runs the same kernel on a tile of one pair, so there
is one Jaccard in the library; the test suite checks it bit for bit
against a scalar reference that works set by set.
"""

from __future__ import annotations

import operator
from pathlib import Path

import numpy as np

from .datasets import GoldStandard, IngestError, Record, RecordSet, write_instance_tiles
# the benchmark imports and traces these two here
from .datasets import InstancePool, write_instance_file  # noqa: F401


def qgrams(text: str, q: int) -> frozenset[str]:
    """Set of overlapping q-grams of the case-folded string (empty if too short)."""
    folded = text.casefold()
    return frozenset(folded[i : i + q] for i in range(len(folded) - q + 1))


def featurize_pair(r_i: Record, r_j: Record, q: int = 2) -> np.ndarray:
    """Feature vector whose k-th value is the q-gram Jaccard of attribute k
    of both records: the kernel run on a tile of one pair."""
    if q < 1:
        raise ValueError("q must be at least 1")
    if len(r_i.attributes) != len(r_j.attributes):
        raise IngestError(
            f"schema mismatch: {len(r_i.attributes)} vs {len(r_j.attributes)} attributes"
        )
    grams = [_gram_rows([qgrams(a, q), qgrams(b, q)])
             for a, b in zip(r_i.attributes, r_j.attributes)]
    return _tile_features(grams, np.array([0]), np.array([1]))[0]


def _tokens(text: str) -> dict[str, None]:
    """The case-folded whitespace tokens of text, each once, in order."""
    return dict.fromkeys(text.casefold().split())


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
    block_on: str | None = None,
) -> int:
    """Featurize all candidate pairs straight to an instance file.

    One record set gives all C(n, 2) unordered pairs, two sets the full
    cross product; with block_on only the pairs whose block_on attributes
    share a case-folded whitespace token remain. Rows come in sorted
    (id_i, id_j) order and hold the features featurize_pair gives: for
    each tile of pairs and each attribute, the gram-set intersections come
    from one indicator-matrix product and the Jaccard values from one
    divide, and gold labels them. Returns the number of instances written.
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
    grams = [_gram_rows([qgrams(rec.attributes[k], q) for rec in records])
             for k in range(len(left.schema))]
    tokens = None
    if block_on is not None:
        if block_on not in left.schema:
            raise IngestError(f"unknown attribute {block_on!r}")
        col = left.schema.index(block_on)
        tokens = _gram_rows([_tokens(rec.attributes[col]) for rec in records])
    left_ids = np.array([rec.id for rec in lrecs], dtype=object)
    right_ids = np.array([rec.id for rec in rrecs], dtype=object)

    def tiles():
        for ia, ib in _pair_tiles(n_left, n_right, right is None, tokens):
            ids_a, ids_b = left_ids[ia], right_ids[ib]
            same = np.flatnonzero(ids_a == ids_b)
            if len(same):
                raise IngestError(f"both record sets hold id {ids_a[same[0]]!r},"
                                  " on a candidate pair")
            codes = None if gold is None else gold.label_codes(list(zip(ids_a, ids_b)))
            yield ids_a, ids_b, _tile_features(grams, ia, ib + offset), codes

    return write_instance_tiles(out_path, left.schema, q, gold is not None, tiles())


def _gram_rows(sets: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, ids, sizes) of member sets: set k's members get the ids
    ids[starts[k]:starts[k + 1]], and sizes[k] counts them."""
    sizes = np.fromiter(map(len, sets), np.int64, len(sets))
    starts = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    vocab: dict[str, int] = {}
    ids = np.fromiter(
        (vocab.setdefault(member, len(vocab)) for members in sets for member in members),
        np.int64, int(starts[-1]),
    )
    return starts, ids, sizes.astype(np.float64)


def _pair_tiles(n_left: int, n_right: int, all_pairs: bool, tokens):
    """(left rows, right rows) of each tile's pairs, in ascending pair order.

    all_pairs gives the upper triangle of the left records against
    themselves, otherwise left x right. tokens, when given, are the
    blocking attribute's token rows over the records (the right ones after
    the left ones in a linkage), and only pairs that share a token remain.
    """
    if tokens is not None:
        starts, ids, _ = tokens
        # each token's right rows, ascending, as rows of their own
        at, token = _gather(starts, ids, np.arange(n_right) + (0 if all_pairs else n_left))
        holders = at[np.argsort(token, kind="stable")]
        held = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(token, minlength=len(ids)), out=held[1:])
    step = max(1, PAIR_TILE // max(n_right, 1))
    for lo in range(0, n_left, step):
        hi = min(lo + step, n_left)
        if tokens is not None:
            at, token = _gather(starts, ids, np.arange(lo, hi))
            which, ib = _gather(held, holders, token)
            ia, ib = np.divmod(np.unique((at[which] + lo) * n_right + ib), n_right)
            if all_pairs:
                keep = ib > ia
                ia, ib = ia[keep], ib[keep]
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
    int / int does, so each value is |A & B| / |A | B| exactly as Python
    computes it from the two gram sets.
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

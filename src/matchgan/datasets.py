"""Record/gold-standard loading and synthetic workload generation.

Datasets arrive as delimited text with a header row. Gold standards are
two-column files of matching id pairs; every pair not listed is a
non-match. The synthetic generator emits an InstancePool of pair feature
vectors directly (no record form), built as whole columns, with class
overlap controlled by a single knob, so imbalanced workloads of any size
can be produced deterministically.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MATCH = "M"
NON_MATCH = "N"

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


class MissingColumnError(IngestError):
    pass


class DuplicateIdError(IngestError):
    pass


class SelfPairError(IngestError):
    pass


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

    def attribute_index(self, name: str) -> int:
        try:
            return self.schema.index(name)
        except ValueError:
            raise MissingColumnError(f"unknown attribute {name!r}") from None


@dataclass
class GoldStandard:
    """Set of matching id pairs; any pair not present is a non-match."""

    matches: set[frozenset[str]] = field(default_factory=set)

    def add(self, id_a: str, id_b: str) -> None:
        if id_a == id_b:
            raise SelfPairError(f"self-pair ({id_a!r}, {id_a!r}) is not a valid match")
        self.matches.add(frozenset((id_a, id_b)))

    def is_match(self, id_a: str, id_b: str) -> bool:
        return frozenset((id_a, id_b)) in self.matches

    def label_of(self, id_a: str, id_b: str) -> str:
        return MATCH if self.is_match(id_a, id_b) else NON_MATCH

    def __len__(self) -> int:
        return len(self.matches)


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


def load_records(
    path: str | Path,
    schema: list[str] | tuple[str, ...],
    id_column: str,
    delimiter: str = ",",
) -> RecordSet:
    """Load one record per data row; missing cells become empty strings."""
    path = Path(path)
    if not path.exists():
        raise IngestError(f"missing file: {path}")
    schema = tuple(schema)
    records: list[Record] = []
    seen: set[str] = set()
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        header = reader.fieldnames or []
        for col in (id_column, *schema):
            if col not in header:
                raise MissingColumnError(f"missing column {col!r} in {path}")
        for row in reader:
            rid = row[id_column]
            if rid and any(c in rid for c in "\t\n\r"):
                raise IngestError(
                    f"{path}:{reader.line_num}: record id {rid!r} contains a tab or line break"
                )
            if rid in seen:
                raise DuplicateIdError(f"duplicate id {rid!r} in {path}")
            seen.add(rid)
            values = tuple((row.get(col) or "") for col in schema)
            records.append(Record(id=rid, attributes=values))
    return RecordSet(schema=schema, records=records)


def load_gold(path: str | Path, has_header: bool = False) -> GoldStandard:
    """Load a symmetric, deduplicated match set from a two-column file."""
    path = Path(path)
    if not path.exists():
        raise IngestError(f"missing file: {path}")
    gold = GoldStandard()
    with path.open(newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if lineno == 1 and has_header:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise IngestError(
                    f"{path}:{lineno}: expected two columns, got {len(row)}"
                )
            gold.add(row[0], row[1])
    return gold


def save_gold(gold: GoldStandard, path: str | Path) -> None:
    rows = sorted(tuple(sorted(pair)) for pair in gold.matches)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def class_feature_params(separation: float) -> tuple[tuple[float, float], tuple[float, float], float]:
    """Sampling intervals (lo, hi) for match / non-match features plus the
    non-match zero-inflation probability, all as a function of separation."""
    m_center = 0.5 + _CENTER_GAP * separation
    n_center = 0.5 - _CENTER_GAP * separation
    half = _CLASS_WIDTH / 2.0
    match_range = (m_center - half, min(m_center + half, 1.0))
    nonmatch_range = (max(n_center - half, 0.0), n_center + half)
    return match_range, nonmatch_range, _ZERO_MASS * separation


def generate_synthetic(cfg: SyntheticConfig):
    """Deterministically generate a labeled instance pool plus a gold standard.

    Match feature vectors are drawn near 1, non-matches near 0 (with a
    separation-scaled fraction of features exactly 0.0). Returns
    (InstancePool, GoldStandard) with class counts exactly n_matches and
    n_matches * imbalance_rate; the matches come first in pair-id order.
    """
    from .features import LABEL_CODES, InstancePool

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

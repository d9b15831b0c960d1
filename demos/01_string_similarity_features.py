"""From raw records to pair feature vectors.

Walks the featurization path: q-gram similarity on attribute strings,
candidate pair streaming (all pairs vs token blocking), and the instance
file format everything downstream consumes.
"""

import tempfile
from pathlib import Path

from matchgan import (
    Record,
    RecordSet,
    featurize_pair,
    featurize_to_file,
    read_instance_file,
)
from matchgan.datasets import GoldStandard

# --- q-gram Jaccard on strings --------------------------------------------
print("similarity of near-duplicates:")
for a, b in [
    ("deep learning methods", "deep learning method"),
    ("smith j", "smith john"),
    ("database systems", "deep learning"),
    ("", ""),
]:
    value = featurize_pair(Record("a", (a,)), Record("b", (b,)), q=2)[0]
    print(f"  {a!r:>24} vs {b!r:<24} -> {value:.3f}")

# --- record pairs to instances --------------------------------------------
papers = RecordSet(
    schema=("title", "author"),
    records=[
        Record("p1", ("deep learning methods", "smith j")),
        Record("p2", ("deep learning method", "smith j")),
        Record("p3", ("database systems", "jones a")),
        Record("p4", ("deep databases", "jones a")),
    ],
)
by_id = {rec.id: rec for rec in papers.records}

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "instances.tsv"

    print("\nall candidate pairs (C(4,2) = 6):")
    featurize_to_file(path, papers)
    ids, features, _, _ = read_instance_file(path)
    for (id_a, id_b), row in zip(ids, features):
        print(f"  ({id_a},{id_b}) features {row.round(3)}")
    # each row holds what featurize_pair gives for its two records
    assert all((featurize_pair(by_id[a], by_id[b]) == row).all()
               for (a, b), row in zip(ids, features))

    # --- token blocking shrinks the candidate set --------------------------
    n = featurize_to_file(path, papers, block_on="title")
    blocked, _, _, _ = read_instance_file(path)
    print(f"\npairs sharing a title token: {n} of 6, {blocked}")

    # --- streaming a labeled instance file ---------------------------------
    gold = GoldStandard()
    gold.add("p1", "p2")
    n = featurize_to_file(path, papers, gold=gold)
    print(f"\nwrote {n} labeled instances; file starts with:")
    for line in path.read_text().splitlines()[:4]:
        print("  " + line)
    ids, features, labels, meta = read_instance_file(path)
    print(
        f"read back {len(ids)} instances as columns: features {features.shape}, "
        f"label codes {labels.tolist()}, schema {meta['schema']}, q={meta['q']}"
    )

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
    generate_pairs,
    qgram_jaccard,
    block_by_token,
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
    print(f"  {a!r:>24} vs {b!r:<24} -> {qgram_jaccard(a, b, q=2):.3f}")

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

print("\nall candidate pairs (C(4,2) = 6):")
for r_i, r_j in generate_pairs(papers):
    print(f"  ({r_i.id},{r_j.id}) features {featurize_pair(r_i, r_j).round(3)}")

# --- token blocking shrinks the candidate set ------------------------------
blocks = block_by_token(papers, "title")
print(f"\ntitle token blocks: { {t: ids for t, ids in sorted(blocks.items())} }")
blocked = list(generate_pairs(papers, block_on="title"))
print(f"blocked candidate pairs: {[(a.id, b.id) for a, b in blocked]}")

# --- streaming to an instance file -----------------------------------------
gold = GoldStandard()
gold.add("p1", "p2")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "instances.tsv"
    n = featurize_to_file(path, papers, gold=gold)
    print(f"\nwrote {n} labeled instances; file starts with:")
    for line in path.read_text().splitlines()[:4]:
        print("  " + line)
    ids, features, labels, meta = read_instance_file(path)
    print(
        f"read back {len(ids)} instances as columns: features {features.shape}, "
        f"label codes {labels.tolist()}, schema {meta['schema']}, q={meta['q']}"
    )

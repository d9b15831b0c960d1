import csv
import itertools

import records


def test_same_seed_same_records_other_seed_differs():
    assert records.generate_records(120, seed=5) == records.generate_records(120, seed=5)
    assert records.generate_records(120, seed=5) != records.generate_records(120, seed=6)


def test_clusters_partition_the_records():
    rows, clusters = records.generate_records(150, seed=3)
    ids = [row[0] for row in rows]
    assert len(set(ids)) == len(ids) == 150
    assert sorted(rid for members in clusters for rid in members) == sorted(ids)
    assert all(len(row) == 1 + len(records.SCHEMA) for row in rows)


def test_gold_file_holds_exactly_the_within_cluster_pairs(tmp_path):
    info = records.write_records(tmp_path, 90, seed=8)
    _, clusters = records.generate_records(90, seed=8)
    cluster_of = {rid: k for k, members in enumerate(clusters) for rid in members}
    expected = {
        (a, b) for a, b in itertools.combinations(sorted(cluster_of), 2)
        if cluster_of[a] == cluster_of[b]
    }
    with (tmp_path / "gold.csv").open(newline="") as fh:
        gold = [tuple(row) for row in csv.reader(fh)]
    assert len(gold) == len(set(gold)) == info["matches"]
    assert set(gold) == expected
    with (tmp_path / "records.csv").open(newline="") as fh:
        written = list(csv.reader(fh))
    assert written[0] == ["id", *records.SCHEMA]
    assert len(written) == 91


def test_match_rate_is_near_coras_one_in_fifty():
    for seed in range(1, 6):
        rows, clusters = records.generate_records(400, seed)
        rate = len(records.gold_pairs(clusters)) / (400 * 399 / 2)
        assert 0.012 < rate < 0.03, (seed, rate)

import numpy as np
import pytest

from matchgan.datasets import (
    MATCH,
    NON_MATCH,
    DuplicateIdError,
    GoldStandard,
    IngestError,
    MissingColumnError,
    SelfPairError,
    SyntheticConfig,
    class_feature_params,
    generate_synthetic,
    load_gold,
    load_records,
    save_gold,
    save_records,
)


class TestLoadRecords:
    def test_three_row_fixture(self, records_csv):
        rs = load_records(records_csv, schema=["title", "author"], id_column="id")
        assert len(rs) == 3
        assert rs.schema == ("title", "author")
        assert rs.records[0].id == "r1"
        assert rs.records[2].attributes == ("database systems", "jones a")

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,title\n")
        rs = load_records(path, schema=["title"], id_column="id")
        assert len(rs) == 0

    def test_missing_id_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("key,title\nr1,x\n")
        with pytest.raises(MissingColumnError):
            load_records(path, schema=["title"], id_column="id")

    def test_missing_schema_column(self, records_csv):
        with pytest.raises(MissingColumnError):
            load_records(records_csv, schema=["title", "venue"], id_column="id")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="missing file"):
            load_records(tmp_path / "nope.csv", schema=["title"], id_column="id")

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,title\nr1,x\nr1,y\n")
        with pytest.raises(DuplicateIdError):
            load_records(path, schema=["title"], id_column="id")

    def test_missing_cells_become_empty(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("id,title,author\nr1,only title\n")
        rs = load_records(path, schema=["title", "author"], id_column="id")
        assert rs.records[0].attributes == ("only title", "")

    def test_roundtrip_lossless(self, records_csv, tmp_path):
        rs = load_records(records_csv, schema=["title", "author"], id_column="id")
        out = tmp_path / "again.csv"
        save_records(rs, out)
        back = load_records(out, schema=["title", "author"], id_column="id")
        assert back.schema == rs.schema
        assert [(r.id, r.attributes) for r in back.records] == [
            (r.id, r.attributes) for r in rs.records
        ]


class TestLoadGold:
    def test_symmetry_and_dedup(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("a,b\nb,a\na,b\n")
        gold = load_gold(path)
        assert len(gold) == 1
        assert gold.is_match("a", "b") and gold.is_match("b", "a")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("")
        assert len(load_gold(path)) == 0

    def test_self_pair_rejected(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("a,a\n")
        with pytest.raises(SelfPairError):
            load_gold(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(IngestError, match="two columns"):
            load_gold(path)

    def test_header_skipped_when_flagged(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("left,right\na,b\n")
        gold = load_gold(path, has_header=True)
        assert len(gold) == 1

    def test_universe_rule(self):
        gold = GoldStandard()
        gold.add("a", "b")
        assert gold.label_of("a", "b") == MATCH
        assert gold.label_of("a", "c") == NON_MATCH

    def test_save_load_roundtrip(self, tmp_path):
        gold = GoldStandard()
        gold.add("x", "y")
        gold.add("p", "q")
        path = tmp_path / "gold.csv"
        save_gold(gold, path)
        assert load_gold(path).matches == gold.matches


class TestGenerateSynthetic:
    def test_exact_class_counts(self):
        cfg = SyntheticConfig(n_matches=10, imbalance_rate=100, seed=7)
        pool, gold = generate_synthetic(cfg)
        assert np.count_nonzero(pool.real_labels == 1) == 10
        assert np.count_nonzero(pool.real_labels == 0) == 1000
        assert len(pool) == 1010
        assert len(gold) == 10
        # gold lists exactly the pairs labeled as matches
        assert {frozenset(pool.ids[r]) for r in np.flatnonzero(pool.real_labels == 1)} \
            == gold.matches

    def test_separable_at_full_separation(self):
        # oracle: scan every feature; match and non-match value ranges must
        # not overlap on any of them
        cfg = SyntheticConfig(n_matches=10, imbalance_rate=100, separation=1.0, seed=7)
        pool, _ = generate_synthetic(cfg)
        m = pool.features[pool.real_labels == 1]
        n = pool.features[pool.real_labels == 0]
        for k in range(cfg.n_features):
            assert n[:, k].max() < m[:, k].min()

    def test_deterministic_under_seed(self):
        cfg = SyntheticConfig(n_matches=5, imbalance_rate=10, seed=3)
        first, _ = generate_synthetic(cfg)
        second, _ = generate_synthetic(cfg)
        assert first.ids == second.ids
        assert first.features.tobytes() == second.features.tobytes()
        assert first.real_labels.tobytes() == second.real_labels.tobytes()

    def test_zero_separation_identical_distributions(self):
        match_range, nonmatch_range, zero_prob = class_feature_params(0.0)
        assert match_range == nonmatch_range
        assert zero_prob == 0.0
        cfg = SyntheticConfig(n_matches=200, imbalance_rate=1, separation=0.0, seed=1)
        pool, _ = generate_synthetic(cfg)
        m = pool.features[pool.real_labels == 1]
        n = pool.features[pool.real_labels == 0]
        for arr in (m, n):
            assert arr.min() >= 0.45 and arr.max() <= 0.55

    def test_imbalance_ratio_exact(self):
        for rate in (1, 7, 50):
            cfg = SyntheticConfig(n_matches=4, imbalance_rate=rate, seed=0)
            pool, _ = generate_synthetic(cfg)
            counts = np.bincount(pool.real_labels, minlength=2)
            assert counts[0] == rate * counts[1]

    def test_invalid_configs(self):
        with pytest.raises(IngestError):
            SyntheticConfig(n_matches=0, imbalance_rate=10)
        with pytest.raises(IngestError):
            SyntheticConfig(n_matches=1, imbalance_rate=0)
        with pytest.raises(IngestError):
            SyntheticConfig(n_matches=1, imbalance_rate=1, separation=1.5)

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from matchgan.datasets import (
    LABEL_CODES,
    MATCH,
    NON_MATCH,
    GoldStandard,
    IngestError,
    SyntheticConfig,
    class_feature_params,
    generate_synthetic,
    load_gold,
    load_records,
    read_labels_file,
    save_gold,
    write_labels_file,
)

from helpers import fault_of, labels_texts, reference_read_labels_file, save_records


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
        with pytest.raises(IngestError, match="missing column 'id' in "):
            load_records(path, schema=["title"], id_column="id")

    def test_missing_schema_column(self, records_csv):
        with pytest.raises(IngestError, match="missing column 'venue' in "):
            load_records(records_csv, schema=["title", "venue"], id_column="id")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="missing file"):
            load_records(tmp_path / "nope.csv", schema=["title"], id_column="id")

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,title\nr1,x\nr1,y\n")
        with pytest.raises(IngestError, match="dup.csv:3: duplicate id 'r1'"):
            load_records(path, schema=["title"], id_column="id")

    def test_missing_cells_become_empty(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("id,title,author\nr1,only title\n")
        rs = load_records(path, schema=["title", "author"], id_column="id")
        assert rs.records[0].attributes == ("only title", "")

    @pytest.mark.parametrize("text, line, reason", [
        ('id,title\nl1,deep nets\nl2,"deep lea', 3, "unexpected end of data"),
        ('id,"tit', 1, "unexpected end of data"),
        ('id,title\nl1,"a\nb"\n\nl2,"c"d\nl3,e\n', 5, "',' expected after '\"'"),
        ('id,title\nl1,"a\nb\nc', 4, "unexpected end of data"),
    ])
    def test_malformed_quoting_names_its_line(self, tmp_path, text, line, reason):
        # a file cut inside a quoted field, or a quote closed mid-cell, is
        # named at the line where parsing fails
        path = tmp_path / "cut.csv"
        path.write_text(text)
        with pytest.raises(IngestError) as caught:
            load_records(path)
        assert str(caught.value) == f"{path}:{line}: {reason}"

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
        assert gold.label_codes([("a", "b"), ("b", "a")]).tolist() == [1, 1]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("")
        assert len(load_gold(path)) == 0

    def test_self_pair_rejected(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("a,a\n")
        with pytest.raises(IngestError,
                           match=r"gold.csv:1: self-pair \('a', 'a'\) is not a valid match"):
            load_gold(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(IngestError, match="two columns"):
            load_gold(path)

    @pytest.mark.parametrize("text, line", [('l1,"l2', 1), ('a,b\n"c"d,e\n', 2)])
    def test_malformed_quoting_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "gold.csv"
        path.write_text(text)
        with pytest.raises(IngestError, match=f"^{path}:{line}: "):
            load_gold(path)

    def test_fault_after_a_multi_line_field_names_its_file_line(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text('a,"b\nc"\nd,d\n')
        with pytest.raises(IngestError, match=f"^{path}:3: self-pair"):
            load_gold(path)

    def test_header_skipped_when_flagged(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("left,right\na,b\n")
        gold = load_gold(path, has_header=True)
        assert len(gold) == 1

    def test_universe_rule(self):
        gold = GoldStandard()
        gold.add("a", "b")
        codes = gold.label_codes([("a", "b"), ("b", "a"), ("a", "c")])
        assert codes.dtype == np.int8
        assert codes.tolist() == [LABEL_CODES[MATCH], LABEL_CODES[MATCH], LABEL_CODES[NON_MATCH]]

    def test_label_codes_of_no_pairs(self):
        gold = GoldStandard()
        gold.add("a", "b")
        codes = gold.label_codes([])
        assert codes.dtype == np.int8 and codes.shape == (0,)

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
        with pytest.raises(IngestError, match="seed must be non-negative"):
            SyntheticConfig(n_matches=1, imbalance_rate=1, seed=-1)


class TestLabelsFile:
    """A labels file is read by the instance-file table reader: the header
    id_a, id_b, label from line 1, and no label may be empty."""

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "labels.tsv"
        ids = [("a", "b"), ("c", "d"), ("a", "c")]
        write_labels_file(path, ids, np.array([1, 0, 1], dtype=np.int8))
        assert path.read_text() == "id_a\tid_b\tlabel\na\tb\tM\nc\td\tN\na\tc\tM\n"
        read_ids, codes = read_labels_file(path)
        assert read_ids == ids
        assert codes.dtype == np.int8 and codes.tolist() == [1, 0, 1]

    def test_unlabeled_code_is_written_empty_and_read_back_as_a_fault(self, tmp_path):
        path = tmp_path / "labels.tsv"
        write_labels_file(path, [("a", "b"), ("c", "d")], np.array([1, -1], dtype=np.int8))
        assert path.read_text() == "id_a\tid_b\tlabel\na\tb\tM\nc\td\t\n"
        with pytest.raises(IngestError, match=":3: empty label"):
            read_labels_file(path)

    def test_header_only_file_has_no_rows(self, tmp_path):
        path = tmp_path / "labels.tsv"
        write_labels_file(path, [], np.zeros(0, np.int8))
        assert path.read_text() == "id_a\tid_b\tlabel\n"
        ids, codes = read_labels_file(path)
        assert ids == [] and codes.dtype == np.int8 and codes.tolist() == []

    def test_blank_line_is_skipped(self, tmp_path):
        # the labels file used to reject it as "expected 3 columns, got 1"
        path = tmp_path / "labels.tsv"
        path.write_text("id_a\tid_b\tlabel\na\tb\tM\n\nc\td\tN\n")
        assert read_labels_file(path)[0] == [("a", "b"), ("c", "d")]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("a\ta\tM", ":4: instance pair ids must be distinct"),  # used to be read
            ("a\tb\t", ":4: empty label"),
            ("a\tb\tX", ":4: unknown label 'X'"),
            ("a\tb", ":4: expected 3 columns, got 2"),
            ("a\tb\tM\t", ":4: expected 3 columns, got 4"),
        ],
    )
    def test_rejects_bad_row_with_its_line(self, tmp_path, row, message):
        path = tmp_path / "labels.tsv"
        path.write_text(f"id_a\tid_b\tlabel\nc\td\tN\n\n{row}\n")
        with pytest.raises(IngestError, match=message):
            read_labels_file(path)

    @pytest.mark.parametrize("header", ["id_a\tid_b", "id_a\tid_b\tf0\tlabel",
                                        "# instances v1 q=2"])
    def test_rejects_other_headers(self, tmp_path, header):
        path = tmp_path / "labels.tsv"
        path.write_text(f"{header}\na\tb\tM\n")
        with pytest.raises(IngestError, match="not a labels file"):
            read_labels_file(path)

    @settings(max_examples=300, deadline=None)
    @given(labels_texts())
    def test_reader_matches_line_by_line_reference(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "labels.tsv"
            path.write_text(text, encoding="utf-8")
            try:
                expected = reference_read_labels_file(path)
            except IngestError as exc:
                with pytest.raises(IngestError) as info:
                    read_labels_file(path)
                assert fault_of(info.value, path) == fault_of(exc, path)
                return
            ids, codes = read_labels_file(path)
        assert ids == expected[0]
        assert codes.dtype == np.int8 and codes.tolist() == expected[1].tolist()

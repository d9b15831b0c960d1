import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchgan import datasets, features
from matchgan.datasets import (
    GoldStandard,
    UNLABELED,
    IngestError,
    InstancePool,
    Record,
    RecordSet,
    _write_instance_header,
    read_instance_file,
    write_instance_file,
)
from matchgan.features import featurize_pair, featurize_to_file

from helpers import (block_by_token, fault_of, generate_pairs, instance_texts, qgram_jaccard,
                     reference_read_instance_file)


def write_reference(path, left, right=None, gold=None, q=2, block_on=None):
    """The instance file written pair by pair through the scalar reference,
    one repr call per feature value."""
    with Path(path).open("w", encoding="utf-8") as fh:
        _write_instance_header(fh, left.schema, q, labeled=gold is not None)
        for r_i, r_j in generate_pairs(left, right, block_on):
            values = (qgram_jaccard(a, b, q) for a, b in zip(r_i.attributes, r_j.attributes))
            cells = [r_i.id, r_j.id, *map(repr, values)]
            if gold is not None:
                cells.append("M" if gold.label_codes([(r_i.id, r_j.id)])[0] else "N")
            fh.write("\t".join(cells) + "\n")


def pool_of(rows):
    """InstancePool of (pair id, features, label code) rows."""
    ids, feats, labels = zip(*rows)
    return InstancePool(list(ids), np.array(feats, dtype=np.float64), np.array(labels))


# short strings over letters that case-fold together or expand (ß -> ss),
# so empty and shorter-than-q values and repeated block tokens all occur
_TEXT = st.text(alphabet="aAbß 1", max_size=6)


@st.composite
def featurize_cases(draw):
    def record_set(prefix):
        values = draw(st.lists(st.tuples(_TEXT, _TEXT), max_size=7))
        order = draw(st.permutations(range(len(values))))
        return RecordSet(("t", "u"), [Record(f"{prefix}{k}", v) for k, v in zip(order, values)])

    left = record_set("l")
    right = record_set("r") if draw(st.booleans()) else None
    ids = [rec.id for rs in (left, right) if rs is not None for rec in rs.records]
    gold = None
    if draw(st.booleans()):
        gold = GoldStandard()
        if len(ids) >= 2:
            for a, b in draw(st.lists(st.permutations(ids).map(lambda p: p[:2]), max_size=6)):
                gold.add(a, b)
    block_on = "t" if draw(st.booleans()) else None
    q = draw(st.integers(1, 3))
    tile = draw(st.sampled_from([1, 2, 5, features.PAIR_TILE]))
    return left, right, gold, q, block_on, tile


def pair_jaccard(s1: str, s2: str, q: int) -> float:
    """The library's q-gram Jaccard of two strings: featurize_pair on two
    one-attribute records."""
    return float(featurize_pair(Record("x", (s1,)), Record("y", (s2,)), q)[0])


class TestQgramJaccard:
    """The kernel's conventions, through featurize_pair."""

    def test_identical_strings(self):
        assert pair_jaccard("abc", "abc", 2) == 1.0

    def test_hand_enumerated_bigrams(self):
        # {ab, bc} vs {ab, bd}: intersection 1, union 3
        assert pair_jaccard("abc", "abd", 2) == pytest.approx(1 / 3)

    def test_one_empty_gram_set(self):
        assert pair_jaccard("", "xy", 2) == 0.0

    def test_both_empty_gram_sets(self):
        assert pair_jaccard("", "", 2) == 1.0
        assert pair_jaccard("a", "b", 2) == 1.0  # both too short for bigrams

    def test_case_folded(self):
        assert pair_jaccard("ABC", "abc", 2) == 1.0

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            pair_jaccard("abc", "abd", 0)

    @given(st.text(max_size=20), st.text(max_size=20), st.integers(1, 4))
    def test_symmetric_and_bounded(self, s1, s2, q):
        val = pair_jaccard(s1, s2, q)
        assert 0.0 <= val <= 1.0
        assert val == pair_jaccard(s2, s1, q)

    @given(st.text(min_size=2, max_size=20))
    def test_reflexive(self, s):
        assert pair_jaccard(s, s, 2) == 1.0

    def test_oracle_against_manual_sets(self, rng):
        # brute-force recomputation from scratch for random letter strings
        alphabet = "abcd"
        for _ in range(200):
            n1, n2 = rng.integers(0, 8, size=2)
            s1 = "".join(rng.choice(list(alphabet), size=n1))
            s2 = "".join(rng.choice(list(alphabet), size=n2))
            g1 = {s1[i : i + 2] for i in range(len(s1) - 1)}
            g2 = {s2[i : i + 2] for i in range(len(s2) - 1)}
            if not g1 and not g2:
                expected = 1.0
            elif not g1 or not g2:
                expected = 0.0
            else:
                expected = len(g1 & g2) / len(g1 | g2)
            assert pair_jaccard(s1, s2, 2) == expected


class TestFeaturizePair:
    def test_all_attributes_equal(self):
        a = Record("x", ("alpha", "beta"))
        b = Record("y", ("alpha", "beta"))
        np.testing.assert_array_equal(featurize_pair(a, b), [1.0, 1.0])

    def test_disjoint_values(self):
        a = Record("x", ("aaaa", "bbbb"))
        b = Record("y", ("cccc", "dddd"))
        np.testing.assert_array_equal(featurize_pair(a, b), [0.0, 0.0])

    def test_derived_two_attribute_example(self):
        a = Record("x", ("abc", "xy"))
        b = Record("y", ("abd", "xy"))
        np.testing.assert_allclose(featurize_pair(a, b), [1 / 3, 1.0])

    def test_schema_mismatch(self):
        with pytest.raises(IngestError, match="schema mismatch"):
            featurize_pair(Record("x", ("a",)), Record("y", ("a", "b")))

    @given(st.integers(1, 4).flatmap(lambda width: st.tuples(
        *[st.lists(_TEXT, min_size=width, max_size=width)] * 2)), st.integers(1, 4))
    def test_matches_scalar_reference(self, values, q):
        a, b = (Record(rid, tuple(attrs)) for rid, attrs in zip("xy", values))
        expected = [qgram_jaccard(s1, s2, q) for s1, s2 in zip(*values)]
        assert featurize_pair(a, b, q).tolist() == expected

    def test_pair_identity(self, tmp_path):
        # the row featurized from records x and y is named by the pair (x, y)
        x, y = Record("x", ("ab",)), Record("y", ("abc",))
        featurize_to_file(tmp_path / "inst.tsv", RecordSet(("t",), [y, x]))
        ids, features, _, _ = read_instance_file(tmp_path / "inst.tsv")
        assert ids == [("x", "y")]
        np.testing.assert_array_equal(features, [featurize_pair(x, y)])


class TestInstance:
    """The row rules InstancePool enforces on the columns it is given."""

    def test_rejects_self_pair(self):
        with pytest.raises(IngestError, match="distinct"):
            pool_of([(("c", "d"), [0.5], -1), (("a", "a"), [0.5], -1)])

    def test_rejects_out_of_range_features(self):
        with pytest.raises(IngestError, match="lie in"):
            pool_of([(("a", "b"), [1.5], -1)])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, value):
        with pytest.raises(IngestError, match="finite"):
            pool_of([(("a", "b"), [0.5, value], -1)])

    def test_rejects_unknown_label(self):
        with pytest.raises(IngestError, match="unknown label code 2"):
            pool_of([(("a", "b"), [0.5], 1), (("c", "d"), [0.5], 2)])

    def test_reports_first_bad_row(self):
        # every row breaks a rule: the NaN of row 0 is reported
        with pytest.raises(IngestError, match="finite"):
            InstancePool([("a", "b"), ("c", "c")], [[np.nan], [7.0]], [5, -3])
        with pytest.raises(IngestError, match="unknown label code 5"):
            InstancePool([("a", "b"), ("c", "c")], [[0.5], [0.5]], [5, 0])

    @pytest.mark.parametrize("bad", ["c\td", "c\nd", "c\rd"])
    def test_rejects_id_with_tab_or_line_break(self, bad):
        # such an id would give the instance and labels files an extra
        # column or row that their readers reject
        with pytest.raises(IngestError, match=re.escape(f"pair id {('a', bad)} contains a tab")):
            pool_of([(("a", "b"), [0.5], 1), (("a", bad), [0.5], 0)])

    def test_rejects_ragged_columns(self):
        with pytest.raises(IngestError, match="one feature row"):
            InstancePool([("a", "b"), ("c", "d")], [[0.5]], [1, 0])
        with pytest.raises(IngestError, match="one feature row"):
            InstancePool([("a", "b")], [[0.5]], [1, 0])


class TestGeneratePairs:
    def test_dedup_three_records(self, three_records):
        pairs = list(generate_pairs(three_records))
        assert len(pairs) == 3  # C(3, 2)

    def test_linkage_cross_product(self, three_records):
        right = RecordSet(
            schema=("title", "author"),
            records=[Record("s1", ("a", "b")), Record("s2", ("c", "d"))],
        )
        pairs = list(generate_pairs(three_records, right))
        assert len(pairs) == 6  # 3 x 2

    def test_no_duplicates_no_self_pairs(self, three_records):
        pairs = [(a.id, b.id) for a, b in generate_pairs(three_records)]
        assert len(set(pairs)) == len(pairs)
        assert all(a != b for a, b in pairs)

    def test_sorted_output_order(self, three_records):
        pairs = [(a.id, b.id) for a, b in generate_pairs(three_records)]
        assert pairs == sorted(pairs)

    def test_count_property(self, rng):
        for n in (1, 2, 5, 8):
            rs = RecordSet(
                schema=("t",),
                records=[Record(f"r{i}", (f"v{i}",)) for i in range(n)],
            )
            assert len(list(generate_pairs(rs))) == n * (n - 1) // 2

    def test_blocked_subset_of_unblocked(self, three_records):
        blocked = {
            (a.id, b.id)
            for a, b in generate_pairs(three_records, block_on="title")
        }
        unblocked = {(a.id, b.id) for a, b in generate_pairs(three_records)}
        assert blocked <= unblocked

    def test_blocked_counts_hand_enumerated(self):
        # blocks: "deep" -> {r1, r2}, "nets" -> {r2}, "x" -> {r3}
        rs = RecordSet(
            schema=("title",),
            records=[
                Record("r1", ("deep",)),
                Record("r2", ("deep nets",)),
                Record("r3", ("x",)),
            ],
        )
        pairs = [(a.id, b.id) for a, b in generate_pairs(rs, block_on="title")]
        assert pairs == [("r1", "r2")]


class TestBlockByToken:
    def test_shared_token(self):
        rs = RecordSet(
            schema=("title",),
            records=[Record("r1", ("deep learning",)), Record("r2", ("deep nets",))],
        )
        blocks = block_by_token(rs, "title")
        assert set(blocks["deep"]) == {"r1", "r2"}

    def test_empty_attribute_in_no_block(self):
        rs = RecordSet(schema=("title",), records=[Record("r1", ("",))])
        blocks = block_by_token(rs, "title")
        assert all("r1" not in ids for ids in blocks.values())

    def test_distinct_single_tokens_no_pairs(self):
        rs = RecordSet(
            schema=("title",),
            records=[Record(f"r{i}", (f"tok{i}",)) for i in range(4)],
        )
        assert list(generate_pairs(rs, block_on="title")) == []

    def test_repeated_token_blocks_record_once(self):
        rs = RecordSet(
            schema=("title",),
            records=[Record("r1", ("deep deep",)), Record("r2", ("nets",))],
        )
        assert block_by_token(rs, "title")["deep"] == ["r1"]
        assert list(generate_pairs(rs, block_on="title")) == []

    def test_unknown_attribute(self, tmp_path, three_records):
        out = tmp_path / "inst.tsv"
        with pytest.raises(IngestError, match="unknown attribute 'venue'"):
            featurize_to_file(out, three_records, block_on="venue")
        assert not out.exists()

    def test_case_folding(self):
        rs = RecordSet(
            schema=("title",),
            records=[Record("r1", ("Deep",)), Record("r2", ("deep",))],
        )
        blocks = block_by_token(rs, "title")
        assert set(blocks["deep"]) == {"r1", "r2"}


class TestInstanceFile:
    def test_roundtrip_lossless(self, tmp_path, rng):
        pool = pool_of([((f"a{i}", f"b{i}"), rng.random(3), i % 2) for i in range(10)])
        path = tmp_path / "inst.tsv"
        write_instance_file(path, pool)
        ids, features, labels, meta = read_instance_file(path)
        assert meta["q"] == 2
        assert meta["schema"] == ("f0", "f1", "f2")
        assert ids == pool.ids
        assert labels.tolist() == [1 if i % 2 else 0 for i in range(10)]
        np.testing.assert_array_equal(features, pool.features)

    def test_writes_in_blocks_of_pair_tile(self, tmp_path, rng, monkeypatch):
        pool = pool_of([((f"a{i}", f"b{i}"), rng.random(2), i % 3 - 1) for i in range(7)])
        whole, tiled = tmp_path / "whole.tsv", tmp_path / "tiled.tsv"
        write_instance_file(whole, pool)
        monkeypatch.setattr(datasets, "_FILE_TILE", 3)
        write_instance_file(tiled, pool)
        assert tiled.read_bytes() == whole.read_bytes()
        assert len(whole.read_text().splitlines()) == 2 + 7

    def test_empty_pool_writes_only_the_header(self, tmp_path):
        path = tmp_path / "inst.tsv"
        write_instance_file(path, InstancePool([], np.empty((0, 1)), []))
        assert path.read_text() == "# instances v1 q=2\nid_a\tid_b\tf0\n"
        ids, features, labels, _ = read_instance_file(path)
        assert ids == [] and features.shape == (0, 1) and labels.tolist() == []

    @given(
        st.lists(
            st.tuples(
                st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2),
                st.sampled_from(["M", "N", None]),
            ),
            max_size=20,
        )
    )
    def test_roundtrip_property(self, rows):
        codes = {"M": 1, "N": 0, None: -1}
        pool = InstancePool(
            [(f"a{k:02d}", f"b{k:02d}") for k in range(len(rows))],
            np.array([feats for feats, _ in rows]).reshape(len(rows), 2),
            [codes[label] for _, label in rows],
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "inst.tsv"
            write_instance_file(path, pool)
            ids, features, labels, _ = read_instance_file(path)
        labeled = any(label is not None for _, label in rows)
        assert ids == pool.ids == [(f"a{k:02d}", f"b{k:02d}") for k in range(len(rows))]
        assert labels.tolist() == [codes[label] if labeled else -1 for _, label in rows]
        expected = np.array([feats for feats, _ in rows]).reshape(len(rows), 2)
        assert features.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("a\tb\tnan\tN", "finite"),
            ("a\tb\t1.5\tN", "lie in"),
            ("a\ta\t0.5\tN", "distinct"),
            ("a\tb\t0.5\tX", "unknown label"),
            ("a\tb\t0.5", "expected 4 columns"),
            # numpy's own "at row R" counts rows of the lines it was handed,
            # not file lines, so only its column is kept
            ("a\tb\tx\tN", "column 3: could not convert"),
        ],
    )
    def test_rejects_bad_row_with_its_line(self, tmp_path, row, message):
        path = tmp_path / "inst.tsv"
        path.write_text(f"# instances v1 q=2\nid_a\tid_b\tf0\tlabel\nc\td\t0.1\tM\n\n{row}\n")
        with pytest.raises(IngestError, match=f":5: .*{message}") as info:
            read_instance_file(path)
        assert "at row" not in str(info.value)

    @pytest.mark.parametrize("cell, value", [("0.1_0", 0.1), ("\u0660.\u0665", 0.5)])
    def test_rejects_cells_only_python_float_reads(self, tmp_path, cell, value):
        # float() reads underscores and non-ASCII digits; the file holds
        # ASCII decimal floats only, and numpy's reader refuses the rest
        path = tmp_path / "inst.tsv"
        path.write_text(f"# instances v1 q=2\nid_a\tid_b\tf0\na\tb\t{cell}\n", encoding="utf-8")
        assert reference_read_instance_file(path)[1].tolist() == [[value]]
        with pytest.raises(IngestError, match=":3: column 3: "):
            read_instance_file(path)

    @settings(max_examples=300, deadline=None)
    @given(instance_texts())
    def test_reader_matches_line_by_line_reference(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "inst.tsv"
            path.write_text(text, encoding="utf-8")
            try:
                expected = reference_read_instance_file(path)
            except IngestError as exc:
                with pytest.raises(IngestError) as info:
                    read_instance_file(path)
                assert fault_of(info.value, path) == fault_of(exc, path)
                return
            ids, features, labels, meta = read_instance_file(path)
        assert ids == expected[0]
        assert features.shape == expected[1].shape
        assert features.tobytes() == expected[1].tobytes()
        assert labels.dtype == np.int8 and labels.tolist() == expected[2].tolist()
        assert meta == expected[3]

    def test_unlabeled_file_has_no_label_column(self, tmp_path):
        path = tmp_path / "inst.tsv"
        write_instance_file(path, pool_of([(("a", "b"), [0.5], -1)]))
        header = path.read_text().splitlines()[1]
        assert not header.endswith("label")
        _, _, labels, _ = read_instance_file(path)
        assert labels.tolist() == [-1]

    def test_rejects_non_instance_file(self, tmp_path):
        path = tmp_path / "junk.tsv"
        path.write_text("just some text\n")
        with pytest.raises(IngestError):
            read_instance_file(path)

    @pytest.mark.parametrize("first, message", [
        # each of these used to be read as format v1
        ("# instances v9 q=2", "bad header: not instance format v1"),
        ("# instances banana", "bad header: not instance format v1"),
        ("# instances", "bad header: not instance format v1"),
        ("# instancesXYZ q=abc", "bad header: not instance format v1"),
        ("# instances v1 q=2 junk", "bad header: 'junk' is not key=value"),
        ("# instances v1 =2", "bad header: '=2' is not key=value"),
    ])
    def test_rejects_another_format_version_or_token(self, tmp_path, first, message):
        path = tmp_path / "inst.tsv"
        path.write_text(f"{first}\nid_a\tid_b\tf0\na\tb\t0.5\n")
        with pytest.raises(IngestError, match=f"{path}: {message}"):
            read_instance_file(path)

    def test_featurize_to_file_end_to_end(self, tmp_path, three_records, gold_csv):
        from matchgan.datasets import load_gold

        out = tmp_path / "inst.tsv"
        n = featurize_to_file(out, three_records, gold=load_gold(gold_csv))
        assert n == 3
        ids, _, labels, meta = read_instance_file(out)
        assert meta["schema"] == ("title", "author")
        by_pair = dict(zip(ids, labels.tolist()))
        assert by_pair[("r1", "r2")] == 1
        assert by_pair[("r1", "r3")] == 0

    def test_featurize_parallel_matches_serial(self, tmp_path, monkeypatch):
        # a tile of at most five left-by-right entries spreads 66 pairs over
        # many tiles; the bytes must still be the pair-by-pair reference's
        rs = RecordSet(
            schema=("t",),
            records=[Record(f"r{i:02d}", (f"tok{i} shared",)) for i in range(12)],
        )
        monkeypatch.setattr(features, "PAIR_TILE", 5)
        tiled, reference = tmp_path / "s.tsv", tmp_path / "p.tsv"
        assert featurize_to_file(tiled, rs) == 66
        write_reference(reference, rs)
        assert tiled.read_bytes() == reference.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(featurize_cases())
    def test_featurize_matches_scalar_reference(self, case):
        left, right, gold, q, block_on, tile = case
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(features, "PAIR_TILE", tile):
            tiled, reference = Path(tmp) / "tiled.tsv", Path(tmp) / "reference.tsv"
            count = featurize_to_file(tiled, left, right, gold=gold, q=q, block_on=block_on)
            write_reference(reference, left, right, gold, q, block_on)
            assert tiled.read_bytes() == reference.read_bytes()
            assert count == len(reference.read_text().splitlines()) - 2

    def test_featurize_rejects_shared_linkage_id(self, tmp_path, monkeypatch):
        # the shared id pairs up in the second tile, after the first was
        # written; no partial file is left either way
        monkeypatch.setattr(features, "PAIR_TILE", 1)
        left = RecordSet(("t",), [Record("a", ("y",)), Record("b", ("y",))])
        right = RecordSet(("t",), [Record("b", ("y",))])
        out = tmp_path / "inst.tsv"
        for block_on in (None, "t"):
            with pytest.raises(IngestError, match="both record sets hold id 'b'"):
                featurize_to_file(out, left, right, block_on=block_on)
            assert not out.exists()

    def test_blocked_linkage_hand_enumerated(self, tmp_path):
        # every record holds a token; l1 and r1 share two ("deep", "nets"),
        # and l2 repeats its one token
        left = RecordSet(("t",), [Record("l1", ("deep nets",)), Record("l2", ("graph graph",)),
                                  Record("l3", ("nets",))])
        right = RecordSet(("t",), [Record("r1", ("Nets deep",)), Record("r2", ("search",))])
        out, reference = tmp_path / "inst.tsv", tmp_path / "reference.tsv"
        assert featurize_to_file(out, left, right, block_on="t") == 2
        assert read_instance_file(out)[0] == [("l1", "r1"), ("l3", "r1")]
        write_reference(reference, left, right, block_on="t")
        assert out.read_bytes() == reference.read_bytes()
        # an empty right set leaves no candidate, blocked or not
        empty = RecordSet(("t",), [])
        for block_on in (None, "t"):
            assert featurize_to_file(out, left, empty, block_on=block_on) == 0
            assert read_instance_file(out)[0] == []

    def test_blocked_memory_bounded_by_the_record_count(self, tmp_path):
        # 600 records that all share one token: blocking keeps every one of
        # the 179,700 pairs, and must hold no more than the unblocked walk
        rs = RecordSet(("t",), [Record(f"r{k:03d}", (f"common w{k}",)) for k in range(600)])
        peaks = []
        for block_on in (None, "t"):
            tracemalloc.start()
            try:
                assert featurize_to_file(tmp_path / "inst.tsv", rs, block_on=block_on) == 179_700
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks


class TestInstancePool:
    def test_rows_sorted_by_pair_id(self):
        # descending ids: features and labels move with their ids
        pool = pool_of([((f"a{k}", "b"), [0.1 * k], k % 2) for k in range(5, 0, -1)])
        assert pool.ids == [(f"a{k}", "b") for k in range(1, 6)]
        np.testing.assert_array_equal(pool.features[:, 0], [0.1 * k for k in range(1, 6)])
        assert pool.real_labels.tolist() == [k % 2 for k in range(1, 6)]

    def test_duplicate_pairs_rejected(self):
        # next to each other, and apart so that only the sort brings them together
        for ids in ([("a", "b"), ("a", "b")], [("c", "d"), ("a", "b"), ("c", "d")]):
            with pytest.raises(IngestError, match="duplicate pair ids in pool"):
                pool_of([(pid, [0.1 * k], -1) for k, pid in enumerate(ids)])

    def test_ascending_ids_give_the_sorted_pool(self, rng):
        ids = [(f"a{k:02d}", f"b{k:02d}") for k in range(20)]
        features, labels = rng.random((20, 3)), rng.integers(-1, 2, 20)
        order = rng.permutation(20)
        ascending = InstancePool(ids, features, labels)
        shuffled = InstancePool([ids[k] for k in order], features[order], labels[order])
        assert ascending.ids == shuffled.ids == ids
        assert ascending.features.tobytes() == shuffled.features.tobytes()
        assert ascending.real_labels.tobytes() == shuffled.real_labels.tobytes()

    @pytest.mark.parametrize("ids", [[("a", "b"), ("c", "d")], [("c", "d"), ("a", "b")]])
    def test_pool_owns_its_columns(self, ids):
        features, labels = np.array([[0.25], [0.75]]), np.array([1, 0], dtype=np.int8)
        pool = InstancePool(ids, features, labels)
        before = (list(pool.ids), pool.features.copy(), pool.real_labels.copy())
        ids.append(("e", "f"))
        features[:] = 0.5
        labels[:] = UNLABELED
        assert pool.ids == before[0]
        np.testing.assert_array_equal(pool.features, before[1])
        np.testing.assert_array_equal(pool.real_labels, before[2])

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from matchgan.cli import main, read_config_file


def run_cli(*args):
    return main([str(a) for a in args])


class TestTopLevel:
    def test_no_arguments_nonzero(self, capsys):
        assert main([]) != 0

    def test_unknown_subcommand_nonzero(self):
        assert main(["frobnicate"]) != 0

    def test_unknown_flag_nonzero(self):
        assert main(["synth", "--bogus", "1"]) != 0

    def test_version(self, capsys):
        code = main(["--version"])
        out = capsys.readouterr().out
        assert code == 0
        assert "matchgan" in out and "format" in out


class TestSynthTrainEvaluate:
    def test_end_to_end_smoke(self, tmp_path, capsys):
        data = tmp_path / "data"
        out = tmp_path / "run"
        assert run_cli("synth", "--matches", 6, "--imbalance", 12, "--seed", 7, "--out", data) == 0
        assert run_cli(
            "train", "--instances", data / "instances.tsv", "--seed-budget", 20,
            "--seed", 0, "--inner-iters", 120, "-o", out,
        ) == 0
        captured = capsys.readouterr().out
        assert "f_measure=" in captured
        assert (out / "report.json").exists()
        assert (out / "generator.npz").exists()
        assert (out / "labels.tsv").exists()

        # score the training labels against the synthetic truth
        assert run_cli(
            "evaluate", "--predicted", out / "labels.tsv",
            "--truth", data / "instances.tsv", "-o", tmp_path / "metrics.json",
        ) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert set(metrics) >= {"precision", "recall", "f_measure"}

    def test_train_missing_instance_file(self, tmp_path, capsys):
        code = run_cli(
            "train", "--instances", tmp_path / "nope.tsv", "--seed-budget", 5, "-o", tmp_path / "o"
        )
        err = capsys.readouterr().err
        assert code != 0
        assert err.startswith("error:")
        assert "missing file" in err
        assert "\n" not in err.strip()

    def test_byte_identical_reruns(self, tmp_path):
        data = tmp_path / "data"
        run_cli("synth", "--matches", 4, "--imbalance", 8, "--seed", 3, "--out", data)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(
                "train", "--instances", data / "instances.tsv", "--seed-budget", 10,
                "--seed", 5, "--inner-iters", 40, "-o", out,
            ) == 0
            outs.append(out)
        for fname in ("report.json", "labels.tsv", "generator.npz", "discriminator.npz", "partition.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname

    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("synth", "--matches", 5, "--imbalance", 10, "--seed", 1, "--out", a)
        run_cli("synth", "--matches", 5, "--imbalance", 10, "--seed", 1, "--out", b)
        assert (a / "instances.tsv").read_bytes() == (b / "instances.tsv").read_bytes()
        assert (a / "gold.csv").read_bytes() == (b / "gold.csv").read_bytes()


class TestFeaturizePartitionPredict:
    def test_featurize_then_partition_then_train(self, tmp_path, records_csv, gold_csv):
        inst = tmp_path / "inst.tsv"
        assert run_cli(
            "featurize", "--left", records_csv, "--gold", gold_csv,
            "--workers", 1, "-o", inst,
        ) == 0
        part = tmp_path / "partition.json"
        assert run_cli("partition", "--instances", inst, "-o", part) == 0
        assert json.loads(part.read_text())["format_version"] == 1

    def test_featurize_blocked(self, tmp_path, records_csv):
        inst = tmp_path / "inst.tsv"
        assert run_cli(
            "featurize", "--left", records_csv, "--block-on", "title",
            "--workers", 1, "-o", inst,
        ) == 0
        lines = inst.read_text().splitlines()
        # only r1/r2 share title tokens
        assert len(lines) == 3  # meta + header + one pair

    def test_predict_roundtrip(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "run"
        run_cli("synth", "--matches", 6, "--imbalance", 10, "--seed", 2, "--out", data)
        run_cli(
            "train", "--instances", data / "instances.tsv", "--seed-budget", 15,
            "--seed", 0, "--inner-iters", 120, "-o", out,
        )
        labels = tmp_path / "pred.tsv"
        assert run_cli(
            "predict", "--instances", data / "instances.tsv",
            "--model", out / "generator.npz", "-o", labels,
        ) == 0
        rows = labels.read_text().splitlines()
        assert rows[0] == "id_a\tid_b\tlabel"
        assert len(rows) == 1 + 6 + 60


class TestMoreCliPaths:
    def test_linkage_featurize(self, tmp_path):
        left = tmp_path / "left.csv"
        left.write_text("id,title\nl1,deep learning\nl2,databases\n")
        right = tmp_path / "right.csv"
        right.write_text("id,title\nr1,deep nets\nr2,learning db\n")
        inst = tmp_path / "inst.tsv"
        assert run_cli(
            "featurize", "--left", left, "--right", right, "--workers", 1, "-o", inst
        ) == 0
        lines = inst.read_text().splitlines()
        assert len(lines) == 2 + 4  # meta + header + full 2x2 cross product

    def test_train_with_split_features_and_checkpoints(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "run"
        run_cli("synth", "--matches", 4, "--imbalance", 8, "--seed", 3, "--out", data)
        assert run_cli(
            "train", "--instances", data / "instances.tsv", "--seed-budget", 8,
            "--seed", 1, "--inner-iters", 30, "--split-features", "0,1",
            "--checkpoints", "-o", out,
        ) == 0
        assert json.loads((out / "partition.json").read_text())["feature_indices"] == [0, 1]
        assert list((out / "checkpoints").glob("generator_round*.npz"))

    def test_no_adversary_checkpoint_kind(self, tmp_path):
        from matchgan.nn import load_model

        data = tmp_path / "data"
        out = tmp_path / "run"
        run_cli("synth", "--matches", 4, "--imbalance", 8, "--seed", 3, "--out", data)
        assert run_cli(
            "train", "--instances", data / "instances.tsv", "--seed-budget", 8,
            "--seed", 1, "--inner-iters", 30, "--variant", "no-adversary", "-o", out,
        ) == 0
        _, meta = load_model(out / "generator.npz")
        assert meta["kind"] == "classifier"
        assert not (out / "discriminator.npz").exists()

    def test_budget_exceeding_pool_is_reported(self, tmp_path, capsys):
        data = tmp_path / "data"
        run_cli("synth", "--matches", 2, "--imbalance", 4, "--seed", 3, "--out", data)
        code = run_cli(
            "train", "--instances", data / "instances.tsv", "--seed-budget", 99,
            "-o", tmp_path / "out",
        )
        assert code != 0
        assert "exceeds pool size" in capsys.readouterr().err


class TestBadInput:
    def _single_error(self, capsys) -> str:
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "\n" not in err.strip()
        return err

    def test_non_finite_feature_rejected(self, tmp_path, capsys):
        inst = tmp_path / "inst.tsv"
        inst.write_text(
            "# instances v1 q=2\nid_a\tid_b\tf0\tf1\tlabel\n"
            "a\tb\t0.5\tnan\tM\nc\td\t0.1\t0.2\tN\n"
        )
        code = run_cli("partition", "--instances", inst, "-o", tmp_path / "p.json")
        assert code == 1
        assert "finite" in self._single_error(capsys)
        assert not (tmp_path / "p.json").exists()

    def test_rows_checked_once_per_load(self, tmp_path, capsys, monkeypatch):
        import matchgan.features as features

        calls = []
        check = features._check_columns
        monkeypatch.setattr(features, "_check_columns",
                            lambda *cols: calls.append(1) or check(*cols))
        inst = tmp_path / "inst.tsv"
        rows = "a\tb\t0.5\t0.5\tM\nc\td\t0.1\t0.2\tN\n"
        inst.write_text(f"# instances v1 q=2\nid_a\tid_b\tf0\tf1\tlabel\n{rows}")
        assert run_cli("partition", "--instances", inst, "-o", tmp_path / "p.json") == 0
        assert len(calls) == 1
        # the one check still names the file line of the bad row
        inst.write_text(f"# instances v1 q=2\nid_a\tid_b\tf0\tf1\tlabel\n{rows}e\tf\t0.5\t1.5\tN\n")
        assert run_cli("partition", "--instances", inst, "-o", tmp_path / "q.json") == 1
        assert f"{inst}:5: " in self._single_error(capsys)
        assert len(calls) == 2

    @pytest.mark.parametrize("workers", [0, -3])
    @pytest.mark.parametrize("command", ["ablate", "featurize"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, records_csv, command, workers):
        # -3 used to run serially and 0 to mean every CPU, both with exit 0
        data = tmp_path / "data"
        run_cli("synth", "--matches", 2, "--imbalance", 4, "--seed", 3, "--out", data)
        capsys.readouterr()
        out = tmp_path / "out.tsv"
        if command == "ablate":
            argv = ["ablate", "--instances", data / "instances.tsv", "--budgets", 4,
                    "--seeds", 1, "--inner-iters", 2]
        else:
            argv = ["featurize", "--left", records_csv]
        assert run_cli(*argv, "--workers", workers, "-o", out) == 1
        assert "--workers must be at least 1" in self._single_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"format_version": 1, "medians": ["0.5"]}, "feature_indices"),
            ({"format_version": 1, "medians": ["0.5"], "feature_indices": [7]}, "feature index 7"),
            # a nan median used to put every row on the 0 side of that feature
            ({"format_version": 1, "medians": ["0.5", "nan"], "feature_indices": [0, 1]},
             "medians must be finite"),
            ({"format_version": 1, "medians": ["0.5"] * 4, "feature_indices": [0, 0, 1, 2]},
             "feature_indices must be a list of distinct"),
        ],
    )
    def test_bad_partition_file_rejected(self, tmp_path, capsys, payload, message):
        data = tmp_path / "data"
        run_cli("synth", "--matches", 2, "--imbalance", 4, "--seed", 3, "--out", data)
        part = tmp_path / "partition.json"
        part.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run_cli(
            "train", "--instances", data / "instances.tsv", "--partition", part,
            "--seed-budget", 4, "-o", tmp_path / "out",
        )
        assert code == 1
        assert message in self._single_error(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["partition", "train"])
    def test_repeated_split_feature_rejected(self, tmp_path, capsys, command):
        data = tmp_path / "data"
        run_cli("synth", "--matches", 2, "--imbalance", 4, "--seed", 3, "--out", data)
        capsys.readouterr()
        out = tmp_path / "out"
        extra = ("--seed-budget", 4) if command == "train" else ()
        code = run_cli(command, "--instances", data / "instances.tsv",
                       "--split-features", "0,0", *extra, "-o", out)
        assert code == 1
        assert "repeat an index" in self._single_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("learning_rate", "nan"), ("learning_rate", "-1"), ("disc_learning_rate", "0"),
         ("disc_learning_rate", "inf"), ("real_weight", "nan")],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_rate_or_weight_rejected(self, tmp_path, capsys, key, value, source):
        # a nan learning rate used to train to exit 0 and write a generator
        # that predict then refused as not finite
        data = tmp_path / "data"
        run_cli("synth", "--matches", 2, "--imbalance", 4, "--seed", 3, "--out", data)
        capsys.readouterr()
        if source == "flag":
            setting = ("--" + key.replace("_", "-"), value)
        else:
            config = tmp_path / "train.cfg"
            config.write_text(f"{key} = {value}\n")
            setting = ("--config", config)
        out = tmp_path / "out"
        code = run_cli("train", "--instances", data / "instances.tsv", "--seed-budget", 4,
                       *setting, "-o", out)
        assert code == 1
        assert f"{key} must be finite" in self._single_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, message",
        [("a\tb\tX", ":3: unknown label 'X'"), ("a\tb", ":3: expected 3 columns, got 2")],
    )
    def test_bad_predicted_labels_rejected(self, tmp_path, capsys, row, message):
        truth = tmp_path / "truth.tsv"
        truth.write_text(
            "# instances v1 q=2\nid_a\tid_b\tf0\tlabel\na\tb\t0.9\tM\nc\td\t0.1\tN\n"
        )
        predicted = tmp_path / "pred.tsv"
        predicted.write_text(f"id_a\tid_b\tlabel\nc\td\tN\n{row}\n")
        code = run_cli("evaluate", "--predicted", predicted, "--truth", truth)
        assert code == 1
        assert message in self._single_error(capsys)

    def test_evaluate_rejects_repeated_truth_pair(self, tmp_path, capsys):
        # the repeat of (a, b), on line 6 after a blank line, used to be scored twice
        truth = tmp_path / "truth.tsv"
        truth.write_text(
            "# instances v1 q=2\nid_a\tid_b\tf0\tlabel\n"
            "a\tb\t0.9\tM\nc\td\t0.1\tN\n\na\tb\t0.9\tM\n"
        )
        predicted = tmp_path / "pred.tsv"
        predicted.write_text("id_a\tid_b\tlabel\na\tb\tM\nc\td\tN\n")
        out = tmp_path / "metrics.json"
        code = run_cli("evaluate", "--predicted", predicted, "--truth", truth, "-o", out)
        assert code == 1
        assert f"{truth}:6: repeated pair id ('a', 'b')" in self._single_error(capsys)
        assert not out.exists()

    def test_evaluate_rejects_conflicting_predicted_labels(self, tmp_path, capsys):
        # a pair labeled M and then N used to keep the last line silently
        truth = tmp_path / "truth.tsv"
        truth.write_text(
            "# instances v1 q=2\nid_a\tid_b\tf0\tlabel\na\tb\t0.9\tM\nc\td\t0.1\tN\n"
        )
        predicted = tmp_path / "pred.tsv"
        predicted.write_text("id_a\tid_b\tlabel\nc\td\tM\na\tb\tM\nc\td\tN\n")
        code = run_cli("evaluate", "--predicted", predicted, "--truth", truth)
        assert code == 1
        assert f"{predicted}:4: repeated pair id ('c', 'd')" in self._single_error(capsys)

    @pytest.mark.parametrize(
        "damage, message", [("missing", "no 'W2' array"), ("nan", "'W1' is not finite")]
    )
    def test_bad_model_checkpoint_rejected(self, tmp_path, capsys, damage, message):
        import numpy as np

        from matchgan.nn import init_mlp, save_model

        data = tmp_path / "data"
        run_cli("synth", "--matches", 2, "--imbalance", 4, "--seed", 3, "--out", data)
        model_path = tmp_path / "generator.npz"
        save_model(model_path, init_mlp((4, 3, 2, 1), np.random.default_rng(0)))
        arrays = dict(np.load(model_path))
        if damage == "missing":
            del arrays["W2"]
        else:
            arrays["W1"][0, 0] = np.nan
        np.savez(model_path, **arrays)
        capsys.readouterr()
        labels = tmp_path / "pred.tsv"
        code = run_cli(
            "predict", "--instances", data / "instances.tsv", "--model", model_path, "-o", labels
        )
        assert code == 1
        assert message in self._single_error(capsys)
        assert not labels.exists()

    def test_predict_rejects_repeated_pair_id(self, tmp_path, capsys):
        import numpy as np

        from matchgan.nn import init_mlp, save_model

        inst = tmp_path / "inst.tsv"
        inst.write_text(
            "# instances v1 q=2\nid_a\tid_b\tf0\n"
            "a\tb\t0.1\nc\td\t0.2\na\tb\t0.3\na\tb\t0.4\n"
        )
        model_path = tmp_path / "generator.npz"
        save_model(model_path, init_mlp((1, 2, 1), np.random.default_rng(0)))
        labels = tmp_path / "pred.tsv"
        code = run_cli("predict", "--instances", inst, "--model", model_path, "-o", labels)
        assert code == 1
        assert "duplicate pair ids" in self._single_error(capsys)
        assert not labels.exists()

    @pytest.mark.parametrize("rid", ["a\tx", "a\nx", "a\rx"])
    def test_record_id_with_tab_or_line_break_rejected(self, tmp_path, capsys, rid):
        records = tmp_path / "records.csv"
        with records.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([("id", "title"), ("r1", "deep"), (rid, "deep nets")])
        inst = tmp_path / "inst.tsv"
        code = run_cli("featurize", "--left", records, "-o", inst)
        assert code == 1
        assert "contains a tab or line break" in self._single_error(capsys)
        assert not inst.exists()

    @pytest.mark.parametrize("flag", [
        "--gen-hidden=0", "--disc-hidden=0,4", "--gen-hidden=-3", "--disc-hidden=8,-1",
    ])
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_hidden_width_below_one_rejected(self, tmp_path, capsys, command, flag):
        # 0 used to end in an OverflowError traceback from init_mlp, and a
        # negative width in an error only after train had made its -o directory
        data = tmp_path / "data"
        run_cli("synth", "--matches", 2, "--imbalance", 4, "--seed", 3, "--out", data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gen_hidden = 0\n")
        capsys.readouterr()
        out = tmp_path / "out"
        budget = "--seed-budget" if command == "train" else "--budgets"
        for extra in ([flag], ["--config", cfg]):
            assert run_cli(command, "--instances", data / "instances.tsv", budget, 4,
                           *extra, "-o", out) == 1
            assert "hidden layer widths must be at least 1" in self._single_error(capsys)
            assert not out.exists()

    @pytest.mark.parametrize("seeds", [0, -2])
    def test_ablate_seeds_below_one_rejected(self, tmp_path, capsys, seeds):
        # these used to print an empty table and write a header-only file
        data = tmp_path / "data"
        run_cli("synth", "--matches", 2, "--imbalance", 4, "--seed", 3, "--out", data)
        capsys.readouterr()
        out = tmp_path / "cells.tsv"
        assert run_cli("ablate", "--instances", data / "instances.tsv", "--budgets", 4,
                       f"--seeds={seeds}", "-o", out) == 1
        assert "--seeds must be at least 1" in self._single_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("budget", [0, -2])
    def test_failed_train_leaves_no_output_directory(self, tmp_path, capsys, budget):
        data = tmp_path / "data"
        run_cli("synth", "--matches", 2, "--imbalance", 4, "--seed", 3, "--out", data)
        capsys.readouterr()
        out = tmp_path / "run"
        assert run_cli("train", "--instances", data / "instances.tsv",
                       f"--seed-budget={budget}", "--checkpoints", "-o", out) == 1
        assert "without any seed labels" in self._single_error(capsys)
        assert not out.exists()


def _nonpositive_ints():
    return st.integers(max_value=0).map(str)


_BAD_TRAIN_FLAGS = st.one_of(
    st.tuples(st.sampled_from(["--batch-size", "--inner-iters", "--propagate-count"]),
              _nonpositive_ints()),
    st.tuples(st.sampled_from(["--gen-hidden", "--disc-hidden"]),
              st.lists(st.integers(-5, 8), min_size=1, max_size=3)
              .filter(lambda widths: min(widths) < 1)
              .map(lambda widths: ",".join(map(str, widths)))),
    st.tuples(st.sampled_from(["--learning-rate", "--disc-learning-rate"]),
              st.one_of(st.floats(max_value=0.0), st.sampled_from([math.inf, math.nan]))
              .map(repr)),
    st.tuples(st.just("--real-weight"),
              st.one_of(st.floats(max_value=-1e-300), st.sampled_from([math.inf, math.nan]))
              .map(repr)),
    st.tuples(st.just("--seed-budget"),
              st.one_of(_nonpositive_ints(), st.integers(min_value=34).map(str))),
)


class TestTrainFlagProperty:
    """train with one numeric flag out of range fails cleanly: exit 1, one
    error line and no output directory."""

    @pytest.fixture(scope="class")
    def instances(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("data")
        assert run_cli("synth", "--matches", 3, "--imbalance", 10, "--seed", 1, "--out", data) == 0
        return data / "instances.tsv"  # 33 rows

    @settings(max_examples=40, deadline=None)
    @given(bad=_BAD_TRAIN_FLAGS)
    def test_one_bad_flag(self, instances, bad):
        flag, value = bad
        argv = {"--seed-budget": "5", "--inner-iters": "2", flag: value}
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_cli("train", "--instances", instances,
                               *(f"{k}={v}" for k, v in argv.items()), "-o", out)
            assert code == 1
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
            assert not out.exists()


class TestSeedOracle:
    """Seeds take their labels from the pool's label column, or from --gold."""

    @pytest.fixture
    def data(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli("synth", "--matches", 3, "--imbalance", 10, "--seed", 1, "--out", data) == 0
        return data  # 33 rows, 3 of them matches

    def test_unlabeled_seed_row_is_an_error(self, data, tmp_path, capsys):
        # only the 3 match cells keep their label: at least 9 of any 12
        # seed rows are unlabeled, and none of them may become a non-match
        lines = (data / "instances.tsv").read_text().splitlines(keepends=True)
        blanked = []
        for k, line in enumerate(lines[2:], start=2):
            cells = line.rstrip("\n").split("\t")
            if cells[-1] == "N":
                blanked.append((cells[0], cells[1]))
                lines[k] = "\t".join(cells[:-1]) + "\t\n"
        assert len(blanked) == 30
        inst = tmp_path / "partly_labeled.tsv"
        inst.write_text("".join(lines))
        capsys.readouterr()
        out = tmp_path / "run"
        assert run_cli("train", "--instances", inst, "--seed-budget", 12,
                       "--inner-iters", 5, "-o", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
        assert "has no real label" in err
        assert any(str(pid) in err for pid in blanked), err
        assert not out.exists()

    def test_gold_labels_an_unlabeled_instance_file(self, data, tmp_path, capsys):
        lines = (data / "instances.tsv").read_text().splitlines(keepends=True)
        inst = tmp_path / "unlabeled.tsv"
        inst.write_text(lines[0] + "".join(line.rsplit("\t", 1)[0] + "\n" for line in lines[1:]))
        common = ["--seed-budget", 12, "--inner-iters", 5, "--seed", 2]
        assert run_cli("train", "--instances", inst, "--gold", data / "gold.csv", *common,
                       "-o", tmp_path / "gold_run") == 0
        assert run_cli("train", "--instances", data / "instances.tsv", *common,
                       "-o", tmp_path / "labeled_run") == 0
        report = json.loads((tmp_path / "gold_run" / "report.json").read_text())
        assert set(report["final"]["metrics"]) >= {"precision", "recall", "f_measure"}
        # the gold file gives the rows the labels the labeled file carries
        for name in ("report.json", "labels.tsv"):
            assert ((tmp_path / "gold_run" / name).read_bytes()
                    == (tmp_path / "labeled_run" / name).read_bytes())


# per subcommand: its required options, and then a value that is not a
# number where one belongs, with a word the error line must carry
_ARGV = {
    "synth": (["--matches", "2", "--imbalance", "4"], ["--matches", "x"], "--matches"),
    "featurize": (["--left", "{records}"], ["-q", "x"], "-q"),
    "partition": (["--instances", "{instances}"], ["--split-features", "0,x"],
                  "--split-features"),
    "train": (["--instances", "{instances}", "--seed-budget", "4"], ["--batch-size", "x"],
              "--batch-size"),
    "predict": (["--instances", "{instances}", "--model", "{model}"],
                ["--instances", "{bad}"], "bad.tsv"),
    "evaluate": (["--predicted", "{labels}", "--truth", "{instances}"],
                 ["--truth", "{bad}"], "bad.tsv"),
    "ablate": (["--instances", "{instances}", "--budgets", "4"], ["--budgets", "4,x"],
               "--budgets"),
}


class TestMalformedArgv:
    """A malformed command line is bad input like any other: exit 1, one
    error: line and no output file."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        import numpy as np

        from matchgan.nn import init_mlp, save_model

        d = tmp_path_factory.mktemp("inputs")
        assert run_cli("synth", "--matches", 2, "--imbalance", 4, "--seed", 3, "--out", d) == 0
        (d / "records.csv").write_text("id,title\nr1,deep nets\nr2,deep net\nr3,graphs\n")
        save_model(d / "model.npz", init_mlp((4, 2, 1), np.random.default_rng(0)))
        (d / "labels.tsv").write_text("id_a\tid_b\tlabel\n")
        lines = (d / "instances.tsv").read_text().splitlines(keepends=True)
        cells = lines[2].split("\t")
        cells[2] = "x"  # a feature cell
        (d / "bad.tsv").write_text("".join(lines[:2] + ["\t".join(cells)] + lines[3:]))
        return {name: str(d / f"{name}.{ext}") for name, ext in (
            ("records", "csv"), ("instances", "tsv"), ("model", "npz"), ("labels", "tsv"),
            ("bad", "tsv"))}

    @pytest.mark.parametrize("case", ["unknown flag", "missing option", "not a number"])
    @pytest.mark.parametrize("command", list(_ARGV))
    def test_exits_one_with_one_error_line(self, inputs, tmp_path, capsys, command, case):
        required, not_a_number, named = _ARGV[command]
        argv = {
            "unknown flag": required + ["--bogus", "1"],
            "missing option": required[2:],
            "not a number": required + not_a_number,
        }[case]
        out = tmp_path / "out"
        code = run_cli(command, *(arg.format(**inputs) for arg in argv),
                       "--out" if command == "synth" else "-o", out)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
        expected = {"unknown flag": "--bogus", "missing option": required[0],
                    "not a number": named}[case]
        assert expected in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out and not captured.err


class TestAblateCommand:
    def test_small_grid(self, tmp_path, capsys):
        data = tmp_path / "data"
        run_cli("synth", "--matches", 5, "--imbalance", 10, "--seed", 4, "--out", data)
        table = tmp_path / "cells.tsv"
        assert run_cli(
            "ablate", "--instances", data / "instances.tsv",
            "--budgets", "12", "--variants", "full,no-adversary", "--seeds", 2,
            "--inner-iters", 30, "--seed", 0, "-o", table,
        ) == 0
        out = capsys.readouterr().out
        assert "variant" in out and "fm_mean" in out
        lines = table.read_text().splitlines()
        assert len(lines) == 1 + 4  # header + 2 variants x 1 budget x 2 seeds


class TestConfigFile:
    def test_precedence_flag_over_file_over_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("batch_size = 64\ninner_iters = 7\n# comment line\n")
        values = read_config_file(cfg)
        assert values == {"batch_size": 64, "inner_iters": 7}

        from matchgan.cli import build_parser, build_train_config

        parser = build_parser()
        args = parser.parse_args(
            ["train", "--instances", "x", "--seed-budget", "1", "-o", "y",
             "--config", str(cfg), "--inner-iters", "9"]
        )
        built = build_train_config(args)
        assert built.batch_size == 64     # from file
        assert built.inner_iters == 9     # flag wins
        assert built.real_weight == 1.0   # default

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery_knob = 3\n")
        with pytest.raises(Exception, match="unknown config key"):
            read_config_file(cfg)

    def test_propagate_count_pool_keyword(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("propagate_count = pool\n")
        from matchgan.cli import build_parser, build_train_config

        parser = build_parser()
        args = parser.parse_args(
            ["train", "--instances", "x", "--seed-budget", "1", "-o", "y", "--config", str(cfg)]
        )
        assert build_train_config(args).propagate_count is None

    def test_every_train_config_field_settable_from_file(self, tmp_path):
        import dataclasses

        from matchgan.cli import build_parser, build_train_config
        from matchgan.training import TrainConfig

        text = {
            "batch_size": ("7", 7), "real_weight": ("0.25", 0.25), "inner_iters": ("3", 3),
            "propagate_count": ("11", 11), "seed": ("9", 9), "gen_hidden": ("8,4", (8, 4)),
            "disc_hidden": ("6", (6,)), "optimizer": ("sgd", "sgd"),
            "learning_rate": ("0.01", 0.01), "disc_optimizer": ("sgd", "sgd"),
            "disc_learning_rate": ("0.02", 0.02), "variant": ("no-adversary", "no_adversary"),
        }
        fields = {field.name: field.default for field in dataclasses.fields(TrainConfig)}
        assert set(text) == set(fields)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, (value, _) in text.items()))
        args = build_parser().parse_args(
            ["train", "--instances", "x", "--seed-budget", "1", "-o", "y", "--config", str(cfg)]
        )
        built = build_train_config(args)
        for key, (_, expected) in text.items():
            assert expected != fields[key]
            assert getattr(built, key) == expected

    def test_variant_hyphen_translation(self):
        from matchgan.cli import build_parser, build_train_config

        parser = build_parser()
        args = parser.parse_args(
            ["train", "--instances", "x", "--seed-budget", "1", "-o", "y",
             "--variant", "no-diversity"]
        )
        assert build_train_config(args).variant == "no_diversity"

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from matchgan import features
from matchgan.cli import _load_pool, main, read_config_file
from matchgan.datasets import IngestError

from helpers import (fault_of, instance_texts, labels_texts, reference_read_instance_file,
                     reference_read_labels_file, reference_read_truth_file)


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

    def test_synth_defaults_are_the_configs(self, tmp_path):
        from matchgan.datasets import SyntheticConfig, generate_synthetic, write_instance_file

        run_cli("synth", "--matches", 5, "--imbalance", 10, "--out", tmp_path)
        pool, _ = generate_synthetic(SyntheticConfig(n_matches=5, imbalance_rate=10))
        write_instance_file(tmp_path / "expected.tsv", pool)
        assert ((tmp_path / "instances.tsv").read_bytes()
                == (tmp_path / "expected.tsv").read_bytes())

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

    def test_featurize_infers_schema_from_quoted_header(self, tmp_path):
        records = tmp_path / "quoted.csv"
        records.write_text('"id","title"\nr1,deep nets\nr2,deep net\nr3,graphs\n')
        inferred, named = tmp_path / "inferred.tsv", tmp_path / "named.tsv"
        assert run_cli("featurize", "--left", records, "-o", inferred) == 0
        assert run_cli("featurize", "--left", records, "--schema", "title", "-o", named) == 0
        assert inferred.read_bytes() == named.read_bytes()

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
        rounds = json.loads((out / "report.json").read_text())["final"]["rounds"]
        assert rounds >= 2
        for name in ("generator", "discriminator"):
            assert len(list((out / "checkpoints").glob(f"{name}_round*.npz"))) == rounds
            # the last round's models are the final ones, byte for byte
            last = out / "checkpoints" / f"{name}_round{rounds}.npz"
            assert last.read_bytes() == (out / f"{name}.npz").read_bytes()

    def test_no_adversary_checkpoint_kind(self, tmp_path):
        from matchgan.nn import load_model

        data = tmp_path / "data"
        out = tmp_path / "run"
        run_cli("synth", "--matches", 4, "--imbalance", 8, "--seed", 3, "--out", data)
        assert run_cli(
            "train", "--instances", data / "instances.tsv", "--seed-budget", 8,
            "--seed", 1, "--inner-iters", 30, "--variant", "no-adversary", "--checkpoints",
            "-o", out,
        ) == 0
        rounds = sorted((out / "checkpoints").glob("generator_round*.npz"))
        assert len(rounds) == json.loads((out / "report.json").read_text())["final"]["rounds"]
        for path in [out / "generator.npz", *rounds]:
            _, meta = load_model(path)
            assert meta["kind"] == "classifier"
        assert not (out / "discriminator.npz").exists()
        assert not list((out / "checkpoints").glob("discriminator*"))

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

    def test_truncated_instance_file_rejected(self, tmp_path, capsys):
        data = tmp_path / "data"
        run_cli("synth", "--matches", 2, "--imbalance", 4, "--seed", 3, "--out", data)
        text = (data / "instances.tsv").read_text()
        last = text.count("\n")
        cut = tmp_path / "cut.tsv"
        cut.write_text(text[:-5])
        capsys.readouterr()
        code = run_cli("partition", "--instances", cut, "-o", tmp_path / "cut.json")
        assert code == 1
        got = text[:-5].splitlines()[-1].count("\t") + 1
        assert f"{cut}:{last}: expected 7 columns, got {got}" in self._single_error(capsys)
        assert not (tmp_path / "cut.json").exists()

    def test_rows_checked_once_per_load(self, tmp_path, capsys, monkeypatch):
        import matchgan.datasets as datasets

        calls = []
        check = datasets._check_columns
        monkeypatch.setattr(datasets, "_check_columns",
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
            # the version error used to be the one that named no file
            ({"format_version": 2, "medians": ["0.5"], "feature_indices": [0]},
             "partition.json: unsupported partition format version 2"),
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

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_partition_file_and_split_features_exclusive(self, tmp_path, capsys, command):
        # neither file exists: the command line is refused before any is read
        out = tmp_path / "out"
        costs = ("--seed-budget", 4) if command == "train" else ("--budgets", 4)
        code = run_cli(command, "--instances", tmp_path / "missing.tsv",
                       "--partition", tmp_path / "missing.json", "--split-features", 0,
                       *costs, "-o", out)
        assert code == 1
        assert "not allowed with argument" in self._single_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["partition", "train", "ablate"])
    def test_instance_file_without_rows_rejected(self, tmp_path, capsys, command):
        inst = tmp_path / "inst.tsv"
        inst.write_text("# instances v1 q=2\nid_a\tid_b\tf0\tlabel\n")
        out = tmp_path / "out"
        costs = {"partition": (), "train": ("--seed-budget", 1), "ablate": ("--budgets", 1)}
        assert run_cli(command, "--instances", inst, *costs[command], "-o", out) == 1
        assert self._single_error(capsys) == f"error: {inst}: no instance rows\n"
        assert not out.exists()

    def test_run_failing_after_a_round_leaves_no_checkpoints(self, tmp_path, capsys,
                                                             monkeypatch):
        import matchgan.training as training

        data = tmp_path / "data"
        run_cli("synth", "--matches", 4, "--imbalance", 8, "--seed", 3, "--out", data)
        capsys.readouterr()
        propagate, calls = training.propagate, []

        def failing_second_round(*args):
            calls.append(args)
            if len(calls) == 2:
                raise ValueError("propagation failed")
            return propagate(*args)

        monkeypatch.setattr(training, "propagate", failing_second_round)
        out = tmp_path / "run"
        assert run_cli("train", "--instances", data / "instances.tsv", "--seed-budget", 8,
                       "--inner-iters", 5, "--checkpoints", "-o", out) == 1
        assert "propagation failed" in self._single_error(capsys)
        assert len(calls) == 2
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
        err = self._single_error(capsys)
        assert f"{key} must be finite" in err
        # the value's source: the flag, or the config file and its line
        assert err.startswith(f"error: {setting[0] if source == 'flag' else f'{config}:1'}: ")
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
        "damage, message", [
            ("missing", "no 'W2' array"), ("nan", "'W1' is not finite"),
            ("truncated", "not a checkpoint"), ("empty", "not a checkpoint"),
            ("text", "not a checkpoint"),
            ("version", "generator.npz: unsupported checkpoint format version 9"),
            ("discriminator", "generator.npz: a discriminator checkpoint cannot label"),
            ("width", "generator.npz: model input width 5 is not the pool's 4 features"),
        ]
    )
    def test_bad_model_checkpoint_rejected(self, tmp_path, capsys, damage, message):
        import numpy as np

        from matchgan.nn import init_mlp, save_model

        data = tmp_path / "data"
        run_cli("synth", "--matches", 2, "--imbalance", 4, "--seed", 3, "--out", data)
        model_path = tmp_path / "generator.npz"
        dims = (5, 3, 2, 1) if damage == "width" else (4, 3, 2, 1)
        save_model(model_path, init_mlp(dims, np.random.default_rng(0)))
        arrays = dict(np.load(model_path))
        if damage == "missing":
            del arrays["W2"]
        elif damage == "nan":
            arrays["W1"][0, 0] = np.nan
        elif damage == "version":
            arrays["format_version"] = np.array(9)
        elif damage == "discriminator":
            arrays["kind"] = np.array("discriminator")
        np.savez(model_path, **arrays)
        damaged = {"truncated": model_path.read_bytes()[:300], "empty": b"", "text": b"W0 = 1\n"}
        if damage in damaged:
            model_path.write_bytes(damaged[damage])
        capsys.readouterr()
        labels = tmp_path / "pred.tsv"
        code = run_cli(
            "predict", "--instances", data / "instances.tsv", "--model", model_path, "-o", labels
        )
        assert code == 1
        err = self._single_error(capsys)
        assert message in err and str(model_path) in err
        assert not labels.exists()

    @pytest.mark.parametrize("command", [
        "partition", "evaluate --predicted", "train --gold", "featurize --left",
        "train --config", "train --partition",
    ])
    def test_undecodable_input_named(self, tmp_path, capsys, command):
        # each reader names the file it could not decode
        data = tmp_path / "data"
        run_cli("synth", "--matches", 2, "--imbalance", 4, "--seed", 3, "--out", data)
        instances, out = data / "instances.tsv", tmp_path / "out"
        bad = tmp_path / "bad"
        lines = {
            "partition": instances.read_bytes().split(b"\n")[:4],
            "evaluate --predicted": [b"id_a\tid_b\tlabel", b"s01a\ts01b\tM"],
            "train --gold": [b"s01a,s01b", b"s02a,s02b"],
            "featurize --left": [b"id,title", b"r1,deep"],
            "train --config": [b"batch_size = 8", b"# note"],
        }.get(command)
        if lines is None:
            bad.write_text('{format_version: 1}\n')
            where = f"{bad}:1: column 2: "
        else:
            # a byte that no UTF-8 text holds, at the end of the last line
            bad.write_bytes(b"\n".join(lines) + b"\xff\n")
            where = f"{bad}: not UTF-8 text"
        name, _, flag = command.partition(" ")
        args = {
            "partition": ["--instances", bad, "-o", out],
            "evaluate": ["--predicted", bad, "--truth", instances, "-o", out],
            "featurize": ["--left", bad, "-o", out],
            "train": ["--instances", instances, flag, bad, "--seed-budget", 4, "-o", out],
        }[name]
        capsys.readouterr()
        assert run_cli(name, *args) == 1
        assert where in self._single_error(capsys)
        assert not out.exists()

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

    def test_ablate_variants_checked_before_any_cell_trains(self, tmp_path, capsys,
                                                            monkeypatch):
        import matchgan.evaluation as evaluation

        data = tmp_path / "data"
        run_cli("synth", "--matches", 3, "--imbalance", 10, "--seed", 1, "--out", data)
        capsys.readouterr()
        runs = []
        monkeypatch.setattr(evaluation, "run", lambda *args, **kwargs: runs.append(args))
        out = tmp_path / "cells.tsv"
        assert run_cli("ablate", "--instances", data / "instances.tsv", "--budgets", 4,
                       "--variants", "full,bogus", "--seeds", 3, "--workers", 1,
                       "-o", out) == 1
        err = self._single_error(capsys)
        assert "--variants" in err and "'bogus'" in err
        # the names are listed as the flag spells them
        assert "no-diversity" in err and "no_diversity" not in err
        assert runs == []
        assert not out.exists()

    @pytest.mark.parametrize("flag, values, repeated", [
        ("--variants", "full,full", "'full'"),
        ("--variants", "no-diversity,no_diversity", "'no_diversity'"),
        ("--budgets", "4,04", "'04'"),
        ("--fractions", "0.5,.5", "'.5'"),
    ])
    def test_ablate_repeated_value_rejected(self, tmp_path, capsys, monkeypatch,
                                            flag, values, repeated):
        # a repeat used to train each cell twice and pool the copies as one group
        import matchgan.evaluation as evaluation

        data = tmp_path / "data"
        run_cli("synth", "--matches", 3, "--imbalance", 10, "--seed", 1, "--out", data)
        capsys.readouterr()
        runs = []
        monkeypatch.setattr(evaluation, "run", lambda *args, **kwargs: runs.append(args))
        costs = () if flag == "--budgets" else ("--budgets", 4)
        out = tmp_path / "cells.tsv"
        assert run_cli("ablate", "--instances", data / "instances.tsv", *costs, flag, values,
                       "--seeds", 1, "--workers", 1, "-o", out) == 1
        err = self._single_error(capsys)
        assert flag in err and f"{repeated} repeats" in err
        assert runs == []
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["1.5", "0", "1", "nan"])
    def test_ablate_fraction_checked_before_any_cell_trains(self, tmp_path, capsys,
                                                            monkeypatch, fraction):
        import matchgan.evaluation as evaluation

        data = tmp_path / "data"
        run_cli("synth", "--matches", 3, "--imbalance", 10, "--seed", 1, "--out", data)
        capsys.readouterr()
        runs = []
        monkeypatch.setattr(evaluation, "run", lambda *args, **kwargs: runs.append(args))
        out = tmp_path / "cells.tsv"
        assert run_cli("ablate", "--instances", data / "instances.tsv", "--budgets", 4,
                       "--fractions", f"0.5,{fraction}", "--seeds", 1, "--workers", 1,
                       "-o", out) == 1
        err = self._single_error(capsys)
        assert "--fractions" in err and "strictly between 0 and 1" in err
        assert runs == []
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
            if flag != "--seed-budget":  # a TrainConfig field's flag is named
                assert lines[0].startswith(f"error: {flag}: "), lines
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

    def test_gold_pair_in_reverse_order_labels_the_row(self, data, tmp_path):
        # each gold line names its pool pair as (id_b, id_a)
        lines = (data / "instances.tsv").read_text().splitlines(keepends=True)
        pairs = [line.split("\t")[:2] for line in lines[2:] if line.rstrip("\n").endswith("M")]
        assert len(pairs) == 3
        gold = tmp_path / "reversed.csv"
        gold.write_text("".join(f"{b},{a}\n" for a, b in pairs))
        inst = tmp_path / "unlabeled.tsv"
        inst.write_text(lines[0] + "".join(line.rsplit("\t", 1)[0] + "\n" for line in lines[1:]))
        common = ["--seed-budget", 12, "--inner-iters", 5, "--seed", 2]
        assert run_cli("train", "--instances", inst, "--gold", gold, *common,
                       "-o", tmp_path / "gold_run") == 0
        assert run_cli("train", "--instances", data / "instances.tsv", *common,
                       "-o", tmp_path / "labeled_run") == 0
        for name in ("report.json", "labels.tsv"):
            assert ((tmp_path / "gold_run" / name).read_bytes()
                    == (tmp_path / "labeled_run" / name).read_bytes())
        pool = _load_pool(str(inst), str(gold))
        matched = [pool.ids[r] for r in np.flatnonzero(pool.real_labels == 1)]
        assert matched == [tuple(pair) for pair in pairs]


class TestMalformedLabelsFile:
    """evaluate given a labels file that breaks a rule fails cleanly: exit
    1, one error line naming the fault the line-by-line reference finds,
    and no metrics file."""

    @pytest.fixture(scope="class")
    def truth(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("truth") / "truth.tsv"
        path.write_text("# instances v1 q=2\nid_a\tid_b\tf0\tlabel\na\tb\t0.9\tM\n")
        return path

    @settings(max_examples=100, deadline=None)
    @given(text=labels_texts(malformed=True))
    def test_evaluate_fails_with_one_error_line(self, truth, text):
        with tempfile.TemporaryDirectory() as tmp:
            predicted = Path(tmp) / "pred.tsv"
            predicted.write_text(text, encoding="utf-8")
            with pytest.raises(IngestError) as expected:
                reference_read_labels_file(predicted)
            _evaluate_fails(predicted, truth, predicted, fault_of(expected.value, predicted))


class TestMalformedTruthFile:
    """evaluate given a truth file that the line-by-line reference rejects,
    or one with a row that has no label, fails as for a malformed labels
    file, naming the first such row's line."""

    @pytest.fixture(scope="class")
    def predicted(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("predicted") / "pred.tsv"
        path.write_text("id_a\tid_b\tlabel\na\tb\tM\n")
        return path

    @settings(max_examples=100, deadline=None)
    @given(text=instance_texts())
    def test_evaluate_fails_with_one_error_line(self, predicted, text):
        with tempfile.TemporaryDirectory() as tmp:
            truth = Path(tmp) / "truth.tsv"
            truth.write_text(text, encoding="utf-8")
            try:
                reference_read_truth_file(truth)
            except IngestError as exc:
                _evaluate_fails(predicted, truth, truth, fault_of(exc, truth))
            else:
                assume(False)


class TestMalformedInstanceFile:
    """partition, train and ablate given an instance file that the
    line-by-line reference rejects, or one with no rows, fail cleanly: exit
    1, one error line naming the file, and the reference's line and fault
    when it names them, and no partition, run directory or cells file."""

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["partition", "train", "ablate"]), text=instance_texts())
    def test_fails_with_one_error_line(self, command, text):
        costs = {"partition": [], "train": ["--seed-budget", "1"],
                 "ablate": ["--budgets", "1", "--seeds", "1", "--workers", "1"]}
        names = {"partition": "p.json", "train": "run", "ablate": "cells.tsv"}
        with tempfile.TemporaryDirectory() as tmp:
            inst = Path(tmp) / "inst.tsv"
            inst.write_text(text, encoding="utf-8")
            try:
                ids = reference_read_instance_file(inst)[0]
            except IngestError as exc:
                fault = fault_of(exc, inst)
            else:
                assume(not ids)
                fault = None
            out = Path(tmp) / names[command]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_cli(command, "--instances", inst, *costs[command], "-o", out)
            assert code == 1
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"error: {inst}:"), lines
            message = lines[0].removeprefix("error: ")
            if fault is None:
                assert message == f"{inst}: no instance rows"
            else:
                assert fault_of(IngestError(message), inst) == fault
            assert not out.exists()


# each fault a featurize run's file inputs can hold, and a word its error
# line carries
_FEATURIZE_FAULTS = {
    "shared id": "distinct",
    "duplicate id": "duplicate id",
    "missing column": "missing column",
    "unknown block attribute": "unknown attribute",
    "gold self-pair": "self-pair",
    "gold width": "expected two columns",
}


@st.composite
def featurize_inputs(draw):
    """(fault, CSV rows by file name, options, file:line of the fault or
    None) of a featurize run on records of the schema t, u whose inputs
    break exactly one rule."""
    fault = draw(st.sampled_from(list(_FEATURIZE_FAULTS)))
    where = None
    words = st.text(alphabet="ab ", max_size=5)

    def records(prefix):
        return [[f"{prefix}{k}", draw(words), draw(words)] for k in range(draw(st.integers(1, 4)))]

    files = {"left": records("l")}
    if fault == "shared id" or draw(st.booleans()):
        files["right"] = records("r")
    block_on = draw(st.sampled_from([None, "t", "u"]))
    if fault == "shared id":
        # one token in both records, so the pair is a candidate blocked or not
        shared = draw(st.sampled_from(files["left"]))
        shared[1:] = ["x", "x"]
        files["right"].append(list(shared))
    elif fault == "duplicate id":
        name = draw(st.sampled_from(sorted(files)))
        rows = files[name]
        rows.append([draw(st.sampled_from(rows))[0], draw(words), draw(words)])
        where = f"{name}.csv:{len(rows) + 1}"  # below the header
    elif fault == "unknown block attribute":
        block_on = "v"
    ids = [row[0] for rows in files.values() for row in rows]
    some_id = st.sampled_from(ids)
    gold = draw(st.lists(st.tuples(some_id, some_id).filter(lambda p: p[0] != p[1]).map(list),
                         max_size=3 if len(set(ids)) > 1 else 0))
    if fault == "gold self-pair":
        gold.append([draw(some_id)] * 2)
        where = f"gold.csv:{len(gold)}"
    elif fault == "gold width":
        gold.append([draw(some_id), draw(some_id), "c"])
    for name, rows in files.items():
        files[name] = [["id", "t", "u"], *rows]
    if fault == "missing column":
        name = draw(st.sampled_from(sorted(files)))
        col = draw(st.integers(0, 2))
        files[name] = [row[:col] + row[col + 1 :] for row in files[name]]
    if gold:
        files["gold"] = gold
    options = {"--schema": "t,u", **({"--block-on": block_on} if block_on else {})}
    return fault, files, options, where


class TestMalformedFeaturizeInputs:
    """featurize given record, gold and --block-on inputs that break a rule
    fails cleanly: exit 1, one error line naming the fault and no instance
    file, even when the fault shows only after rows were written (a tile
    takes one left record here)."""

    @settings(max_examples=100, deadline=None)
    @given(featurize_inputs())
    def test_featurize_fails_with_one_error_line(self, case):
        fault, files, options, where = case
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(features, "PAIR_TILE", 1):
            argv = [arg for pair in options.items() for arg in pair]
            for name, rows in files.items():
                path = Path(tmp) / f"{name}.csv"
                with path.open("w", newline="", encoding="utf-8") as fh:
                    csv.writer(fh).writerows(rows)
                argv += [f"--{name}", path]
            out = Path(tmp) / "inst.tsv"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_cli("featurize", *argv, "-o", out)
            assert code == 1
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert _FEATURIZE_FAULTS[fault] in lines[0]
            if where is not None:
                assert lines[0].startswith(f"error: {tmp}/{where}: "), lines
            assert not out.exists()


# valid config lines that a bad one sits among
_CONFIG_FILLER = ["# a comment", "", "seed = 3", "batch_size = 8  # per side", "variant = full"]


def _config_line(key, value):
    return f"{key} = {value}"


_BAD_CONFIG_LINES = st.one_of(
    st.sampled_from(["bogus = 1", "seeds = 2", "batchsize = 8"]),  # unknown key
    st.sampled_from(["inner_iters 2", "seed", "learning_rate: 0.1"]),  # no '='
    st.sampled_from([("inner_iters", "x"), ("learning_rate", "fast"), ("propagate_count", "all"),
                     ("gen_hidden", "8,x"), ("variant", "best")]).map(lambda kv: _config_line(*kv)),
    # values that parse but lie out of range
    st.builds(_config_line, st.sampled_from(["batch_size", "inner_iters", "propagate_count"]),
              st.integers(max_value=0)),
    st.builds(_config_line, st.sampled_from(["learning_rate", "disc_learning_rate"]),
              st.one_of(st.floats(max_value=0.0), st.sampled_from([math.inf, math.nan]))),
    st.builds(_config_line, st.just("real_weight"),
              st.one_of(st.floats(max_value=-1e-300), st.sampled_from([math.inf, math.nan]))),
    st.builds(_config_line, st.sampled_from(["gen_hidden", "disc_hidden"]),
              st.lists(st.integers(-5, 8), min_size=1, max_size=3)
              .filter(lambda widths: min(widths) < 1).map(lambda ws: ",".join(map(str, ws)))),
)


@st.composite
def training_inputs(draw):
    """(file kind, its text, the line of its fault or None, extra flags) of
    a --config, --partition or --gold file, for a pool of 4 features, that
    breaks exactly one rule."""
    kind = draw(st.sampled_from(["config", "partition", "gold"]))
    if kind == "config":
        before = draw(st.lists(st.sampled_from(_CONFIG_FILLER), max_size=3))
        after = draw(st.lists(st.sampled_from(_CONFIG_FILLER), max_size=2))
        lines = [*before, draw(_BAD_CONFIG_LINES), *after]
        return kind, "\n".join(lines) + "\n", len(before) + 1, []
    if kind == "partition":
        indices = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
        payload = {"format_version": 1, "feature_indices": indices,
                   "medians": [repr(draw(st.floats(0, 1))) for _ in indices]}
        fault = draw(st.sampled_from(["not json", "version", "repeat", "beyond", "medians"]))
        if fault == "version":
            payload["format_version"] = draw(st.one_of(
                st.integers().filter(lambda v: v != 1), st.text(max_size=3), st.none()))
        elif fault == "repeat":
            indices.append(draw(st.sampled_from(indices)))
            payload["medians"].append("0.5")
        elif fault == "beyond":
            indices[draw(st.integers(0, len(indices) - 1))] = draw(st.integers(4, 50))
        elif fault == "medians":
            payload["medians"] = ["0.5"] * draw(st.integers(0, 5).filter(
                lambda k: k != len(indices)))
        text = json.dumps(payload)
        if fault == "not json":
            text = text[: draw(st.integers(0, len(text) - 1))]  # an unclosed object
        return kind, text, None, []
    ids = st.sampled_from(["a0", "a1", "b0", "b1"])
    rows = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]).map(list),
                         max_size=4))
    some = draw(ids)
    bad = [some, some] if draw(st.booleans()) else [some, draw(ids), draw(ids)]
    at = draw(st.integers(0, len(rows)))
    rows.insert(at, bad)
    header = draw(st.booleans())
    text = "".join(",".join(row) + "\n" for row in [["id_a", "id_b"]] * header + rows)
    return kind, text, at + 1 + header, ["--gold-header"] * header


class TestMalformedTrainingInputs:
    """train and ablate given a --config, --partition or --gold file that
    breaks one rule fail cleanly: exit 1, one error line naming the file,
    and its line for a config or gold file, and no run directory or cells
    file."""

    @pytest.fixture(scope="class")
    def instances(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("data")
        assert run_cli("synth", "--matches", 3, "--imbalance", 10, "--seed", 1, "--out", data) == 0
        return data / "instances.tsv"  # 33 rows of 4 features

    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(["train", "ablate"]), case=training_inputs())
    def test_fails_with_one_error_line(self, instances, command, case):
        kind, text, line, flags = case
        names = {"config": "train.cfg", "partition": "partition.json", "gold": "gold.csv"}
        costs = (["--seed-budget", "4"] if command == "train"
                 else ["--budgets", "4", "--seeds", "1", "--workers", "1"])
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / names[kind]
            bad.write_text(text, encoding="utf-8")
            out = Path(tmp) / ("run" if command == "train" else "cells.tsv")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_cli(command, "--instances", instances, *costs, f"--{kind}", bad,
                               *flags, "-o", out)
            assert code == 1
            lines = err.getvalue().splitlines()
            named = f"{bad}:" if line is None else f"{bad}:{line}: "
            assert len(lines) == 1 and lines[0].startswith(f"error: {named}"), lines
            assert not out.exists()


def _evaluate_fails(predicted, truth, bad, fault):
    """evaluate -o m.json, beside bad, exits 1 with one error line naming
    fault in bad, and writes no m.json."""
    out = Path(bad).parent / "m.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_cli("evaluate", "--predicted", predicted, "--truth", truth, "-o", out)
    assert code == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert fault_of(IngestError(lines[0].removeprefix("error: ")), bad) == fault
    assert not out.exists()


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

    @pytest.mark.parametrize("key, value", [
        ("batch_size", "x"), ("learning_rate", "fast"), ("gen_hidden", "32,x"),
    ])
    def test_unparsable_value_names_its_line_and_key(self, tmp_path, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# comment\ninner_iters = 3\n{key} = {value}\n")
        with pytest.raises(ValueError) as caught:
            read_config_file(cfg)
        assert str(caught.value).startswith(f"{cfg}:3: {key}: ")
        assert repr(value.split(",")[-1]) in str(caught.value)

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

    def test_train_and_ablate_build_the_same_config(self, tmp_path):
        from matchgan.cli import build_parser, build_train_config

        cfg = tmp_path / "run.cfg"
        cfg.write_text("batch_size = 64\ngen_hidden = 8,4\nvariant = no-diversity\n")
        flags = ["--instances", "x", "--config", str(cfg), "--inner-iters", "9",
                 "--propagate-count", "pool", "--disc-learning-rate", "0.02", "--seed", "5"]
        parser = build_parser()
        train = parser.parse_args(["train", *flags, "--seed-budget", "1", "-o", "y"])
        ablate = parser.parse_args(["ablate", *flags, "--budgets", "1"])
        built = build_train_config(train)
        assert built == build_train_config(ablate)
        assert (built.batch_size, built.gen_hidden, built.variant, built.inner_iters,
                built.disc_learning_rate, built.seed) == (64, (8, 4), "no_diversity", 9, 0.02, 5)

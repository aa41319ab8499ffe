"""Command-line behaviour: outputs, determinism, precedence, and replay."""

import argparse
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import interbert
from interbert import cli, evaluation, numerics
from interbert.cli import build_parser, main, resolve_config
from interbert.config import MaskingConfig, ModelConfig, TrainConfig
from interbert.data import load_corpus


def run_cli(*argv):
    return main([str(a) for a in argv])


def dir_digest(path: Path, skip=("manifest.json",)) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(path.iterdir())
        if p.is_file() and p.name not in skip
    }


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = run_cli("synth-data", "--out", out, "--seed", 3, "--num-images", 12,
                   "--num-classes", 6, "--feature-dim", 8)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def negatives_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("negatives")
    code = run_cli("mine-negatives", "--corpus", data_dir / "corpus.jsonl",
                   "--vocab", data_dir / "vocab.json", "--out", out)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def pretrain_dir(tmp_path_factory, data_dir, negatives_dir):
    out = tmp_path_factory.mktemp("pretrain")
    code = run_cli("pretrain", "--corpus", data_dir / "corpus.jsonl",
                   "--vocab", data_dir / "vocab.json",
                   "--negatives", negatives_dir / "negatives.jsonl",
                   "--out", out, "--seed", 1,
                   "--steps", 6, "--warmup", 2, "--batch-size", 4,
                   "--hidden-size", 16, "--num-heads", 2, "--ffn-size", 32,
                   "--interaction-layers", 1, "--extraction-layers", 1)
    assert code == 0
    return out


def test_synth_data_outputs(data_dir):
    corpus = load_corpus(data_dir / "corpus.jsonl", data_dir / "vocab.json")
    assert len(corpus) == 12
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["command"] == "synth-data"
    assert manifest["config"]["seed"] == 3
    assert sorted(manifest["outputs"]) == ["corpus.jsonl", "vocab.json"]
    # the allocator thresholds interbert.numerics set at import, or null where libc has no mallopt
    assert manifest["malloc"] in ({"M_TRIM_THRESHOLD": 64 << 20, "M_MMAP_THRESHOLD": 32 << 20}, None)
    assert manifest["malloc"] == numerics.MALLOC_SETTINGS
    # the threads retrieval scoring runs its batches on, from the CPU affinity
    assert manifest["score_workers"] == evaluation.score_workers() >= 1
    assert "score_workers" not in manifest["config"]


def test_synth_data_seed_repeatable(tmp_path, data_dir):
    twin = tmp_path / "twin"
    assert run_cli("synth-data", "--out", twin, "--seed", 3, "--num-images", 12,
                   "--num-classes", 6, "--feature-dim", 8) == 0
    assert dir_digest(twin) == dir_digest(data_dir)


def test_missing_required_flag_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("mine-negatives", "--out", "/tmp/nowhere")
    assert excinfo.value.code != 0
    assert "usage" in capsys.readouterr().err


def test_unknown_input_is_one_line_error(tmp_path, capsys):
    code = run_cli("mine-negatives", "--corpus", tmp_path / "missing.jsonl",
                   "--vocab", tmp_path / "missing.json", "--out", tmp_path / "o")
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err


def test_mine_negatives_schema(negatives_dir):
    lines = (negatives_dir / "negatives.jsonl").read_text().strip().splitlines()
    assert len(lines) == 12
    previous = -1
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"image_id", "negatives"}
        assert record["image_id"] > previous
        previous = record["image_id"]
        for entry in record["negatives"]:
            assert set(entry) == {"caption_id", "sim"}
            assert entry["sim"] < 0.5


def test_pretrain_outputs(pretrain_dir):
    names = {p.name for p in pretrain_dir.iterdir()}
    assert {"checkpoint.ibt", "metrics.csv", "config.json", "manifest.json"} <= names
    metrics = (pretrain_dir / "metrics.csv").read_text().strip().splitlines()
    assert metrics[0] == "step,lr,msm_loss,mrm_loss,itm_loss,total,itm_acc"
    assert len(metrics) == 7
    stored = json.loads((pretrain_dir / "config.json").read_text())
    assert stored["model"]["hidden_size"] == 16
    assert stored["model"]["vocab_size"] == 18  # resolved from the corpus
    assert stored["train"]["total_steps"] == 6


def test_pretrain_refuses_a_table_from_another_corpus(tmp_path, negatives_dir, capsys):
    small = tmp_path / "small"
    assert run_cli("synth-data", "--out", small, "--seed", 4, "--num-images", 8,
                   "--num-classes", 6, "--feature-dim", 8) == 0
    table = negatives_dir / "negatives.jsonl"
    capsys.readouterr()
    code = run_cli("pretrain", "--corpus", small / "corpus.jsonl", "--vocab", small / "vocab.json",
                   "--negatives", table, "--out", tmp_path / "run", "--steps", 2, "--warmup", 1,
                   "--batch-size", 4, "--hidden-size", 16, "--num-heads", 2, "--ffn-size", 32)
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {table}: negatives table ") and "\n" not in err
    assert err.endswith("which is not in the corpus")
    assert not (tmp_path / "run" / "metrics.csv").exists()


@pytest.mark.parametrize("model, detail", [
    ({"object_feature_dim": 16}, "has object features of width 8, the model takes 16"),
    ({"num_object_classes": 3}, "outside the model's 3 classes"),
])
def test_pretrain_refuses_a_corpus_the_model_cannot_take(tmp_path, data_dir, negatives_dir, capsys, model, detail):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": model}))
    corpus = load_corpus(data_dir / "corpus.jsonl", data_dir / "vocab.json")
    first = next(p for p in corpus.pairs if "width" in detail or p.labels.max() >= 3)
    capsys.readouterr()
    code = run_cli("pretrain", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.json",
                   "--negatives", negatives_dir / "negatives.jsonl", "--config", config,
                   "--out", tmp_path / "run", "--steps", 2, "--warmup", 1, "--batch-size", 4,
                   "--hidden-size", 16, "--num-heads", 2, "--ffn-size", 32)
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {data_dir / 'corpus.jsonl'}: image {first.image_id} ") and "\n" not in err
    assert err.endswith(detail)
    assert not (tmp_path / "run" / "metrics.csv").exists()


def test_eval_refuses_images_over_the_object_limit(tmp_path, data_dir, pretrain_dir, capsys):
    stored = json.loads((pretrain_dir / "config.json").read_text())
    stored["model"]["max_objects"] = 2
    config = tmp_path / "model.json"
    config.write_text(json.dumps(stored))
    corpus = load_corpus(data_dir / "corpus.jsonl", data_dir / "vocab.json")
    first = next(p for p in corpus.pairs if p.num_objects > 2)
    capsys.readouterr()
    code = run_cli("eval", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.json",
                   "--checkpoint", pretrain_dir / "checkpoint.ibt", "--model-config", config,
                   "--out", tmp_path / "eval")
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err == (f"error: {data_dir / 'corpus.jsonl'}: image {first.image_id} has "
                   f"{first.num_objects} objects > limit 2")
    assert not (tmp_path / "eval" / "metrics.json").exists()


def test_config_file_and_flag_precedence(tmp_path, data_dir, negatives_dir):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"hidden_size": 16, "num_heads": 2, "ffn_size": 32,
                  "num_interaction_layers": 1, "num_extraction_layers": 1},
        "train": {"total_steps": 4, "warmup_steps": 1, "batch_size": 4, "seed": 9},
    }))
    out = tmp_path / "run"
    assert run_cli("pretrain", "--corpus", data_dir / "corpus.jsonl",
                   "--vocab", data_dir / "vocab.json",
                   "--negatives", negatives_dir / "negatives.jsonl",
                   "--config", config, "--out", out,
                   "--steps", 3) == 0  # flag beats file
    stored = json.loads((out / "config.json").read_text())
    assert stored["train"]["total_steps"] == 3
    assert stored["train"]["warmup_steps"] == 1   # from file
    assert stored["train"]["seed"] == 9           # from file
    assert stored["model"]["hidden_size"] == 16


def test_env_seed_is_last_resort(tmp_path, monkeypatch):
    monkeypatch.setenv("IBT_SEED", "77")
    out = tmp_path / "env-seeded"
    assert run_cli("synth-data", "--out", out, "--num-images", 3,
                   "--num-classes", 6, "--feature-dim", 8) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 77


def test_pretrain_replay_bit_identical(tmp_path, pretrain_dir):
    replay_dir = tmp_path / "replay"
    assert run_cli("replay", "--manifest", pretrain_dir / "manifest.json",
                   "--out", replay_dir) == 0
    assert dir_digest(replay_dir) == dir_digest(pretrain_dir)


def test_synth_replay_bit_identical(tmp_path, data_dir):
    replay_dir = tmp_path / "replay-data"
    assert run_cli("replay", "--manifest", data_dir / "manifest.json",
                   "--out", replay_dir) == 0
    assert dir_digest(replay_dir) == dir_digest(data_dir)


def test_finetune_and_eval_pipeline(tmp_path, data_dir, pretrain_dir, capsys):
    fine_dir = tmp_path / "fine"
    code = run_cli("finetune", "--corpus", data_dir / "corpus.jsonl",
                   "--vocab", data_dir / "vocab.json",
                   "--checkpoint", pretrain_dir / "checkpoint.ibt",
                   "--out", fine_dir, "--seed", 2,
                   "--steps", 3, "--warmup", 1, "--batch-size", 2)
    assert code == 0
    names = {p.name for p in fine_dir.iterdir()}
    assert {"checkpoint_ema.ibt", "checkpoint_raw.ibt", "metrics.csv"} <= names

    eval_dir = tmp_path / "eval"
    capsys.readouterr()
    code = run_cli("eval", "--corpus", data_dir / "corpus.jsonl",
                   "--vocab", data_dir / "vocab.json",
                   "--checkpoint", pretrain_dir / "checkpoint.ibt",
                   "--out", eval_dir, "--split", "heldout", "--export-embeddings")
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("split\tN_images")
    assert printed[1].startswith("heldout\t12")
    metrics = json.loads((eval_dir / "metrics.json").read_text())
    assert metrics["num_images"] == 12
    assert "1" in metrics["recall"]
    assert (eval_dir / "embeddings.bin").exists()


def test_knn_command(tmp_path, data_dir, pretrain_dir, capsys):
    eval_dir = tmp_path / "eval-emb"
    assert run_cli("eval", "--corpus", data_dir / "corpus.jsonl",
                   "--vocab", data_dir / "vocab.json",
                   "--checkpoint", pretrain_dir / "checkpoint.ibt",
                   "--out", eval_dir, "--export-embeddings") == 0
    capsys.readouterr()
    knn_dir = tmp_path / "knn"
    assert run_cli("knn", "--embeddings", eval_dir / "embeddings.bin",
                   "--trigger", 0, "--k", 3, "--out", knn_dir) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "rank\titem_id"
    assert len(out) == 4
    stored = json.loads((knn_dir / "neighbours.json").read_text())
    assert len(stored["neighbours"]) == 3
    assert 0 not in stored["neighbours"]


def test_eval_config_file_sets_defaults_and_flags_win(tmp_path, data_dir, pretrain_dir, capsys):
    config = tmp_path / "eval.json"
    config.write_text(json.dumps({"split": "from-file", "export_embeddings": True}))
    inputs = ("--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.json",
              "--checkpoint", pretrain_dir / "checkpoint.ibt", "--config", config)
    out = tmp_path / "eval-file"
    assert run_cli("eval", *inputs, "--out", out) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("from-file\t12")
    assert (out / "embeddings.bin").exists()
    assert json.loads((out / "metrics.json").read_text())["split"] == "from-file"
    flagged = tmp_path / "eval-flag"
    assert run_cli("eval", *inputs, "--split", "from-flag", "--out", flagged) == 0
    assert json.loads((flagged / "metrics.json").read_text())["split"] == "from-flag"


def test_knn_config_file_sets_defaults_and_flags_win(tmp_path, data_dir, pretrain_dir):
    eval_dir = tmp_path / "eval-emb"
    assert run_cli("eval", "--corpus", data_dir / "corpus.jsonl",
                   "--vocab", data_dir / "vocab.json",
                   "--checkpoint", pretrain_dir / "checkpoint.ibt",
                   "--out", eval_dir, "--export-embeddings") == 0
    config = tmp_path / "knn.json"
    config.write_text(json.dumps({"k": 2, "trigger": 4}))
    embeddings = ("--embeddings", eval_dir / "embeddings.bin", "--config", config)
    assert run_cli("knn", *embeddings, "--out", tmp_path / "knn-file") == 0
    stored = json.loads((tmp_path / "knn-file" / "neighbours.json").read_text())
    assert (stored["trigger"], stored["k"], len(stored["neighbours"])) == (4, 2, 2)
    assert run_cli("knn", *embeddings, "--k", 3, "--trigger", 1, "--out", tmp_path / "knn-flag") == 0
    stored = json.loads((tmp_path / "knn-flag" / "neighbours.json").read_text())
    assert (stored["trigger"], stored["k"], len(stored["neighbours"])) == (1, 3, 3)


@pytest.mark.parametrize("command", ["eval", "knn"])
def test_eval_and_knn_refuse_unknown_config_keys(tmp_path, command, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"bogus_key": 1}))
    inputs = {"eval": ("--corpus", "c", "--vocab", "v", "--checkpoint", "x"),
              "knn": ("--embeddings", "e", "--trigger", 0)}[command]
    capsys.readouterr()
    assert run_cli(command, *inputs, "--config", config, "--out", tmp_path / "out") == 1
    assert "bogus_key" in capsys.readouterr().err


def test_knn_without_trigger_is_an_error(tmp_path, capsys):
    assert run_cli("knn", "--embeddings", "e", "--out", tmp_path / "out") == 1
    assert "trigger" in capsys.readouterr().err


def test_pretrain_masking_knob_flags(tmp_path, data_dir, negatives_dir):
    out = tmp_path / "knobs"
    code = run_cli("pretrain", "--corpus", data_dir / "corpus.jsonl",
                   "--vocab", data_dir / "vocab.json",
                   "--negatives", negatives_dir / "negatives.jsonl",
                   "--out", out, "--seed", 5,
                   "--steps", 2, "--warmup", 1, "--batch-size", 4,
                   "--hidden-size", 16, "--num-heads", 2, "--ffn-size", 32,
                   "--interaction-layers", 1, "--extraction-layers", 1,
                   "--anchor-prob", "0.25", "--max-extension", "0",
                   "--iou-threshold", "1.0", "--action-mix", "0.7,0.2,0.1",
                   "--hard-neg-prob", "0.0")
    assert code == 0
    stored = json.loads((out / "config.json").read_text())
    masking = stored["train"]["masking"]
    assert masking["anchor_prob"] == 0.25
    assert masking["max_extension"] == 0
    assert masking["iou_threshold"] == 1.0
    assert masking["action_mask_prob"] == 0.7
    assert stored["train"]["hard_negative_prob"] == 0.0


def test_pretrain_single_stream_variant(tmp_path, data_dir, negatives_dir):
    out = tmp_path / "single-stream"
    code = run_cli("pretrain", "--corpus", data_dir / "corpus.jsonl",
                   "--vocab", data_dir / "vocab.json",
                   "--negatives", negatives_dir / "negatives.jsonl",
                   "--out", out, "--seed", 4, "--variant", "single_stream",
                   "--steps", 3, "--warmup", 1, "--batch-size", 4,
                   "--hidden-size", 16, "--num-heads", 2, "--ffn-size", 32,
                   "--interaction-layers", 1, "--extraction-layers", 0)
    assert code == 0
    stored = json.loads((out / "config.json").read_text())
    assert stored["model"]["architecture_variant"] == "single_stream"
    assert (out / "checkpoint.ibt").exists()


def test_gradcheck_command(tmp_path, capsys):
    out = tmp_path / "gc"
    code = run_cli("gradcheck", "--out", out, "--samples", 40)
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["max_relative_error"] < 1e-4


def test_gradcheck_config_file_sets_defaults_and_flags_win(tmp_path):
    config = tmp_path / "gradcheck.json"
    config.write_text(json.dumps({"tolerance": 0.5, "samples": 10, "init_std": 0.4}))
    out = tmp_path / "gc"
    assert run_cli("gradcheck", "--out", out, "--config", config, "--samples", 12) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["tolerance"] == 0.5
    assert report["samples"] == 12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["init_std"] == 0.4


def test_eval_replay_bit_identical(tmp_path, data_dir, pretrain_dir):
    first = tmp_path / "ev1"
    assert run_cli("eval", "--corpus", data_dir / "corpus.jsonl",
                   "--vocab", data_dir / "vocab.json",
                   "--checkpoint", pretrain_dir / "checkpoint.ibt",
                   "--out", first, "--export-embeddings") == 0
    second = tmp_path / "ev2"
    assert run_cli("replay", "--manifest", first / "manifest.json", "--out", second) == 0
    assert dir_digest(second) == dir_digest(first)


def test_commands_write_only_inside_out_dir(tmp_path, monkeypatch):
    # run from a scratch cwd and verify nothing appears there
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "only-out"
    assert run_cli("synth-data", "--out", out, "--seed", 0, "--num-images", 3,
                   "--num-classes", 6, "--feature-dim", 8) == 0
    assert list(workdir.iterdir()) == []


def test_replay_from_another_directory_bit_identical(tmp_path, monkeypatch):
    # relative input paths are stored absolute, so the manifest replays from anywhere
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    monkeypatch.chdir(tmp_path / "a")
    assert run_cli("synth-data", "--out", "d", "--num-images", 6, "--num-classes", 6, "--feature-dim", 8) == 0
    assert run_cli("mine-negatives", "--corpus", "d/corpus.jsonl", "--vocab", "d/vocab.json", "--out", "neg") == 0
    config = json.loads((tmp_path / "a" / "neg" / "manifest.json").read_text())["config"]
    assert config["corpus"] == str(tmp_path / "a" / "d" / "corpus.jsonl")
    monkeypatch.chdir(tmp_path / "b")
    assert run_cli("replay", "--manifest", "../a/neg/manifest.json", "--out", "neg") == 0
    assert dir_digest(tmp_path / "b" / "neg") == dir_digest(tmp_path / "a" / "neg")


@pytest.mark.parametrize("command, file_cfg, named", [
    ("pretrain", {"modle": {"hidden_size": 16}, "trian": {"total_steps": 2}}, ("modle", "trian")),
    ("pretrain", {"train": {"total_step": 2}}, ("total_step",)),
    ("pretrain", {"train": {"masking": {"anchor_probability": 0.2}}}, ("anchor_probability",)),
    ("finetune", {"model": {"hidden_size": 16}, "bogus": 1}, ("model", "bogus")),
], ids=["pretrain-top", "pretrain-train", "pretrain-masking", "finetune-top"])
def test_training_commands_refuse_unknown_config_keys(tmp_path, data_dir, negatives_dir, capsys,
                                                      command, file_cfg, named):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(file_cfg))
    inputs = {"pretrain": ("--negatives", negatives_dir / "negatives.jsonl"),
              "finetune": ("--checkpoint", tmp_path / "never-read.ibt")}[command]
    capsys.readouterr()
    assert run_cli(command, "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.json",
                   *inputs, "--config", config, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: unknown config keys") and all(repr(key) in err for key in named)
    assert not (tmp_path / "out").exists()  # refused before any work


@pytest.mark.parametrize("command, file_cfg, named", [
    ("synth-data", {"num_images": "5"}, 'num_images must be int, got "5"'),
    ("pretrain", {"train": {"total_steps": "3"}}, 'total_steps in train must be int, got "3"'),
], ids=["synth-data-top", "pretrain-train"])
def test_config_values_of_the_wrong_type_are_refused(tmp_path, data_dir, negatives_dir, capsys,
                                                      command, file_cfg, named):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(file_cfg))
    inputs = {"synth-data": (),
              "pretrain": ("--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.json",
                           "--negatives", negatives_dir / "negatives.jsonl")}[command]
    capsys.readouterr()
    assert run_cli(command, *inputs, "--config", config, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err.strip() == f"error: config file {config}: {named}"
    assert not (tmp_path / "out").exists()  # refused before any work


@pytest.mark.parametrize("command", ["eval", "finetune"])
@pytest.mark.parametrize("stored, named", [
    ({"hidden_size": "16"}, 'hidden_size must be int, got "16"'),
    ({"model": {"hidden_size": 16, "tie_msm_weights": 1}}, "tie_msm_weights must be bool, got 1"),
    ({"model": {"hidden_sise": 16}}, "unknown config keys: ['hidden_sise']"),
], ids=["flat-str", "section-bool", "section-unknown"])
def test_checkpoint_model_config_is_checked_naming_the_file(tmp_path, data_dir, capsys, command, stored, named):
    model_config = tmp_path / "model.json"
    model_config.write_text(json.dumps(stored))
    capsys.readouterr()
    assert run_cli(command, "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.json",
                   "--checkpoint", tmp_path / "never-read.ibt", "--model-config", model_config,
                   "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err.strip()
    assert named in err and str(model_config) in err and "\n" not in err


@pytest.mark.parametrize("command, flags, named", [
    ("pretrain", ("--num-heads", -4, "--steps", 1, "--warmup", 0), "num_heads must be positive"),
    ("pretrain", ("--steps", 1), "need 0 <= warmup_steps <= total_steps"),  # the default warmup is 100
    ("eval", ("--model-config", "model.json"), 'hidden_size must be int, got "16"'),
], ids=["model-value", "train-value", "checkpoint-model-config"])
def test_a_refused_config_leaves_no_out_directory(tmp_path, data_dir, negatives_dir, capsys, command, flags, named):
    (tmp_path / "model.json").write_text(json.dumps({"hidden_size": "16"}))
    inputs = {"pretrain": ("--negatives", negatives_dir / "negatives.jsonl"),
              "eval": ("--checkpoint", tmp_path / "never-read.ibt")}[command]
    flags = [tmp_path / flag if flag == "model.json" else flag for flag in flags]
    capsys.readouterr()
    assert run_cli(command, "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.json",
                   *inputs, *flags, "--out", tmp_path / "out") == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out, existing", [("out", False), ("out", True), ("new/deeper/out", False)],
                         ids=["new-out", "existing-out", "new-parents"])
def test_a_runner_failure_leaves_out_as_it_was(tmp_path, capsys, out, existing):
    out = tmp_path / out
    if existing:
        out.mkdir()
        (out / "kept.txt").write_text("kept")
    capsys.readouterr()
    assert run_cli("gradcheck", "--num-heads", 3, "--out", out) == 1  # the runner builds and refuses the config
    assert "hidden_size 8 must be a positive multiple of num_heads 3" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == (["out"] if existing else [])
    if existing:
        assert [p.name for p in out.iterdir()] == ["kept.txt"] and (out / "kept.txt").read_text() == "kept"


def test_a_runner_failure_keeps_a_sibling_run_under_a_new_parent(tmp_path, capsys, monkeypatch):
    from interbert import cli

    def sibling_then_fail(config, out_dir):  # a run started beside this one writes runs/b into the new runs/
        (out_dir.parent / "b").mkdir()
        (out_dir.parent / "b" / "model.ibt").write_text("theirs")
        raise cli.CommandError("refused")

    monkeypatch.setitem(cli.RUNNERS, "gradcheck", sibling_then_fail)
    capsys.readouterr()
    assert run_cli("gradcheck", "--out", tmp_path / "runs" / "a") == 1
    assert "refused" in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "runs").iterdir()] == ["b"]
    assert (tmp_path / "runs" / "b" / "model.ibt").read_text() == "theirs"


def synth_defaults():
    from interbert.cli import COMMANDS

    return dict(COMMANDS["synth-data"][1])


@pytest.mark.parametrize("manifest, named", [
    ({"command": "synth-data"}, "expected an object in config, got null"),
    ({"command": "synth-data", "config": [1]}, "expected an object in config, got [1]"),
    ({"command": "synth-data", "config": {k: v for k, v in synth_defaults().items() if k != "seed"}},
     "config lacks keys ['seed']"),
    ({"command": "synth-data", "config": {**synth_defaults(), "bogus": 1}}, "['bogus']"),
    ({"command": "synth-data", "config": {**synth_defaults(), "num_images": "5"}},
     'num_images in config must be int, got "5"'),
], ids=["missing", "not-an-object", "missing-key", "extra-key", "wrong-type"])
def test_replay_refuses_a_malformed_manifest_before_any_work(tmp_path, capsys, manifest, named):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("replay", "--manifest", path, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err.strip()
    assert named in err and str(path) in err and "\n" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("drop, named", [
    (("shards",), "['shards']"),  # a manifest from before the key existed
    (("weight_decay", "shards"), "['weight_decay', 'shards']"),
    (("masking", "anchor_prob"), "['masking.anchor_prob']"),
], ids=["pre-shards", "two-keys", "masking-key"])
def test_replay_refuses_a_train_section_that_lacks_a_key(tmp_path, capsys, pretrain_dir, drop, named):
    manifest = json.loads((pretrain_dir / "manifest.json").read_text())
    train = manifest["config"]["train"]
    if drop[0] == "masking":
        del train["masking"][drop[1]]
    else:
        for key in drop:
            del train[key]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("replay", "--manifest", path, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err.strip()
    assert f"the train section lacks keys {named}" in err and str(path) in err and "\n" not in err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def eval_dir(tmp_path_factory, data_dir, pretrain_dir):
    out = tmp_path_factory.mktemp("eval")
    assert run_cli("eval", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.json",
                   "--checkpoint", pretrain_dir / "checkpoint.ibt", "--out", out) == 0
    return out


def edited_manifest(tmp_path, run_dir, keys, value=None):
    """``run_dir``'s manifest with the config value at the path ``keys`` set
    to ``value``, or deleted when ``value`` is None, written under ``tmp_path``."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    section = manifest["config"]
    for key in keys[:-1]:
        section = section[key]
    if value is None:
        del section[keys[-1]]
    else:
        section[keys[-1]] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def assert_replay_refused(tmp_path, capsys, path, named):
    capsys.readouterr()
    assert run_cli("replay", "--manifest", path, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err.strip()
    assert named in err and str(path) in err and "\n" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("run, keys, named", [
    ("pretrain", ("model", "hidden_size"), "the model section lacks keys ['hidden_size']"),
    ("eval", ("model", "num_heads"), "the model section lacks keys ['num_heads']"),
    ("eval", ("model",), "config lacks keys ['model']"),
], ids=["pretrain-model-key", "eval-model-key", "eval-model"])
def test_replay_refuses_a_model_section_that_lacks_a_key(tmp_path, capsys, request, run, keys, named):
    # the model would be built at ModelConfig's default, not at what ran
    path = edited_manifest(tmp_path, request.getfixturevalue(f"{run}_dir"), keys)
    assert_replay_refused(tmp_path, capsys, path, named)


@pytest.mark.parametrize("keys, value, named", [
    (("train", "learning_rate"), "x", 'learning_rate in train must be float, got "x"'),
    (("train", "masking", "anchor_prob"), "0.3", 'anchor_prob in masking must be float, got "0.3"'),
    (("model", "hidden_size"), "16", 'hidden_size in model must be int, got "16"'),
], ids=["train", "masking", "model"])
def test_replay_refuses_a_nested_value_of_the_wrong_type(tmp_path, capsys, pretrain_dir, keys, value, named):
    assert_replay_refused(tmp_path, capsys, edited_manifest(tmp_path, pretrain_dir, keys, value), named)


@pytest.mark.parametrize("command", ["eval", "finetune"])
def test_a_checkpoint_config_that_lacks_a_model_key_is_refused_before_any_work(
        tmp_path, data_dir, pretrain_dir, capsys, command):
    # the key would keep ModelConfig's full-scale default, which the checkpoint does not fit
    stored = json.loads((pretrain_dir / "config.json").read_text())
    del stored["model"]["hidden_size"]
    model_config = tmp_path / "config.json"
    model_config.write_text(json.dumps(stored))
    capsys.readouterr()
    assert run_cli(command, "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.json",
                   "--checkpoint", pretrain_dir / "checkpoint.ibt", "--model-config", model_config,
                   "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err.strip() == (
        f"error: config file {model_config}: the model section lacks keys ['hidden_size']")
    assert not (tmp_path / "out").exists()


def test_eval_replay_builds_the_model_its_manifest_records(tmp_path, data_dir, pretrain_dir):
    shutil.copytree(pretrain_dir, tmp_path / "pre")
    first, second = tmp_path / "ev1", tmp_path / "ev2"
    assert run_cli("eval", "--corpus", data_dir / "corpus.jsonl", "--vocab", data_dir / "vocab.json",
                   "--checkpoint", tmp_path / "pre" / "checkpoint.ibt", "--out", first,
                   "--export-embeddings") == 0
    stored = json.loads((tmp_path / "pre" / "config.json").read_text())
    stored["model"]["ln_eps"] = 1e-5  # edited after the run: replay must not read it
    (tmp_path / "pre" / "config.json").write_text(json.dumps(stored))
    assert run_cli("replay", "--manifest", first / "manifest.json", "--out", second) == 0
    assert dir_digest(second) == dir_digest(first)
    recorded = json.loads((first / "manifest.json").read_text())["config"]["model"]
    assert json.loads((second / "manifest.json").read_text())["config"]["model"] == recorded


def test_replay_builds_an_edited_model_section_and_refuses_the_checkpoint(tmp_path, capsys, eval_dir):
    manifest = json.loads((eval_dir / "manifest.json").read_text())
    manifest["config"]["model"].update(hidden_size=32, num_heads=4)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("replay", "--manifest", path, "--out", tmp_path / "out") == 1
    assert "shape mismatch" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def leaf_keys(schema: dict) -> list[str]:
    return [leaf for key, value in schema.items()
            for leaf in (leaf_keys(value) if isinstance(value, dict) else [key])]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@pytest.mark.parametrize("paper, replay", [(False, False), (True, False), (False, True)],
                         ids=["desk", "paper", "replay"])
def test_each_schema_key_names_one_value_and_no_global_flag(command, paper, replay):
    # a flag sets its key by name wherever the key sits in the schema
    leaves = leaf_keys(cli._schema(command, paper, replay))
    assert len(leaves) == len(set(leaves))
    assert not set(leaves) & {"out", "config", "threads", "paper_scale", "action_mix", "command"}


def flag_fields() -> list:
    return [(cls, f) for cls in (ModelConfig, TrainConfig, MaskingConfig) for f in fields(cls) if f.metadata]


def test_flag_fields_are_annotated_with_their_defaults_type():
    # the parser types each section flag by its field's default
    assert set(cli._schema("pretrain")["model"]) == {f.name for f in fields(ModelConfig)}
    assert flag_fields()
    for cls, f in flag_fields():
        assert get_type_hints(cls)[f.name] is type(f.default), f.name


@pytest.mark.parametrize("cls, key", [(cls, f.name) for cls, f in flag_fields() if f.metadata["choices"]],
                         ids=lambda value: getattr(value, "__name__", value))
def test_each_choice_holds_its_default_and_validate_refuses_another(cls, key):
    choices = next(f.metadata["choices"] for f in fields(cls) if f.name == key)
    assert getattr(cls(), key) in choices
    with pytest.raises(ValueError, match=key):
        replace(cls(), **{key: "float16"}).validate()


def test_config_values_may_widen_int_to_float_and_fill_null_defaults(tmp_path):
    config = tmp_path / "ok.json"
    config.write_text(json.dumps({"model": {"vocab_size": None, "object_feature_dim": 8},
                                  "train": {"learning_rate": 1, "masking": {"anchor_prob": 0}}}))
    args = build_parser().parse_args(["pretrain", "--corpus", "c", "--vocab", "v", "--negatives", "n",
                                      "--config", str(config), "--out", str(tmp_path / "out")])
    resolved = resolve_config(args)
    assert resolved["model"]["vocab_size"] is None and resolved["model"]["object_feature_dim"] == 8
    assert resolved["train"]["learning_rate"] == 1 and resolved["train"]["masking"]["anchor_prob"] == 0


def test_building_the_parser_leaves_numpy_unloaded():
    # --threads must reach the BLAS variables before the first numeric import
    code = "import sys; from interbert.cli import build_parser; build_parser(); print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(interbert.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


NO_SCIPY_UNTIL_MINING = """
import sys
import numpy as np
import interbert.cli, interbert.evaluation, interbert.training
from interbert import data, negatives
import interbert.numerics as nt
x = nt.Tensor(np.linspace(-6.0, 6.0, 48).reshape(6, 8), requires_grad=True)
nt.backward(nt.matmul(nt.matmul(np.ones((1, 6)), nt.gelu(x)), np.ones((8, 1))))  # a tail on both sides
assert x.grad is not None
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
negatives.build_tfidf(data.synth_corpus(seed=3, num_images=6))
print("scipy.sparse" in sys.modules)
"""


def test_the_runners_load_no_scipy_until_mining_builds_an_index():
    # gelu's erf is computed in numpy; TfIdfIndex.build is the one place that imports scipy
    env = {**os.environ, "PYTHONPATH": str(Path(interbert.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_UNTIL_MINING], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.split("\n")[:2] == ["[]", "True"]


# One fixed invocation per command, run in order in one working directory:
# (IBT_SEED or None, --config file body or None, arguments). CLI_FIXTURE holds
# the manifest config each resolved to, with that directory written as $WORK,
# and every subcommand's flags. Both were recorded from the hand-written
# parser and dispatch the command table replaced; the one edit since is
# mine-negatives' corpus and vocab, which that version stored relative.
FIXED_INVOCATIONS = {
    "synth-data": (None, {"noise_std": 0.2, "seed": 5},
                   ["--out", "data", "--num-images", 8, "--num-classes", 6, "--feature-dim", 8]),
    "mine-negatives": ("4", None, ["--corpus", "data/corpus.jsonl", "--vocab", "data/vocab.json",
                                   "--out", "neg", "--max-negatives", 7]),
    "pretrain": (None, {"model": {"hidden_size": 16, "num_heads": 2, "ffn_size": 32,
                                  "num_interaction_layers": 1, "num_extraction_layers": 1},
                        "train": {"total_steps": 2, "warmup_steps": 1, "batch_size": 4,
                                  "masking": {"anchor_prob": 0.3}}},
                 ["--corpus", "data/corpus.jsonl", "--vocab", "data/vocab.json",
                  "--negatives", "neg/negatives.jsonl", "--out", "pre", "--seed", 1, "--lr", 1e-3,
                  "--action-mix", "0.7,0.2,0.1", "--tie-msm-weights"]),
    "finetune": (None, {"train": {"seed": 2}},
                 ["--corpus", "data/corpus.jsonl", "--vocab", "data/vocab.json",
                  "--checkpoint", "pre/checkpoint.ibt", "--out", "fine",
                  "--steps", 2, "--warmup", 1, "--batch-size", 2]),
    "eval": ("6", None, ["--corpus", "data/corpus.jsonl", "--vocab", "data/vocab.json",
                         "--checkpoint", "pre/checkpoint.ibt", "--out", "ev", "--split", "heldout",
                         "--export-embeddings"]),
    "gradcheck": (None, {"tolerance": 0.5, "init_std": 0.4}, ["--out", "gc", "--samples", 5, "--seed", 3]),
    "knn": (None, {"trigger": 1}, ["--embeddings", "ev/embeddings.bin", "--out", "knn", "--k", 2]),
}
CLI_FIXTURE = Path(__file__).with_name("cli_configs.json")


def resolved_configs(workdir: Path) -> dict:
    workdir = workdir.resolve()
    configs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        for command, (env_seed, file_cfg, argv) in FIXED_INVOCATIONS.items():
            if env_seed is None:
                mp.delenv("IBT_SEED", raising=False)
            else:
                mp.setenv("IBT_SEED", env_seed)
            if file_cfg is not None:
                (workdir / f"{command}.json").write_text(json.dumps(file_cfg))
                argv = [*argv, "--config", f"{command}.json"]
            assert run_cli(command, *argv) == 0
            manifest = (workdir / argv[argv.index("--out") + 1] / "manifest.json").read_text()
            configs[command] = json.loads(manifest.replace(str(workdir), "$WORK"))["config"]
    return configs


def parser_flags() -> dict:
    """Per subcommand: [option strings, dest, type, choices, required, default, action] of each flag."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return json.loads(json.dumps({
        name: sorted([a.option_strings, a.dest, getattr(a.type, "__name__", None), a.choices,
                      a.required, a.default, type(a).__name__] for a in parser._actions)
        for name, parser in sub.choices.items()}))


@pytest.fixture(scope="module")
def fixed_configs(tmp_path_factory):
    return resolved_configs(tmp_path_factory.mktemp("fixed"))


@pytest.mark.parametrize("command", list(FIXED_INVOCATIONS))
def test_resolved_config_matches_fixture(fixed_configs, command):
    assert fixed_configs[command] == json.loads(CLI_FIXTURE.read_text())["configs"][command]


def test_parser_flags_match_fixture():
    assert parser_flags() == json.loads(CLI_FIXTURE.read_text())["flags"]

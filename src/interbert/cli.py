"""Command-line surface composing the pipeline into reproducible runs.

Every command resolves its configuration from built-in desk-scale defaults,
then an optional --config JSON file, then explicit flags (flags win), and
writes a manifest.json into its output directory containing the fully
resolved configuration. Re-running a command from that manifest (the
``replay`` subcommand) reproduces every output byte for byte; commands
never write outside their --out directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

from .config import MaskingConfig, ModelConfig, TrainConfig

# What the model section changes of ModelConfig's defaults: desk-scale sizes,
# or under --paper-scale the object limit; None is resolved from the corpus.
# --paper-scale also changes TrainConfig's schedule.
TOY_MODEL_PRESET = {"hidden_size": 96, "num_heads": 4, "ffn_size": 192, "num_interaction_layers": 3,
                    "num_extraction_layers": 1, "vocab_size": None, "object_feature_dim": None,
                    "num_object_classes": None}
PAPER_MODEL_OVERRIDES = {"max_objects": 100, "num_object_classes": None}
PAPER_TRAIN_OVERRIDES = {"batch_size": 512, "warmup_steps": 10000, "total_steps": 100000}


class CommandError(RuntimeError):
    pass


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _write_manifest(out_dir: Path, command: str, config: dict,
                    outputs: list[str], started: str) -> None:
    from .numerics import MALLOC_SETTINGS
    from .workers import score_workers

    manifest = {
        "command": command,
        "config": config,
        "seed": config.get("train", config).get("seed"),
        "git_describe": _git_describe(),
        "started": started,
        "finished": _utc_now(),
        "outputs": sorted(outputs),
        "malloc": MALLOC_SETTINGS,
        "score_workers": score_workers(),
    }
    _write_json(out_dir / "manifest.json.tmp", manifest)
    os.replace(out_dir / "manifest.json.tmp", out_dir / "manifest.json")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _check(section, schema: dict, source, where: str = "") -> None:
    """Refuse a section of the config file ``source`` unless it is an object
    whose keys are among ``schema``'s, each value of its default's JSON type
    (an int may stand for a float, and null for a null default) and each
    value under a dict default a section that passes in turn."""
    if not isinstance(section, dict):
        raise CommandError(f"config file {source}: expected an object{where}, got {json.dumps(section)}")
    unknown = set(section) - set(schema)
    if unknown:
        raise CommandError(f"unknown config keys{where}: {sorted(unknown)} in config file {source}")
    for key, value in section.items():
        kind = _kind(key, schema[key])
        fits = (isinstance(value, (int, float) if kind is float else kind)
                and (kind is bool) == isinstance(value, bool))
        if kind is dict:
            _check(value, schema[key], source, f" in {key}")
        elif not (fits or value is None and schema[key] is None):
            raise CommandError(f"config file {source}: {key}{where} must be {kind.__name__}, "
                               f"got {json.dumps(value)}")


def _missing(section: dict, schema: dict) -> list[str]:
    """The keys of ``schema`` that ``section``, which ``_check`` passed,
    leaves out, then those its sections leave out, dotted (``masking.anchor_prob``)."""
    return [key for key in schema if key not in section] + [
        f"{key}.{inner}" for key, default in schema.items() if isinstance(default, dict) and key in section
        for inner in _missing(section[key], default)]


def _merge(schema: dict, file_section: dict, args: argparse.Namespace) -> dict:
    """``schema`` updated by the config file's section (``_check`` passed it),
    then by each flag given, applied by its key's name at any depth."""
    merged = {}
    for key, default in schema.items():
        flag = getattr(args, key, None)
        merged[key] = (_merge(default, file_section.get(key, {}), args) if isinstance(default, dict)
                       else file_section.get(key, default) if flag is None else flag)
    return merged


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        loaded = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CommandError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(loaded, dict):
        raise CommandError(f"config file {path} does not hold a JSON object")
    return loaded


def _seed_default(explicit: int | None, config_seed=None) -> int:
    if explicit is not None:
        return explicit
    if config_seed is not None:
        return int(config_seed)
    env = os.environ.get("IBT_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise CommandError(f"IBT_SEED must be an integer, got {env!r}") from None


def _resolve_model_config(model_cfg: dict, corpus=None) -> dict:
    """Fill the data-dependent fields from the corpus when unset; without a
    corpus, leave them to ModelConfig's defaults."""
    resolved = {key: value for key, value in model_cfg.items() if value is not None}
    if corpus is not None:
        resolved.setdefault("vocab_size", corpus.vocab.size)
        resolved.setdefault("object_feature_dim", int(corpus.pairs[0].features.shape[1]) if corpus.pairs else 1)
        resolved.setdefault("num_object_classes", max((int(p.labels.max()) for p in corpus.pairs), default=0) + 1)
    return resolved


# ---------------------------------------------------------------------------
# command bodies: pure functions of (resolved config, out dir)
# ---------------------------------------------------------------------------

def run_synth_data(config: dict, out_dir: Path) -> list[str]:
    from .data import save_corpus, synth_corpus

    save_corpus(synth_corpus(**config), out_dir / "corpus.jsonl", out_dir / "vocab.json")
    return ["corpus.jsonl", "vocab.json"]


def run_mine_negatives(config: dict, out_dir: Path) -> list[str]:
    from .data import load_corpus
    from .negatives import build_hard_negative_table, build_tfidf, save_table

    corpus = load_corpus(config["corpus"], config["vocab"])
    if len(corpus) < 2:
        raise CommandError("mining needs at least two captions")
    table = build_hard_negative_table(build_tfidf(corpus), config["sim_threshold"], config["max_negatives"])
    save_table(out_dir / "negatives.jsonl", table)
    return ["negatives.jsonl"]


def run_pretrain(config: dict, out_dir: Path) -> list[str]:
    from .data import CorpusError, load_corpus
    from .negatives import check_table, load_table
    from .numerics import save_checkpoint
    from .training import pretrain, write_metrics_csv

    corpus = load_corpus(config["corpus"], config["vocab"])
    if not corpus.pairs:
        raise CommandError("empty corpus")
    table = load_table(config["negatives"])
    try:
        check_table(table, corpus)
    except CorpusError as exc:
        raise CommandError(f"{config['negatives']}: {exc}") from None
    model_cfg = _model_config(config, corpus)
    config["model"] = model_cfg.to_dict()
    _check_corpus(config, corpus, **model_cfg.limits, num_classes=model_cfg.num_object_classes)
    train_cfg = TrainConfig.from_dict(config["train"])
    result = pretrain(corpus, table, model_cfg, train_cfg)
    save_checkpoint(out_dir / "checkpoint.ibt", result.model.params)
    write_metrics_csv(out_dir / "metrics.csv", result.metrics)
    _write_json(out_dir / "config.json", {"model": model_cfg.to_dict(), "train": train_cfg.to_dict()})
    return ["checkpoint.ibt", "metrics.csv", "config.json"]


def _check_corpus(config: dict, corpus, **limits) -> None:
    """Refuse a corpus the model cannot take (``data.check_limits``), naming the file."""
    from .data import CorpusError, check_limits

    try:
        check_limits(corpus.pairs, **limits)
    except CorpusError as exc:
        raise CommandError(f"{config['corpus']}: {exc}") from None


def _model_config(config: dict, corpus=None) -> ModelConfig:
    """The model a command builds: its ``model`` section (pretrain's, or the
    one a replayed manifest records), else the checkpoint's config.json,
    which must hold every key of the model schema."""
    section = config.get("model")
    if section is None:
        path = config.get("model_config")
        if path is None:
            sibling = Path(config["checkpoint"]).parent / "config.json"
            if not sibling.exists():
                raise CommandError("no --model-config given and no config.json beside the checkpoint")
            path = str(sibling)
        stored = _load_config_file(path)
        section, schema = stored.get("model", stored), _schema("pretrain")["model"]
        _check(section, schema, path)
        if lacking := _missing(section, schema):
            raise CommandError(f"config file {path}: the model section lacks keys {lacking}")
    return ModelConfig.from_dict(_resolve_model_config(section, corpus))


def _check_configs(config: dict) -> None:
    """Build and validate the model and training configs a command reads,
    with the sizes resolved from the corpus left at their defaults, so that
    a value they refuse stops the command before --out is created."""
    if "model" in config or "model_config" in config:
        _model_config(config).validate()
    if "train" in config:
        TrainConfig.from_dict(config["train"])


def run_finetune(config: dict, out_dir: Path) -> list[str]:
    from .data import load_corpus
    from .numerics import load_checkpoint, save_checkpoint
    from .training import finetune_retrieval, write_metrics_csv

    corpus = load_corpus(config["corpus"], config["vocab"])
    model_cfg = _model_config(config, corpus)
    config["model"] = model_cfg.to_dict()
    _check_corpus(config, corpus, **model_cfg.limits)
    train_cfg = TrainConfig.from_dict(config["train"])
    result = finetune_retrieval(corpus, model_cfg, train_cfg, load_checkpoint(config["checkpoint"]))
    save_checkpoint(out_dir / "checkpoint_ema.ibt", result.ema_values)
    save_checkpoint(out_dir / "checkpoint_raw.ibt", result.model.params)
    write_metrics_csv(out_dir / "metrics.csv", result.metrics)
    _write_json(out_dir / "config.json", {"model": model_cfg.to_dict(), "train": train_cfg.to_dict()})
    return ["checkpoint_ema.ibt", "checkpoint_raw.ibt", "metrics.csv", "config.json"]


def run_eval(config: dict, out_dir: Path) -> list[str]:
    from .data import load_corpus
    from .evaluation import item_embeddings, write_embeddings, zero_shot_eval
    from .model import InterBert

    corpus = load_corpus(config["corpus"], config["vocab"])
    if not corpus.pairs:
        raise CommandError("empty corpus")
    model_cfg = _model_config(config, corpus)
    config["model"] = model_cfg.to_dict()
    _check_corpus(config, corpus, **model_cfg.limits)
    model = InterBert.from_checkpoint(model_cfg, config["checkpoint"])
    report = zero_shot_eval(model, corpus)
    recalls = report["recall"]
    header = "split\tN_images\t" + "\t".join(f"R@{k}" for k in sorted(recalls))
    row = f"{config['split']}\t{report['num_images']}\t" + "\t".join(
        f"{recalls[k]:.4f}" for k in sorted(recalls))
    print(header)
    print(row)
    payload = {
        "split": config["split"],
        "num_images": report["num_images"],
        "num_captions": report["num_captions"],
        "recall": {str(k): recalls[k] for k in sorted(recalls)},
    }
    _write_json(out_dir / "metrics.json", payload)
    outputs = ["metrics.json"]
    if config["export_embeddings"]:
        write_embeddings(out_dir / "embeddings.bin", item_embeddings(model, corpus))
        outputs.append("embeddings.bin")
    return outputs


def run_gradcheck(config: dict, out_dir: Path) -> list[str]:
    import functools

    import numpy as np

    from . import numerics as nt
    from .data import synth_corpus
    from .masking import mask_pair
    from .model import InterBert
    from .numerics import finite_diff_check
    from .training import total_loss
    from .training.loop import _batch_losses, _target_counts
    from .workers import _even_slices

    corpus = synth_corpus(seed=config["seed"], num_images=4, num_classes=6,
                          feature_dim=8, min_objects=config["objects"],
                          max_objects=config["objects"])
    model_cfg = ModelConfig(
        hidden_size=config["hidden_size"],
        num_heads=config["num_heads"],
        ffn_size=2 * config["hidden_size"],
        num_interaction_layers=config["interaction_layers"],
        num_extraction_layers=config["extraction_layers"],
        vocab_size=corpus.vocab.size,
        object_feature_dim=8,
        max_text_len=16,
        max_objects=8,
        num_object_classes=6,
        init_std=config["init_std"],
    )
    model = InterBert.create(model_cfg, seed=config["seed"])
    gen = np.random.default_rng(config["seed"])
    positive = mask_pair(corpus.pairs[0], corpus.vocab, gen, MaskingConfig(anchor_prob=0.4))
    negative = mask_pair(corpus.pairs[1], corpus.vocab, gen, MaskingConfig(anchor_prob=0.4),
                         itm_label=0, tokens_override=corpus.pairs[2].tokens)

    train_cfg, batch = TrainConfig(), [positive, negative]
    totals = _target_counts(batch, train_cfg)

    def loss_fn():  # the trainer's own shard losses of a two-sample batch, summed
        shards = [total_loss(*_batch_losses(model, batch[rows], train_cfg, totals)[:3])
                  for rows in _even_slices(len(batch), train_cfg.shards)]
        return functools.reduce(nt.add, shards)

    error = finite_diff_check(loss_fn, model.params, step=config["step"],
                              sample_count=config["samples"], seed=config["seed"])
    passed = error < config["tolerance"]
    report = {
        "max_relative_error": error,
        "tolerance": config["tolerance"],
        "passed": passed,
        "step": config["step"],
        "samples": config["samples"],
        "parameter_count": model.params.num_values(),
    }
    _write_json(out_dir / "report.json", report)
    print(f"gradcheck: max relative error {error:.3e} "
          f"({'PASS' if passed else 'FAIL'} at tolerance {config['tolerance']:.1e})")
    if not passed:
        raise CommandError(f"gradient check failed: {error:.3e} >= {config['tolerance']:.1e}")
    return ["report.json"]


def run_knn(config: dict, out_dir: Path) -> list[str]:
    from .evaluation import knn_items, read_embeddings

    embeddings = read_embeddings(config["embeddings"])
    neighbours = knn_items(embeddings, config["trigger"], config["k"])
    print("rank\titem_id")
    for rank, item in enumerate(neighbours, start=1):
        print(f"{rank}\t{item}")
    _write_json(out_dir / "neighbours.json",
                {"trigger": config["trigger"], "k": config["k"], "neighbours": neighbours})
    return ["neighbours.json"]


RUNNERS = {
    "synth-data": run_synth_data,
    "mine-negatives": run_mine_negatives,
    "pretrain": run_pretrain,
    "finetune": run_finetune,
    "eval": run_eval,
    "gradcheck": run_gradcheck,
    "knn": run_knn,
}


def _execute(command: str, config: dict, out: str) -> None:
    _check_configs(config)
    out_dir = Path(out)
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # what mkdir makes, innermost first
    out_dir.mkdir(parents=True, exist_ok=True)
    started = _utc_now()
    try:
        _write_manifest(out_dir, command, config, RUNNERS[command](config, out_dir), started)
    except BaseException:
        if created:  # a new out_dir goes, then each parent mkdir made, innermost first, while it is empty
            shutil.rmtree(out_dir, ignore_errors=True)
            for parent in created[1:]:
                try:
                    parent.rmdir()
                except OSError:  # another run's output is in it
                    break
        raise


# ---------------------------------------------------------------------------
# the command table: flags, config resolution and dispatch
# ---------------------------------------------------------------------------

# Each command's help line and defaults; a --config key outside them is an
# error. A plain key is also the command's flag (num_images is --num-images),
# typed by its default; "model" and "train" are sections that ``_schema``
# fills and whose flags are those their SECTIONS' fields declare.
COMMANDS = {
    "synth-data": ("generate a synthetic paired corpus", {
        "num_images": 200, "captions_per_image": 1, "num_classes": 12, "feature_dim": 16, "noise_std": 0.1,
        "min_objects": 2, "max_objects": 6, "max_fillers": 3, "image_size": 100, "seed": 0}),
    "mine-negatives": ("build the hard-negative table", {
        "corpus": None, "vocab": None, "sim_threshold": 0.5, "max_negatives": 30, "seed": 0}),
    "pretrain": ("run masked-group + matching pretraining", {
        "corpus": None, "vocab": None, "negatives": None, "model": {}, "train": {}}),
    "finetune": ("multiple-choice retrieval finetuning", {
        "corpus": None, "vocab": None, "checkpoint": None, "model_config": None, "train": {}}),
    "eval": ("caption-to-image retrieval metrics", {
        "corpus": None, "vocab": None, "checkpoint": None, "model_config": None,
        "split": "eval", "export_embeddings": False, "seed": 0}),
    "gradcheck": ("finite-difference check on a tiny model", {
        "hidden_size": 8, "num_heads": 2, "interaction_layers": 2, "extraction_layers": 1,
        "objects": 4, "init_std": 0.5, "step": 1e-5, "samples": 200, "tolerance": 1e-4, "seed": 0}),
    "knn": ("nearest neighbours over exported embeddings", {
        "embeddings": None, "trigger": None, "k": 5, "seed": 0}),
}

# Stored absolute, so a manifest replays from any directory. Each is a
# required flag except model_config.
PATH_KEYS = ("corpus", "vocab", "negatives", "checkpoint", "model_config", "embeddings")


def _kind(key: str, default) -> type:
    """The type a key's flag and config value take: its default's; without
    a default, str for a path and int for the rest (knn's trigger)."""
    return type(default) if default is not None else str if key in PATH_KEYS else int


# The config classes of each section, train's including its masking. A flag
# sets its key wherever the key sits, so no key repeats in a command's schema.
SECTIONS = {"model": (ModelConfig,), "train": (TrainConfig, MaskingConfig)}

HELP = {
    "out": "output directory (all files land here)",
    "config": "JSON config file; flags override it",
    "seed": "random seed (overrides config and IBT_SEED)",
    "threads": "bound on numeric library threads",
    "model_config": "config.json of the checkpoint (default: sibling file)",
    "split": "label printed in the metrics table (default: eval)",
    "export_embeddings": "also write fused item embeddings (embeddings.bin)",
    "trigger": "row of the trigger item (required here or in --config)",
    "k": "neighbours to return (default: 5)",
    "action_mix": "mask,random,keep probabilities, e.g. 0.8,0.1,0.1",
    "paper_scale": "swap in the full-scale architecture and schedule defaults",
}


def _add_flag(parser: argparse.ArgumentParser, key: str, kind, required: bool = False,
              flag: str | None = None, help: str | None = None, choices: tuple | None = None) -> None:
    """The flag of ``key``, spelled ``flag`` or as the dashed key: a switch
    for bool, else a value of type ``kind`` (str is argparse's own default)."""
    options = ({"action": "store_true", "default": None} if kind is bool
               else {"type": None if kind is str else kind, "required": required, "choices": choices})
    parser.add_argument(flag or "--" + key.replace("_", "-"), dest=key, help=help or HELP.get(key), **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="interbert", description="desk-scale multimodal pretraining pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, defaults) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        _add_flag(p, "out", str, required=True)
        for name, kind in (("config", str), ("seed", int), ("threads", int)):
            _add_flag(p, name, kind)
        for key, default in defaults.items():
            if key == "model":
                p.add_argument("--paper-scale", action="store_true", help=HELP["paper_scale"])
            for f in (f for cls in SECTIONS.get(key, ()) for f in fields(cls) if f.metadata):
                _add_flag(p, f.name, _kind(f.name, f.default), **f.metadata)
            if key == "train":
                _add_flag(p, "action_mix", str)
            elif key not in (*SECTIONS, "seed"):
                _add_flag(p, key, _kind(key, default), required=key in PATH_KEYS and key != "model_config")
    p = sub.add_parser("replay", help="re-run a command from its manifest")
    _add_flag(p, "manifest", str, required=True)
    _add_flag(p, "out", str, required=True)
    return parser


def _action_mix(text: str | None) -> dict:
    if text is None:
        return {}
    try:
        mask_p, random_p, keep_p = (float(x) for x in text.split(","))
    except ValueError:
        raise CommandError("--action-mix expects three comma-separated probabilities") from None
    return {"action_mask_prob": mask_p, "action_random_prob": random_p, "action_keep_prob": keep_p}


def _schema(command: str, paper: bool = False, replay: bool = False) -> dict:
    """Every key of the command's config with its default: its ``COMMANDS``
    defaults, the ``model`` section ``ModelConfig``'s at desk scale (full
    scale under ``paper``), ``train`` a ``TrainConfig``'s, and under ``replay``
    the ``model`` section a finetune or eval manifest records."""
    schema = dict(COMMANDS[command][1])
    if "model" in schema or replay and "model_config" in schema:
        schema["model"] = {**ModelConfig().to_dict(), **(PAPER_MODEL_OVERRIDES if paper else TOY_MODEL_PRESET)}
    if "train" in schema:
        schema["train"] = {**TrainConfig().to_dict(), **(PAPER_TRAIN_OVERRIDES if paper else {})}
    return schema


def resolve_config(args: argparse.Namespace) -> dict:
    """The command's full config: its schema (``--paper-scale``'s sections
    when given), then the --config file, then flags. The seed comes from
    --seed, else the file, else IBT_SEED, else 0."""
    file_cfg = _load_config_file(args.config)
    schema = _schema(args.command, getattr(args, "paper_scale", False))
    _check(file_cfg, schema, args.config)
    config = _merge(schema, file_cfg, args)
    config.update({key: str(Path(config[key]).resolve()) for key in PATH_KEYS if config.get(key)})
    if "train" in config:
        config["train"]["masking"].update(_action_mix(args.action_mix))
    config.get("train", config)["seed"] = _seed_default(args.seed, file_cfg.get("train", file_cfg).get("seed"))
    if args.command == "knn" and config["trigger"] is None:
        raise CommandError("knn needs a trigger: --trigger or 'trigger' in the config file")
    return config


def _dispatch(args: argparse.Namespace) -> None:
    if args.command != "replay":
        _execute(args.command, resolve_config(args), args.out)
        return
    manifest = _load_config_file(args.manifest)
    command = manifest.get("command")
    if command not in RUNNERS:
        raise CommandError(f"manifest names unknown command {command!r}")
    config, schema = manifest.get("config"), _schema(command, replay=True)
    _check(config, schema, args.manifest, " in config")
    lacking = {}  # a key left out would replay at today's default, not at what ran
    for key in _missing(config, schema):
        section, _, inner = key.partition(".")
        lacking.setdefault(f"the {section} section" if inner else "config", []).append(inner or key)
    if lacking:
        raise CommandError(f"config file {args.manifest}: " + "; ".join(
            f"{where} lacks keys {keys}" for where, keys in lacking.items())
            + "; a manifest written before a key existed does not replay")
    _execute(command, config, args.out)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    threads = getattr(args, "threads", None)
    if threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)
    try:
        _dispatch(args)
    except Exception as exc:  # one-line machine-parseable failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

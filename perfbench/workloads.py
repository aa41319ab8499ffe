"""One benchmark workload in its own process.

Started by run.py as ``python3 perfbench/workloads.py --workload W --seed S
--seconds N --trace 0|1 --spawned-at T [--setup-only]`` with ``src`` on the
import path and the BLAS thread variables at 1. The process generates its
inputs from the seed, sets up, runs a closed loop of operations for the given
seconds, checks every output, and prints one JSON line as the last line of
standard output. With ``--setup-only`` it stops after set-up and reports only
the set-up time.

Every workload repeats one seeded operation (a chunk of training steps, a
retrieval pass, a mining pass), so every repeat must reproduce the first one
bit for bit; that is one of the output checks. For the default seed the
losses and the score matrix must also match ``references.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / "_work"
OUT_DIR = HERE / "_out"
REFERENCES = HERE / "references.json"

DEFAULT_SEED = 0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STEPS_PER_CHUNK = 6
REF_RTOL = 1e-6   # relative tolerance of the default-seed references
KNN_K = 5

# Criterion 6's pinned network (hidden 96, 4 heads, FFN 192, 3 + 1 + 1 layers).
PINNED_MODEL = dict(
    hidden_size=96, num_heads=4, ffn_size=192,
    num_interaction_layers=3, num_extraction_layers=1,
    object_feature_dim=16, max_text_len=16, max_objects=8, num_object_classes=12,
)


class GuardError(RuntimeError):
    """The run cannot give steady or meaningful numbers; it must not report."""


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's spawn time and
    # this process's clock can be subtracted.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def check_gc(when: str) -> None:
    if not gc.isenabled():
        raise GuardError(f"garbage collector disabled at {when} of the workload")
    if gc.get_freeze_count():
        raise GuardError(f"garbage collector has {gc.get_freeze_count()} frozen objects at {when} of the workload")


def check_blas_env(environ) -> dict:
    """The BLAS thread variables in effect; refuse anything but one thread."""
    seen = {var: environ.get(var) for var in BLAS_VARS}
    bad = {var: value for var, value in seen.items() if value != "1"}
    if bad:
        raise GuardError(f"BLAS must be held to one thread, got {bad}")
    return seen


def blas_runtime_threads() -> dict:
    """Thread count each loaded OpenBLAS library reports at run time."""
    counts = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return counts
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = int(fn())
                break
    if any(n > 1 for n in counts.values()):
        raise GuardError(f"BLAS runs more than one thread: {counts}")
    return counts


def environment(blas_thread_vars: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}".strip(),
        "blas_thread_vars": blas_thread_vars,
        "blas_runtime_threads": blas_runtime_threads(),
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Op:
    """One timed operation: its step times, the items it processed, and its
    outputs for the checks."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.steps: list[float] = []      # seconds per step
        self.items = 0
        self.item_seconds = 0.0           # time the items were processed in
        self.outputs: dict = {}
        self.error: str | None = None

    @property
    def seconds(self) -> float:
        return sum(self.steps)


def _corpus(workdir: Path, name: str, **synth):
    """Generate a corpus and hand it to the program through its own files."""
    from interbert import data

    pairs, vocab = workdir / f"{name}.jsonl", workdir / f"{name}.vocab.json"
    data.save_corpus(data.synth_corpus(**synth), pairs, vocab)
    return data.load_corpus(pairs, vocab, num_classes=synth.get("num_classes", 12))


def _model_config(corpus):
    from interbert.model import ModelConfig

    return ModelConfig(vocab_size=corpus.vocab.size, **PINNED_MODEL)


def _initial_checkpoint(workdir: Path, model_cfg, seed: int) -> Path:
    from interbert.model import InterBert
    from interbert import numerics

    path = workdir / "initial.ibt"
    numerics.save_checkpoint(path, InterBert.create(model_cfg, seed=seed).params)
    return path


def _loss_check(ops, reference_losses) -> list[str]:
    """Per step: finite losses, equal to the first chunk's step bit for bit,
    and within REF_RTOL of the reference when one is given."""
    first = ops[0].outputs.get("losses", [])
    problems = []
    for op_index, op in enumerate(ops):
        for step, losses in enumerate(op.outputs.get("losses", [])):
            where = f"op {op_index} step {step + 1}"
            if not all(math.isfinite(v) for v in losses):
                problems.append(f"{where}: non-finite loss {losses}")
            elif step < len(first) and losses != first[step]:
                problems.append(f"{where}: losses {losses} differ from the first chunk's {first[step]}")
            elif reference_losses is not None and not all(
                    math.isclose(v, r, rel_tol=REF_RTOL, abs_tol=1e-12)
                    for v, r in zip(losses, reference_losses[step])):
                problems.append(f"{where}: losses {losses} differ from the reference {reference_losses[step]}")
    return problems


def table_problems(corpus, table) -> tuple[list[str], int]:
    """Compare a mined negatives table with the dense TF-IDF oracle; returns
    the problems and the rows that matched only up to float near-ties."""
    import oracles

    special = corpus.vocab.special_ids()
    captions = {p.caption_id: [int(t) for t in p.tokens if int(t) not in special] for p in corpus.pairs}
    oracle, sims_for = oracles.oracle_table(captions, {p.caption_id: p.image_id for p in corpus.pairs})
    return oracles.table_mismatches(table, oracle, sims_for)


class Pretrain:
    """Criterion 6's pretraining loop at batch 48, run as repeated chunks of
    STEPS_PER_CHUNK steps from the same seed, each ending with a checkpoint."""

    name = "pretrain-b48"
    items_per_step = 48
    loss_fields = ("msm_loss", "mrm_loss", "itm_loss", "total")

    def __init__(self, seed: int, workdir: Path):
        from interbert import negatives
        from interbert.training import TrainConfig

        self.workdir = workdir
        self.corpus = _corpus(workdir, "train", seed=seed, num_images=200, noise_std=0.1)
        self.mined = negatives.build_hard_negative_table(negatives.build_tfidf(self.corpus))
        negatives.save_table(workdir / "negatives.jsonl", self.mined)
        self.table = negatives.load_table(workdir / "negatives.jsonl")
        self.model_cfg = _model_config(self.corpus)
        self.train_cfg = TrainConfig(total_steps=STEPS_PER_CHUNK, warmup_steps=1, batch_size=48,
                                     learning_rate=2e-3, beta2=0.999, seed=seed)

    def run(self, op: Op) -> None:
        from interbert import numerics, training

        losses, marks = [], [time.perf_counter()]

        def on_step(row):
            marks.append(time.perf_counter())
            losses.append([getattr(row, f) for f in self.loss_fields])

        op.outputs["losses"] = losses
        try:
            result = self._train(training, on_step)
        finally:
            op.steps = [b - a for a, b in zip(marks, marks[1:])]
            op.items = self.items_per_step * len(op.steps)
            op.item_seconds = op.seconds
        numerics.save_checkpoint(self.workdir / "trained.ibt", result.model.params)
        self.trained = result.model.params.clone_values()

    def _train(self, training, on_step):
        return training.pretrain(self.corpus, self.table, self.model_cfg, self.train_cfg, step_callback=on_step)

    def check(self, ops, references) -> list[str]:
        from interbert import numerics

        reference = references.get(self.name) if references else None
        problems = _loss_check(ops, reference)
        if self.mined is not None:
            found, self.near_tie_rows = table_problems(self.corpus, self.mined)
            problems += found
            saved = {image: [(c, float(format(sim, ".9g"))) for c, sim in row] for image, row in self.mined.items()}
            if self.table != saved:  # the file keeps 9 significant digits
                problems.append("the negatives table did not read back as it was saved")
        trained = getattr(self, "trained", None)  # absent only when every chunk raised
        saved = numerics.load_checkpoint(self.workdir / "trained.ibt") if trained else {}
        if trained and any(saved[name].tobytes() != values.tobytes() for name, values in trained.items()):
            problems.append(f"op {len(ops) - 1}: the last checkpoint does not read back bit-exact")
        return problems

    def reference(self, ops) -> list:
        return ops[0].outputs["losses"]


class Finetune(Pretrain):
    """Criterion 8's multiple-choice finetuning (batch 8, 3 distractors, EMA),
    from a checkpoint loaded during set-up."""

    name = "finetune-mc4"
    items_per_step = 8
    loss_fields = ("loss", "accuracy")

    def __init__(self, seed: int, workdir: Path):
        from interbert import numerics
        from interbert.training import TrainConfig

        self.workdir = workdir
        self.corpus = _corpus(workdir, "train", seed=seed, num_images=200, noise_std=0.1)
        self.model_cfg = _model_config(self.corpus)
        self.init_values = numerics.load_checkpoint(_initial_checkpoint(workdir, self.model_cfg, seed))
        self.train_cfg = TrainConfig(total_steps=STEPS_PER_CHUNK, warmup_steps=1, batch_size=8,
                                     learning_rate=5e-4, beta2=0.999, seed=seed, num_distractors=3)
        self.mined = None

    def _train(self, training, on_step):
        return training.finetune_retrieval(self.corpus, self.model_cfg, self.train_cfg, self.init_values,
                                           step_callback=on_step)


class Retrieval:
    """Criterion 7's held-out pool, 50 captions x 50 images: load, score every
    pair, recall, embeddings out and back, and nearest neighbours."""

    name = "retrieval-50"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.corpus = _corpus(workdir, "heldout", seed=seed, num_images=50, noise_std=0.1)
        self.model_cfg = _model_config(self.corpus)
        self.checkpoint = _initial_checkpoint(workdir, self.model_cfg, seed)
        self.triggers = list(range(0, len(self.corpus.pairs), 10))

    def run(self, op: Op) -> None:
        from interbert import evaluation
        from interbert.model import InterBert

        start = time.perf_counter()
        model = InterBert.from_checkpoint(self.model_cfg, self.checkpoint)
        captions, images = evaluation.corpus_retrieval_pools(self.corpus)
        scored = time.perf_counter()
        matrix = evaluation.score_all(model, captions, images)
        op.item_seconds = time.perf_counter() - scored
        op.items = matrix.scores.size
        recall = evaluation.retrieval_metrics(matrix)
        embeddings = evaluation.item_embeddings(model, self.corpus)
        path = self.workdir / "items.emb"
        evaluation.write_embeddings(path, embeddings)
        back = evaluation.read_embeddings(path)
        neighbours = [evaluation.knn_items(back, t, KNN_K) for t in self.triggers]
        op.steps = [time.perf_counter() - start]
        op.outputs = {"scores": matrix.scores, "gold": matrix.gold, "recall": recall,
                      "embeddings": embeddings, "read_back": back, "neighbours": neighbours}

    def check(self, ops, references) -> list[str]:
        import numpy as np
        import oracles

        reference = references.get(self.name) if references else None
        first = next((op.outputs["scores"] for op in ops if op.outputs), None)
        problems = []
        for i, op in enumerate(ops):
            out = op.outputs
            if not out:
                continue
            scores = out["scores"]
            if not np.all(np.isfinite(scores)):
                problems.append(f"op {i}: non-finite scores")
            if not np.array_equal(scores, first):
                problems.append(f"op {i}: score matrix differs from the first pass")
            if reference is not None and not np.allclose(scores, np.asarray(reference), rtol=REF_RTOL, atol=1e-12):
                problems.append(f"op {i}: score matrix differs from the reference")
            expected = oracles.recall_from_ranks(oracles.gold_ranks(scores, out["gold"]), out["recall"])
            if expected != out["recall"]:
                problems.append(f"op {i}: recall {out['recall']} but ranks give {expected}")
            if out["read_back"].tobytes() != out["embeddings"].tobytes():
                problems.append(f"op {i}: embeddings did not round-trip bit-exact")
            for trigger, got in zip(self.triggers, out["neighbours"]):
                want = oracles.knn_brute_force(out["embeddings"], trigger, KNN_K)
                if got != want:
                    problems.append(f"op {i}: knn of {trigger} is {got}, brute force gives {want}")
        return problems

    def reference(self, ops) -> list:
        return ops[0].outputs["scores"].tolist()


WORKLOADS = {w.name: w for w in (Pretrain, Finetune, Retrieval)}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def measure(workload, seconds: float, tracer) -> list[Op]:
    """Run operations back to back until the next one would overrun
    ``seconds``. Untraced runs make at least two operations, so there is a
    repeat to compare with the first. Traced runs alternate untraced and
    traced operations, starting untraced, and make at least two of each for
    the training workloads (whose tape-node counts must repeat) and one of
    each otherwise."""
    ops: list[Op] = []
    minimum = 4 if tracer is not None and isinstance(workload, Pretrain) else 2
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        if len(ops) >= minimum:
            same = [op.seconds for op in ops if op.traced == traced] or [ops[-1].seconds]
            if time.perf_counter() - start + same[-1] > seconds:
                break
        op = Op(traced)
        if traced:
            tracer.run_id = len(ops)
            tracer.install()
        try:
            workload.run(op)
        except Exception as exc:  # the program failed: count it and go on
            op.error = f"{type(exc).__name__}: {exc}"
        finally:
            if traced:
                tracer.remove()
        ops.append(op)
    return ops


def count_failures(ops, problems) -> tuple[int, int]:
    """(attempted, failed): one attempt per step; a step fails when its
    operation raised or any check on that operation failed."""
    attempted = sum(len(op.steps) + (1 if op.error else 0) for op in ops)
    failed_ops = {int(p.split(":")[0].split()[1]) for p in problems if p.startswith("op ")}
    failed = sum(len(op.steps) + (1 if op.error else 0)
                 for i, op in enumerate(ops) if op.error or i in failed_ops)
    if problems and not failed_ops:
        failed = attempted
    return max(attempted, 1), failed


def end_to_end(ops) -> dict:
    import oracles

    timed = [op for op in ops if not op.traced and not op.error]
    steps = [s for op in timed for s in op.steps]
    if not steps:
        raise GuardError("no operation completed, so there is nothing to report")
    metrics = {
        "step_ms.p50": (1000.0 * oracles.median(steps), "ms"),
        "items_per_s": (sum(op.items for op in timed) / sum(op.item_seconds for op in timed), "1/s"),
    }
    tail = oracles.tail([1000.0 * s for s in steps])
    extra = {"steps": len(steps), "tail": None if tail is None else {"percentile": tail[0], "ms": tail[1]}}
    return metrics, extra


def repeated_tape_nodes(tape_nodes, runs) -> list[int]:
    """Tape nodes per backward call of one traced operation, after checking
    that every traced operation (a replay of the same seed) made the same."""
    by_run: dict[int, list[int]] = {run: [] for run in runs}
    for run, nodes in tape_nodes:
        if run in by_run:
            by_run[run].append(nodes)
    counts = list(by_run.values())
    if any(c != counts[0] for c in counts):
        raise GuardError(f"tape-node counts differ between repeats of the same seed: {counts}")
    return counts[0] if counts else []


def per_layer(ops, tracer) -> dict:
    """Per-layer metrics of the traced operations, per step."""
    import oracles
    from catalog import TAPE_OPS
    from tracer import covered_ns, self_ns

    traced = [i for i, op in enumerate(ops) if op.traced and not op.error]
    untraced = [op for op in ops if not op.traced and not op.error]
    runs = set(traced)
    steps = sum(len(ops[i].steps) for i in traced) or 1
    spans = tracer.spans

    def ms(names, over=runs):
        return covered_ns(spans, set(names), over) / 1e6 / steps

    def per_call_ms(name):
        chosen = [s[4] - s[3] for s in spans if s[2] == name]
        return sum(chosen) / 1e6 / len(chosen) if chosen else 0.0

    step_nodes = repeated_tape_nodes(tracer.tape_nodes, traced)

    untraced_step = oracles.median([s for op in untraced for s in op.steps])
    traced_step = oracles.median([s for i in traced for s in ops[i].steps])
    gflop = tracer.matmul_flop / 1e9 / steps
    mining = [s for s in spans if s[2] == "negatives.build_hard_negative_table"]
    loads = [s for s in spans if s[2] == "data.load_corpus"]
    load_s = sum(s[4] - s[3] for s in loads) / 1e9

    m = {
        "numerics.tape_nodes_per_step": (sum(step_nodes) / len(step_nodes) if step_nodes else 0.0, "count"),
        "numerics.backward_ms_per_step": (ms(["numerics.backward"]), "ms"),
    }
    for op in TAPE_OPS:
        m[f"numerics.op_calls.{op}"] = (tracer.op_calls[op] / steps, "count")
    for op in TAPE_OPS:
        m[f"numerics.op_fwd_ms.{op}"] = (tracer.op_ns[op] / 1e6 / steps, "ms")
    for gen in range(3):
        m[f"gc.pause_ms_per_step.gen{gen}"] = (tracer.gc_ns[gen] / 1e6 / steps, "ms")
    for gen in range(3):
        m[f"gc.collections_per_step.gen{gen}"] = (tracer.gc_count[gen] / steps, "count")
    m.update({
        "model.forward_calls": (sum(1 for s in spans if s[2] == "model.forward" and s[5] in runs) / steps, "count"),
        "model.forward_ms": (ms(["model.forward"]), "ms"),
        "model.embed_ms": (ms(["model.embed_text", "model.embed_image"]), "ms"),
        "model.interaction_ms": (ms(["model.interaction_forward"]), "ms"),
        "model.extraction_ms": (ms(["model.extraction_forward"]), "ms"),
        "model.heads_ms": (ms(["model.itm_score", "model.msm_logits", "model.mrm_logits"]), "ms"),
        "model.gflop_per_step": (gflop, "GFLOP"),
        "model.achieved_gflops": (gflop / untraced_step, "GFLOP/s"),
        "masking.mask_pair_ms_per_step": (ms(["masking.mask_pair"]), "ms"),
        "negatives.make_itm_batch_self_ms_per_step": (
            self_ns(spans, "negatives.make_itm_batch", runs) / 1e6 / steps, "ms"),
        "negatives.build_tfidf_s": (per_call_ms("negatives.build_tfidf") / 1000, "s"),
        "negatives.mine_table_s": (per_call_ms("negatives.build_hard_negative_table") / 1000, "s"),
        "negatives.similarity_calls": (tracer.similarity_calls / len(mining) if mining else 0.0, "count"),
        "negatives.save_table_s": (per_call_ms("negatives.save_table") / 1000, "s"),
        "data.load_corpus_s": (load_s / len(loads) if loads else 0.0, "s"),
        "data.pairs_parsed_per_s": (tracer.pairs_parsed / load_s if load_s else 0.0, "1/s"),
        "training.losses_ms_per_step": (ms(["training.itm_loss", "training.msm_loss", "training.mrm_loss",
                                            "training.total_loss"]), "ms"),
        "training.adamw_ms_per_step": (ms(["training.adamw_step"]), "ms"),
        "training.ema_ms_per_step": (ms(["training.ema_update"]), "ms"),
        "training.loop_self_ms_per_step": (
            (self_ns(spans, "training.pretrain", runs) + self_ns(spans, "training.finetune_retrieval", runs))
            / 1e6 / steps, "ms"),
        "evaluation.score_all_s": (ms(["evaluation.score_all"]) / 1000, "s"),
        "evaluation.recall_ms": (ms(["evaluation.retrieval_metrics"]), "ms"),
        "evaluation.item_embeddings_s": (ms(["evaluation.item_embeddings"]) / 1000, "s"),
        "evaluation.embeddings_io_ms": (ms(["evaluation.write_embeddings", "evaluation.read_embeddings"]), "ms"),
        "evaluation.knn_ms": (ms(["evaluation.knn_items"]), "ms"),
        "params.load_checkpoint_ms": (per_call_ms("params.load_checkpoint"), "ms"),
        "params.save_checkpoint_ms": (per_call_ms("params.save_checkpoint"), "ms"),
        "params.checkpoint_bytes": (tracer.checkpoint_bytes[-1] if tracer.checkpoint_bytes else 0, "bytes"),
        "trace.overhead_ms_per_step": (1000.0 * (traced_step - untraced_step), "ms"),
        "trace.overhead_pct": (100.0 * (traced_step - untraced_step) / untraced_step, "%"),
    })
    return m


def load_references(seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    try:
        return run(argv)
    except GuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3


def run(argv) -> int:
    check_gc("start")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="parent's CLOCK_MONOTONIC just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-references", action="store_true",
                        help="write this workload's default-seed outputs to references.json")
    args = parser.parse_args(argv)
    spawned_at = monotonic() if args.spawned_at is None else args.spawned_at

    env = environment(check_blas_env(os.environ))  # refuses before numpy loads BLAS
    workdir = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()  # set-up is traced too: corpus load and checkpoint I/O happen there
        try:
            workload = WORKLOADS[args.workload](args.seed, workdir)
        finally:
            if tracer is not None:
                tracer.remove()
                tracer.reset_counters()
        setup_s = monotonic() - spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        ops = measure(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_gc("end")

        if args.record_references and workload.reference(ops) is not None:
            refs = json.loads(REFERENCES.read_text(encoding="utf-8")) if REFERENCES.exists() else {}
            refs[workload.name] = workload.reference(ops)
            REFERENCES.write_text(json.dumps(refs, sort_keys=True) + "\n", encoding="utf-8")

        problems = workload.check(ops, None if args.record_references else load_references(args.seed))
        problems += [f"op {i}: raised {op.error}" for i, op in enumerate(ops) if op.error]
        attempted, failed = count_failures(ops, problems)
        result = {"setup_s": setup_s, "attempted": attempted, "failed": failed,
                  "problems": problems[:20], "env": env, "ops": len(ops),
                  "near_tie_rows": getattr(workload, "near_tie_rows", None),
                  "step_s": [[op.traced, op.steps] for op in ops]}
        if tracer is None:
            metrics, extra = end_to_end(ops)
            metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
            result.update(extra)
        else:
            metrics = per_layer(ops, tracer)
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            result["spans"] = str(spans_path.relative_to(HERE.parent))
        result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

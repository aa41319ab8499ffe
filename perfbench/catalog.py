"""The benchmark's workloads and metrics: one record per name, with its unit,
its direction, why it was chosen and, for per-layer metrics, the end-to-end
metric it is expected to move.

``BENCHMARK.json`` at the repository root is this catalog, cut down to the
fields that file's format allows; ``python3 perfbench/catalog.py`` prints it,
and the self-tests check that the two agree. That format has no field for the
"moves" arrows or for what a generic end-to-end metric means on each
workload, so those live here and in the README.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 40

PRETRAIN = "pretrain-b48"
FINETUNE = "finetune-mc4"
RETRIEVAL = "retrieval-50"

WORKLOADS = [
    (PRETRAIN, "tape-heavy pretraining at the pinned config: forward, ~14k-node backward, GC, masking, "
               "batch assembly, losses and AdamW; a batched tape or leaner tape memory shows here"),
    (FINETUNE, "multiple-choice finetuning, 32 unmasked forwards per step with EMA: the caption-vs-4-images "
               "pattern a shared score_pairs primitive would move; only caller of finetune_retrieval"),
    (RETRIEVAL, "50x50 cross-encoder scoring under no_grad plus recall, embeddings and knn: same model code, "
                "no tape, so a faster forward shows here and a faster backward must not"),
]

# One "step" is one closed-loop operation: a training step on the two training
# workloads, one load-through-knn pass on retrieval-50. Each end-to-end metric
# is reported on every workload.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "means": {"*": "process start to first timed operation, median of 3 processes"}},
    {"name": "step_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25,
     "means": {PRETRAIN: "pretrain_step_ms.p50", FINETUNE: "finetune_step_ms.p50",
               RETRIEVAL: "retrieval_s (x1000)"}},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25,
     "means": {PRETRAIN: "pretrain_samples_per_s", FINETUNE: "finetune_examples_per_s",
               RETRIEVAL: "score_pairs_per_s (score_all only)"}},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15,
     "means": {"*": "ru_maxrss of the workload process, read before the output checks"}},
]

TRAINING = f"items_per_s on {PRETRAIN} and {FINETUNE}"
MODEL = f"items_per_s on {PRETRAIN}, {FINETUNE} and {RETRIEVAL}"
SETUP = f"setup_s on {PRETRAIN}, where the 200-image negatives table is mined, saved and loaded"
TAPE_OPS = (
    "matmul", "add", "mul", "narrow", "concat", "transpose", "reshape", "softmax",
    "layer_norm", "gelu", "embedding_lookup", "cross_entropy_logits", "binary_cross_entropy_logits",
)


def _per_layer() -> list[dict]:
    rows = [
        ("numerics.tape_nodes_per_step", "count", "lower", TRAINING + "; reads 0 on " + RETRIEVAL),
        ("numerics.backward_ms_per_step", "ms", "lower", TRAINING),
    ]
    rows += [(f"numerics.op_calls.{op}", "count", "lower", MODEL) for op in TAPE_OPS]
    rows += [(f"numerics.op_fwd_ms.{op}", "ms", "lower", MODEL + ", " + RETRIEVAL + " most")
             for op in TAPE_OPS]
    for gen in (0, 1, 2):
        rows.append((f"gc.pause_ms_per_step.gen{gen}", "ms", "lower", f"items_per_s on {PRETRAIN}"))
    for gen in (0, 1, 2):
        rows.append((f"gc.collections_per_step.gen{gen}", "count", "lower", f"items_per_s on {PRETRAIN}"))
    rows += [
        ("model.forward_calls", "count", "lower", MODEL),
        ("model.forward_ms", "ms", "lower", MODEL),
        ("model.embed_ms", "ms", "lower", MODEL),
        ("model.interaction_ms", "ms", "lower", MODEL),
        ("model.extraction_ms", "ms", "lower", MODEL),
        ("model.heads_ms", "ms", "lower", MODEL),
        ("model.gflop_per_step", "GFLOP", "lower", MODEL),
        ("model.achieved_gflops", "GFLOP/s", "higher", MODEL),
        ("masking.mask_pair_ms_per_step", "ms", "lower", f"items_per_s on {PRETRAIN}"),
        ("negatives.make_itm_batch_self_ms_per_step", "ms", "lower", f"items_per_s on {PRETRAIN}"),
        ("negatives.build_tfidf_s", "s", "lower", SETUP),
        ("negatives.mine_table_s", "s", "lower", SETUP),
        ("negatives.similarity_calls", "count", "lower", SETUP),
        ("negatives.save_table_s", "s", "lower", SETUP),
        ("data.load_corpus_s", "s", "lower", "setup_s on every workload"),
        ("data.pairs_parsed_per_s", "1/s", "higher", "setup_s on every workload"),
        ("training.losses_ms_per_step", "ms", "lower", TRAINING),
        ("training.adamw_ms_per_step", "ms", "lower", TRAINING),
        ("training.ema_ms_per_step", "ms", "lower", f"items_per_s on {FINETUNE}"),
        ("training.loop_self_ms_per_step", "ms", "lower", TRAINING),
        ("evaluation.score_all_s", "s", "lower", f"items_per_s and step_ms.p50 on {RETRIEVAL}"),
        ("evaluation.recall_ms", "ms", "lower", f"step_ms.p50 on {RETRIEVAL}"),
        ("evaluation.item_embeddings_s", "s", "lower", f"step_ms.p50 on {RETRIEVAL}"),
        ("evaluation.embeddings_io_ms", "ms", "lower", f"step_ms.p50 on {RETRIEVAL}"),
        ("evaluation.knn_ms", "ms", "lower", f"step_ms.p50 on {RETRIEVAL}"),
        ("params.load_checkpoint_ms", "ms", "lower", f"setup_s on {FINETUNE}, step_ms.p50 on {RETRIEVAL}"),
        ("params.save_checkpoint_ms", "ms", "lower", "none; recorded so a checkpoint format change shows"),
        ("params.checkpoint_bytes", "bytes", "lower", "none; recorded so a checkpoint format change shows"),
        ("trace.overhead_ms_per_step", "ms", "lower", "none; traced minus untraced step_ms.p50"),
        ("trace.overhead_pct", "%", "lower", "none; trace.overhead_ms_per_step over untraced step_ms.p50"),
    ]
    return [{"name": n, "unit": u, "better": b, "moves": m} for n, u, b, m in rows]


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    """The catalog in BENCHMARK.json's format."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")} for m in END_TO_END],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))

"""Tracing for the traced benchmark run, done from outside the program.

Spans are recorded around the public functions of each interbert module by
swapping module and class attributes for timing wrappers. The tape ops are
only counted and timed per op kind, because a training step makes some
14,000 of them. ``numerics.backward`` also walks the graph from the loss to
count tape nodes, and a ``gc.callbacks`` hook times every collection.

The wrappers are installed for one traced operation and removed after it, so
untraced operations run the unmodified program. Spans stay in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import sys
import time

from catalog import TAPE_OPS

# span name -> (module, attribute); "Class.method" patches the class.
SPANNED = {
    "model.forward": ("interbert.model.network", "InterBert.forward"),
    "model.embed_text": ("interbert.model.network", "InterBert.embed_text"),
    "model.embed_image": ("interbert.model.network", "InterBert.embed_image"),
    "model.interaction_forward": ("interbert.model.network", "InterBert.interaction_forward"),
    "model.extraction_forward": ("interbert.model.network", "InterBert.extraction_forward"),
    "model.itm_score": ("interbert.model.network", "InterBert.itm_score"),
    "model.msm_logits": ("interbert.model.network", "InterBert.msm_logits"),
    "model.mrm_logits": ("interbert.model.network", "InterBert.mrm_logits"),
    "masking.mask_pair": ("interbert.masking", "mask_pair"),
    "negatives.make_itm_batch": ("interbert.negatives", "make_itm_batch"),
    "negatives.build_tfidf": ("interbert.negatives", "build_tfidf"),
    "negatives.build_hard_negative_table": ("interbert.negatives", "build_hard_negative_table"),
    "negatives.save_table": ("interbert.negatives", "save_table"),
    "data.load_corpus": ("interbert.data", "load_corpus"),
    "training.pretrain": ("interbert.training.loop", "pretrain"),
    "training.finetune_retrieval": ("interbert.training.loop", "finetune_retrieval"),
    "training.itm_loss": ("interbert.training.losses", "itm_loss"),
    "training.msm_loss": ("interbert.training.losses", "msm_loss"),
    "training.mrm_loss": ("interbert.training.losses", "mrm_loss"),
    "training.total_loss": ("interbert.training.losses", "total_loss"),
    "training.adamw_step": ("interbert.training.optim", "adamw_step"),
    "training.ema_update": ("interbert.training.optim", "ema_update"),
    "numerics.backward": ("interbert.numerics.tensor", "backward"),
    "params.load_checkpoint": ("interbert.numerics.params", "load_checkpoint"),
    "params.save_checkpoint": ("interbert.numerics.params", "save_checkpoint"),
    "evaluation.score_all": ("interbert.evaluation", "score_all"),
    "evaluation.retrieval_metrics": ("interbert.evaluation", "retrieval_metrics"),
    "evaluation.item_embeddings": ("interbert.evaluation", "item_embeddings"),
    "evaluation.write_embeddings": ("interbert.evaluation", "write_embeddings"),
    "evaluation.read_embeddings": ("interbert.evaluation", "read_embeddings"),
    "evaluation.knn_items": ("interbert.evaluation", "knn_items"),
}
SIMILARITY = ("interbert.negatives", "TfIdfIndex.similarity")

SETUP_RUN = -1  # run id of spans recorded during set-up


def count_tape_nodes(loss) -> int:
    """Distinct tensors reachable from ``loss`` through recorded parents."""
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def _resolve(module_name: str, attr: str):
    holder = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        holder = getattr(holder, cls_name)
    return holder, attr, getattr(holder, attr)


class Tracer:
    """Spans, op counters and GC pauses for the traced operations of a run."""

    def __init__(self) -> None:
        self.run_id = SETUP_RUN
        # (span id, parent id or None, name, start ns, end ns, run id)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op_calls = {op: 0 for op in TAPE_OPS}
        self.op_ns = {op: 0 for op in TAPE_OPS}
        self.matmul_flop = 0
        self.tape_nodes: list[tuple[int, int]] = []  # (run id, nodes) per backward call
        self.similarity_calls = 0
        self.pairs_parsed = 0
        self.checkpoint_bytes: list[int] = []
        self.gc_ns = [0, 0, 0]
        self.gc_count = [0, 0, 0]
        self._gc_start = 0
        self._patches: list[tuple] = []  # (holder, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, self.run_id))

        return wrapper

    def _op(self, name, fn):
        calls, total, clock = self.op_calls, self.op_ns, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total[name] += clock() - start
                calls[name] += 1

        return wrapper

    def _matmul(self, fn):
        timed = self._op("matmul", fn)

        def wrapper(a, b):
            out = timed(a, b)
            m, k = out.values.shape[0], getattr(a, "values", a).shape[1]
            n = out.values.shape[1]
            # forward, plus one product of the same size per operand the tape tracks
            self.matmul_flop += 2 * m * k * n * (1 + len(out._parents))
            return out

        return wrapper

    def _backward(self, fn):
        timed = self._span("numerics.backward", fn)

        def wrapper(loss, params=None):
            self.tape_nodes.append((self.run_id, count_tape_nodes(loss)))
            return timed(loss, params)

        return wrapper

    def _load_corpus(self, fn):
        timed = self._span("data.load_corpus", fn)

        def wrapper(*args, **kwargs):
            corpus = timed(*args, **kwargs)
            self.pairs_parsed += len(corpus.pairs)
            return corpus

        return wrapper

    def _save_checkpoint(self, fn):
        timed = self._span("params.save_checkpoint", fn)

        def wrapper(path, params):
            timed(path, params)
            self.checkpoint_bytes.append(os.path.getsize(path))

        return wrapper

    def _similarity(self, fn):
        def wrapper(index, a, b):
            self.similarity_calls += 1
            return fn(index, a, b)

        return wrapper

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            gen = info["generation"]
            self.gc_ns[gen] += time.perf_counter_ns() - self._gc_start
            self.gc_count[gen] += 1

    # -- install / remove ----------------------------------------------------

    def _patch(self, module_name: str, attr: str, make) -> None:
        holder, name, original = _resolve(module_name, attr)
        wrapper = make(original)
        if isinstance(holder, type):
            self._patches.append((holder, name, original))
            setattr(holder, name, wrapper)
            return
        # a function is also bound wherever a module imported it by name
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "interbert" or mod_name.startswith("interbert.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        special = {
            "numerics.backward": self._backward,
            "data.load_corpus": self._load_corpus,
            "params.save_checkpoint": self._save_checkpoint,
        }
        for name, (module_name, attr) in SPANNED.items():
            make = special.get(name) or (lambda fn, name=name: self._span(name, fn))
            self._patch(module_name, attr, make)
        for op in TAPE_OPS:
            make = self._matmul if op == "matmul" else (lambda fn, op=op: self._op(op, fn))
            self._patch("interbert.numerics.tensor", op, make)
        self._patch(*SIMILARITY, self._similarity)
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()
        self._stack.clear()

    def reset_counters(self) -> None:
        """Zero the per-operation counters, keeping spans and set-up records."""
        for op in TAPE_OPS:
            self.op_calls[op] = self.op_ns[op] = 0
        self.matmul_flop = 0
        self.gc_ns[:] = self.gc_count[:] = [0, 0, 0]

    def write(self, path) -> None:
        """Every span as one JSON line: id, parent, name, start/end ns, run id."""
        keys = ("id", "parent", "name", "start_ns", "end_ns", "run")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- span arithmetic ---------------------------------------------------------

def covered_ns(spans, names, runs=None) -> int:
    """Time inside spans named in ``names``, counting a span nested in another
    of those names once (by its outermost ancestor)."""
    parent_of = {s[0]: (s[1], s[2]) for s in spans}
    total = 0
    for span_id, parent, name, start, end, run in spans:
        if name not in names or (runs is not None and run not in runs):
            continue
        ancestor = parent
        while ancestor is not None and parent_of[ancestor][1] not in names:
            ancestor = parent_of[ancestor][0]
        if ancestor is None:
            total += end - start
    return total


def self_ns(spans, name, runs=None) -> int:
    """Summed self time of spans called ``name``: each span's length minus
    the time its direct child spans cover."""
    chosen = {s[0]: s[4] - s[3] for s in spans
              if s[2] == name and (runs is None or s[5] in runs)}
    for span_id, parent, _, start, end, _ in spans:
        if parent in chosen:
            chosen[parent] -= end - start
    return sum(chosen.values())

"""Self-tests of the benchmark's own arithmetic and checks.

    python3 perfbench/selftest.py

Covers the tail-percentile rule, span self time, the dense TF-IDF oracle, the
guards, the agreement of BENCHMARK.json with catalog.py, and deliberately
corrupted outputs that the output checks must count as failed. Takes a few
seconds; temporary files go under perfbench/_work.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import catalog  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, covered_ns, self_ns  # noqa: E402

TEMP = workloads.WORK_DIR / "selftest"


def setUpModule():
    TEMP.mkdir(parents=True, exist_ok=True)


def tearDownModule():
    shutil.rmtree(TEMP, ignore_errors=True)


class Statistics(unittest.TestCase):
    def test_tail_is_the_highest_percentile_with_ten_samples_beyond(self):
        pct, value = oracles.tail(list(range(30, 0, -1)))
        self.assertAlmostEqual(pct, 100 * 20 / 30)
        self.assertEqual(value, 20.0)  # 21..30 lie beyond it
        self.assertEqual(oracles.tail(range(11)), (100 / 11, 0.0))
        self.assertIsNone(oracles.tail(range(10)))

    def test_median(self):
        self.assertEqual(oracles.median([3, 1, 2]), 2.0)
        self.assertEqual(oracles.median([4, 1, 2, 3]), 2.5)


class SpanArithmetic(unittest.TestCase):
    # A [0, 100) holds B [10, 40) and C [50, 70); B holds D [15, 25).
    SPANS = [
        (1, 0, "B", 10, 40, 0), (3, 1, "D", 15, 25, 0), (2, 0, "C", 50, 70, 0),
        (0, None, "A", 0, 100, 0), (4, None, "A", 200, 210, 1),
    ]

    def test_self_time_subtracts_direct_children_only(self):
        self.assertEqual(self_ns(self.SPANS, "A", {0}), 100 - 30 - 20)
        self.assertEqual(self_ns(self.SPANS, "B"), 30 - 10)
        self.assertEqual(self_ns(self.SPANS, "A"), 50 + 10)

    def test_covered_time_counts_nested_spans_once(self):
        self.assertEqual(covered_ns(self.SPANS, {"A", "B"}, {0}), 100)
        self.assertEqual(covered_ns(self.SPANS, {"B", "D"}), 30)
        self.assertEqual(covered_ns(self.SPANS, {"D", "C"}), 30)

    def test_tracer_records_nested_spans_and_restores_the_program(self):
        from interbert.data import synth_corpus
        from interbert.model import InterBert
        import interbert.numerics as nt

        corpus = synth_corpus(seed=1, num_images=2)
        model = InterBert.create(workloads._model_config(corpus), seed=0)
        original_forward, original_matmul = InterBert.forward, nt.matmul
        tracer = Tracer()
        tracer.run_id = 0
        tracer.install()
        try:
            pair = corpus.pairs[0]
            model.forward(tokens=pair.tokens, features=pair.features, bboxes=pair.bboxes,
                          width=pair.width, height=pair.height)
        finally:
            tracer.remove()
        self.assertIs(InterBert.forward, original_forward)
        self.assertIs(nt.matmul, original_matmul)
        names = {s[0]: s[2] for s in tracer.spans}
        parents = {s[2]: names.get(s[1]) for s in tracer.spans}
        self.assertIsNone(parents["model.forward"])
        self.assertEqual(parents["model.interaction_forward"], "model.forward")
        self.assertGreater(tracer.op_calls["matmul"], 0)
        self.assertGreater(tracer.matmul_flop, 0)


class TfIdfOracle(unittest.TestCase):
    def test_hand_computed_similarities(self):
        # terms 7, 8, 9; N = 3; df(7) = df(8) = 2, df(9) = 1
        captions = {0: [7, 8], 1: [7], 2: [8, 9]}
        _, sims_for = oracles.oracle_table(captions, {0: 0, 1: 1, 2: 2})
        i78, i9 = math.log(3 / 2) + 1, math.log(3) + 1
        sims = sims_for(0)
        self.assertAlmostEqual(sims[1], 1 / math.sqrt(2), places=14)
        self.assertAlmostEqual(sims[2], (i78 / math.sqrt(2)) / math.hypot(i78, i9), places=14)

    def test_matches_the_program_on_a_small_corpus(self):
        from interbert import negatives
        from interbert.data import synth_corpus

        corpus = synth_corpus(seed=4, num_images=80, captions_per_image=2)
        table = negatives.build_hard_negative_table(negatives.build_tfidf(corpus))
        special = corpus.vocab.special_ids()
        captions = {p.caption_id: [int(t) for t in p.tokens if int(t) not in special] for p in corpus.pairs}
        oracle, sims_for = oracles.oracle_table(captions, {p.caption_id: p.image_id for p in corpus.pairs})
        problems, _ = oracles.table_mismatches(table, oracle, sims_for)
        self.assertEqual(problems, [])

    def test_a_swapped_or_wrong_row_is_reported(self):
        captions = {0: [7, 8], 1: [7], 2: [8, 9], 3: [9], 4: [7, 9]}
        oracle, sims_for = oracles.oracle_table(captions, {c: c for c in captions})
        self.assertEqual(oracles.table_mismatches(oracle, oracle, sims_for), ([], 0))
        row = next(image for image, r in oracle.items() if len(r) >= 2 and r[0][1] - r[1][1] > 1e-6)
        broken = dict(oracle)
        broken[row] = [oracle[row][1], oracle[row][0], *oracle[row][2:]]
        problems, _ = oracles.table_mismatches(broken, oracle, sims_for)
        self.assertEqual(len(problems), 1)


class Guards(unittest.TestCase):
    def test_disabled_or_frozen_collector_is_refused(self):
        gc.disable()
        try:
            with self.assertRaises(workloads.GuardError):
                workloads.check_gc("start")
        finally:
            gc.enable()
        gc.freeze()
        try:
            with self.assertRaises(workloads.GuardError):
                workloads.check_gc("end")
        finally:
            gc.unfreeze()
        workloads.check_gc("start")

    def test_more_than_one_blas_thread_is_refused(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload", "pretrain-b48",
                               "--seconds", "1"], env=env, capture_output=True, text=True, timeout=60)
        self.assertEqual(done.returncode, 3)
        self.assertEqual(done.stdout, "")
        self.assertIn("one thread", done.stderr)

    def test_tape_node_counts_must_repeat(self):
        nodes = [(1, 10), (1, 12), (3, 10), (3, 12), (-1, 99)]
        self.assertEqual(workloads.repeated_tape_nodes(nodes, [1, 3]), [10, 12])
        self.assertEqual(workloads.repeated_tape_nodes([], [1, 3]), [])
        with self.assertRaises(workloads.GuardError):
            workloads.repeated_tape_nodes(nodes[:-2] + [(3, 11)], [1, 3])

    def test_without_the_program_the_run_fails_without_a_result(self):
        bare = TEMP / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "retrieval-50", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


class CorruptedOutputs(unittest.TestCase):
    """Every output check must turn a corrupted output into a failed step."""

    def test_corrupted_mining_table(self):
        from interbert import negatives
        from interbert.data import synth_corpus

        corpus = synth_corpus(seed=2, num_images=60)
        table = negatives.build_hard_negative_table(negatives.build_tfidf(corpus))
        self.assertEqual(workloads.table_problems(corpus, table)[0], [])
        image = next(k for k, v in table.items() if len(v) >= 2 and v[0][1] != v[1][1])
        table[image][0], table[image][1] = table[image][1], table[image][0]
        problems, _ = workloads.table_problems(corpus, table)
        self.assertEqual(len(problems), 1)
        ops = [workloads.Op(False), workloads.Op(False)]
        for op in ops:
            op.steps = [0.1, 0.1]
        # the table comes from set-up, so its failure fails every step
        self.assertEqual(workloads.count_failures(ops, problems), (4, 4))

    def test_corrupted_retrieval_outputs(self):
        from interbert.data import synth_corpus

        ret = object.__new__(workloads.Retrieval)
        ret.workdir = TEMP
        ret.corpus = synth_corpus(seed=3, num_images=6)
        ret.model_cfg = workloads._model_config(ret.corpus)
        ret.checkpoint = workloads._initial_checkpoint(TEMP, ret.model_cfg, 3)
        ret.triggers = [0, 3]
        ops = [workloads.Op(False) for _ in range(4)]
        for op in ops:
            ret.run(op)
        self.assertEqual(ret.check(ops, None), [])
        ops[1].outputs["recall"] = {k: 1.0 - v for k, v in ops[1].outputs["recall"].items()}
        ops[2].outputs["read_back"] = ops[2].outputs["read_back"] + 1e-12
        ops[3].outputs["neighbours"] = [list(reversed(n)) for n in ops[3].outputs["neighbours"]]
        problems = ret.check(ops, None)
        self.assertEqual(workloads.count_failures(ops, problems), (4, 3))
        self.assertEqual(ret.check(ops[:1], {"retrieval-50": (ops[0].outputs["scores"] + 1e-3).tolist()}),
                         ["op 0: score matrix differs from the reference"])

    def test_non_finite_or_diverging_losses(self):
        ops = [workloads.Op(False) for _ in range(3)]
        for op in ops:
            op.steps = [0.1, 0.1]
            op.outputs["losses"] = [[1.0, 2.0], [1.5, 2.5]]
        self.assertEqual(workloads._loss_check(ops, [[1.0, 2.0], [1.5, 2.5]]), [])
        ops[1].outputs["losses"][1] = [float("nan"), 2.5]
        ops[2].outputs["losses"][0] = [1.0, 2.0 + 1e-15]
        problems = workloads._loss_check(ops, None)
        self.assertEqual(len(problems), 2)
        self.assertEqual(workloads.count_failures(ops, problems), (6, 4))
        self.assertTrue(workloads._loss_check(ops[:1], [[1.0, 2.1], [1.5, 2.5]]))


class BenchmarkFile(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_benchmark_json_is_the_catalog(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            self.assertEqual(json.load(fh), catalog.benchmark_json())

    def test_catalog_meets_the_format_limits(self):
        spec = catalog.benchmark_json()
        self.assertLessEqual(len(json.dumps(spec)), 64 * 1024)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"]))
        names = [m["name"] for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(self.NAME.match(n) for n in names), names)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["unit"], self.UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()

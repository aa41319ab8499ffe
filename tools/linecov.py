"""Lines of ``src/interbert`` that no command of the README pipeline runs.

    python3 tools/linecov.py

Runs synth-data, mine-negatives, pretrain, finetune, eval
--export-embeddings, knn, gradcheck and a replay of the pretrain manifest,
at small sizes, in this process under ``sys.settrace``, with the process
held to one CPU so that nothing forks (``workers.py``'s fork path therefore
shows as not run). Prints, per file, the executable lines no command ran,
with the lines of ``raise`` statements and ``except`` clauses listed apart,
then the totals.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "interbert"


def executable_lines(path: Path) -> tuple[set[int], set[int]]:
    """The lines that compile to code, and those of them on an error path."""
    source = path.read_text()
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    errors = {line for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.Raise, ast.ExceptHandler))
              for line in range(node.lineno, node.end_lineno + 1)}
    return lines, lines & errors


def traced(run, root: Path) -> set[tuple[str, int]]:
    """The (file, line) pairs under ``root`` that ``run()`` executes."""
    hits, prefix = set(), str(root)

    def local(frame, event, _):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, _):
        if frame.f_code.co_filename.startswith(prefix):
            hits.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    sys.settrace(start)
    try:
        run()
    finally:
        sys.settrace(None)
    return hits


def report(files, hits, root: Path) -> tuple[int, int, int]:
    """Print each file's unrun lines, naming it from ``root``; return the
    executable, unrun and unrun error-path line counts."""
    total = unrun_all = unrun_errors = 0
    for path in files:
        lines, errors = executable_lines(path)
        unrun = sorted(lines - {line for name, line in hits if name == str(path)})
        on_errors = [line for line in unrun if line in errors]
        total, unrun_all, unrun_errors = total + len(lines), unrun_all + len(unrun), unrun_errors + len(on_errors)
        if unrun:
            print(f"{path.relative_to(root)}: {len(unrun)} of {len(lines)} not run")
            print(f"  code: {[line for line in unrun if line not in errors]}\n  raise/except: {on_errors}")
    print(f"total: {unrun_all} of {total} executable lines not run, {unrun_errors} of them raise/except")
    return total, unrun_all, unrun_errors


def pipeline(work: Path) -> None:
    from interbert.cli import main

    def at(name: str) -> str:
        return str(work / name)

    corpus = ["--corpus", at("data/corpus.jsonl"), "--vocab", at("data/vocab.json")]
    commands = [
        ["synth-data", "--out", at("data"), "--num-images", "24"],
        ["mine-negatives", *corpus, "--out", at("neg")],
        ["pretrain", *corpus, "--negatives", at("neg/negatives.jsonl"), "--out", at("pre"),
         "--steps", "3", "--warmup", "1", "--batch-size", "8"],
        ["finetune", *corpus, "--checkpoint", at("pre/checkpoint.ibt"), "--out", at("fine"),
         "--steps", "2", "--warmup", "1", "--batch-size", "4"],
        ["eval", *corpus, "--checkpoint", at("pre/checkpoint.ibt"), "--out", at("ev"), "--export-embeddings"],
        ["knn", "--embeddings", at("ev/embeddings.bin"), "--trigger", "0", "--k", "3", "--out", at("knn")],
        ["gradcheck", "--out", at("gc")],
        ["replay", "--manifest", at("pre/manifest.json"), "--out", at("pre-again")],
    ]
    for argv in commands:
        if main(argv) != 0:
            raise SystemExit(f"linecov: {argv[0]} failed")


if __name__ == "__main__":
    sys.path.insert(0, str(SRC.parent))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        hits = traced(lambda: pipeline(Path(tmp)), SRC)
    report(sorted(SRC.rglob("*.py")), hits, SRC.parent)

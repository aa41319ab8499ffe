"""Independent checks of the program's outputs, and the benchmark's summary
statistics. Nothing here calls interbert code, so a defect in the program
cannot hide in its own oracle."""

from __future__ import annotations

from collections import Counter

import numpy as np

SIM_CEILING = 0.5      # negatives.DEFAULT_SIM_THRESHOLD
MAX_NEGATIVES = 30     # negatives.DEFAULT_MAX_NEGATIVES
SIM_TOL = 1e-12        # float noise allowed between the sparse dots and the dense oracle
MIN_BEYOND = 10        # a tail percentile needs this many samples above it


# -- summary statistics ----------------------------------------------------

def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= MIN_BEYOND:
        return None
    return 100.0 * (n - MIN_BEYOND) / n, float(ordered[n - MIN_BEYOND - 1])


# -- hard-negative table -----------------------------------------------------

def dense_tfidf(captions: dict[int, list[int]]) -> tuple[list[int], np.ndarray]:
    """Caption ids in index order and their L2-normalised TF-IDF rows, with
    tf = count / length and idf = ln(N / df) + 1, as a dense matrix."""
    ids = [cid for cid, terms in captions.items() if terms]
    vocab = sorted({t for cid in ids for t in captions[cid]})
    column = {t: j for j, t in enumerate(vocab)}
    counts = np.zeros((len(ids), len(vocab)))
    for row, cid in enumerate(ids):
        for term, c in Counter(captions[cid]).items():
            counts[row, column[term]] = c
    tf = counts / counts.sum(axis=1, keepdims=True)
    df = (counts > 0).sum(axis=0)
    weights = tf * (np.log(len(ids) / df) + 1.0)
    return ids, weights / np.linalg.norm(weights, axis=1, keepdims=True)


def oracle_table(captions: dict[int, list[int]], caption_image: dict[int, int]):
    """Per image, (caption id, similarity) of its hard negatives: captions of
    other images below the ceiling against the image's first caption, most
    similar first, ascending id on equal similarity, at most thirty.

    Also returns ``sims_for(image)``, every caption id's similarity to the
    image's first caption."""
    ids, rows = dense_tfidf(captions)
    ids_arr = np.asarray(ids)
    images = np.asarray([caption_image[cid] for cid in ids])
    first_row: dict[int, int] = {}
    for row, image in enumerate(images.tolist()):
        first_row.setdefault(image, row)
    table = {}
    for image in sorted(first_row):
        sims = rows @ rows[first_row[image]]
        keep = np.flatnonzero((images != image) & (sims < SIM_CEILING))
        order = keep[np.lexsort((ids_arr[keep], -sims[keep]))][:MAX_NEGATIVES]
        table[image] = [(int(ids_arr[i]), float(sims[i])) for i in order]

    def sims_for(image: int) -> dict[int, float]:
        return dict(zip(ids, (rows @ rows[first_row[image]]).tolist()))

    return table, sims_for


def table_mismatches(table: dict, oracle: dict, sims_for) -> tuple[list[str], int]:
    """Compare a mined table with the oracle's. Returns the problems found
    and how many rows matched only up to near-ties.

    A row matches when it lists the same ids in the same order. Two
    similarities that are equal in exact arithmetic can differ in the last
    bit between the program's sparse dot (summed in caption token order) and
    the dense oracle, which may swap two ids or change which of them makes
    the cut. Such a row still matches when, position by position, its
    oracle similarity equals the oracle row's within SIM_TOL, and its own
    similarities are non-increasing with ascending ids on exact ties."""
    problems: list[str] = []
    near_ties = 0
    if sorted(table) != sorted(oracle):
        return [f"table covers images {len(table)} vs oracle {len(oracle)}"], 0
    for image in sorted(oracle):
        got, want = table[image], oracle[image]
        if [c for c, _ in got] == [c for c, _ in want]:
            if any(abs(s - w) > SIM_TOL for (_, s), (_, w) in zip(got, want)):
                problems.append(f"image {image}: similarities differ from the oracle")
            continue
        sims = sims_for(image)
        ok = len(got) == len(want) and len({c for c, _ in got}) == len(got)
        ok = ok and all(abs(sims[c] - w) <= SIM_TOL and abs(s - sims[c]) <= SIM_TOL and s < SIM_CEILING
                        for (c, s), (_, w) in zip(got, want))
        ok = ok and all(a[1] > b[1] or (a[1] == b[1] and a[0] < b[0]) for a, b in zip(got, got[1:]))
        if ok:
            near_ties += 1
        else:
            problems.append(f"image {image}: ids {[c for c, _ in got][:5]}... "
                            f"vs oracle {[c for c, _ in want][:5]}...")
    return problems, near_ties


# -- retrieval -----------------------------------------------------------------

def gold_ranks(scores: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """1-based rank of each row's gold column by descending score, lower
    column first among equal scores."""
    ranks = np.empty(len(gold), dtype=np.int64)
    columns = np.arange(scores.shape[1])
    for row, g in enumerate(gold):
        order = np.lexsort((columns, -scores[row]))
        ranks[row] = int(np.flatnonzero(order == g)[0]) + 1
    return ranks


def recall_from_ranks(ranks: np.ndarray, ks) -> dict[int, float]:
    return {k: int(np.sum(ranks <= k)) / max(1, len(ranks)) for k in ks}


def knn_brute_force(embeddings: np.ndarray, trigger: int, k: int) -> list[int]:
    """Top-k rows by cosine similarity to the trigger row, trigger excluded,
    lower index first among equal similarities."""
    sims = np.array([
        float(np.dot(row, embeddings[trigger])) / (np.linalg.norm(row) * np.linalg.norm(embeddings[trigger]))
        if np.linalg.norm(row) > 0 else 0.0
        for row in embeddings
    ])
    others = np.array([i for i in range(len(embeddings)) if i != trigger])
    return others[np.lexsort((others, -sims[others]))][:k].tolist()

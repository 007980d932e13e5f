"""Output checks, run after the timed phases of a round.

Expected values come from computations made here, apart from the program:
numpy window counts over the generated token ids, the brute-force measure
functions in ``tests/oracles.py`` applied to profiles built from those
counts, and credit, path and subsumer computations over the generator's own
parent and edge lists.  Each check function returns a list of failure
messages (empty when every check holds) and a dict of reference figures.
"""

from __future__ import annotations

import json
import math
from collections import deque
from pathlib import Path

import numpy as np

from inputs import WINDOW  # also puts tests/ on sys.path

import oracles  # noqa: E402  (tests/oracles.py)

REL_TOL = 1e-9


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def window_counts(ids: np.ndarray, doc_lengths, radius: int = WINDOW):
    """Sorted unique (target * base + feature) keys and their window counts."""
    base = int(ids.max()) + 1
    doc = np.repeat(np.arange(len(doc_lengths)), doc_lengths)
    pieces = []
    for d in range(1, radius + 1):
        same = doc[:-d] == doc[d:]
        left, right = ids[:-d][same], ids[d:][same]
        pieces += [left * base + right, right * base + left]
    keys, counts = np.unique(np.concatenate(pieces), return_counts=True)
    return keys, counts, base


class WindowCounts:
    def __init__(self, ids, doc_lengths, names):
        self.keys, self.counts, self.base = window_counts(ids, doc_lengths)
        self.names = names  # id -> word
        self.index = {w: i for i, w in enumerate(names)}
        rows = self.keys // self.base
        self.totals = np.bincount(rows, weights=self.counts, minlength=self.base)
        self.total = int(self.counts.sum())

    def cell(self, t: int, f: int) -> int:
        key = t * self.base + f
        i = int(np.searchsorted(self.keys, key))
        return int(self.counts[i]) if i < self.keys.size and self.keys[i] == key else 0

    def row(self, t: int) -> dict:
        lo, hi = np.searchsorted(self.keys, [t * self.base, (t + 1) * self.base])
        return {
            self.names[int(k % self.base)]: int(n)
            for k, n in zip(self.keys[lo:hi], self.counts[lo:hi])
        }

    def profile(self, t: int, kind: str) -> dict:
        row = self.row(t)
        if kind == "cp":
            total = sum(row.values())
            return {f: n / total for f, n in row.items()}
        out = {}
        for f, n in row.items():
            rt, ct = float(self.totals[t]), float(self.totals[self.index[f]])
            table = (float(n), rt - n, ct - n, self.total - rt - ct + n)
            value = oracles.soa_value(table, "pmi", 2.0)
            if value is not None and value != 0.0:
                out[f] = value
        return out


def read_records(path: Path) -> list[list[str]]:
    """Data lines of a program output file, without its '#' header lines."""
    with open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n").split("\t") for line in handle if not line.startswith("#")]


def read_header(path: Path, tag: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith(tag + "\t"):
                return dict(f.split("=", 1) for f in line.rstrip("\n").split("\t")[1:])
    return {}


def read_kv(path: Path) -> dict:
    return {r[0]: r[1] for r in read_records(path) if len(r) == 2}


def read_rank(path: Path):
    rows = [r for r in read_records(path) if r[0] != "rank"]
    return [(r[1], r[2], float(r[3]), float(r[4])) for r in rows]


def _ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    ranks[order] = np.arange(1, values.size + 1, dtype=np.float64)
    for v in np.unique(values):  # average ranks for ties
        tied = values == v
        ranks[tied] = ranks[tied].mean()
    return ranks


def pearson(x, y) -> float:
    x, y = np.asarray(x, float) - np.mean(x), np.asarray(y, float) - np.mean(y)
    return float((x * y).sum() / math.sqrt((x * x).sum() * (y * y).sum()))


def spearman(x, y) -> float:
    return pearson(_ranks(np.asarray(x, float)), _ranks(np.asarray(y, float)))


def check_rank_order(rows, label: str) -> list[str]:
    """Every measure ranked here (cos, lin) is closeness-oriented: scores must not rise."""
    scores = [r[3] for r in rows]
    if any(b > a for a, b in zip(scores, scores[1:])):
        return [f"{label}: lines are not ordered by descending closeness"]
    return []


def check_eval_matches_rank(eval_path: Path, rank_rows, label: str) -> tuple[list, dict]:
    report = read_kv(eval_path)
    failures = []
    if report.get("pairs_skipped") != "0":
        failures.append(f"{label}: eval skipped {report.get('pairs_skipped')} pairs")
    humans = [r[2] for r in rank_rows]
    scores = [r[3] for r in rank_rows]
    want = {"pearson_raw": pearson(humans, scores), "spearman_raw": spearman(humans, scores)}
    for key, value in want.items():
        if not _close(float(report.get(key, "nan")), value):
            failures.append(f"{label}: {key} {report.get(key)} != recomputed {value!r}")
    return failures, {f"spearman_{label}": float(report.get("spearman_raw", "nan"))}


# ---------------------------------------------------------------------------
# zipf-wordsim


def check_zipf(work: Path, out: Path, meta: dict) -> tuple[list, dict]:
    failures: list[str] = []
    ids = meta["ids"]
    lengths = meta["doc_lengths"]
    names = [f"w{i}" for i in range(int(ids.max()) + 1)]
    wc = WindowCounts(ids, lengths, names)

    counts_path = out / "counts.tsv"
    if (out / "counts_cold.tsv").read_bytes() != counts_path.read_bytes():
        failures.append("zipf: cold-cache and warm-cache count outputs differ")
    header = read_header(counts_path, "#counts")
    want_pairs = sum(2 * sum(max(n - d, 0) for d in range(1, WINDOW + 1)) for n in lengths)
    if int(header.get("total_pairs", -1)) != want_pairs:
        failures.append(f"zipf: total_pairs {header.get('total_pairs')} != {want_pairs}")
    if int(header.get("total_tokens", -1)) != ids.size:
        failures.append(f"zipf: total_tokens {header.get('total_tokens')} != {ids.size}")
    cells = read_records(counts_path)
    if len(cells) != wc.keys.size:
        failures.append(f"zipf: {len(cells)} cells != {wc.keys.size} from the window count")
    rng = np.random.default_rng(0)
    for i in rng.choice(len(cells), size=min(500, len(cells)), replace=False):
        t, f, n = cells[int(i)]
        if wc.cell(int(t[1:]), int(f[1:])) != int(n):
            failures.append(f"zipf: cell {t} {f} = {n}, window count {wc.cell(int(t[1:]), int(f[1:]))}")
            break

    oracle = {"cos": ("cp", oracles.o_cosine), "lin": ("pmi", oracles.o_lin)}
    profiles: dict = {}

    def profile(word: str, kind: str) -> dict:
        key = (word, kind)
        if key not in profiles:
            profiles[key] = wc.profile(int(word[1:]), kind)
        return profiles[key]

    for measure, (kind, fn) in oracle.items():
        rows = read_rank(out / f"rank_{measure}.tsv")
        failures += check_rank_order(rows, f"zipf rank {measure}")
        if len(rows) != len(meta["pairs"]):
            failures.append(f"zipf rank {measure}: {len(rows)} of {len(meta['pairs'])} pairs ranked")
        for w1, w2, _, value in rows[:: max(1, len(rows) // 12)]:
            want = fn(profile(w1, kind), profile(w2, kind))
            if not _close(value, want):
                failures.append(f"zipf rank {measure}: {w1} {w2} scored {value!r}, oracle {want!r}")

    # word choice: the oracle picks the closest alternative, first on ties
    report = read_kv(out / "eval_choices.tsv")
    problems = read_records(work / "choices.tsv")
    sure = unsure = 0
    for target, alts, answer in problems:
        values = [oracles.o_cosine(profile(target, "cp"), profile(a, "cp")) for a in alts.split("|")]
        best = max(values)
        near_best = sum(1 for v in values if abs(v - best) <= 1e-12)
        if near_best > 1 and best != 0.0:
            unsure += 1
        else:
            sure += values.index(best) == int(answer)
    correct = int(report.get("correct", -1))
    if int(report.get("problems", -1)) != len(problems) or not sure <= correct <= sure + unsure:
        failures.append(f"zipf eval: {report} disagrees with {sure}(+{unsure}) oracle answers")
    return failures, {"nnz": len(cells)}


# ---------------------------------------------------------------------------
# topic-concepts


def topic_tokens(work: Path):
    """Token ids and document lengths of the topic corpus, read as plain words."""
    with open(work / "corpus.txt", encoding="utf-8") as handle:
        docs = [line.split() for line in handle if line.strip()]
    vocab = sorted({w for d in docs for w in d})
    index = {w: i for i, w in enumerate(vocab)}
    ids = np.array([index[w] for d in docs for w in d], dtype=np.int64)
    return ids, [len(d) for d in docs], vocab


def topic_counts(work: Path, thesaurus: dict) -> dict:
    """Occurrence counts the bootstrap pass works on, from the generated tokens."""
    ids, lengths, vocab = topic_tokens(work)
    senses = {}
    for words in thesaurus.values():
        for w in words:
            senses[w] = senses.get(w, 0) + 1
    n_senses = np.array([senses.get(w, 0) for w in vocab])[ids]
    return {
        "occurrences": int((n_senses > 0).sum()),
        "ambiguous": int((n_senses > 1).sum()),
    }


def topic_matrices(out: Path) -> dict:
    with np.load(out / "matrices.npz") as saved:
        return {m: saved[m] for m in ("cos", "jsd", "lin")}


def check_topic(work: Path, out: Path, meta: dict) -> tuple[list, dict]:
    failures: list[str] = []
    ids, lengths, vocab = topic_tokens(work)
    thesaurus = meta["thesaurus"]
    wc = WindowCounts(ids, lengths, vocab)
    index = {w: i for i, w in enumerate(vocab)}

    # bootstrap: one event per (sensed occurrence, context word), criterion 5's rule
    has_sense = np.array([any(w in ws for ws in thesaurus.values()) for w in vocab])[ids]
    events = 0
    start = 0
    for n in lengths:
        pos = np.flatnonzero(has_sense[start : start + n])
        events += int((np.minimum(n, pos + WINDOW + 1) - np.maximum(0, pos - WINDOW) - 1).sum())
        start += n
    boot = read_records(out / "boot.tsv")
    values = [float(r[2]) for r in boot]
    if not _close(sum(values), events):
        failures.append(f"topic: bootstrapped total {sum(values)} != {events} events")
    if any(v != round(v) for v in values):
        failures.append("topic: bootstrapped matrix has a non-integer cell")

    base = read_records(out / "base.tsv")
    rng = np.random.default_rng(0)
    for i in rng.choice(len(base), size=min(300, len(base)), replace=False):
        word, cat, value = base[int(i)]
        want = sum(wc.cell(index[word], index[f]) for f in thesaurus[cat] if f in index)
        if float(value) != want:
            failures.append(f"topic: base cell {word} {cat} = {value}, counts x incidence {want}")
            break

    matrices = topic_matrices(out)
    for measure, m in matrices.items():
        if not np.allclose(m, m.T, rtol=1e-12, atol=1e-12):
            failures.append(f"topic: {measure} concept matrix is not symmetric")
    if not np.allclose(np.diag(matrices["cos"]), 1.0, rtol=0, atol=1e-12):
        failures.append("topic: cos concept matrix diagonal is not 1")
    if not np.allclose(np.diag(matrices["jsd"]), 0.0, rtol=0, atol=1e-12):
        failures.append("topic: jsd concept matrix diagonal is not 0")

    figures = {}
    for level in ("word", "concept"):
        rows = read_rank(out / f"rank_{level}.tsv")
        failures += check_rank_order(rows, f"topic rank {level}")
        more, fig = check_eval_matches_rank(out / f"eval_{level}.tsv", rows, level)
        failures += more
        figures.update(fig)
    return failures, figures


# ---------------------------------------------------------------------------
# taxonomy-scores


def check_taxonomy(work: Path, out: Path, meta: dict) -> tuple[list, dict]:
    failures: list[str] = []
    parents = [[int(p[1:]) for p in ps] for ps in meta["parents"]]
    n = len(parents)
    ancestors: list[frozenset] = []
    depth = [0] * n
    for i, ps in enumerate(parents):  # every parent has a smaller index
        anc = {i}
        for p in ps:
            anc |= ancestors[p]
        ancestors.append(frozenset(anc))
        depth[i] = 1 + max(depth[p] for p in ps) if ps else 0
    max_depth = max(depth)

    credit = [0] * n
    for word, freq in meta["freqs"].items():
        credited = set()
        for c in meta["word_map"].get(word, ()):
            credited |= ancestors[int(c[1:])]
        for c in credited:
            credit[c] += freq
    ic = [-math.log2(c / credit[0]) for c in credit]
    table = {r[0]: float(r[2]) for r in read_records(out / "ic.tsv")}
    for i in range(n):
        if not _close(table.get(f"n{i:06d}", math.nan), ic[i]):
            failures.append(f"taxonomy: ic of n{i:06d} is {table.get(f'n{i:06d}')}, want {ic[i]}")
            break
    for i, ps in enumerate(parents):
        if any(table[f"n{i:06d}"] < table[f"n{p:06d}"] - 1e-12 for p in ps):
            failures.append(f"taxonomy: ic falls from a parent to n{i:06d}")
            break

    neighbors = [[] for _ in range(n)]
    isa_neighbors = [[] for _ in range(n)]
    for a, b, rel in meta["edge_list"]:
        a, b = int(a[1:]), int(b[1:])
        neighbors[a].append(b)
        neighbors[b].append(a)
        if rel == "isa":
            isa_neighbors[a].append(b)
            isa_neighbors[b].append(a)

    def bfs(adj, a: int, b: int) -> int:
        dist = {a: 0}
        queue = deque([a])
        while queue:
            node = queue.popleft()
            if node == b:
                return dist[node]
            for nxt in adj[node]:
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
        return -1

    scores = json.loads((out / "scores.json").read_text(encoding="utf-8"))
    for (c1, c2, kind), got in zip(meta["pairs"], scores):
        a, b = int(c1[1:]), int(c2[1:])
        label = f"taxonomy {kind} pair {c1} {c2}"
        length, changes = got["path"]
        if length != bfs(neighbors, a, b):
            failures.append(f"{label}: path {length} != bfs {bfs(neighbors, a, b)}")
        if not 0 <= changes <= length:
            failures.append(f"{label}: relation changes {changes} outside [0, {length}]")
        if not _close(got["hs"], max(0.0, 8.0 - length - changes)):
            failures.append(f"{label}: hs {got['hs']} != max(0, 8 - {length} - {changes})")
        isa_len = bfs(isa_neighbors, a, b)
        want_lc = -math.log2(max(isa_len, 1) / (2.0 * max_depth))
        if not _close(got["lc"], want_lc):
            failures.append(f"{label}: lc {got['lc']} != {want_lc}")
        common = ancestors[a] & ancestors[b]
        deepest = max(depth[c] for c in common)
        res = max(ic[c] for c in common if depth[c] == deepest)
        if not _close(got["res"], res):
            failures.append(f"{label}: res {got['res']} != {res}")
        if not _close(got["jc"], ic[a] + ic[b] - 2.0 * res):
            failures.append(f"{label}: jc {got['jc']} != {ic[a] + ic[b] - 2.0 * res}")
        if not 0.0 <= got["lin"] <= 1.0:
            failures.append(f"{label}: lin {got['lin']} outside [0, 1]")
    return failures, {}


CHECKS = {
    "zipf-wordsim": check_zipf,
    "topic-concepts": check_topic,
    "taxonomy-scores": check_taxonomy,
}

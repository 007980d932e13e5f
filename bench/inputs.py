"""Seeded input generation for the three benchmark workloads.

Everything the program later reads is written here, from the workload seed
alone, before any timed step runs.  Each generator also returns the plain
facts the output checks need (token ids, parent lists, pair kinds), so the
checks never read the program's own view of its inputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from corpusgen import TOPICS, flat_token_stream, write_topic_corpus  # noqa: E402

MILLER_CHARLES = ROOT / "tests" / "fixtures" / "miller_charles.csv"

# Sizes of every workload: "full" is what the benchmark measures, "small" is
# the quick self-test mode.  The values are chosen so that one round of a
# workload lasts several seconds on a 2-core machine (see README.md).
SIZES = {
    "full": {
        "zipf_tokens": 40_000,
        "zipf_vocab": 20_000,
        "zipf_doc_len": 1000,
        "zipf_pairs": 40,
        "zipf_choices": 12,
        "topic_tokens": 200_000,
        "topic_cats_per_topic": 5,
        "taxo_nodes": 25_000,
        "taxo_near": 20,
        "taxo_far": 10,
        "chain_depth": 1500,
    },
    "small": {
        "zipf_tokens": 6_000,
        "zipf_vocab": 2_000,
        "zipf_doc_len": 300,
        "zipf_pairs": 12,
        "zipf_choices": 4,
        "topic_tokens": 20_000,
        "topic_cats_per_topic": 5,
        "taxo_nodes": 2_000,
        "taxo_near": 6,
        "taxo_far": 3,
        "chain_depth": 1500,
    },
}

WINDOW = 5  # the CLI's default --window, used by every count in the benchmark


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


def _write_benchmark_csv(path: Path, pairs, rng) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("word1,word2,score,scale_min,scale_max\n")
        for w1, w2 in pairs:
            out.write(f"{w1},{w2},{rng.uniform(0.0, 4.0):.2f},0.0,4.0\n")


# ---------------------------------------------------------------------------
# zipf-wordsim


def make_zipf(work: Path, seed: int, size: dict) -> dict:
    """Two corpus shards of a Zipf token stream, a pair list and choice problems."""
    docs: list[list[int]] = []
    current: list[int] = []
    for token in flat_token_stream(
        size["zipf_tokens"], size["zipf_vocab"], seed=seed, doc_len=size["zipf_doc_len"]
    ):
        if token is None:
            docs.append(current)
            current = []
        else:
            current.append(int(token[1:]))
    docs.append(current)
    half = len(docs) // 2
    shards = []
    for k, part in enumerate((docs[:half], docs[half:])):
        path = work / f"shard{k}.txt"
        with open(path, "w", encoding="utf-8") as out:
            for doc in part:
                out.write(" ".join(f"w{i}" for i in doc) + "\n")
        shards.append(path.name)

    # head, torso and tail bands by frequency rank among the words that occur
    ids = np.concatenate([np.asarray(d, dtype=np.int64) for d in docs])
    freq = np.bincount(ids, minlength=size["zipf_vocab"])
    present = np.flatnonzero(freq)
    by_rank = present[np.argsort(-freq[present], kind="mergesort")]
    n = by_rank.size
    bands = {
        "head": by_rank[: max(n // 200, 8)],
        "torso": by_rank[n // 50 : n // 5],
        "tail": by_rank[n // 2 :],
    }
    # Words are picked at band positions drawn from a fixed schedule, so every
    # seed queries the same frequency ranks and the query cost, which grows
    # with profile length, does not swing with the seed.
    schedule = np.random.default_rng(2024)
    kinds = ["head", "torso", "tail"]

    def pick(kind: str, taken=()) -> int:
        band = bands[kind]
        while True:
            word = int(band[int(schedule.random() * band.size)])
            if word not in taken:
                return word

    pairs = []
    for i in range(size["zipf_pairs"]):
        a = pick(kinds[i % 3])
        pairs.append((f"w{a}", f"w{pick(kinds[(i // 3) % 3], (a,))}"))
    rng = np.random.default_rng(seed + 1)
    _write_benchmark_csv(work / "pairs.csv", pairs, rng)

    with open(work / "choices.tsv", "w", encoding="utf-8") as out:
        for i in range(size["zipf_choices"]):
            target = pick(kinds[i % 3])
            alts: list[int] = []
            while len(alts) < 4:
                alts.append(pick(kinds[len(alts) % 3], (target, *alts)))
            answer = int(rng.integers(4))
            out.write(f"w{target}\t{'|'.join(f'w{a}' for a in alts)}\t{answer}\n")

    _write_json(work / "worker.json", {"shards": shards})
    meta = {
        "shards": shards,
        "ids": ids,
        "doc_lengths": [len(d) for d in docs],
        "tokens": int(ids.size),
        "documents": len(docs),
        "vocab_seen": int(n),
        "pairs": pairs,
        "pair_repeat_share": _repeat_share(pairs),
    }
    return meta


def _repeat_share(pairs) -> float:
    """Share of pair word slots whose word already appeared earlier in the list."""
    seen: set = set()
    repeats = 0
    for pair in pairs:
        for word in pair:
            repeats += word in seen
            seen.add(word)
    return repeats / (2 * len(pairs))


# ---------------------------------------------------------------------------
# topic-concepts


def make_topic(work: Path, seed: int, size: dict) -> dict:
    """The criterion-7 topic corpus and a thesaurus whose categories overlap.

    Every topic gets ``topic_cats_per_topic`` categories.  The first half of
    them are anchored: each lists one word of the topic that is listed
    nowhere else.  The other topic words are listed, in turn, under two and
    three categories of their topic, one of them anchored, and every fifth
    word also under a category of another topic.  So every word has a sense
    whose column is never empty, and the seed picks words and categories but
    not these shares: the bootstrap's work per occurrence does not swing with
    the seed.
    """
    tokens = write_topic_corpus(work / "corpus.txt", size["topic_tokens"], seed=seed)
    shutil.copyfile(MILLER_CHARLES, work / "miller_charles.csv")
    _write_json(work / "worker.json", {})
    rng = np.random.default_rng(seed + 2)
    per_topic = size["topic_cats_per_topic"]
    topic_names = sorted(TOPICS)
    members: dict[str, list[str]] = {}
    for t, name in enumerate(topic_names):
        words = list(TOPICS[name])
        rng.shuffle(words)
        cats = [f"c{t * per_topic + j:03d}" for j in range(per_topic)]
        anchored, free = cats[: per_topic // 2], cats[per_topic // 2 :]
        for cat, anchor in zip(anchored, words):
            members.setdefault(cat, []).append(anchor)
        for j, word in enumerate(words[len(anchored) :]):
            senses = [str(rng.choice(anchored)), *rng.choice(free, size=1 + j % 2, replace=False)]
            for cat in senses:
                members.setdefault(str(cat), []).append(word)
            if j % 5 == 0:
                other = (t + 1 + int(rng.integers(len(topic_names) - 1))) % len(topic_names)
                members.setdefault(f"c{other * per_topic + int(rng.integers(per_topic)):03d}", []).append(word)
    thesaurus = {cat: sorted(set(words)) for cat, words in sorted(members.items())}
    with open(work / "thesaurus.tsv", "w", encoding="utf-8") as out:
        for cat, words in thesaurus.items():
            out.write(f"{cat}\tcategory {cat}\t{' '.join(words)}\n")
    senses: dict[str, int] = {}
    for words in thesaurus.values():
        for word in words:
            senses[word] = senses.get(word, 0) + 1
    meta = {
        "tokens": tokens,
        "categories": len(thesaurus),
        "thesaurus_words": len(senses),
        "ambiguous_words": sum(1 for n in senses.values() if n > 1),
        "thesaurus": thesaurus,
    }
    return meta


# ---------------------------------------------------------------------------
# taxonomy-scores


def make_taxonomy(work: Path, seed: int, size: dict) -> dict:
    """A WordNet-like hierarchy, word frequencies, near and far pairs, a deep chain.

    Node ``i`` takes its first ``isa`` parent at index ``floor(i * u**1.5)``
    for a uniform ``u``; the bias toward early nodes gives a single root, a
    maximum depth near WordNet's (about 17 at 25k nodes) and a mean depth near
    7.  Three percent of nodes gain a second, earlier ``isa`` parent, so the
    hypernym graph stays acyclic; five percent gain a ``partof`` or
    ``memberof`` edge to any node.
    """
    n = size["taxo_nodes"]
    rng = np.random.default_rng(seed + 3)
    parents: list[list[int]] = [[]]
    depth = np.zeros(n, dtype=np.int64)
    u = rng.random(n)
    for i in range(1, n):
        first = int(i * u[i] ** 1.5)
        parents.append([first])
        depth[i] = depth[first] + 1
    for i in np.flatnonzero(rng.random(n) < 0.03):
        if i < 2:
            continue
        extra = int(rng.integers(i))
        if extra not in parents[i]:
            parents[i].append(extra)
    relations = []
    for i in np.flatnonzero(rng.random(n) < 0.05):
        j = int(rng.integers(n))
        if j != i:
            relations.append((int(i), j, "partof" if rng.random() < 0.5 else "memberof"))

    # every node has its own word; ten percent of words also name 1-2 other nodes
    word_of = [f"t{i}" for i in range(n)]
    word_map: dict[str, list[int]] = {w: [i] for i, w in enumerate(word_of)}
    for i in np.flatnonzero(rng.random(n) < 0.10):
        for j in rng.integers(n, size=int(rng.integers(1, 3))):
            if int(j) not in word_map[word_of[i]]:
                word_map[word_of[i]].append(int(j))
    ranks = rng.permutation(n) + 1
    freqs = {w: max(1, int(1_000_000 // int(ranks[i]))) for i, w in enumerate(word_of)}

    def node(i: int) -> str:
        return f"n{i:06d}"

    edges = []
    with open(work / "taxonomy.taxo", "w", encoding="utf-8") as out:
        for i in range(n):
            out.write(f"NODE\t{node(i)}\tconcept {i}\n")
        for i in range(1, n):
            for p in parents[i]:
                out.write(f"EDGE\t{node(i)}\t{node(p)}\tisa\n")
                edges.append((i, p, "isa"))
        for i, j, rel in relations:
            out.write(f"EDGE\t{node(i)}\t{node(j)}\t{rel}\n")
            edges.append((i, j, rel))
        for word in sorted(word_map):
            for i in word_map[word]:
                out.write(f"WORD\t{word}\t{node(i)}\n")
    with open(work / "freqs.tsv", "w", encoding="utf-8") as out:
        for word in sorted(freqs):
            out.write(f"{word}\t{freqs[word]}\n")

    children: dict[int, list[int]] = {}
    for i in range(1, n):
        children.setdefault(parents[i][0], []).append(i)
    families = [kids for kids in children.values() if len(kids) >= 2]
    near = []
    while len(near) < size["taxo_near"]:
        kind = ("sibling", "parent-child", "cousin")[len(near) % 3]
        kids = families[int(rng.integers(len(families)))]
        a, b = (int(x) for x in rng.choice(kids, size=2, replace=False))
        if kind == "parent-child":
            pair = (parents[a][0], a)
        elif kind == "cousin":
            if a not in children or b not in children:
                continue
            pair = (int(rng.choice(children[a])), int(rng.choice(children[b])))
        else:
            pair = (a, b)
        near.append([node(pair[0]), node(pair[1]), kind])
    top = {}  # depth-1 subtree of every node, by first parents
    for i in range(1, n):
        top[i] = i if parents[i][0] == 0 else top[parents[i][0]]
    far = []
    while len(far) < size["taxo_far"]:
        a, b = (int(x) for x in rng.integers(1, n, size=2))
        if top[a] != top[b] and depth[a] >= 4 and depth[b] >= 4:
            far.append([node(a), node(b), "far"])

    # the deep-chain input is the same for every seed: leaf-first NODE lines
    chain = size["chain_depth"]
    with open(work / "chain.taxo", "w", encoding="utf-8") as out:
        for i in reversed(range(chain + 1)):
            out.write(f"NODE\tk{i}\tlink {i}\n")
        for i in range(1, chain + 1):
            out.write(f"EDGE\tk{i}\tk{i - 1}\tisa\n")
        out.write(f"WORD\tleaf\tk{chain}\n")
    (work / "chain_freqs.tsv").write_text("leaf\t1\n", encoding="utf-8")

    _write_json(work / "worker.json", {"pairs": near + far})
    meta = {
        "nodes": n,
        "edges": len(edges),
        "isa_edges": sum(1 for e in edges if e[2] == "isa"),
        "max_depth": int(depth.max()),
        "mean_depth": float(depth.mean()),
        "second_parents": sum(1 for p in parents if len(p) > 1),
        "polysemous_words": sum(1 for c in word_map.values() if len(c) > 1),
        "pairs": near + far,
        "parents": [[node(p) for p in ps] for ps in parents],
        "edge_list": [[node(a), node(b), rel] for a, b, rel in edges],
        "word_map": {w: [node(i) for i in c] for w, c in word_map.items()},
        "freqs": freqs,
    }
    return meta


GENERATORS = {
    "zipf-wordsim": make_zipf,
    "topic-concepts": make_topic,
    "taxonomy-scores": make_taxonomy,
}

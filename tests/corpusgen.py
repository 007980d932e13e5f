"""Deterministic synthetic corpora for the end-to-end and performance checks.

The narrative generator writes topic-coherent sentences covering all words of
the 30-pair noun benchmark, so ranking has co-occurrence signal to work with;
the flat generator just produces a long Zipf-distributed token stream; the
thesaurus-scale generator gives the cells of a word-by-category matrix with
as many categories and words as a real thesaurus has.
"""

import numpy as np

TOPICS = {
    "vehicles": "car automobile journey voyage road drive wheel travel trip engine".split(),
    "gems": "gem jewel stone ring gold silver shine precious crown treasure".split(),
    "youth": "boy lad child young school friend game smile laugh play".split(),
    "coastline": "coast shore hill sea wave sand water beach cliff tide".split(),
    "institution": "asylum madhouse patient doctor ward nurse hospital cell".split(),
    "magic": "magician wizard oracle spell trick magic stage glass mirror illusion".split(),
    "time": "midday noon morning evening clock hour minute sun shadow".split(),
    "kitchen": "furnace stove food fruit bread oven fire heat cook meal".split(),
    "birds": "bird cock crane rooster feather nest wing fly egg flock".split(),
    "tools": "tool implement hammer blade handle iron wood craft workshop".split(),
    "cloister": "brother monk slave abbot prayer temple robe order faith bell".split(),
    "woods": "cemetery woodland forest graveyard tree grave moss path dark fern".split(),
    "music": "chord string note song tune melody harp sound rhythm".split(),
}

FILLER = "the a of and to in on with for at near under while then".split()


def write_topic_corpus(path, n_tokens: int, seed: int = 1234) -> int:
    """Write one document per line; returns the number of tokens written."""
    rng = np.random.default_rng(seed)
    topic_names = sorted(TOPICS)
    topic_words = {name: np.array(TOPICS[name]) for name in topic_names}
    filler = np.array(FILLER)
    written = 0
    with open(path, "w", encoding="utf-8") as out:
        # one seed sentence per topic guarantees full vocabulary coverage
        for name in topic_names:
            sentence = " ".join(TOPICS[name])
            out.write(sentence + "\n")
            written += len(TOPICS[name])
        while written < n_tokens:
            words = []
            for _ in range(12):  # sentences per document
                topic = topic_words[topic_names[rng.integers(len(topic_names))]]
                n_topic = int(rng.integers(6, 11))
                n_fill = int(rng.integers(3, 6))
                picked = list(topic[rng.integers(0, len(topic), n_topic)]) + list(
                    filler[rng.integers(0, len(filler), n_fill)]
                )
                rng.shuffle(picked)
                words.extend(picked)
            out.write(" ".join(words) + "\n")
            written += len(words)
    return written


def flat_token_stream(n_tokens: int, vocab_size: int, seed: int = 99, doc_len: int = 1000):
    """Yield a Zipf-distributed token stream with a boundary every doc_len tokens."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    probs = 1.0 / ranks
    probs /= probs.sum()
    vocab = np.array([f"w{i}" for i in range(vocab_size)])
    chunk = 50_000  # keeps the generator's own footprint flat
    produced = 0
    while produced < n_tokens:
        take = min(chunk, n_tokens - produced)
        ids = rng.choice(vocab_size, size=take, p=probs)
        for i, token in enumerate(vocab[ids].tolist()):
            position = produced + i
            if position and position % doc_len == 0:
                yield None
            yield token
        produced += take


def flat_token_list(n_tokens: int, vocab_size: int, seed: int = 99, doc_len: int = 1000):
    return list(flat_token_stream(n_tokens, vocab_size, seed, doc_len))


def thesaurus_cells(n_categories: int, words_per_category: int, vocab_size: int, seed: int = 7):
    """Cells of a word-by-category matrix for ``CooccurrenceCounts.from_ids``.

    Each category lists ``words_per_category`` distinct words drawn from a
    ``vocab_size`` vocabulary, each with a count of 1 to 8; a category's
    words double as its thesaurus entry.  Returns (category names,
    vocabulary, category ids, word ids, counts).
    """
    rng = np.random.default_rng(seed)
    categories = [f"c{i:05d}" for i in range(n_categories)]
    vocabulary = [f"w{j:06d}" for j in range(vocab_size)]
    rows = np.repeat(np.arange(n_categories), words_per_category)
    cols = np.concatenate(
        [rng.choice(vocab_size, words_per_category, replace=False) for _ in range(n_categories)]
    )
    return categories, vocabulary, rows, cols, rng.integers(1, 9, rows.size)

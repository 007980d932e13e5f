"""Concept-level distance from a word-by-category co-occurrence matrix.

Thesaurus categories act as very coarse word senses.  A base matrix counts,
for every word, its windowed co-occurrence with any word listed under each
category (an ambiguous neighbor credits all of its categories).  A second,
disambiguating pass re-attributes every co-occurrence event to the single
best-supported category, yielding the bootstrapped matrix.  Either matrix is
held as :class:`CooccurrenceCounts` with categories as targets and words as
features, so a concept's distributional profile (its column of the matrix)
is built by the word-level profile code and compared with the same measures.

The cross-lingual variant replaces category membership with candidate senses
reached through a bilingual lexicon: source-language words are profiled
against target-language categories without any parallel or sense-annotated
data.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Union

import numpy as np

from .assoc import SoAKind
from .corpus import (
    _KEY_BITS,
    _KEY_MASK,
    CooccurrenceCounts,
    CorpusConfig,
    _build_counts,
    _cell_lines,
    _collect_cells,
    _FirstSeenIds,
    _id_chunks,
    _row_pointers,
    _rows,
    _sort_ranks,
    _tally,
    _token_pieces,
    _window_pairs,
    config_fields,
    read_records,
    read_tagged_tsv,
    write_tagged_tsv,
)
from .errors import (
    ConfigurationError,
    EmptyProfileError,
    MissingWordError,
    ParseError,
    StalenessError,
    ValidationError,
)
from .measures import (
    DEFAULT_CONFIG,
    MeasureConfig,
    MeasureId,
    is_symmetric,
    required_soa,
    score,
    score_rows,
)
from .profiles import DistributionalProfile, build_profile, cell_strengths


@dataclass(frozen=True)
class Category:
    label: str
    words: frozenset


@dataclass
class Thesaurus:
    """Coarse concept inventory: categories of near-synonymous words."""

    categories: dict[str, Category]
    index: dict[str, frozenset] = field(init=False)

    def __post_init__(self):
        if not self.categories:
            raise ConfigurationError("thesaurus has no categories")
        index: dict[str, set] = {}
        for cat_id, category in self.categories.items():
            if not category.words:
                raise ValidationError(f"category {cat_id!r} has an empty word set")
            for word in category.words:
                index.setdefault(word, set()).add(cat_id)
        self.index = {w: frozenset(cats) for w, cats in index.items()}

    @property
    def category_count(self) -> int:
        return len(self.categories)

    def senses(self, word: str) -> frozenset:
        return self.index.get(word, frozenset())


def load_thesaurus(path, lowercase: bool = True) -> Thesaurus:
    """Read ``category_id<TAB>label<TAB>word word ...`` lines."""
    categories: dict[str, Category] = {}
    for line_number, (cat_id, label, words) in read_records(path, "id<TAB>label<TAB>words"):
        if not cat_id:
            raise ParseError(str(path), line_number, "empty category id")
        if cat_id in categories:
            raise ParseError(str(path), line_number, f"duplicate category {cat_id!r}")
        tokens = words.split()
        if not tokens:
            raise ParseError(str(path), line_number, f"category {cat_id!r} has no words")
        if lowercase:
            tokens = [w.lower() for w in tokens]
        categories[cat_id] = Category(label=label, words=frozenset(tokens))
    if not categories:
        raise ConfigurationError(f"{path}: thesaurus file is empty")
    return Thesaurus(categories)


@dataclass
class BilingualLexicon:
    """Source-language word to the set of its target-language translations."""

    translations: dict[str, frozenset]

    def __post_init__(self):
        if not self.translations:
            raise ConfigurationError("bilingual lexicon is empty")
        for word, targets in self.translations.items():
            if not targets:
                raise ValidationError(f"lexicon entry {word!r} has no translations")


def load_lexicon(path, lowercase: bool = True) -> BilingualLexicon:
    """Read ``source_word<TAB>target_word`` lines, merging repeated sources."""
    table: dict[str, set] = {}
    for line_number, (src, tgt) in read_records(path, "source<TAB>target"):
        if not src or not tgt:
            side = "target" if src else "source"
            raise ParseError(str(path), line_number, f"empty {side} word")
        if lowercase:
            src, tgt = src.lower(), tgt.lower()
        table.setdefault(src, set()).add(tgt)
    if not table:
        raise ConfigurationError(f"{path}: lexicon file is empty")
    return BilingualLexicon({w: frozenset(t) for w, t in table.items()})


class WCCM:
    """Sparse word-by-category co-occurrence matrix.

    ``matrix`` holds the cells transposed, category by word.  Cells are event
    counts; zero cells are not stored.  ``cells`` is a ``{word: {category:
    count}}`` mapping or an already transposed matrix.
    """

    def __init__(
        self,
        cells: Union[Mapping[str, Mapping[str, float]], CooccurrenceCounts],
        kind: str = "base",
        language_mode: str = "monolingual",
        config: Optional[CorpusConfig] = None,
        source_fingerprint: Optional[str] = None,
    ):
        if kind not in ("base", "bootstrapped"):
            raise ValidationError(f"unknown matrix kind {kind!r}")
        if language_mode not in ("monolingual", "crosslingual"):
            raise ValidationError(f"unknown language mode {language_mode!r}")
        if not isinstance(cells, CooccurrenceCounts):
            cells = _event_matrix(
                {(cat, word): n for word, row in cells.items() for cat, n in row.items()}, "WCCM"
            )
        self.matrix = cells
        self.kind = kind
        self.language_mode = language_mode
        self.config = config
        self.source_fingerprint = source_fingerprint

    def categories(self) -> list[str]:
        """The categories with a stored cell, sorted, as the matrix holds its targets."""
        return list(self.matrix.targets)


def _event_matrix(pairs: dict, source: str) -> CooccurrenceCounts:
    """Counts from ``{(category, word): count}``; each count must be a non-negative integer."""
    items = list(pairs.items())
    values = np.fromiter(pairs.values(), dtype=np.float64, count=len(pairs))
    _refuse_bad_events(values, source, lambda i: (items[i][0][1], items[i][0][0], items[i][1]))
    return CooccurrenceCounts.from_pairs(pairs)


def _refuse_bad_events(values: np.ndarray, source: str, cell) -> None:
    """Refuse a value that is not a non-negative integer count.

    ``cell(i)`` gives (word, category, value) of the i-th value for the message.
    """
    bad = np.flatnonzero(~((values >= 0) & (values < 2**63) & (values == np.floor(values))))
    if bad.size:
        word, cat, value = cell(bad[0])
        raise ValidationError(
            f"{source}: cell ({word!r}, {cat!r}) = {value!r} is not a non-negative integer count"
        )


class _SenseFan:
    """The categories ``index`` gives each of ``words``, as CSR rows of ids into the sorted ``categories``."""

    def __init__(self, index: Mapping[str, frozenset], words: list[str]):
        self.categories = sorted(set().union(*index.values()))
        cat_id = {c: i for i, c in enumerate(self.categories)}
        senses = [sorted(cat_id[c] for c in index.get(w, ())) for w in words]
        self.counts = np.array([len(s) for s in senses], dtype=np.int64)
        self._ptr = np.append(0, np.cumsum(self.counts))
        self._ids = np.fromiter(chain.from_iterable(senses), dtype=np.int64)

    def fan_out(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(item, category id) for each item of ``words`` (places in the word list) and category.

        Items ascend, and so do each item's categories.
        """
        cats, fan = _rows(self._ptr, self._ids, words)
        return np.repeat(np.arange(words.size), fan), cats


def build_base_wccm(
    counts: CooccurrenceCounts,
    thesaurus: Thesaurus,
    language_mode: str = "monolingual",
    sense_index: Optional[Mapping[str, frozenset]] = None,
) -> WCCM:
    """First-pass matrix: each neighbor credits every category it is listed under.

    It is the sparse product of the counts with the word-by-category
    incidence matrix.
    """
    if counts.feature_kind != "word":
        raise ConfigurationError("concept matrices need relation-free word counts")
    index = thesaurus.index if sense_index is None else sense_index
    if not index:
        raise ConfigurationError("no word has any candidate category")
    senses = _SenseFan(index, counts.features)
    # cell (word, feature, n) adds n to (category, word) for every sense of feature
    rows, cols, data = counts.coo()
    cell, category = senses.fan_out(cols)
    matrix = CooccurrenceCounts.from_ids(
        senses.categories, counts.targets, category, rows[cell], data[cell]
    )
    return WCCM(matrix, kind="base", language_mode=language_mode, config=counts.config)


def candidate_senses(
    word: str, lexicon: BilingualLexicon, thesaurus: Thesaurus
) -> frozenset:
    """Target-language categories reachable from a source word via its translations."""
    translations = lexicon.translations.get(word)
    if translations is None:
        raise MissingWordError(f"{word!r} is not in the bilingual lexicon")
    senses: set = set()
    for translation in translations:
        senses.update(thesaurus.senses(translation))
    return frozenset(senses)


def crosslingual_sense_index(
    lexicon: BilingualLexicon, thesaurus: Thesaurus
) -> dict[str, frozenset]:
    """Candidate-sense sets for every lexicon word with at least one listed translation."""
    index: dict[str, frozenset] = {}
    for word in lexicon.translations:
        senses = candidate_senses(word, lexicon, thesaurus)
        if senses:
            index[word] = senses
    return index


def build_crosslingual_wccm(
    counts: CooccurrenceCounts,
    lexicon: BilingualLexicon,
    thesaurus: Thesaurus,
) -> WCCM:
    """Base matrix over source-language words and target-language categories."""
    index = crosslingual_sense_index(lexicon, thesaurus)
    if not index:
        raise ConfigurationError("no lexicon word reaches any thesaurus category")
    return build_base_wccm(
        counts, thesaurus, language_mode="crosslingual", sense_index=index
    )


#: Token positions the bootstrap pass takes from the stream at a time.
_BOOTSTRAP_CHUNK = 1 << 12


def bootstrap_wccm(
    tokens: Iterable,
    base: WCCM,
    senses: Union[Thesaurus, Mapping[str, frozenset]],
    config: CorpusConfig = CorpusConfig(),
    *,
    log_base: float = 2.0,
    iterations: int = 1,
) -> WCCM:
    """Second corpus pass: attribute each co-occurrence event to one category.

    For every occurrence of a word with several candidate categories, the
    category scoring highest by summed context association (positive-only
    PMI from the reference matrix, added from the farthest left neighbor to
    the farthest right) wins; ties go to the smallest category id.
    Monosemous occurrences attribute directly.  An occurrence gives its
    category one event per neighbor; words without candidates give none.

    ``tokens`` are read as :func:`count_cooccurrences` reads them, in bounded
    batches or (from the command line) a document at a time, as word id
    arrays; the pass walks chunks of ``_BOOTSTRAP_CHUNK`` positions.
    """
    if iterations < 1:
        raise ConfigurationError("iterations must be >= 1")
    if base.config is not None and base.config != config:
        raise StalenessError("base matrix was built with a different corpus configuration")
    index = senses.index if isinstance(senses, Thesaurus) else senses
    if not index:
        raise ConfigurationError("no word has any candidate category")
    radius = config.window_radius
    fan = _SenseFan(index, list(index))
    words = _FirstSeenIds({w: i for i, w in enumerate(index)})  # sensed words first
    # with 2 * radius positions carried, each occurrence is decided in the one
    # chunk where its whole window lies between lo and hi
    chunks = _id_chunks(_token_pieces(tokens, words, config), 2 * radius, _BOOTSTRAP_CHUNK)
    if iterations > 1:
        chunks = [(ids.copy(), segs.copy(), carried, last) for ids, segs, carried, last in chunks]

    reference = base
    for _ in range(iterations):
        pmi = _positive_pmi(reference.matrix, fan.categories, words, log_base)
        keys, counts = _tally(_chosen_events(chunks, fan, pmi, radius))
        matrix = CooccurrenceCounts.from_ids(
            fan.categories, list(words), keys >> _KEY_BITS, keys & _KEY_MASK, counts
        )
        reference = WCCM(
            matrix,
            kind="bootstrapped",
            language_mode=base.language_mode,
            config=base.config if base.config is not None else config,
            source_fingerprint=base.source_fingerprint,
        )
    return reference


def _chosen_events(chunks: Iterable, fan: _SenseFan, pmi, radius: int) -> Iterator[np.ndarray]:
    """(category id, word id) keys of the events of each occurrence's chosen category, by chunk.

    ``chunks`` come from :func:`~distsem.corpus._id_chunks`, with ``2 * radius``
    positions carried.
    """
    for ids, segs, carried, last in chunks:
        lo = max(carried - radius, 0)
        hi = ids.size if last else ids.size - radius
        chosen = _choose(ids, segs, lo, hi, fan, pmi, radius)
        for left, right, same in _window_pairs(segs, 0, radius):
            for rows, cols in ((chosen[left], ids[right]), (chosen[right], ids[left])):
                kept = same & (rows >= 0)
                yield (rows[kept] << _KEY_BITS) | cols[kept]


def _positive_pmi(
    matrix: CooccurrenceCounts, categories: list[str], words: _FirstSeenIds, log_base: float
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Lookup of the positive PMI of (category id, word id) keys, 0 where the reference has none.

    Cells of a category outside ``categories`` are left out.  Within
    ``_TABLE_BYTES`` the values sit in a dense category-by-word table whose
    trailing column of zeros serves words first seen later; above it, the
    keys are searched in sorted order, ended by a sentinel no key matches.
    """
    rows, cols, _ = matrix.coo()
    values = cell_strengths(matrix, SoAKind.PMI, log_base)
    cat_id = {c: i for i, c in enumerate(categories)}
    cats = np.array([cat_id.get(c, -1) for c in matrix.targets], dtype=np.int64)[rows]
    keep = (values > 0.0) & (cats >= 0)
    cats, ids, values = cats[keep], words.ids(matrix.features)[cols[keep]], values[keep]
    width = len(words)
    if len(categories) * (width + 1) * 8 <= _TABLE_BYTES:
        table = np.zeros((len(categories), width + 1))
        table[cats, ids] = values
        return lambda cats, ids: table[cats, np.minimum(ids, width)]
    keys = (cats << _KEY_BITS) | ids
    order = np.argsort(keys)
    keys, values = np.append(keys[order], np.iinfo(np.int64).max), np.append(values[order], 0.0)

    def search(cats: np.ndarray, ids: np.ndarray) -> np.ndarray:
        want = (cats << _KEY_BITS) | ids
        found = np.searchsorted(keys, want)
        return np.where(keys[found] == want, values[found], 0.0)

    return search


def _choose(ids, segs, lo: int, hi: int, fan: _SenseFan, pmi, radius: int) -> np.ndarray:
    """Category id of each occurrence at positions ``lo`` to ``hi`` of a chunk, else -1.

    A candidate's score adds the ``pmi`` values (see :func:`_positive_pmi`)
    of the neighbors at offsets -radius to -1, then 1 to radius.
    """
    chosen = np.full(ids.size, -1, dtype=np.int64)
    at = lo + np.flatnonzero(ids[lo:hi] < fan.counts.size)
    n = fan.counts[ids[at]]
    at, n = at[n > 0], n[n > 0]
    if not at.size:
        return chosen
    item, cats = fan.fan_out(ids[at])
    centre = at[item]
    totals = np.zeros(item.size)
    reach = min(radius, ids.size - 1)  # no neighbor lies farther in the chunk
    for offset in chain(range(-reach, 0), range(1, reach + 1)):
        near = np.clip(centre + offset, 0, ids.size - 1)
        hit = (near == centre + offset) & (segs[near] == segs[centre])
        totals += np.where(hit, pmi(cats, ids[near]), 0.0)
    first = np.cumsum(n) - n
    best = np.repeat(np.maximum.reduceat(totals, first), n)
    # an occurrence's candidates ascend, so the least rank among its best is the tie winner
    ranks = np.where(totals == best, np.arange(totals.size), totals.size)
    chosen[at] = cats[np.minimum.reduceat(ranks, first)]
    return chosen


def concept_profile(
    wccm: WCCM, category: str, kind: SoAKind, log_base: float = 2.0
) -> DistributionalProfile:
    """Distributional profile of one concept over its co-occurring words."""
    if not wccm.matrix.has_target(category):
        raise EmptyProfileError(f"category {category!r} has an empty column")
    return build_profile(wccm.matrix, category, kind, log_base=log_base)


def concept_distance(
    wccm: WCCM,
    c1: str,
    c2: str,
    measure: MeasureId,
    config: MeasureConfig = DEFAULT_CONFIG,
) -> float:
    """Any catalogued measure applied to the two concept profiles."""
    kind = required_soa(measure, config)
    dp1 = concept_profile(wccm, c1, kind, config.log_base)
    dp2 = concept_profile(wccm, c2, kind, config.log_base)
    return score(measure, dp1, dp2, config)


#: Bytes the bootstrap's dense table of positive PMI may take, categories
#: times words (plus one) times 8; a larger reference is searched instead.
_TABLE_BYTES = 1 << 26
#: Memory that scoring one block of aligned concept profiles may take, in
#: bytes.  Bigger blocks take fewer calls but pad sparse profiles with more
#: zeros.
_BLOCK_BYTES = 1 << 20
#: Float64 cells (rows times columns) of one block.  The block and the
#: kernel's temporaries are at most eight arrays of this size.
_BLOCK_CELLS = _BLOCK_BYTES // (8 * 8)


def concept_distance_matrix(
    wccm: WCCM,
    measure: MeasureId,
    config: MeasureConfig = DEFAULT_CONFIG,
) -> tuple[list[str], np.ndarray]:
    """All pairwise concept scores; storage is category-by-category only.

    Every cell equals :func:`concept_distance`'s score, bit for bit.  Each
    concept is scored against blocks of concepts at once, aligned on their
    union support; a block spans at most ``_BLOCK_CELLS`` cells, so the
    matrix is never held dense.  A symmetric measure scores one triangle and
    mirrors it.
    """
    cats = wccm.categories()
    rows, cols, _ = wccm.matrix.coo()
    values = cell_strengths(wccm.matrix, required_soa(measure, config), config.log_base)
    stored = values != 0.0  # the cells a profile stores
    rows, cols, values = rows[stored], cols[stored], values[stored]
    indptr = _row_pointers(rows, len(cats))
    sizes = np.diff(indptr)
    if not sizes.all():
        raise EmptyProfileError(f"profile for {cats[int(np.argmin(sizes))]!r} is empty")
    features = len(wccm.matrix.features)
    matrix = np.zeros((len(cats), len(cats)), dtype=np.float64)
    symmetric = is_symmetric(measure)
    for i in range(len(cats)):
        own = slice(indptr[i], indptr[i + 1])
        start = i if symmetric else 0
        while start < len(cats):
            # a block's union support is at most every feature, and at most all its cells
            width = np.minimum(features, sizes[i] + np.cumsum(sizes[start:]))
            cells = width * np.arange(1, width.size + 1)
            stop = start + max(1, int(np.searchsorted(cells, _BLOCK_CELLS, side="right")))
            block = slice(indptr[start], indptr[stop])
            held = np.zeros(features, dtype=bool)
            held[cols[own]] = held[cols[block]] = True
            at = np.cumsum(held) - 1  # a held feature's column in the aligned rows
            p = np.zeros((1, at[-1] + 1))
            p[0, at[cols[own]]] = values[own]
            q = np.zeros((stop - start, p.shape[1]))
            q[rows[block] - start, at[cols[block]]] = values[block]
            matrix[i, start:stop] = score_rows(measure, p, q, config)
            if symmetric:
                matrix[start:stop, i] = matrix[i, start:stop]
            start = stop
    return cats, matrix


def save_wccm(wccm: WCCM, path, extra_header: list[str] = ()) -> None:
    """Write ``word<TAB>category<TAB>count`` lines under a kind header.

    Counts are written as floats (``3.0``), sorted by word, then category, whatever order the matrix holds.
    """
    fields = {
        "kind": wccm.kind,
        "language_mode": wccm.language_mode,
        **config_fields(wccm.config),
    }
    if wccm.source_fingerprint:
        fields["source"] = wccm.source_fingerprint
    rows, cols, data = wccm.matrix.coo()
    order = np.lexsort((_sort_ranks(wccm.categories())[0][rows], _sort_ranks(wccm.matrix.features)[0][cols]))
    body = _cell_lines(wccm.matrix.features, wccm.categories(), cols[order], rows[order], data[order], ".0\n")
    write_tagged_tsv(path, "wccm", fields, body, extra_header)


#: The one shape of a matrix file's lines after its header, and what a line of another is refused as.
_CELLS = [
    (None, (("word", str), ("category", str), ("count", float)), "expected word<TAB>category<TAB>count")
]


def load_wccm(path) -> WCCM:
    """Read a matrix written by :func:`save_wccm`.

    Cells must be non-negative integers, each given once.
    """
    fields, config, blocks = read_tagged_tsv(path, "wccm", _CELLS)
    cells, _ = _collect_cells(blocks, target=1, feature=0)
    categories, words, rows, cols, values, _ = cells
    _refuse_bad_events(
        values, str(path), lambda i: (words[cols[i]], categories[rows[i]], float(values[i]))
    )
    return WCCM(
        _build_counts(path, cells),
        kind=fields.get("kind", "base"),
        language_mode=fields.get("language_mode", "monolingual"),
        config=config,
        source_fingerprint=fields.get("source"),
    )

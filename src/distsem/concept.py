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

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Union

import numpy as np

from .assoc import ContingencyTable, SoAKind, contingency
from .corpus import (
    CooccurrenceCounts,
    CorpusConfig,
    _build_counts,
    _collect_cells,
    config_fields,
    iter_occurrence_contexts,
    open_text,
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
from .measures import MeasureConfig, MeasureId, DEFAULT_CONFIG, is_symmetric, required_soa, score
from .profiles import DistributionalProfile, build_profile


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
    with open_text(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(str(path), line_number, "expected id<TAB>label<TAB>words")
            cat_id, label, words = parts
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
    with open_text(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(str(path), line_number, "expected source<TAB>target")
            src, tgt = parts
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

    @property
    def cells(self) -> dict[str, dict[str, float]]:
        cells: dict[str, dict[str, float]] = {}
        for cat, word, n in self.matrix.items():
            cells.setdefault(word, {})[cat] = float(n)
        return cells

    @property
    def row_totals(self) -> dict[str, float]:
        return {w: float(self.matrix.feature_total(w)) for w in self.matrix.features}

    @property
    def col_totals(self) -> dict[str, float]:
        return {c: float(self.matrix.target_total(c)) for c in self.matrix.targets}

    @property
    def grand_total(self) -> float:
        return float(self.matrix.total_pairs)

    def cell(self, word: str, category: str) -> float:
        return float(self.matrix.pair_count(category, word))

    def has_word(self, word: str) -> bool:
        return self.matrix.feature_total(word) > 0

    def column(self, category: str) -> dict[str, float]:
        if not self.matrix.has_target(category):
            return {}
        return {word: float(n) for word, n in self.matrix.row_items(category)}

    def words(self) -> list[str]:
        return sorted(self.matrix.features)

    def categories(self) -> list[str]:
        return sorted(self.matrix.targets)


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
    categories = sorted(set().union(*index.values()))
    cat_id = {c: i for i, c in enumerate(categories)}
    # incidence in compressed sparse row form, one row per counts feature
    senses = [sorted(cat_id[c] for c in index.get(f, ())) for f in counts.features]
    n_senses = np.array([len(s) for s in senses], dtype=np.int64)
    first_sense = np.cumsum(n_senses) - n_senses
    sense_ids = np.fromiter(chain.from_iterable(senses), dtype=np.int64)
    # cell (word, feature, n) adds n to (category, word) for every sense of feature
    rows, cols, data = counts.coo()
    fan = n_senses[cols]
    cell_of = np.repeat(np.arange(cols.size), fan)
    nth = np.arange(cell_of.size) - np.repeat(np.cumsum(fan) - fan, fan)
    matrix = CooccurrenceCounts.from_ids(
        categories,
        counts.targets,
        sense_ids[first_sense[cols[cell_of]] + nth],
        rows[cell_of],
        data[cell_of],
    )
    return WCCM(matrix, kind="base", language_mode=language_mode, config=counts.config)


def wccm_contingency(wccm: WCCM, word: str, category: str) -> ContingencyTable:
    """Collapse the matrix into a 2x2 table for one (word, category) cell."""
    if not wccm.has_word(word):
        raise MissingWordError(f"no matrix row for {word!r}")
    # the matrix is stored category by word: swap the two margins back
    t = contingency(wccm.matrix, category, word)
    return ContingencyTable(t.n_wc, t.n_nw_c, t.n_w_nc, t.n_nw_nc)


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
    category scoring highest by summed context association (positive-only,
    from the reference matrix) wins; ties go to the smallest category id.
    Monosemous occurrences attribute directly.  Words without candidate
    categories contribute no events.
    """
    if iterations < 1:
        raise ConfigurationError("iterations must be >= 1")
    if base.config is not None and base.config != config:
        raise StalenessError("base matrix was built with a different corpus configuration")
    index = senses.index if isinstance(senses, Thesaurus) else senses
    if not index:
        raise ConfigurationError("no word has any candidate category")
    if iterations > 1 and not isinstance(tokens, (list, tuple)):
        tokens = list(tokens)

    reference = base
    for _ in range(iterations):
        cells: dict[str, dict[str, float]] = {}
        # each category's positive PMI with its words; anything else scores 0
        positive: dict[str, dict[str, float]] = {}
        for cat in reference.matrix.targets:
            try:
                profile = build_profile(reference.matrix, cat, SoAKind.PMI, log_base=log_base)
            except EmptyProfileError:
                continue
            positive[cat] = {
                w: v for w, v in zip(profile.features, profile.values.tolist()) if v > 0.0
            }

        for occurrence, context in iter_occurrence_contexts(tokens, config):
            cats = index.get(occurrence)
            if not cats or not context:
                continue
            if len(cats) == 1:
                chosen = next(iter(cats))
            else:
                chosen = None
                best = -1.0
                for cat in sorted(cats):
                    row = positive.get(cat, {})
                    total = 0.0
                    for ctx_word in context:
                        total += row.get(ctx_word, 0.0)
                    if total > best:
                        best = total
                        chosen = cat
            for ctx_word in context:
                row = cells.setdefault(ctx_word, {})
                row[chosen] = row.get(chosen, 0.0) + 1.0
        reference = WCCM(
            cells,
            kind="bootstrapped",
            language_mode=base.language_mode,
            config=base.config if base.config is not None else config,
            source_fingerprint=base.source_fingerprint,
        )
    return reference


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


def concept_distance_matrix(
    wccm: WCCM,
    measure: MeasureId,
    config: MeasureConfig = DEFAULT_CONFIG,
) -> tuple[list[str], np.ndarray]:
    """All pairwise concept scores; storage is category-by-category only.

    A symmetric measure scores one triangle and mirrors it.
    """
    cats = wccm.categories()
    kind = required_soa(measure, config)
    profiles = [concept_profile(wccm, c, kind, config.log_base) for c in cats]
    matrix = np.zeros((len(cats), len(cats)), dtype=np.float64)
    symmetric = is_symmetric(measure)
    for i, dp1 in enumerate(profiles):
        for j in range(i if symmetric else 0, len(profiles)):
            matrix[i, j] = score(measure, dp1, profiles[j], config)
            if symmetric:
                matrix[j, i] = matrix[i, j]
    return cats, matrix


def save_wccm(wccm: WCCM, path, extra_header: list[str] = ()) -> None:
    """Write ``word<TAB>category<TAB>count`` lines under a kind header.

    Counts are written as floats (``3.0``), sorted by word, then category.
    """
    fields = {
        "kind": wccm.kind,
        "language_mode": wccm.language_mode,
        **config_fields(wccm.config),
    }
    if wccm.source_fingerprint:
        fields["source"] = wccm.source_fingerprint
    cells = sorted((word, cat, n) for cat, word, n in wccm.matrix.items())
    body = (f"{word}\t{cat}\t{float(n)!r}\n" for word, cat, n in cells)
    write_tagged_tsv(path, "wccm", fields, body, extra_header)


def load_wccm(path) -> WCCM:
    """Read a matrix written by :func:`save_wccm`.

    Cells must be non-negative integers, each given once.
    """
    fields, config, blocks = read_tagged_tsv(
        path, "wccm", {"word": str, "category": str, "count": float}
    )
    cells = _collect_cells(blocks, target=1, feature=0)
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

import itertools
import tracemalloc

import numpy as np
import pytest

from distsem import (
    BilingualLexicon,
    CooccurrenceCounts,
    CorpusConfig,
    MeasureConfig,
    MeasureId,
    SoAKind,
    Thesaurus,
    bootstrap_wccm,
    build_base_wccm,
    build_crosslingual_wccm,
    candidate_senses,
    concept_distance,
    concept_distance_matrix,
    concept_profile,
    count_cooccurrences,
    load_lexicon,
    load_thesaurus,
    load_wccm,
    save_wccm,
    tokenize_documents,
)
from distsem.assoc import contingency
from distsem.concept import (
    _BLOCK_BYTES,
    _TABLE_BYTES,
    Category,
    WCCM,
    _choose,
    _positive_pmi,
    _SenseFan,
    crosslingual_sense_index,
)
from distsem.corpus import BOUNDARY, _FirstSeenIds
from distsem.errors import (
    ConfigurationError,
    DistSemError,
    EmptyIntersectionWarning,
    EmptyProfileError,
    MissingWordError,
    StalenessError,
    UndefinedMeasureError,
    ValidationError,
)
from distsem.measures import CrmKind, CrmPenalty

from corpusgen import thesaurus_cells
from oracles import (
    bootstrap_cells,
    contingency_from_pairs,
    matrix_cells,
    occurrence_contexts,
    soa_value,
)


@pytest.fixture(scope="module")
def base_wccm(toy_counts, toy_thesaurus):
    return build_base_wccm(toy_counts, toy_thesaurus)


@pytest.fixture(scope="module")
def toy_tokens(toy_documents, toy_config):
    return list(tokenize_documents(toy_documents, toy_config))


@pytest.fixture(scope="module")
def boot_wccm(toy_tokens, base_wccm, toy_thesaurus, toy_config):
    return bootstrap_wccm(toy_tokens, base_wccm, toy_thesaurus, toy_config)


def matrix_configs(measure):
    """The default settings, a log base below 1 (negative logs) and what ``measure`` reads."""
    configs = [MeasureConfig(), MeasureConfig(log_base=0.5)]
    if measure is MeasureId.CRM:
        configs += [MeasureConfig(crm_kind=k, crm_penalty=p) for k in CrmKind for p in CrmPenalty]
    if measure in (MeasureId.DIF, MeasureId.DIV, MeasureId.PDT_AVG):
        configs += [MeasureConfig(weight_scheme=w) for w in ("avg", "max")]
    return configs


def segments_of(tokens):
    """The runs of a token stream between boundary markers."""
    segments = [[]]
    for token in tokens:
        if token is BOUNDARY:
            segments.append([])
        else:
            segments[-1].append(token)
    return segments


def brute_force_wccm(counts, thesaurus):
    cells = {}
    for target, feature, n in counts.items():
        for cat_id, category in thesaurus.categories.items():
            if feature in category.words:
                cells.setdefault(target, {}).setdefault(cat_id, 0.0)
                cells[target][cat_id] += n
    return cells


class TestThesaurus:
    def test_load(self, toy_thesaurus):
        assert toy_thesaurus.category_count == 3
        assert toy_thesaurus.senses("jam") == frozenset({"music", "food"})
        assert toy_thesaurus.senses("cat") == frozenset({"animals"})
        assert toy_thesaurus.senses("xyzzy") == frozenset()

    def test_empty_category_rejected(self):
        with pytest.raises(ValidationError):
            Thesaurus({"c": Category(label="C", words=frozenset())})

    def test_empty_thesaurus_rejected(self):
        with pytest.raises(ConfigurationError):
            Thesaurus({})


class TestBaseWccm:
    def test_unique_word_single_cell(self, toy_thesaurus):
        counts = count_cooccurrences(["piano", "cat"], CorpusConfig(window_radius=1))
        wccm = build_base_wccm(counts, toy_thesaurus)
        assert wccm.matrix.pair_count("animals", "piano") == 1
        assert wccm.matrix.pair_count("music", "cat") == 1

    def test_ambiguous_neighbor_credits_both(self, toy_thesaurus):
        counts = count_cooccurrences(["bird", "jam"], CorpusConfig(window_radius=1))
        wccm = build_base_wccm(counts, toy_thesaurus)
        assert wccm.matrix.pair_count("music", "bird") == 1
        assert wccm.matrix.pair_count("food", "bird") == 1

    def test_toy_matrix_matches_brute_force(self, base_wccm, toy_counts, toy_thesaurus):
        assert matrix_cells(base_wccm.matrix) == brute_force_wccm(toy_counts, toy_thesaurus)

    def test_linearity_against_incidence_product(self, base_wccm, toy_counts, toy_thesaurus):
        words = toy_counts.targets
        cats = sorted(toy_thesaurus.categories)
        windex = {w: i for i, w in enumerate(words)}
        counts_matrix = np.zeros((len(words), len(words)))
        for t, f, n in toy_counts.items():
            counts_matrix[windex[t], windex[f]] = n
        incidence = np.zeros((len(words), len(cats)))
        for j, cat in enumerate(cats):
            for word in toy_thesaurus.categories[cat].words:
                if word in windex:
                    incidence[windex[word], j] = 1.0
        product = counts_matrix @ incidence
        for i, word in enumerate(words):
            for j, cat in enumerate(cats):
                assert base_wccm.matrix.pair_count(cat, word) == pytest.approx(product[i, j])

    def test_rejects_relation_counts(self, toy_thesaurus, fixtures_dir):
        from distsem import ingest_triples

        lines = (fixtures_dir / "toy.triples").read_text().splitlines()
        with pytest.raises(ConfigurationError):
            build_base_wccm(ingest_triples(lines), toy_thesaurus)


class TestWccmContingency:
    """The matrix is stored category by word: its (category, word) table has the margins swapped."""

    def test_single_cell_matrix(self):
        wccm = WCCM({"w": {"c": 7.0}})
        t = contingency(wccm.matrix, "c", "w")
        assert (t.n_wc, t.n_nw_c, t.n_w_nc, t.n_nw_nc) == (7.0, 0.0, 0.0, 0.0)

    def test_marginals_sum_to_grand_total(self, base_wccm):
        matrix = base_wccm.matrix
        assert sum(matrix.feature_total(w) for w in matrix.features) == matrix.total_pairs
        assert sum(matrix.target_total(c) for c in matrix.targets) == matrix.total_pairs

    def test_tables_match_oracle(self, base_wccm):
        pairs = {(w, c): n for c, w, n in base_wccm.matrix.items()}
        for word, cat in [("the", "music"), ("cheese", "food"), ("dog", "animals")]:
            got = contingency(base_wccm.matrix, cat, word)
            want = contingency_from_pairs(pairs, word, cat)
            assert (got.n_wc, got.n_nw_c, got.n_w_nc, got.n_nw_nc) == want

    def test_missing_row(self, base_wccm):
        assert base_wccm.matrix.feature_total("zebra") == 0
        assert base_wccm.matrix.pair_count("music", "zebra") == 0
        with pytest.raises(MissingWordError):
            contingency(base_wccm.matrix, "zebra", "music")


class TestBootstrap:
    def test_monosemous_column_equals_base(self, toy_tokens, base_wccm, toy_thesaurus, toy_config):
        boot = bootstrap_wccm(toy_tokens, base_wccm, toy_thesaurus, toy_config)
        # every member of this category is monosemous, so nothing to reattribute
        for word in sorted(base_wccm.matrix.features):
            assert boot.matrix.pair_count("animals", word) == (
                base_wccm.matrix.pair_count("animals", word)
            )

    def test_event_conservation(self, toy_tokens, base_wccm, toy_thesaurus, toy_config):
        boot = bootstrap_wccm(toy_tokens, base_wccm, toy_thesaurus, toy_config)
        events = 0
        for word, context in occurrence_contexts(segments_of(toy_tokens), toy_config.window_radius):
            if toy_thesaurus.senses(word):
                events += len(context)
        assert boot.matrix.total_pairs == events

    def test_grand_total_not_above_base(self, toy_tokens, base_wccm, toy_thesaurus, toy_config):
        boot = bootstrap_wccm(toy_tokens, base_wccm, toy_thesaurus, toy_config)
        assert boot.matrix.total_pairs <= base_wccm.matrix.total_pairs

    def test_ambiguous_occurrence_lands_in_argmax_category(
        self, toy_tokens, base_wccm, toy_thesaurus, toy_config
    ):
        boot = bootstrap_wccm(toy_tokens, base_wccm, toy_thesaurus, toy_config)
        # oracle: recompute the per-occurrence argmax with positive-only
        # association pulled straight from the base matrix
        pairs = {(w, c): n for c, w, n in base_wccm.matrix.items()}
        positive = {}
        for word, cat in pairs:
            value = soa_value(contingency_from_pairs(pairs, word, cat), "pmi")
            if value is not None and value > 0.0:
                positive.setdefault(cat, {})[word] = value
        expected = bootstrap_cells(
            segments_of(toy_tokens), toy_thesaurus.index, positive, toy_config.window_radius
        )
        assert matrix_cells(boot.matrix) == expected

    def test_ambiguous_word_context_decides(self, toy_thesaurus, toy_config):
        # strong food context around one jam occurrence
        docs = [
            "bread butter cheese jam apple soup",
            "bread butter cheese apple soup meal",
            "guitar piano melody band drum song",
        ]
        tokens = list(tokenize_documents(docs, toy_config))
        counts = count_cooccurrences(tokens, toy_config)
        base = build_base_wccm(counts, toy_thesaurus)
        boot = bootstrap_wccm(tokens, base, toy_thesaurus, toy_config)
        assert boot.matrix.pair_count("food", "cheese") > 0
        assert boot.matrix.pair_count("music", "cheese") == 0

    def test_config_mismatch_is_stale(self, toy_tokens, base_wccm, toy_thesaurus):
        other = CorpusConfig(window_radius=9)
        with pytest.raises(StalenessError):
            bootstrap_wccm(toy_tokens, base_wccm, toy_thesaurus, other)

    def test_kind_is_bootstrapped(self, toy_tokens, base_wccm, toy_thesaurus, toy_config):
        boot = bootstrap_wccm(toy_tokens, base_wccm, toy_thesaurus, toy_config)
        assert boot.kind == "bootstrapped"

    def test_lookup_stays_bounded(self):
        categories, vocabulary, rows, cols, counts = thesaurus_cells(1_000, 30, 12_000)
        reference = CooccurrenceCounts.from_ids(categories, vocabulary, rows, cols, counts)
        index = {}
        for row, col in zip(rows.tolist(), cols.tolist()):
            index.setdefault(vocabulary[col], set()).add(categories[row])
        fan = _SenseFan(index, list(index))
        words = _FirstSeenIds({w: i for i, w in enumerate(index)})
        dense = len(fan.categories) * len(index) * 8
        assert dense > _TABLE_BYTES  # a dense table would exceed the budget
        ids = np.random.default_rng(3).integers(0, len(index), 1 << 12)  # one chunk
        tracemalloc.start()
        try:
            pmi = _positive_pmi(reference, fan.categories, words, 2.0)
            chosen = _choose(ids, np.zeros_like(ids), 0, ids.size, fan, pmi, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense / 16
        assert (chosen >= 0).all()  # every position holds a word with candidates


class TestConceptProfiles:
    def test_single_cell_column(self):
        wccm = WCCM({"w": {"c": 5.0}})
        profile = concept_profile(wccm, "c", SoAKind.CP)
        assert profile.entries == {"w": 1.0}

    def test_cp_profile_sums_to_one(self, base_wccm):
        for cat in base_wccm.categories():
            profile = concept_profile(base_wccm, cat, SoAKind.CP)
            assert sum(profile.entries.values()) == pytest.approx(1.0, abs=1e-9)

    def test_cp_profile_matches_column_normalization(self, base_wccm):
        column = dict(base_wccm.matrix.row_items("music"))
        total = sum(column.values())
        profile = concept_profile(base_wccm, "music", SoAKind.CP)
        for word, value in column.items():
            assert profile.entries[word] == pytest.approx(value / total, rel=1e-12)

    def test_zero_column_is_empty(self, base_wccm):
        with pytest.raises(EmptyProfileError):
            concept_profile(base_wccm, "no-such-category", SoAKind.CP)


class TestConceptDistance:
    def test_self_distance_is_one(self, base_wccm):
        assert concept_distance(base_wccm, "music", "music", MeasureId.COS) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_disjoint_columns_are_orthogonal(self):
        wccm = WCCM({"a": {"c1": 2.0}, "b": {"c2": 3.0}})
        assert concept_distance(wccm, "c1", "c2", MeasureId.COS) == 0.0

    def test_composes_measure_and_profiles(self, base_wccm):
        from distsem import score

        dp1 = concept_profile(base_wccm, "music", SoAKind.CP)
        dp2 = concept_profile(base_wccm, "food", SoAKind.CP)
        want = score(MeasureId.COS, dp1, dp2)
        got = concept_distance(base_wccm, "music", "food", MeasureId.COS)
        assert got == want

    @pytest.mark.parametrize("measure", list(MeasureId), ids=lambda measure: measure.value)
    def test_matrix_is_category_indexed(self, base_wccm, boot_wccm, measure):
        # every cell is the pair's own score, bit for bit: symmetric measures score one
        # triangle (kld and asd must not be mirrored), and blocks align many pairs at once
        for wccm, config in itertools.product((base_wccm, boot_wccm), matrix_configs(measure)):
            cats = wccm.categories()
            try:
                want = np.array([
                    [concept_distance(wccm, c1, c2, measure, config) for c2 in cats] for c1 in cats
                ])
            except DistSemError as exc:  # the syntactic hindle variant needs relations
                with pytest.raises(type(exc)):
                    concept_distance_matrix(wccm, measure, config)
                continue
            got_cats, matrix = concept_distance_matrix(wccm, measure, config)
            assert got_cats == cats
            assert matrix.shape == want.shape == (len(cats), len(cats))
            assert np.array_equal(matrix.view(np.int64), want.view(np.int64)), config
            if measure is MeasureId.COS:
                assert np.allclose(np.diag(matrix), 1.0)

    def test_matrix_of_disjoint_concepts(self):
        wccm = WCCM({"w1": {"a": 2}, "w2": {"b": 3, "c": 1}, "w3": {"c": 4}})
        with pytest.warns(EmptyIntersectionWarning):
            want = concept_distance(wccm, "a", "b", MeasureId.KLD_COM)
        with pytest.warns(EmptyIntersectionWarning):
            _, matrix = concept_distance_matrix(wccm, MeasureId.KLD_COM)
        assert matrix[0, 1].view(np.int64) == np.float64(want).view(np.int64)
        for run in (lambda: concept_distance(wccm, "a", "b", MeasureId.JACCARD_CP),
                    lambda: concept_distance_matrix(wccm, MeasureId.JACCARD_CP)):
            with pytest.raises(UndefinedMeasureError, match="empty intersection"):
                run()

    def test_matrix_blocks_stay_bounded(self):
        rng = np.random.default_rng(5)
        cats, words, per_cat = 120, 5_000, 10
        rows = np.repeat(np.arange(cats), per_cat)
        cols = rng.integers(0, words, rows.size)
        counts = CooccurrenceCounts.from_ids(
            [f"c{i:03d}" for i in range(cats)], [f"w{j:05d}" for j in range(words)],
            rows, cols, rng.integers(1, 9, rows.size),
        )
        assert cats * words * 8 >= 4 * _BLOCK_BYTES  # dense, it would not fit the blocks
        wccm = WCCM(counts)
        tracemalloc.start()
        try:
            _, matrix = concept_distance_matrix(wccm, MeasureId.JSD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _BLOCK_BYTES + matrix.nbytes
        # a row's blocks here span about 40 rows; each cell is still the pair's own score
        _, asymmetric = concept_distance_matrix(wccm, MeasureId.ASD)
        for measure, scores in ((MeasureId.JSD, matrix), (MeasureId.ASD, asymmetric)):
            for first in ("c000", "c119"):
                want = [concept_distance(wccm, first, c, measure) for c in wccm.categories()]
                row = scores[wccm.categories().index(first)]
                assert np.array_equal(row.view(np.int64), np.array(want).view(np.int64))


@pytest.fixture(scope="module")
def en_thesaurus():
    return Thesaurus(
        {
            "celestial_body": Category("Celestial body", frozenset({"star", "sun"})),
            "celebrity": Category("Celebrity", frozenset({"star", "hero"})),
            "finance": Category("Finance", frozenset({"bank", "fund"})),
            "furniture": Category("Furniture", frozenset({"bench", "bank"})),
        }
    )


@pytest.fixture(scope="module")
def de_lexicon():
    return BilingualLexicon(
        {
            "stern": frozenset({"star"}),
            "bank": frozenset({"bank", "bench"}),
            "sonne": frozenset({"sun"}),
            "held": frozenset({"hero"}),
        }
    )


class TestCrossLingual:
    def test_single_translation_single_category(self, de_lexicon, en_thesaurus):
        assert candidate_senses("sonne", de_lexicon, en_thesaurus) == frozenset(
            {"celestial_body"}
        )

    def test_ambiguous_translation_yields_both_senses(self, de_lexicon, en_thesaurus):
        assert candidate_senses("stern", de_lexicon, en_thesaurus) == frozenset(
            {"celestial_body", "celebrity"}
        )

    def test_union_over_translations(self, de_lexicon, en_thesaurus):
        assert candidate_senses("bank", de_lexicon, en_thesaurus) == frozenset(
            {"finance", "furniture"}
        )

    def test_out_of_vocabulary(self, de_lexicon, en_thesaurus):
        with pytest.raises(MissingWordError):
            candidate_senses("baum", de_lexicon, en_thesaurus)

    def test_single_candidate_neighbor_single_cell(self, de_lexicon, en_thesaurus):
        counts = count_cooccurrences(["berg", "sonne"], CorpusConfig(window_radius=1))
        wccm = build_crosslingual_wccm(counts, de_lexicon, en_thesaurus)
        assert matrix_cells(wccm.matrix).get("berg") == {"celestial_body": 1.0}
        assert wccm.language_mode == "crosslingual"

    def test_two_candidate_senses_credit_both_columns(self, de_lexicon, en_thesaurus):
        counts = count_cooccurrences(["sonne", "stern"], CorpusConfig(window_radius=1))
        wccm = build_crosslingual_wccm(counts, de_lexicon, en_thesaurus)
        assert wccm.matrix.pair_count("celestial_body", "sonne") == 1
        assert wccm.matrix.pair_count("celebrity", "sonne") == 1

    def test_matrix_matches_nested_loop_oracle(self, de_lexicon, en_thesaurus, toy_config):
        docs = ["sonne stern held bank", "stern sonne sonne bank held"]
        tokens = list(tokenize_documents(docs, toy_config))
        counts = count_cooccurrences(tokens, toy_config)
        wccm = build_crosslingual_wccm(counts, de_lexicon, en_thesaurus)
        senses = {
            w: candidate_senses(w, de_lexicon, en_thesaurus)
            for w in de_lexicon.translations
        }
        expected = {}
        for target, feature, n in counts.items():
            for cat in senses.get(feature, frozenset()):
                expected.setdefault(target, {}).setdefault(cat, 0.0)
                expected[target][cat] += n
        assert matrix_cells(wccm.matrix) == expected

    def test_identity_lexicon_reduces_to_monolingual(
        self, toy_counts, toy_thesaurus, base_wccm
    ):
        identity = BilingualLexicon(
            {w: frozenset({w}) for w in toy_counts.targets}
        )
        xling = build_crosslingual_wccm(toy_counts, identity, toy_thesaurus)
        assert matrix_cells(xling.matrix) == matrix_cells(base_wccm.matrix)

    def test_crosslingual_bootstrap(self, de_lexicon, en_thesaurus, toy_config):
        docs = ["sonne stern held bank", "stern sonne sonne bank held"]
        tokens = list(tokenize_documents(docs, toy_config))
        counts = count_cooccurrences(tokens, toy_config)
        base = build_crosslingual_wccm(counts, de_lexicon, en_thesaurus)
        senses = crosslingual_sense_index(de_lexicon, en_thesaurus)
        boot = bootstrap_wccm(tokens, base, senses, toy_config)
        assert boot.kind == "bootstrapped"
        assert boot.language_mode == "crosslingual"
        assert boot.matrix.total_pairs <= base.matrix.total_pairs

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ConfigurationError):
            BilingualLexicon({})


class TestWccmSerialization:
    def test_round_trip(self, base_wccm, tmp_path):
        path = tmp_path / "wccm.tsv"
        save_wccm(base_wccm, path)
        loaded = load_wccm(path)
        assert matrix_cells(loaded.matrix) == matrix_cells(base_wccm.matrix)
        assert loaded.kind == base_wccm.kind
        assert loaded.config == base_wccm.config

    def test_deterministic_output(self, base_wccm, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_wccm(base_wccm, a)
        save_wccm(base_wccm, b)
        assert a.read_bytes() == b.read_bytes()

    def test_lexicon_file_round_trip(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("Stern\tstar\nbank\tbank\nbank\tbench\n")
        lexicon = load_lexicon(path)
        assert lexicon.translations["stern"] == frozenset({"star"})
        assert lexicon.translations["bank"] == frozenset({"bank", "bench"})

    def test_thesaurus_parse_error(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only-one-field\n")
        from distsem.errors import ParseError

        with pytest.raises(ParseError):
            load_thesaurus(path)

"""Property tests: file round trips are byte-stable and merging is associative."""

import math

import tempfile
from pathlib import Path

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from distsem import (
    CooccurrenceCounts,
    CorpusConfig,
    ICTable,
    SoAKind,
    build_profile,
    count_cooccurrences,
    counts_equal,
    load_counts,
    load_ic_table,
    load_profile,
    load_wccm,
    merge_counts,
    save_counts,
    save_ic_table,
    save_profile,
    save_wccm,
    tokenize_documents,
)
from distsem.concept import WCCM
from distsem.errors import EmptyProfileError

from oracles import matrix_cells

SETTINGS = settings(max_examples=40, deadline=None)

words = st.text(alphabet="abxyzé1", min_size=1, max_size=3)
relations = st.sampled_from(["obj", "subj", "obj^-1", "mod"])
configs = st.one_of(
    st.none(),
    st.builds(
        CorpusConfig,
        window_radius=st.integers(1, 9),
        lowercase=st.booleans(),
        respect_boundaries=st.sampled_from(["document", "sentence", "none"]),
    ),
)


@st.composite
def counts(draw, features=words, feature_kind="word", config=configs):
    pairs = draw(st.dictionaries(st.tuples(words, features), st.integers(1, 50), max_size=12))
    unigrams = draw(st.dictionaries(words, st.integers(1, 99), max_size=6))
    return CooccurrenceCounts.from_pairs(
        pairs,
        unigram_counts=unigrams,
        total_tokens=draw(st.integers(0, 500)),
        config=draw(config),
        feature_kind=feature_kind,
    )


def round_trip(save, load, value):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.tsv", Path(tmp) / "b.tsv"
        save(value, first, extra_header=["#manifest\ttool=test"])
        loaded = load(first)
        save(loaded, second, extra_header=["#manifest\ttool=test"])
        return loaded, first.read_bytes() == second.read_bytes()


@SETTINGS
@given(counts())
def test_word_counts_round_trip(original):
    loaded, stable = round_trip(save_counts, load_counts, original)
    assert stable
    assert counts_equal(loaded, original)
    assert loaded.config == original.config


@SETTINGS
@given(
    st.lists(st.lists(st.sampled_from(["alpha", "Beta", "gamma", "é", "."]), max_size=6)),
    configs.filter(lambda config: config is not None),
)
def test_counted_round_trip(documents, config):
    """Words seen only in one-token segments have unigram counts but no cells."""
    original = count_cooccurrences(tokenize_documents(map(" ".join, documents), config), config)
    loaded, stable = round_trip(save_counts, load_counts, original)
    assert stable
    assert counts_equal(loaded, original)
    assert loaded.config == original.config


def test_lonely_word_round_trip():
    original = count_cooccurrences(tokenize_documents(["alpha beta", "lonely", "beta gamma"]))
    loaded, _ = round_trip(save_counts, load_counts, original)
    assert counts_equal(loaded, original)
    assert "lonely" not in original.targets
    assert original.unigram_count("lonely") == 1


@SETTINGS
@given(counts(features=st.tuples(relations, words), feature_kind="relation"))
def test_relation_counts_round_trip(original):
    loaded, stable = round_trip(save_counts, load_counts, original)
    assert stable
    assert counts_equal(loaded, original)
    assert loaded.feature_kind == "relation"


@SETTINGS
@given(
    st.dictionaries(
        words,
        st.dictionaries(st.sampled_from(["c1", "c2", "c10", "x"]), st.integers(0, 40), max_size=4),
        max_size=8,
    ),
    st.sampled_from(["base", "bootstrapped"]),
    st.sampled_from(["monolingual", "crosslingual"]),
    configs,
    st.one_of(st.none(), st.text(alphabet="0123456789abcdef", min_size=8, max_size=8)),
)
def test_wccm_round_trip(cells, kind, language_mode, config, fingerprint):
    original = WCCM(
        {w: {c: float(n) for c, n in row.items()} for w, row in cells.items()},
        kind=kind,
        language_mode=language_mode,
        config=config,
        source_fingerprint=fingerprint,
    )
    loaded, stable = round_trip(save_wccm, load_wccm, original)
    assert stable
    assert matrix_cells(loaded.matrix) == matrix_cells(original.matrix)
    assert matrix_cells(loaded.matrix) == {
        w: {c: float(n) for c, n in row.items() if n} for w, row in cells.items() if any(row.values())
    }
    assert (loaded.kind, loaded.language_mode, loaded.config, loaded.source_fingerprint) == (
        kind,
        language_mode,
        config,
        fingerprint,
    )


@SETTINGS
@given(st.lists(counts(config=st.just(CorpusConfig(window_radius=2))), min_size=3, max_size=3))
def test_merge_is_associative(parts):
    a, b, c = parts
    left = merge_counts([merge_counts([a, b]), c])
    right = merge_counts([a, merge_counts([b, c])])
    assert counts_equal(left, right)
    assert counts_equal(left, merge_counts([a, b, c]))


@st.composite
def profiles(draw, features=words, feature_kind="word"):
    matrix = draw(counts(features=features, feature_kind=feature_kind))
    if not matrix.targets:
        reject()
    target = draw(st.sampled_from(matrix.targets))
    try:
        return build_profile(matrix, target, draw(st.sampled_from([SoAKind.CP, SoAKind.PMI])))
    except EmptyProfileError:  # every PMI value is 0
        reject()


def profile_round_trip(original):
    loaded, stable = round_trip(save_profile, load_profile, original)
    assert stable
    assert (loaded.target, loaded.soa) == (original.target, original.soa)
    assert loaded.entries == original.entries


@SETTINGS
@given(profiles())
def test_word_profile_round_trip(original):
    profile_round_trip(original)


@SETTINGS
@given(profiles(features=st.tuples(relations, words), feature_kind="relation"))
def test_relation_profile_round_trip(original):
    assert original.relation_constrained
    profile_round_trip(original)


@SETTINGS
@given(
    st.dictionaries(
        words,
        st.tuples(st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, allow_infinity=False)),
        min_size=1,
    ),
    st.sampled_from([2.0, 10.0, math.e]),
)
def test_ic_table_round_trip(cells, log_base):
    original = ICTable(
        prob={c: p for c, (p, _) in cells.items()},
        ic={c: ic for c, (_, ic) in cells.items()},
        log_base=log_base,
    )
    loaded, stable = round_trip(save_ic_table, load_ic_table, original)
    assert stable
    assert (loaded.prob, loaded.ic, loaded.log_base) == (original.prob, original.ic, log_base)

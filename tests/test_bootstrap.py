"""The bootstrap pass against the occurrence-by-occurrence reference in ``oracles``."""

from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distsem import (
    BilingualLexicon,
    CorpusConfig,
    SoAKind,
    Thesaurus,
    bootstrap_wccm,
    build_base_wccm,
    build_profile,
    count_cooccurrences,
    tokenize_documents,
)
from distsem.concept import _TABLE_BYTES, WCCM, Category, crosslingual_sense_index
from distsem.corpus import BOUNDARY
from distsem.errors import EmptyProfileError

from oracles import bootstrap_cells, matrix_cells

WORDS = ["jam", "bread", "band", "song", "ärger", "tea", "x", "Y"]
CATEGORIES = ["c0", "c1", "c2", "c3", "c4"]

sentences = st.lists(st.sampled_from(WORDS), min_size=0, max_size=8).map(" ".join)
documents = st.lists(sentences, min_size=1, max_size=4).map(". ".join)
word_sets = st.sets(st.sampled_from([w.lower() for w in WORDS]), min_size=1, max_size=4)
thesauri = st.dictionaries(st.sampled_from(CATEGORIES), word_sets, min_size=1).map(
    lambda cats: Thesaurus({c: Category(c, frozenset(ws)) for c, ws in cats.items()})
)
# a source word's translations, as target words of the thesaurus
lexicons = st.dictionaries(st.sampled_from(["a", "b", "jam", "tea"]), word_sets, min_size=1)
# a reference matrix given directly: some categories may have no row in it
cell_maps = st.dictionaries(
    st.sampled_from([w.lower() for w in WORDS]),
    st.dictionaries(st.sampled_from(CATEGORIES), st.integers(0, 4), min_size=1),
    min_size=1,
)


def segments_of(tokens):
    segments = [[]]
    for token in tokens:
        if token is BOUNDARY:
            segments.append([])
        else:
            segments[-1].append(token)
    return segments


def positive_rows(matrix, log_base):
    """{category: {word: positive PMI}} from the package's own profiles, so ties match."""
    rows = {}
    for cat in matrix.targets:
        try:
            profile = build_profile(matrix, cat, SoAKind.PMI, log_base=log_base)
        except EmptyProfileError:
            continue
        rows[cat] = {w: v for w, v in zip(profile.features, profile.values.tolist()) if v > 0.0}
    return rows


@settings(max_examples=150, deadline=None)
@given(
    docs=st.lists(documents, min_size=1, max_size=4),
    radius=st.integers(1, 4),
    boundaries=st.sampled_from(["document", "sentence", "none"]),
    thesaurus=thesauri,
    lexicon=st.one_of(st.none(), lexicons),
    cells=st.one_of(st.none(), cell_maps),
    iterations=st.integers(1, 3),
    one_shot=st.booleans(),
    chunk=st.sampled_from([1, 5, 9, 1 << 12]),
    log_base=st.sampled_from([2.0, 10.0]),
    table_bytes=st.sampled_from([_TABLE_BYTES, 0]),  # the dense table, or the sorted-key search
)
def test_bootstrap_equals_reference(
    docs, radius, boundaries, thesaurus, lexicon, cells, iterations, one_shot, chunk, log_base,
    table_bytes,
):
    config = CorpusConfig(window_radius=radius, respect_boundaries=boundaries)
    tokens = list(tokenize_documents(docs, config))
    if lexicon is None:
        senses = thesaurus.index
    else:
        lexicon = BilingualLexicon({w: frozenset(t) for w, t in lexicon.items()})
        senses = crosslingual_sense_index(lexicon, thesaurus)
        assume(senses)
    if cells is None:
        base = build_base_wccm(count_cooccurrences(tokens, config), thesaurus, sense_index=senses)
    else:
        base = WCCM({w: {c: float(n) for c, n in row.items()} for w, row in cells.items()})

    stream = iter(tokens) if one_shot else tokens
    with mock.patch("distsem.concept._BOOTSTRAP_CHUNK", chunk), \
            mock.patch("distsem.concept._TABLE_BYTES", table_bytes):
        boot = bootstrap_wccm(
            stream, base, senses, config, log_base=log_base, iterations=iterations
        )

    reference = base
    for _ in range(iterations):
        want = bootstrap_cells(
            segments_of(tokens), senses, positive_rows(reference.matrix, log_base), radius
        )
        reference = WCCM({w: {c: float(n) for c, n in row.items()} for w, row in want.items()})
    assert matrix_cells(boot.matrix) == want
    assert boot.kind == "bootstrapped"
    assert boot.language_mode == base.language_mode


def test_tie_goes_to_the_first_category():
    # "jam" scores the same positive total under both candidates; the smaller id wins
    base = WCCM({"ctx": {"A": 2.0, "B": 2.0}, "z": {"C": 5.0}})
    senses = {"jam": frozenset({"B", "A"})}
    boot = bootstrap_wccm(["ctx", "jam", "ctx"], base, senses, CorpusConfig(window_radius=1))
    assert positive_rows(base.matrix, 2.0)["A"] == positive_rows(base.matrix, 2.0)["B"]
    assert positive_rows(base.matrix, 2.0)["A"]["ctx"] > 0.0
    assert matrix_cells(boot.matrix) == {"ctx": {"A": 2}}


def test_word_first_seen_in_the_pass_scores_zero():
    # "new" gets an id after the lookup is built, past every word the reference
    # holds; it must score 0 for both candidates, not borrow the last word's value
    base = WCCM({"ctx": {"A": 2.0, "B": 2.0}, "z": {"B": 5.0, "C": 1.0}})
    senses = {"jam": frozenset({"A", "B"})}
    assert positive_rows(base.matrix, 2.0)["B"]["z"] > 0.0
    boot = bootstrap_wccm(["new", "jam"], base, senses, CorpusConfig(window_radius=1))
    assert matrix_cells(boot.matrix) == {"new": {"A": 1}}


def test_scores_add_from_the_farthest_left_neighbor():
    # A and B get the same three values at mirrored places, so only the order of
    # adding (-2, -1, then +1) tells them apart: B's total comes out larger
    base = WCCM(
        {"p": {"A": 1.0, "B": 3.0}, "q": {"A": 1.0, "B": 1.0}, "r": {"A": 3.0, "B": 1.0},
         "z": {"C": 40.0}}
    )
    senses = {"jam": frozenset({"A", "B"})}
    tokens = ["p", "q", "jam", "r"]
    boot = bootstrap_wccm(tokens, base, senses, CorpusConfig(window_radius=2))
    want = bootstrap_cells([tokens], senses, positive_rows(base.matrix, 2.0), 2)
    assert matrix_cells(boot.matrix) == want == {"p": {"B": 1}, "q": {"B": 1}, "r": {"B": 1}}

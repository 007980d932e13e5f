import random
import string
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distsem import (
    BOUNDARY,
    Boundaries,
    CooccurrenceCounts,
    CorpusConfig,
    Thesaurus,
    bootstrap_wccm,
    build_base_wccm,
    count_cooccurrences,
    counts_equal,
    ingest_triples,
    inverse_relation,
    load_counts,
    merge_counts,
    read_documents,
    save_counts,
    tokenize,
    tokenize_documents,
)
from distsem import corpus
from distsem.concept import Category
from distsem.corpus import line_records, read_records, read_tagged_tsv
from distsem.errors import (
    ConfigurationError,
    CorpusDecodeError,
    ParseError,
    UnknownRelationError,
)

from oracles import triple_pairs, window_pairs, word_tokens
from test_cli import run_cli


def pairs_of(counts):
    return {(t, f): n for t, f, n in counts.items()}


#: ASCII text: "_", stops, a NUL byte, the characters ``str.split`` takes for
#: whitespace, letters and digits, and any other ASCII character.
TEXT_ASCII = st.one_of(
    st.sampled_from("_.!?\x00 \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"),
    st.sampled_from(string.ascii_letters + string.digits),
    st.characters(max_codepoint=127),
)
#: Non-ASCII letters (one lowercases to two characters) and a no-break space.
TEXT_OTHER = st.sampled_from("İßÉ\u00a0")


class TestTokenize:
    def test_simple_sentence(self):
        assert tokenize("The cat sat.") == ["the", "cat", "sat"]

    def test_empty(self):
        assert tokenize("") == []

    def test_character_classes(self):
        # oracle: scan "A-B c" for letter/digit runs, then fold case
        assert tokenize("A-B c") == ["a", "b", "c"]

    def test_case_preserved_when_configured(self):
        cfg = CorpusConfig(lowercase=False)
        assert tokenize("The cat", cfg) == ["The", "cat"]

    def test_digits_are_tokens(self):
        assert tokenize("room 101!") == ["room", "101"]

    def test_sentence_boundaries(self):
        cfg = CorpusConfig(respect_boundaries=Boundaries.SENTENCE)
        assert tokenize("a b. c d", cfg) == ["a", "b", BOUNDARY, "c", "d"]

    def test_no_leading_or_trailing_markers(self):
        cfg = CorpusConfig(respect_boundaries=Boundaries.SENTENCE)
        assert tokenize("... a b...", cfg) == ["a", "b"]

    def test_case_is_mapped_per_token(self):
        # "İ" lowercases to "i" and U+0307, which is no word character: lowercasing
        # the text before splitting it would cut "İstanbul" in two
        assert tokenize("İstanbul Straße") == ["i\u0307stanbul", "straße"]
        assert tokenize("İstanbul. Straße", CorpusConfig(respect_boundaries="sentence")) == [
            "i\u0307stanbul", BOUNDARY, "straße"
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        text=st.one_of(st.text(TEXT_ASCII), st.text(st.one_of(TEXT_ASCII, TEXT_OTHER))),
        boundaries=st.sampled_from(list(Boundaries)),
        lowercase=st.booleans(),
    )
    def test_matches_the_reference(self, text, boundaries, lowercase):
        # an all-ASCII document is read by a byte table, any other by the regex
        config = CorpusConfig(lowercase=lowercase, respect_boundaries=boundaries)
        want = word_tokens(text, lowercase, sentences=boundaries is Boundaries.SENTENCE)
        assert tokenize(text, config) == want

    def test_document_stream_markers(self):
        cfg = CorpusConfig()
        stream = list(tokenize_documents(["a b", "c"], cfg))
        assert stream == ["a", "b", BOUNDARY, "c"]

    def test_none_mode_has_no_markers(self):
        cfg = CorpusConfig(respect_boundaries=Boundaries.NONE)
        stream = list(tokenize_documents(["a b.", "c"], cfg))
        assert stream == ["a", "b", "c"]


class TestReadDocuments:
    def test_one_doc_per_line(self, toy_corpus_path):
        docs = read_documents(toy_corpus_path, one_doc_per_line=True)
        assert len(docs) == 12

    def test_whole_file(self, toy_corpus_path):
        docs = read_documents(toy_corpus_path)
        assert len(docs) == 1

    def test_decode_error_offset(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"good text \xff\xfe more")
        with pytest.raises(CorpusDecodeError) as err:
            read_documents(bad)
        assert err.value.byte_offset == 10

    def test_lines_are_read_one_at_a_time(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes("a b\n \n\nc\r\nd é".encode())
        assert read_documents(path, one_doc_per_line=True) == ["a b", "c\r", "d é"]
        assert list(corpus._document_lines(path)) == ["a b", "c\r", "d é"]

    @pytest.mark.parametrize("per_line", [False, True])
    def test_decode_error_offset_on_a_later_line(self, tmp_path, per_line):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xc3\xa9 line\nsecond \xe2\nthird\n")
        with pytest.raises(CorpusDecodeError) as err:
            read_documents(bad, one_doc_per_line=per_line)
        assert err.value.byte_offset == 15

    def test_decode_error_offset_through_the_cli(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"good line\nbad \xff line\n")
        code, out, err = run_cli(["count", "--corpus", bad, "--docs", "line", "--out",
                                  tmp_path / "c.tsv"])
        assert (code, out) == (2, ""), err
        assert "invalid utf-8 byte sequence at offset 14" in err


class TestCounting:
    def test_two_token_corpus(self):
        cfg = CorpusConfig(window_radius=1)
        counts = count_cooccurrences(["a", "b"], cfg)
        assert pairs_of(counts) == {("a", "b"): 1, ("b", "a"): 1}
        assert counts.total_pairs == 2
        assert counts.total_tokens == 2

    def test_single_token(self):
        counts = count_cooccurrences(["a"], CorpusConfig(window_radius=1))
        assert counts.total_pairs == 0
        assert counts.total_tokens == 1

    def test_empty_stream(self):
        counts = count_cooccurrences([], CorpusConfig())
        assert counts.total_pairs == 0
        assert counts.total_tokens == 0
        assert counts.targets == []

    def test_self_cooccurrence_counted(self):
        counts = count_cooccurrences(["a", "a"], CorpusConfig(window_radius=1))
        assert pairs_of(counts) == {("a", "a"): 2}

    def test_repeated_neighbor_counts_twice(self):
        counts = count_cooccurrences(["b", "a", "b"], CorpusConfig(window_radius=1))
        assert counts.pair_count("a", "b") == 2

    def test_boundary_blocks_window(self):
        cfg = CorpusConfig(window_radius=2)
        counts = count_cooccurrences(["a", BOUNDARY, "b"], cfg)
        assert counts.total_pairs == 0

    def test_toy_corpus_matches_brute_force(self, toy_counts, toy_pairs):
        assert pairs_of(toy_counts) == dict(toy_pairs)
        assert toy_counts.total_pairs == sum(toy_pairs.values())

    @pytest.mark.parametrize("radius", [1, 2, 5])
    @pytest.mark.parametrize("mode", ["document", "sentence", "none"])
    def test_all_modes_match_brute_force(self, toy_documents, radius, mode):
        import re

        cfg = CorpusConfig(window_radius=radius, respect_boundaries=mode)
        counts = count_cooccurrences(tokenize_documents(toy_documents, cfg), cfg)
        if mode == "none":
            segments = [
                [t.lower() for doc in toy_documents for t in re.findall(r"[^\W_]+", doc)]
            ]
        elif mode == "document":
            segments = [
                [t.lower() for t in re.findall(r"[^\W_]+", doc)] for doc in toy_documents
            ]
        else:
            segments = []
            for doc in toy_documents:
                for sentence in re.split(r"[.!?]", doc):
                    toks = [t.lower() for t in re.findall(r"[^\W_]+", sentence)]
                    if toks:
                        segments.append(toks)
        assert pairs_of(counts) == dict(window_pairs(segments, radius))

    def test_chunked_counting_matches_unchunked(self, toy_documents, toy_config):
        tokens = list(tokenize_documents(toy_documents, toy_config))
        small = count_cooccurrences(tokens, toy_config, chunk_size=8)
        big = count_cooccurrences(tokens, toy_config)
        assert counts_equal(small, big)

    def test_accepts_generator_input(self, toy_documents, toy_config, toy_counts):
        stream = tokenize_documents(toy_documents, toy_config)
        counts = count_cooccurrences(stream, toy_config)
        assert counts_equal(counts, toy_counts)

    def test_marginal_consistency(self, toy_counts):
        for target in toy_counts.targets:
            row_sum = sum(n for _, n in toy_counts.row_items(target))
            assert row_sum == toy_counts.target_total(target)
        assert (
            sum(toy_counts.target_total(t) for t in toy_counts.targets)
            == toy_counts.total_pairs
        )

    def test_marginal_consistency_random(self):
        rng = random.Random(7)
        for _ in range(20):
            tokens = [str(rng.randint(0, 9)) for _ in range(rng.randint(0, 60))]
            cfg = CorpusConfig(window_radius=rng.randint(1, 4))
            counts = count_cooccurrences(tokens, cfg)
            total = 0
            for t in counts.targets:
                row = sum(n for _, n in counts.row_items(t))
                assert row == counts.target_total(t)
                total += row
            assert total == counts.total_pairs

    def test_window_symmetry_without_boundaries(self):
        rng = random.Random(11)
        tokens = [str(rng.randint(0, 5)) for _ in range(200)]
        cfg = CorpusConfig(window_radius=3, respect_boundaries=Boundaries.NONE)
        counts = count_cooccurrences(tokens, cfg)
        for t, f, n in counts.items():
            assert counts.pair_count(f, t) == n

    def test_unigram_counts(self, toy_counts, toy_segments):
        want = {}
        for seg in toy_segments:
            for tok in seg:
                want[tok] = want.get(tok, 0) + 1
        assert toy_counts.unigram_counts == want
        assert toy_counts.total_tokens == sum(want.values())


class TestShardMerge:
    def test_two_shards_equal_concatenation(self, toy_documents, toy_config):
        half = len(toy_documents) // 2
        first = count_cooccurrences(
            tokenize_documents(toy_documents[:half], toy_config), toy_config
        )
        second = count_cooccurrences(
            tokenize_documents(toy_documents[half:], toy_config), toy_config
        )
        merged = merge_counts([first, second])
        whole = count_cooccurrences(
            tokenize_documents(toy_documents, toy_config), toy_config
        )
        assert counts_equal(merged, whole)

    def test_merge_rejects_mismatched_configs(self):
        a = count_cooccurrences(["a", "b"], CorpusConfig(window_radius=1))
        b = count_cooccurrences(["a", "b"], CorpusConfig(window_radius=2))
        with pytest.raises(ConfigurationError):
            merge_counts([a, b])

    def test_merge_nothing(self):
        with pytest.raises(ConfigurationError):
            merge_counts([])


#: What generated documents are made of: words in several cases, non-ASCII
#: letters, digits, stops and punctuation.
FEED_PIECES = ["a", "B", "cat", "Cat", "İstanbul", "STRASSE", "straße", "Été", "x1",
               "...", "!?", "-", " ", "?"]
FEED_THESAURUS = Thesaurus({
    "X": Category("x", frozenset({"a", "cat", "straße", "été"})),
    "Y": Category("y", frozenset({"a", "b", "Cat", "straße"})),
    "Z": Category("z", frozenset({"cat", "i\u0307stanbul", "Été", "x1"})),
})
feed_documents = st.lists(st.sampled_from(FEED_PIECES), max_size=12).map(" ".join)


class TestDocumentFeed:
    """A corpus tokenized a document at a time counts and bootstraps as its flat token stream."""

    @settings(max_examples=120, deadline=None)
    @given(
        files=st.lists(st.lists(feed_documents, max_size=4), min_size=1, max_size=3),
        boundaries=st.sampled_from(list(Boundaries)),
        lowercase=st.booleans(),
        radius=st.sampled_from([1, 2, 3, 10**6]),  # the last is wider than any corpus here
        chunk=st.integers(1, 12),  # a document holds up to 12 tokens
        batch=st.integers(1, 5),
        iterations=st.integers(1, 2),
    )
    def test_feed_matches_flat_stream(
        self, files, boundaries, lowercase, radius, chunk, batch, iterations
    ):
        config = CorpusConfig(radius, lowercase, boundaries)
        # the token stream a _Documents stands for: each file's documents, then a marker
        flat = [t for docs in files for t in [*tokenize_documents(docs, config), BOUNDARY]]
        senses = FEED_THESAURUS.index
        # the reference takes the whole stream as one batch and one chunk
        counts = count_cooccurrences(flat, config, chunk_size=len(flat) + 1)
        base = build_base_wccm(counts, FEED_THESAURUS)
        with mock.patch("distsem.concept._BOOTSTRAP_CHUNK", len(flat) + 1):
            want = bootstrap_wccm(flat, base, senses, config, iterations=iterations)
        with mock.patch("distsem.corpus._TOKEN_BATCH", batch), \
                mock.patch("distsem.concept._BOOTSTRAP_CHUNK", chunk):
            for tokens in (iter(flat), corpus._Documents(files)):
                assert counts_equal(count_cooccurrences(tokens, config, chunk_size=chunk), counts)
            for tokens in (iter(flat), corpus._Documents(files)):
                boot = bootstrap_wccm(tokens, base, senses, config, iterations=iterations)
                assert counts_equal(boot.matrix, want.matrix)


class TestTriples:
    def test_single_record_both_directions(self):
        counts = ingest_triples(["eat\tobj\tapple"])
        assert pairs_of(counts) == {
            ("eat", ("obj", "apple")): 1,
            ("apple", (inverse_relation("obj"), "eat")): 1,
        }

    def test_empty_file(self):
        counts = ingest_triples([])
        assert counts.total_pairs == 0

    def test_fixture_matches_tally(self, fixtures_dir):
        lines = (fixtures_dir / "toy.triples").read_text().splitlines()
        counts = ingest_triples(lines)
        records = [tuple(line.split("\t")) for line in lines if line]
        assert pairs_of(counts) == dict(triple_pairs(records))

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError) as err:
            ingest_triples(["eat\tobj\tapple", "bad line"])
        assert err.value.line_number == 2

    def test_unknown_relation_rejected(self):
        with pytest.raises(UnknownRelationError) as err:
            ingest_triples(["eat\txcomp\tapple"], allowed_relations={"obj", "subj"})
        assert "xcomp" in str(err.value)

    def test_relation_profile_direction(self, fixtures_dir):
        lines = (fixtures_dir / "toy.triples").read_text().splitlines()
        counts = ingest_triples(lines)
        features = [f for f, _ in counts.row_items("guitar")]
        assert features and all(
            isinstance(f, tuple) and f[0] == "obj^-1" for f in features
        )


class TestRecordReader:
    LINES = [
        "#manifest\ttool=x\n",
        "#note\tone\n",
        "a\tb\n",
        "\n",
        "  \t \n",
        "#manifesto\tcp\n",
        "c\td",
    ]

    def test_records_and_notes(self):
        notes = []
        got = list(line_records(self.LINES, "src", on_note=lambda n, f: notes.append((n, f))))
        assert got == [(3, ["a", "b"]), (7, ["c", "d"])]
        assert notes == [(2, ["#note", "one"]), (6, ["#manifesto", "cp"])]

    def test_notes_are_dropped_without_a_taker(self):
        assert [n for n, _ in line_records(self.LINES, "src")] == [3, 7]

    def test_expected_field_count(self):
        with pytest.raises(ParseError, match=r"^src:2: expected x<TAB>y<TAB>z$"):
            list(line_records(["a\tb\tc\n", "a\tb\n"], "src", "x<TAB>y<TAB>z"))

    def test_undecodable_byte_named_at_its_line(self):
        # a byte that is not UTF-8, as errors="surrogateescape" reads it, in a piece's second line
        with pytest.raises(ParseError, match=r"^src:3: invalid UTF-8$"):
            list(line_records(["a\tb\n", "c\td\n\udcff\te\n"], "src"))

    def test_other_separator(self):
        with pytest.raises(ParseError, match="expected x,y"):
            list(line_records(["a,b\n", "a,b,c\n"], "src", "x,y", sep=","))
        assert list(line_records(["a, b\n"], "src", "x,y", sep=",")) == [(1, ["a", " b"])]

    def test_file(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("".join(self.LINES))
        assert list(read_records(path, "x<TAB>y")) == [(3, ["a", "b"]), (7, ["c", "d"])]
        with pytest.raises(ParseError) as err:
            list(read_records(path, "x<TAB>y<TAB>z"))
        assert (err.value.source, err.value.line_number) == (str(path), 3)


# Characters that str.splitlines breaks a line at but the data files do not,
# and whitespace that makes a line blank.
ODD = ["\x0b", "\x1c", "\x85", "\u2028"]
SPACE = [" ", "\t", "\x0c", "\xa0"]
fields = st.text(st.sampled_from(["a", "b", "#", " ", *ODD, *SPACE[2:]]), max_size=3)
body_lines = st.lists(
    st.one_of(
        st.lists(fields, min_size=2, max_size=4).map("\t".join),  # mostly three fields
        st.lists(fields, min_size=3, max_size=3).map("\t".join),
        st.text(st.sampled_from(SPACE), max_size=3),  # blank
        st.builds("#{}\t{}".format, st.sampled_from(["note", "manifest", "manifesto", ""]), fields),
    ),
    max_size=12,
)


def line_rules(body, first):
    """Records, notes and first refused line of ``body`` under the documented line rules.

    Records are kept only if no line is refused.
    """
    records, notes = [], []
    for number, line in enumerate(body, first):
        parts = line.split("\t")
        if line.startswith("#"):
            if parts[0] != "#manifest":
                notes.append((number, parts))
        elif line.strip():
            if len(parts) != 3:
                return None, notes, number
            records.append((number, parts))
    return records, notes, None


def read_outcome(read):
    """What ``read(on_note)`` gives, in the form of :func:`line_rules`."""
    notes = []
    try:
        records = read(lambda number, parts: notes.append((number, parts)))
    except ParseError as err:
        assert str(err).endswith(": expected target<TAB>feature<TAB>count")
        return None, notes, err.line_number
    return records, notes, None


@settings(max_examples=200, deadline=None)
@given(body_lines, st.sampled_from(["\n", "\r\n"]), st.booleans(), st.sampled_from([1, 2, 3, 4096]))
def test_tagged_and_record_files_follow_one_rule_set(body, newline, last_newline, block):
    text = newline.join(body) + newline * last_newline
    columns = {"target": str, "feature": str, "count": str}
    with tempfile.TemporaryDirectory() as tmp:
        tagged, plain = Path(tmp) / "counts.tsv", Path(tmp) / "records.tsv"
        tagged.write_bytes(("#counts\ttotal_tokens=0" + newline + text).encode("utf-8"))
        plain.write_bytes(text.encode("utf-8"))

        def read_tagged(note):
            def note_lines(first, text):  # a run of notes, a line at a time
                for number, line in enumerate(text.split("\n"), first):
                    note(number, line.split("\t"))

            with mock.patch.object(corpus, "_BLOCK_CHARS", block):
                blocks = read_tagged_tsv(tagged, "counts", columns, on_note=note_lines)[2]
                return [(int(n), list(f)) for numbers, cols in blocks for n, *f in zip(numbers, *cols)]

        def read_plain(note):
            return list(read_records(plain, "target<TAB>feature<TAB>count", on_note=note))

        # line numbers, notes and the first error as the rules give them, so none
        # moved by a character such as \x85 or \u2028 that splitlines breaks at
        assert read_outcome(read_plain) == line_rules(body, 1)
        assert read_outcome(read_tagged) == line_rules(body, 2)  # after the header


class TestSerialization:
    def test_round_trip(self, toy_counts, tmp_path):
        path = tmp_path / "counts.tsv"
        save_counts(toy_counts, path)
        loaded = load_counts(path)
        assert counts_equal(loaded, toy_counts)
        assert loaded.config == toy_counts.config

    def test_round_trip_triples(self, fixtures_dir, tmp_path):
        lines = (fixtures_dir / "toy.triples").read_text().splitlines()
        counts = ingest_triples(lines)
        path = tmp_path / "triples-counts.tsv"
        save_counts(counts, path)
        assert counts_equal(load_counts(path), counts)

    def test_header_totals(self, toy_counts, tmp_path):
        path = tmp_path / "counts.tsv"
        save_counts(toy_counts, path)
        header = [
            line for line in path.read_text().splitlines() if line.startswith("#counts")
        ]
        assert len(header) == 1
        assert f"total_pairs={toy_counts.total_pairs}" in header[0]
        assert f"total_tokens={toy_counts.total_tokens}" in header[0]

    def test_write_is_deterministic(self, toy_counts, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        save_counts(toy_counts, a)
        save_counts(toy_counts, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#counts\ttotal_pairs=1\ttotal_tokens=1\na\tb\n")
        with pytest.raises(ParseError) as err:
            load_counts(path)
        assert err.value.line_number == 2


class TestConfig:
    def test_invalid_radius(self):
        with pytest.raises(ConfigurationError):
            CorpusConfig(window_radius=0)

    def test_boundaries_from_string(self):
        assert CorpusConfig(respect_boundaries="sentence").respect_boundaries is (
            Boundaries.SENTENCE
        )


class TestFromPairs:
    def test_round_trip_dict(self):
        pairs = {("a", "b"): 2, ("b", "a"): 2, ("a", "c"): 1}
        counts = CooccurrenceCounts.from_pairs(pairs)
        assert pairs_of(counts) == pairs
        assert counts.target_total("a") == 3
        assert counts.feature_total("a") == 2
        assert counts.total_pairs == 5

    def test_scaling_leaves_structure(self, toy_counts):
        scaled = CooccurrenceCounts.from_pairs(
            {(t, f): 3 * n for t, f, n in toy_counts.items()}
        )
        assert scaled.total_pairs == 3 * toy_counts.total_pairs
        assert np.isclose(
            scaled.pair_count("band", "song") / scaled.target_total("band"),
            toy_counts.pair_count("band", "song") / toy_counts.target_total("band"),
        )

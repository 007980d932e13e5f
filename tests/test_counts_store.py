"""Counts storage: the block reader of tagged TSV files, repeated cells and the count cache."""

import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from hashlib import sha256
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distsem.cli
import oracles
from distsem import (
    CooccurrenceCounts,
    CorpusConfig,
    counts_equal,
    load_counts,
    load_ic_table,
    load_wccm,
    save_counts,
)
from distsem import corpus
from distsem.concept import WCCM
from distsem.corpus import render_feature
from distsem.errors import DistSemError, ValidationError
from distsem.taxonomy import ICTable

from test_cli import run_cli
from test_input_reads import CASES, NAMES, write_inputs

BLOCK = corpus._BLOCK_LINES


def outcome(load, path):
    """What loading ``path`` gives, in the form the oracles give it."""
    try:
        value = load(path)
    except DistSemError as exc:
        return type(exc).__name__, str(exc)
    except oracles.Refused as exc:
        return exc.args
    if isinstance(value, corpus.CooccurrenceCounts):
        value = {(t, render_feature(f)): n for t, f, n in value.items()}, value.unigram_counts
    elif isinstance(value, WCCM):
        value = {(w, c): n for c, w, n in value.matrix.items()}
    elif isinstance(value, ICTable):
        value = value.prob, value.ic
    return "loaded", value


LOADERS = {
    "counts": (load_counts, oracles.counts_file, "#counts\ttotal_tokens=9\tfeature_kind=word"),
    "wccm": (load_wccm, oracles.wccm_file, "#wccm\tkind=base\tlanguage_mode=monolingual"),
    "ic": (load_ic_table, oracles.ic_file, "#ic\tlog_base=2.0"),
}


def data_line(kind, i):
    """The i-th of a run of distinct, well-formed data lines."""
    if kind == "counts":
        return f"t{i // 50}\tf{i % 50}\t{i % 7 + 1}"
    if kind == "wccm":
        return f"w{i // 50}\tc{i % 50}\t{float(i % 7 + 1)!r}"
    return f"c{i}\t{1 / (i + 2)!r}\t{float(i % 9)!r}"


BAD_LINES = {
    "fields": {"counts": "t\tf", "wccm": "w\tc\t1.0\tx", "ic": "c\t0.5"},
    "value": {"counts": "t\tf\t2.5", "wccm": "w\tc\tmany", "ic": "c\t0.5\thigh"},
}


class TestBlockBoundaries:
    """Files longer than one block read as they do one line at a time."""

    def write(self, path, kind, body):
        lines = ["#manifest\ttool=test", LOADERS[kind][2]]
        if kind == "counts":
            lines += ["#unigram\tt0\t4", "#unigram\tt1\t3"]
        path.write_text("\n".join(lines + body) + "\n", encoding="utf-8")

    def body(self, kind, interleave):
        body = [data_line(kind, i) for i in range(BLOCK + 5000)]
        if interleave:
            # blank and #manifest lines (and notes) spread over the second block
            for at in range(BLOCK + 4000, BLOCK - 3000, -997):
                body[at:at] = ["", "#manifest\tx=1", "#note"]
        return body

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @pytest.mark.parametrize("interleave", [False, True], ids=["plain", "interleaved"])
    @pytest.mark.parametrize("bad", [None, "fields", "value", "both"])
    def test_same_as_one_line_at_a_time(self, tmp_path, kind, interleave, bad):
        body = self.body(kind, interleave)
        if bad == "both":  # the value error comes first
            body.insert(BLOCK + 3500, BAD_LINES["fields"][kind])
            body.insert(BLOCK + 1200, BAD_LINES["value"][kind])
        elif bad:
            body.insert(BLOCK + 1200, BAD_LINES[bad][kind])
        path = tmp_path / f"{kind}.tsv"
        self.write(path, kind, body)
        load, oracle, _ = LOADERS[kind]
        expected = outcome(oracle, path)
        assert outcome(load, path) == expected
        if bad:
            assert expected[0] == "ParseError"
            assert int(expected[1].split(":")[1]) > BLOCK
        else:
            assert expected[0] == "loaded"

    @pytest.mark.parametrize("chars", [10, 7, 25], ids=["after-line-ends", "inside-lines", "both"])
    @pytest.mark.parametrize("bad", [None, "fields", "value"])
    def test_pieces_cut_anywhere(self, tmp_path, chars, bad):
        """A piece of the file may end right after a line end or inside a line."""
        body = [f"t{i}\tf{i}\t{i % 7 + 1}" for i in range(10, 99)]  # ten characters a line
        if bad:
            body.insert(40, BAD_LINES[bad]["counts"])
        path = tmp_path / "counts.tsv"
        path.write_text(LOADERS["counts"][2] + "\n" + "\n".join(body) + "\n", encoding="utf-8")
        expected = outcome(oracles.counts_file, path)
        assert outcome(load_counts, path) == expected
        with mock.patch.object(corpus, "_BLOCK_BYTES", chars):
            assert outcome(load_counts, path) == expected
        if bad:
            assert expected[0] == "ParseError" and f"{path}:42: " in expected[1]
        else:
            assert expected[0] == "loaded"

    def test_repeat_in_a_later_block(self, tmp_path):
        body = [data_line("counts", i) for i in range(BLOCK + 10)]
        body.append(data_line("counts", 3))
        path = tmp_path / "counts.tsv"
        self.write(path, "counts", body)
        with pytest.raises(DistSemError, match=f":{BLOCK + 15}: repeats the cell of line 8$"):
            load_counts(path)


words = st.sampled_from(["a", "b", "é", "ü", "a:b"])
# lines of only whitespace that str.strip clears but a byte test can miss
blanks = st.sampled_from(
    ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0 \t", "\u2028", "\u3000"]
)
# counts at the edges of the byte reader: 18 and 19 digits (the last past int64), leading
# zeros, a digit int() reads that is not ASCII, one it refuses, empty, and a \r after 7
odd_counts = st.sampled_from(
    ["123456789012345678", "1234567890123456789", "9999999999999999999", "007", "٣", "²",
     "", "7\r"]
)
count_lines = st.one_of(
    st.builds("{}\t{}\t{}".format, words, words, st.integers(-2, 9)),
    st.builds("{}\t{}\t{}".format, words, words, st.sampled_from([" 7", "+3", "1_0", "x", "2.5"])),
    st.builds("{}\t{}\t{}".format, words, words, odd_counts),
    st.builds("#unigram\t{}\t{}".format, words, st.sampled_from(["1", "4", "y"])),
    st.builds("#unigram\t{}\t{}".format, words, odd_counts),
    st.sampled_from(
        ["", " ", "\t\t", "#manifest\tx=1", "#manifestation", "#note", "#unigram\tw",
         "a\tb", "a\tb\t1\t2", "a\tb\t99999999999999999999", "\t\t1",
         "#counts\ttotal_tokens=1"]
    ),
    blanks,
)
wccm_lines = st.one_of(
    st.builds("{}\t{}\t{}".format, words, words, st.sampled_from(["0.0", "2.0", "3", "-1.0"])),
    st.builds("{}\t{}\t{}".format, words, words, st.sampled_from(["2.5", "nan", "x", "inf"])),
    st.sampled_from(["", " ", "#manifest\tx=1", "#note", "a\tb", "a\tb\t1\t2", "#wccm"]),
    blanks,
)
ic_lines = st.one_of(
    st.builds("{}\t{}\t{}".format, words, st.sampled_from(["0.5", "1e-3", "x", "2.0", "0"]),
              st.sampled_from(["1.0", "2", "y", "nan", "-3"])),
    st.sampled_from(["", " \t", "#manifest\tx=1", "#note", "a\t0.5", "a\t0.5\t1\t2", "#ic"]),
    blanks,
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(LOADERS)).flatmap(
        lambda kind: st.tuples(
            st.just(kind),
            st.lists({"counts": count_lines, "wccm": wccm_lines, "ic": ic_lines}[kind],
                     max_size=14),
        )
    ),
    st.sampled_from([1, 2, 3, 5, 64]),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
    # lines before the header: blank, #manifest and notes, and a unigram line, which only
    # a counts file refuses there
    st.lists(st.one_of(st.sampled_from(["", " ", "#manifest\tx=1", "#note", "#unigram\tq\t9"]), blanks),
             max_size=3),
)
def test_small_blocks_read_as_one_line_at_a_time(kind_and_lines, block, newline, last_newline, before):
    kind, lines = kind_and_lines
    text = newline.join([*before, "#manifest\ttool=test", LOADERS[kind][2], *lines])
    load, oracle, _ = LOADERS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.tsv"
        path.write_bytes((text + newline * last_newline).encode("utf-8"))
        with mock.patch.object(corpus, "_BLOCK_BYTES", block):
            assert outcome(load, path) == outcome(oracle, path)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8000), count_lines), max_size=6))
def test_whole_pieces_read_as_one_line_at_a_time(inserts):
    """At the default piece size, runs of many lines meet the byte checks at once."""
    body = [f"t{i // 40}\tf{i % 40}\t{i % 7 + 1}" for i in range(8000)]
    for at in (6000, 1500, 1499):  # notes inside a piece
        body.insert(at, f"#unigram\tt{at}\t{at}")
    for at, line in sorted(inserts, key=lambda insert: -insert[0]):
        body.insert(at, line)
    text = "\n".join(["#manifest\ttool=test", LOADERS["counts"][2], *body]) + "\n"
    assert len(text) > 2 * corpus._BLOCK_BYTES
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.tsv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_counts, path) == outcome(oracles.counts_file, path)


def test_load_memory_follows_the_cells_not_the_file(tmp_path):
    """A load holds one piece of the file at a time besides the arrays it builds."""
    targets, features, per_target = 5000, 9000, 50
    rows = np.repeat(np.arange(targets), per_target)
    cols = (7 * rows + np.tile(13 * np.arange(per_target), targets)) % features  # all distinct
    words = [f"w{i}" for i in range(features)]
    counts = np.random.default_rng(11).integers(1, 50, rows.size)
    path = tmp_path / "counts.tsv"
    save_counts(
        CooccurrenceCounts.from_ids(words[:targets], words, rows, cols, counts,
                                    unigram_counts=dict(zip(words, range(1, features + 1)))),
        path,
    )
    tracemalloc.start()
    try:
        loaded = load_counts(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.nnz() == rows.size
    # a 3.6 MiB file; streamed, loads have peaked at 24 to 29 MiB, split whole at 76 MiB or more
    assert peak < 36 * 2**20


def test_totals_take_no_target_id_per_cell():
    """The constructor sums each row over its row pointers and each feature in place.

    It used to expand a target id per cell, and then to copy the counts to float64.
    """
    rows, per_row, features = 1200, 800, 2000
    sizes = np.where(np.arange(rows) % 10 == 3, 0, per_row)  # some rows are empty
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    indices = np.tile(np.arange(0, features, 2), rows)[: indptr[-1]]  # sorted within each row
    data = np.random.default_rng(5).integers(1, 2**40, indices.size)
    names = [f"w{i:04d}" for i in range(features)]
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        counts = CooccurrenceCounts(names[:rows], names, indptr, indices, data)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    expected = [int(data[indptr[i] : indptr[i + 1]].sum()) for i in range(rows)]
    assert [counts.target_total(name) for name in names[:rows]] == expected
    # what is left is the name indexes and one total per target and feature; a float64 copy
    # of the counts for the feature totals took 8 bytes a cell, and a target id per cell 8 more
    assert peak <= data.size // 2


class TestRepeatedCells:
    """A cell given twice used to load silently with its last value."""

    def test_counts(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("#counts\ttotal_pairs=3\ttotal_tokens=4\na\tb\t2\na\tb\t3\n")
        code, out, err = run_cli(["profile", "--counts", path, "--target", "a"])
        assert (code, out) == (2, ""), err
        assert f"{path}:3: repeats the cell of line 2" in err

    def test_unigram(self, tmp_path):
        """A unigram word given twice used to load with its last count."""
        path = tmp_path / "counts.tsv"
        path.write_text("#counts\ttotal_tokens=11\n#unigram\ta\t2\n#unigram\ta\t9\na\tb\t1\n")
        code, out, err = run_cli(["profile", "--counts", path, "--target", "a"])
        assert (code, out) == (2, ""), err
        assert f"{path}:3: repeats the unigram of line 2" in err

    def test_relation_counts(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text(
            "#counts\ttotal_tokens=4\tfeature_kind=relation\n"
            "a\tobj:b\t2\na\tsubj:b\t1\na\tobj:b\t2\n"
        )
        code, _, err = run_cli(["profile", "--counts", path, "--target", "a"])
        assert code == 2
        assert f"{path}:4: repeats the cell of line 2" in err

    def test_wccm(self, tmp_path):
        path = tmp_path / "wccm.tsv"
        path.write_text("#wccm\tkind=base\nw\tc2\t1.0\nw\tc1\t2.0\nv\tc1\t4.0\nw\tc1\t5.0\n")
        code, out, err = run_cli(
            ["concept-distance", "--wccm", path, "--c1", "c1", "--c2", "c2"]
        )
        assert (code, out) == (2, ""), err
        assert f"{path}:5: repeats the cell of line 3" in err


# ---------------------------------------------------------------------------
# the count cache

documents = st.lists(
    st.lists(st.sampled_from(["a", "zé", "ß", "中文", "ÅÄ", "x1", "ǅ", "A", "."]), max_size=12),
    max_size=5,
)
configs = st.builds(
    CorpusConfig,
    window_radius=st.integers(1, 6),
    lowercase=st.booleans(),
    respect_boundaries=st.sampled_from(["document", "sentence", "none"]),
)


def corpus_flags(config: CorpusConfig) -> list:
    flags = ["--window", config.window_radius, "--boundaries", config.respect_boundaries.value]
    return flags + ([] if config.lowercase else ["--no-lowercase"])


def count_three_ways(args, tmp: Path) -> list[bytes]:
    """``--out`` bytes without the cache, on a cold cache and on a warm one."""
    outputs = []
    for name, extra in [("plain", []), ("cold", ["--cache-dir", tmp / "cache"]),
                        ("warm", ["--cache-dir", tmp / "cache"])]:
        code, _, err = run_cli(args + extra + ["--out", tmp / f"{name}.tsv"])
        assert code == 0, err
        outputs.append((tmp / f"{name}.tsv").read_bytes())
    return outputs


@settings(max_examples=60, deadline=None)
@given(documents, configs, st.sampled_from(["line", "file"]))
def test_cache_entry_round_trip(docs, config, docs_mode):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        text = tmp / "corpus.txt"
        text.write_text("".join(" ".join(doc) + "\n" for doc in docs), encoding="utf-8")
        args = ["count", "--corpus", text, "--docs", docs_mode, *corpus_flags(config)]
        plain, cold, warm = count_three_ways(args, tmp)
        (entry,) = (tmp / "cache").glob("*.tsv")
        assert entry.read_bytes().startswith(plain)
        assert load_counts(tmp / "plain.tsv").config == config
    assert plain == cold == warm


@pytest.mark.parametrize(
    "flags, shards",
    [(["--window", "1"], 1), (["--window", "7"], 1), (["--boundaries", "sentence"], 1),
     (["--boundaries", "none"], 1), (["--no-lowercase"], 1), (["--docs", "file"], 1),
     (["--docs", "line"], 1), (["--docs", "line"], 2)],
    ids=["window-1", "window-7", "sentence", "none", "no-lowercase", "docs-file", "docs-line",
         "two-shards"],
)
def test_warm_run_equals_uncached(flags, shards, tmp_path, two_shards):
    args = ["count", "--corpus", *two_shards[:shards], *flags]
    plain, cold, warm = count_three_ways(args, tmp_path)
    assert plain == cold == warm
    # the cold run stores its sidecar beside the entry, and the warm run copies it
    (entry,) = (tmp_path / "cache").glob("*.tsv")
    sidecars = [sidecar_of(path).read_bytes() for path in tmp_path.glob("*.tsv")]
    assert len(sidecars) == 3 and set(sidecars) == {sidecar_of(entry).read_bytes()}


@pytest.fixture()
def two_shards(tmp_path, toy_corpus_path):
    """The toy corpus, and a second shard of its first half with every word reversed."""
    lines = toy_corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
    second = tmp_path / "shard2.txt"
    second.write_text("".join(line[-2::-1] + "\n" for line in lines[: len(lines) // 2]))
    return [toy_corpus_path, second]


def edit_lines(data: bytes, change) -> bytes:
    """The entry ``data`` with ``change`` applied to its lines."""
    body = data.decode("utf-8").splitlines(keepends=True)
    header = next(i for i, line in enumerate(body) if line.startswith("#counts"))
    cells = next(i for i, line in enumerate(body) if i > header and line[0] != "#")
    edited = change(body, header, cells).encode("utf-8", "surrogateescape")
    assert edited != data
    return edited


def renamed_target(line: str, name: str) -> str:
    return name + line[line.index("\t") :]


def flipped(data: bytes, at: int) -> bytes:
    """``data`` with one bit of its byte ``at`` flipped."""
    at %= len(data)
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]


def resaved(sidecar: Path, **changes) -> None:
    """Write ``sidecar`` again with ``changes`` to its members; a member changed to None is left out."""
    with np.load(sidecar) as held:
        members = {**dict(held), **changes}
    np.savez(sidecar, **{key: value for key, value in members.items() if value is not None})


class TestCountCache:
    @pytest.fixture()
    def cached(self, tmp_path, toy_corpus_path):
        """A count run that left one cache entry; returns (args, entry, uncached output)."""
        args = ["count", "--corpus", toy_corpus_path, "--docs", "line", "--window", "3"]
        plain = tmp_path / "plain.tsv"
        code, _, err = run_cli(args + ["--out", plain])
        assert code == 0, err
        args += ["--cache-dir", tmp_path / "cache"]
        code, _, err = run_cli(args + ["--out", tmp_path / "cold.tsv"])
        assert code == 0, err
        (entry,) = (tmp_path / "cache").glob("*.tsv")
        assert entry.name.startswith("counts-v4-") and entry.suffix == ".tsv"
        assert (tmp_path / "cold.tsv").read_bytes() == plain.read_bytes()
        return args, entry, plain.read_bytes()

    def test_warm_run_reads_the_entry(self, cached, tmp_path, monkeypatch):
        args, entry, plain = cached
        for name in ("count_cooccurrences", "merge_counts", "save_counts"):
            monkeypatch.setattr(distsem.cli, name, None)  # a recount or a rewrite would fail
        code, _, err = run_cli(args + ["--out", tmp_path / "warm.tsv"])
        assert code == 0, err
        assert (tmp_path / "warm.tsv").read_bytes() == plain

    def test_entry_is_the_output_and_its_digest(self, cached):
        _, entry, plain = cached
        assert entry.read_bytes() == plain
        with np.load(sidecar_of(entry)) as held:
            assert bytes(held["sha256"]) == sha256(plain).hexdigest().encode()
        assert sorted(p.name for p in entry.parent.iterdir()) == [entry.name, sidecar_of(entry).name]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_each_input_is_hashed_once(self, tmp_path, two_shards, shards, fifo):
        """Each input of every subcommand, a file or a pipe, is opened once, by the reader that hashes it.

        The two exceptions: a cold ``count --cache-dir`` reads each regular
        corpus file once more, to key the entry, and a stale sidecar is
        ignored, so its counts or IC file is parsed after it was hashed.
        """
        corpus_files = two_shards[:shards]
        args = ["count", "--corpus", *corpus_files, "--cache-dir", tmp_path / "cache"]
        opened, blocks = Counter(), corpus._blocks

        def counted_blocks(path, *rest):
            opened[str(path)] += 1
            return blocks(path, *rest)

        def run(args, out=tmp_path / "run.out") -> dict:
            opened.clear()
            code, _, err = run_cli(args + ["--out", out])
            assert code == 0, err
            return dict(opened)

        def each(paths, times=1) -> dict:
            return {str(p): times for p in paths}

        def piped(args) -> list:
            return [fifo(a.read_bytes()) if isinstance(a, Path) else a for a in args]

        inputs = write_inputs(tmp_path / "inputs")
        other_counts = count_to(tmp_path / "other.tsv", two_shards[1])
        taxonomy = FIXTURES / "toy_taxonomy.tsv"
        with mock.patch.object(corpus, "_blocks", counted_blocks):
            assert run(args) == each(corpus_files, 2)  # cold: the key, then the count
            assert run(args) == each(corpus_files)  # warm
            pipes = piped(corpus_files)
            assert run(["count", "--corpus", *pipes, "--cache-dir", tmp_path / "cache"]) == each(pipes)
            counts = count_to(tmp_path / "counts.tsv", corpus_files[0])
            for state in ("sidecar", "deleted", "stale", "piped"):
                if state == "deleted":
                    sidecar_of(counts).unlink()
                elif state == "stale":  # another file's sidecar
                    sidecar_of(counts).write_bytes(sidecar_of(other_counts).read_bytes())
                for flags, options in QUERIES.values():
                    if options != ["--triples"]:
                        given = [*flags, "--counts", counts]
                        if state == "piped":
                            given = piped(given)
                        found = run(given)
                        paths = [a for a in given if isinstance(a, Path)]
                        stale = each([counts], 2) if state == "stale" else {}
                        assert found == each(paths) | stale, (state, flags)
            ic = tmp_path / "ic.tsv"
            counts = inputs / "counts.tsv"
            assert run(["ic-build", "--taxonomy", taxonomy, "--counts", counts], ic) == each([taxonomy, counts])
            for state in ("sidecar", "deleted", "stale", "piped"):
                if state == "deleted":
                    sidecar_of(ic).unlink()
                elif state == "stale":
                    sidecar_of(ic).write_bytes(sidecar_of(inputs / "ic.tsv").read_bytes())
                for measure in ("res", "jc", "lin"):
                    given = ["taxo-distance", "--taxonomy", taxonomy, "--ic", ic, "--taxo-measure", measure,
                             "--c1", "dog", "--c2", "cat"]
                    if state == "piped":
                        given = piped(given)
                    paths = [a for a in given if isinstance(a, Path)]
                    stale = each([ic], 2) if state == "stale" else {}
                    assert run(given) == each(paths) | stale, (state, measure)
            for case, case_args in CASES.items():
                given = [inputs / a if a in NAMES else a for a in case_args]
                assert run(given) == each(a for a in given if isinstance(a, Path)), case
                given = piped(given)
                assert run(given) == each(a for a in given if isinstance(a, Path)), case

    def test_warm_runs_to_the_cold_out_leave_one_copy_and_no_temporary(self, cached, tmp_path):
        args, entry, _ = cached
        out = tmp_path / "cold.tsv"
        out.chmod(0o640)  # a warm run rewrites the file in place, keeping its permissions
        for _ in range(2):
            code, _, err = run_cli(args + ["--out", out])
            assert code == 0, err
        copy, kept = sidecar_of(out), sidecar_of(entry)
        assert copy.read_bytes() == kept.read_bytes() and not copy.samefile(kept)
        assert copy.stat().st_mode == out.stat().st_mode
        assert [p.name for d in (tmp_path, entry.parent) for p in d.iterdir() if ".tmp" in p.name] == []

    def test_other_version_is_a_miss(self, cached, tmp_path, monkeypatch):
        args, entry, plain = cached
        monkeypatch.setattr(distsem.cli, "__version__", "0.0-other")
        code, _, err = run_cli(args + ["--out", tmp_path / "other.tsv"])
        assert code == 0, err
        other = (tmp_path / "other.tsv").read_bytes()
        assert b"tool=distsem/0.0-other\n" in other
        assert other.replace(b"0.0-other", distsem.__version__.encode()) == plain
        assert len(list(entry.parent.glob("*.tsv"))) == 2 and entry.read_bytes() == plain

    def rerun_fails(self, args, entry, tmp_path):
        code, out, err = run_cli(args + ["--out", tmp_path / "again.tsv"])
        assert (code, out) == (2, ""), err
        assert str(entry) in err

    @pytest.mark.parametrize("keep", [0, 1, 30, 0.5, -1])
    def test_truncated_entry(self, cached, tmp_path, keep):
        args, entry, _ = cached
        data = entry.read_bytes()
        entry.write_bytes(data[: int(keep * len(data)) if isinstance(keep, float) else keep])
        self.rerun_fails(args, entry, tmp_path)

    @pytest.mark.parametrize(
        "content", [b"garbage", b"#counts\ttotal_pairs=0\n", b"\x93NUMPY\x01\x00"]
    )
    def test_garbage_entry(self, cached, tmp_path, content):
        args, entry, _ = cached
        entry.write_bytes(content)
        self.rerun_fails(args, entry, tmp_path)

    def test_array_entry(self, cached, tmp_path):
        args, entry, _ = cached
        with open(entry, "wb") as out:
            np.save(out, np.arange(3))
        self.rerun_fails(args, entry, tmp_path)

    @pytest.mark.parametrize(
        "change",
        [
            lambda entry: entry.write_bytes(flipped(entry.read_bytes(), 100)),
            lambda entry: resaved(sidecar_of(entry), sha256=None),
            lambda entry: resaved(sidecar_of(entry), sha256=text(sha256(b"other").hexdigest())),
            lambda entry: resaved(sidecar_of(entry), version=corpus._SIDECAR_VERSION + 1),
            lambda entry: sidecar_of(entry).write_bytes(flipped(sidecar_of(entry).read_bytes(), -5)),
            lambda entry: sidecar_of(entry).write_bytes(b"garbage"),
        ],
        ids=["flipped-byte", "no-digest", "altered-digest", "other-version", "flipped-sidecar",
             "garbage-sidecar"],
    )
    def test_damaged_entry(self, cached, tmp_path, change):
        """An entry whose sidecar does not record the sha256 of its bytes is refused."""
        args, entry, _ = cached
        change(entry)
        self.rerun_fails(args, entry, tmp_path)

    @pytest.mark.parametrize(
        "change",
        [
            lambda b, h, c: "".join(b[:h] + b[h + 1 :]),
            lambda b, h, c: "".join(b).replace("total_pairs=", "total_pairs=1"),
            lambda b, h, c: "".join(b[:c] + [b[c].replace("\n", ".0\n")] + b[c + 1 :]),
            lambda b, h, c: "".join(b[:c] + [b[c].replace("\t", "\tunseen\t", 1)] + b[c + 1 :]),
            lambda b, h, c: "".join(b[:c] + [b[c + 1], b[c]] + b[c + 2 :]),
            lambda b, h, c: "".join(b[:-1]),
            lambda b, h, c: "".join(b + [renamed_target(b[-1], "zzz")]),
            lambda b, h, c: "".join(b[:c] + [renamed_target(b[c], b[c][: b[c].index("\t") - 1])]
                                    + b[c + 1 :]),
            lambda b, h, c: "".join(b[:c] + [renamed_target(b[c], "\udcff")] + b[c + 1 :]),
            lambda b, h, c: "".join(b[: h + 1] + b[h + 2 :]),
        ],
        ids=["no-header", "total-pairs", "float-data", "index-range", "index-order",
             "indptr", "shape", "cut-name", "bad-utf8", "unigrams"],
    )
    def test_inconsistent_entry(self, cached, tmp_path, change):
        """An edited body is refused by the sha256 its sidecar records, even where the counts would still load."""
        args, entry, _ = cached
        entry.write_bytes(edit_lines(entry.read_bytes(), change))
        self.rerun_fails(args, entry, tmp_path)

    def recount_leaves(self, cached, tmp_path, old_name: str):
        """A run with only an entry of another name recounts and leaves that entry, and its sidecar, alone."""
        args, entry, plain = cached
        key = entry.name[len("counts-v4-") : -len(".tsv")]
        old = entry.parent / old_name.format(key)
        kept = entry.read_bytes(), sidecar_of(entry).read_bytes()
        sidecar_of(entry).rename(sidecar_of(old))
        entry.rename(old)
        code, _, err = run_cli(args + ["--out", tmp_path / "recount.tsv"])
        assert code == 0, err
        assert (tmp_path / "recount.tsv").read_bytes() == plain
        assert (entry.read_bytes(), sidecar_of(entry).read_bytes()) == kept
        assert (old.read_bytes(), sidecar_of(old).read_bytes()) == kept

    def test_old_tsv_entry_is_ignored(self, cached, tmp_path):
        self.recount_leaves(cached, tmp_path, "counts-{}.tsv")

    def test_old_npz_entry_is_ignored(self, cached, tmp_path):
        self.recount_leaves(cached, tmp_path, "counts-v2-{}.npz")

    def test_v3_entry_is_ignored(self, cached, tmp_path):
        self.recount_leaves(cached, tmp_path, "counts-v3-{}.tsv")

    @pytest.mark.parametrize("missing", ["sidecar", "entry"])
    def test_an_entry_missing_a_file_is_counted_again(self, cached, tmp_path, missing):
        """Deleting an entry's sidecar, or the entry without it, is a miss that writes both files again."""
        args, entry, plain = cached
        kept = entry.read_bytes(), sidecar_of(entry).read_bytes()
        (sidecar_of(entry) if missing == "sidecar" else entry).unlink()
        with mock.patch.object(distsem.cli, "save_counts", wraps=distsem.cli.save_counts) as save:
            code, _, err = run_cli(args + ["--out", tmp_path / "recount.tsv"])
        assert code == 0, err
        assert save.called and (tmp_path / "recount.tsv").read_bytes() == plain
        assert (entry.read_bytes(), sidecar_of(entry).read_bytes()) == kept
        assert sorted(p.name for p in entry.parent.iterdir()) == [entry.name, sidecar_of(entry).name]


# ---------------------------------------------------------------------------
# the binary sidecar of a counts file


def sidecar_of(path: Path) -> Path:
    return path.with_name(path.name + ".npz")


def count_to(out: Path, corpus_file: Path, *flags) -> Path:
    code, _, err = run_cli(["count", "--corpus", corpus_file, *flags, "--out", out])
    assert code == 0, err
    return out


@pytest.fixture()
def window_counts(tmp_path, toy_corpus_path):
    """A counts file of the toy corpus, with its sidecar."""
    return count_to(tmp_path / "counts.tsv", toy_corpus_path, "--docs", "line", "--window", "3")


FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: Each query of a counts file: its flags, and the options of the count it reads.
QUERIES = {
    "profile": (["profile", "--target", "cat", "--soa", "pmi"], ["--window", "3"]),
    "distance": (["distance", "--w1", "cat", "--w2", "dog", "--measure", "lin"], ["--window", "2"]),
    "rank": (["rank", "--benchmark", FIXTURES / "toy_benchmark.csv", "--measure", "jsd"], []),
    "eval": (["eval", "--choices", FIXTURES / "toy_choices.tsv"], ["--window", "3"]),
    "eval-benchmark": (["eval", "--benchmark", FIXTURES / "toy_benchmark.csv", "--measure", "kld_avg"],
                       []),
    "wccm-build": (["wccm-build", "--thesaurus", FIXTURES / "toy_thesaurus.tsv"], []),
    "ic-build": (["ic-build", "--taxonomy", FIXTURES / "toy_taxonomy.tsv"], ["--window", "4"]),
    "relation-profile": (["profile", "--target", "eat", "--soa", "pmi"], ["--triples"]),
    "relation-distance": (["distance", "--w1", "apple", "--w2", "bread", "--measure", "cos"],
                          ["--triples"]),
}


def query_counts(name: str, tmp_path: Path) -> Path:
    """The counts file that query ``name`` reads, written by the CLI with its sidecar."""
    options = QUERIES[name][1]
    if options == ["--triples"]:
        return count_to(tmp_path / "counts.tsv", FIXTURES / "toy.triples", *options)
    return count_to(tmp_path / "counts.tsv", FIXTURES / "toy.txt", "--docs", "line", *options)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_outputs_are_the_same_with_the_sidecar_stale_and_deleted(name, tmp_path):
    counts = query_counts(name, tmp_path)
    other = count_to(tmp_path / "other.tsv", FIXTURES / "toy.txt", "--window", "1")
    outputs = []
    for state in ("sidecar", "stale", "deleted"):
        if state == "stale":  # the sidecar of other counts: it records another file's digest
            sidecar_of(counts).write_bytes(sidecar_of(other).read_bytes())
        elif state == "deleted":
            sidecar_of(counts).unlink()
        out = tmp_path / f"{state}.out"
        with mock.patch.object(corpus, "_parse_counts", wraps=corpus._parse_counts) as parse:
            code, _, err = run_cli([*QUERIES[name][0], "--counts", counts, "--out", out])
        assert code == 0, err
        assert parse.called == (state != "sidecar"), state
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_a_sidecar_that_cannot_be_opened_is_none(window_counts):
    sidecar_of(window_counts).unlink()
    sidecar_of(window_counts).mkdir()  # opening it fails, as for a sidecar the reader may not read
    with mock.patch.object(corpus, "_parse_counts", wraps=corpus._parse_counts) as parse, \
            corpus._recording() as record:
        loaded = load_counts(window_counts)
    assert parse.called and loaded.nnz() > 0
    assert record == {str(window_counts): sha256(window_counts.read_bytes()).hexdigest()}


def test_a_valid_sidecar_is_read_without_the_tsv(tmp_path, toy_counts):
    path = tmp_path / "counts.tsv"
    save_counts(toy_counts, path)
    with mock.patch.object(corpus, "read_tagged_tsv", side_effect=AssertionError("the TSV was parsed")), \
            corpus._recording() as record:
        loaded = load_counts(path)
    assert counts_equal(loaded, toy_counts)
    assert (loaded.config, loaded.feature_kind) == (toy_counts.config, toy_counts.feature_kind)
    assert record == {str(path): sha256(path.read_bytes()).hexdigest()}
    # mkstemp makes the sidecar for its owner alone; it takes the TSV's permissions instead
    assert sidecar_of(path).stat().st_mode == path.stat().st_mode


def test_another_version_is_ignored(window_counts):
    sidecar = sidecar_of(window_counts)
    with np.load(sidecar) as held:
        members = dict(held)
    np.savez(sidecar, **{**members, "version": corpus._SIDECAR_VERSION + 1})
    with mock.patch.object(corpus, "_parse_counts", wraps=corpus._parse_counts) as parse:
        loaded = load_counts(window_counts)
    assert parse.called and counts_equal(loaded, corpus._parse_counts(window_counts))


def refused(counts: Path, sidecar: Path) -> str:
    code, out, err = run_cli(["profile", "--counts", counts, "--target", "cat"])
    assert (code, out) == (2, ""), err
    assert f"{sidecar}: damaged counts sidecar" in err
    return err


@pytest.mark.parametrize("keep", [0, 1, 30, 0.5, -1])
def test_truncated_sidecar(window_counts, keep):
    sidecar = sidecar_of(window_counts)
    data = sidecar.read_bytes()
    sidecar.write_bytes(data[: int(keep * len(data)) if isinstance(keep, float) else keep])
    refused(window_counts, sidecar)


def flip_offsets(data: bytes) -> list[int]:
    """Offsets in each array member of a sidecar: the first digit of its shape and its middle.

    A smaller shape makes numpy read less than the whole member, which the
    CRC-32 of a zip member only catches when the member is read to its end.
    """
    offsets = []
    for start in (m.start() for m in re.finditer(rb"\x93NUMPY", data)):
        shape = data.index(b"'shape': (", start) + len(b"'shape': (")
        end = data.index(b"PK", shape)
        offsets += [shape, (shape + end) // 2] if data[shape : shape + 1] != b")" else [start + 20]
    return offsets


def test_flipped_sidecar(window_counts):
    sidecar = sidecar_of(window_counts)
    data = sidecar.read_bytes()
    offsets = flip_offsets(data)
    assert len(offsets) == 2 * 9 + 1  # the version's shape is ()
    for at in offsets + [0, len(data) - 5]:  # and the zip's first and last records
        sidecar.write_bytes(data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :])
        refused(window_counts, sidecar)


def swapped(a: np.ndarray, i: int = 0) -> np.ndarray:
    a[i], a[i + 1] = a[i + 1].copy(), a[i].copy()
    return a


def text(value: str) -> np.ndarray:
    return np.frombuffer(value.encode(), dtype=np.uint8)


def names_swapped(joined: np.ndarray) -> np.ndarray:
    names = bytes(joined).decode().split("\n")
    return text("\n".join([names[1], names[0], *names[2:]]))


@pytest.mark.parametrize(
    "key, change, problem",
    [
        ("indptr", lambda a: a + 1, "indptr does not run from 0"),
        ("indptr", lambda a: a[:-1], "indptr does not run from 0"),
        ("data", lambda a: a[:-1], "indptr does not run from 0"),
        ("indptr", lambda a: np.concatenate([a[:2], a[1:]]), "indptr does not run from 0"),
        ("indices", lambda a: np.where(a == a.max(), a.max() + 1, a), "index out of range"),
        ("indices", lambda a: a.astype(np.int64) - (a == 0), "index out of range"),
        ("indices", lambda a: swapped(a), "not strictly increasing within a row"),
        ("indices", lambda a: np.concatenate([a[:1], a[:-1]]), "not strictly increasing"),
        ("data", lambda a: np.concatenate([[0], a[1:]]), "not positive"),
        ("data", lambda a: -a.astype(np.int64), "not positive"),
        ("data", lambda a: np.full(a.shape, 2**50), "past 2**53"),
        ("targets", names_swapped, "not strictly sorted"),
        ("features", names_swapped, "not strictly sorted"),
        ("targets", lambda a: a[: len(a) // 2], "indptr does not run from 0"),
        ("indptr", lambda a: a.astype(np.float32), "not int64 vectors"),
        ("data", lambda a: a.astype(float), "not int64 vectors"),
        ("unigrams", lambda a: a[1:], "unigram table"),
        ("unigrams", lambda a: -a, "unigram table"),
        ("unigram_words", names_swapped, "unigram table"),
        ("fields", lambda a: text(bytes(a).decode().replace("total_tokens=", "total_tokens=x")),
         "ValueError"),
        ("fields", lambda a: text(bytes(a).decode().replace("window=3", "window=0")),
         "ConfigurationError"),
        ("fields", lambda a: text("total_pairs=1"), "KeyError"),
        # each row below changes one member of a sidecar that loads, so its problem is that change
        ("fields", lambda a: text(bytes(a).decode().replace("total_pairs=", "total_pairs=9")),
         "do not add up to total_pairs"),
        ("fields", lambda a: text(bytes(a).decode().replace("feature_kind=word", "feature_kind=relation")),
         "a relation feature that is not relation:word"),
        ("targets", lambda a: np.append(a, 255).astype(np.uint8), "UnicodeDecodeError"),
    ],
)
def test_structurally_invalid_sidecar(window_counts, key, change, problem):
    """A well-formed zip whose arrays are not counts is refused, not read."""
    sidecar = sidecar_of(window_counts)
    with np.load(sidecar) as held:
        members = dict(held)
    np.savez(sidecar, **{**members, key: change(members[key].copy())})
    assert problem in refused(window_counts, sidecar)


@pytest.mark.parametrize("missing", ["indices", "features", "sha256"])
def test_sidecar_without_a_member(window_counts, missing):
    sidecar = sidecar_of(window_counts)
    with np.load(sidecar) as held:
        members = {key: value for key, value in held.items() if key != missing}
    np.savez(sidecar, **members)
    assert "KeyError" in refused(window_counts, sidecar)


@pytest.mark.parametrize(
    "content", [b"garbage", b"", b"\x93NUMPY\x01\x00", b"PK\x05\x06" + bytes(18)]
)
def test_garbage_sidecar(window_counts, content):
    sidecar_of(window_counts).write_bytes(content)
    refused(window_counts, sidecar_of(window_counts))


# names a counts file might not read back: tabs, line ends, '#', ':' and the whitespace that
# str.splitlines or str.strip take as line ends or blanks
odd_names = st.one_of(
    st.text(st.sampled_from(["a", "b", "#", ":", " ", "é", "\x85", "\u2028", "\x0c", "^"]), min_size=1,
            max_size=3),
    st.text(st.sampled_from(["a", "#", ":", "\t", "\n", "\r", " ", "\x85"]), max_size=3),
)


def unreadable(name: str, target: bool = False, relation: bool = False) -> bool:
    return (not name or any(c in name for c in "\t\n\r") or (target and name[0] == "#")
            or (relation and ":" not in name))


@settings(max_examples=150, deadline=None)
@given(
    st.booleans(),
    # counts of every width the sidecar may store them in, from uint8 to uint64
    st.dictionaries(st.tuples(odd_names, odd_names, odd_names), st.integers(0, 2**40), max_size=6),
    st.dictionaries(odd_names, st.integers(0, 2**40), max_size=4),
    st.sampled_from([None, CorpusConfig(window_radius=2, lowercase=False, respect_boundaries="none")]),
)
def test_sidecar_reads_back_as_the_tsv(relation, cells, unigrams, config):
    """Either save_counts refuses a name, or the sidecar, the TSV and the counts saved agree."""
    if relation:  # relation labels and words hold no ':', as the triples reader requires
        pairs = {(t, (r.replace(":", ""), w.replace(":", ""))): n for (t, r, w), n in cells.items()}
    else:
        pairs = {(t, r + w): n for (t, r, w), n in cells.items()}
    counts = CooccurrenceCounts.from_pairs(
        pairs, unigram_counts=unigrams, total_tokens=7, config=config,
        feature_kind="relation" if relation else "word",
    )
    bad = (any(unreadable(t, target=True) for t in counts.targets)
           or any(unreadable(render_feature(f), relation=relation) for f in counts.features)
           or any(map(unreadable, unigrams)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.tsv"
        try:
            save_counts(counts, path)
        except ValidationError:
            assert bad and not path.exists()
            return
        assert not bad and sidecar_of(path).exists()
        from_sidecar, from_tsv = load_counts(path), corpus._parse_counts(path)
    for loaded in (from_sidecar, from_tsv):
        assert counts_equal(loaded, counts)
        assert (loaded.feature_kind, loaded.config) == (counts.feature_kind, counts.config)
        assert [render_feature(f) for f in loaded.features] == list(counts.feature_keys)


def beside_stdout():
    """When a file beside ``/dev/stdout`` was last changed, or None if there is none."""
    try:
        return os.stat("/dev/stdout.npz").st_mtime_ns
    except FileNotFoundError:
        return None


def test_count_to_stdout_writes_no_sidecar(toy_corpus_path, tmp_path):
    before = beside_stdout()
    proc = subprocess.run(
        [sys.executable, "-m", "distsem", "count", "--corpus", str(toy_corpus_path),
         "--out", "/dev/stdout"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={"PYTHONPATH": str(Path(corpus.__file__).parent.parent), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("#manifest\t") and "\n#counts\t" in proc.stdout
    assert beside_stdout() == before and list(tmp_path.iterdir()) == []
    assert corpus._sidecar("/dev/stdout") is None


def test_cached_count_to_a_pipe_writes_the_counts(toy_corpus_path, tmp_path):
    """A cold and a warm cached run to ``/dev/stdout`` on a pipe give the uncached counts.

    The cold run read ``--out`` back to store the cache entry; on a pipe that
    read took the counts itself and then waited for an end that never came.
    """
    plain = count_to(tmp_path / "plain.tsv", toy_corpus_path).read_bytes()
    for run in ("cold", "warm"):
        proc = subprocess.run(
            [sys.executable, "-m", "distsem", "count", "--corpus", str(toy_corpus_path),
             "--cache-dir", str(tmp_path / "cache"), "--out", "/dev/stdout"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, timeout=60,
            env={"PYTHONPATH": str(Path(corpus.__file__).parent.parent), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == plain, run
    (entry,) = (tmp_path / "cache").glob("*.tsv")
    assert entry.read_bytes() == plain
    assert sidecar_of(entry).exists() and sorted(p.name for p in (tmp_path / "cache").iterdir()) == [
        entry.name, sidecar_of(entry).name
    ]


@pytest.mark.parametrize("sidecar_before", [False, True])
def test_a_unigram_count_past_int64_is_saved_without_a_sidecar(tmp_path, toy_counts, sidecar_before):
    """The TSV holds any count; the sidecar's int64 unigram table cannot, so none is written,
    and one left by an earlier save is removed, so a load reads the file once."""
    path = tmp_path / "big.tsv"
    path.write_text("#counts\ttotal_tokens=3\tfeature_kind=word\n#unigram\ta\t99999999999999999999\na\tb\t1\n")
    counts = load_counts(path)
    saved = tmp_path / "saved.tsv"
    if sidecar_before:
        save_counts(toy_counts, saved)
        assert sidecar_of(saved).exists()
    save_counts(counts, saved)
    assert not sidecar_of(saved).exists()
    with mock.patch.object(corpus, "_blocks", mock.Mock(wraps=corpus._blocks)) as blocks:
        loaded = load_counts(saved)
    assert blocks.call_count == 1
    assert counts_equal(loaded, counts) and loaded.unigram_counts == {"a": 99999999999999999999}


def test_counts_saved_without_a_sidecar_remove_an_earlier_one(tmp_path, toy_counts):
    """Counts not as from_ids leaves them (here, targets out of order) get no sidecar over an old one."""
    path = tmp_path / "counts.tsv"
    save_counts(toy_counts, path)
    assert sidecar_of(path).exists()
    rows = np.diff(toy_counts._indptr)[::-1]
    shuffled = corpus.CooccurrenceCounts(
        toy_counts.targets[::-1], toy_counts.features, np.append(0, np.cumsum(rows)),
        np.concatenate([toy_counts.row(t)[0] for t in toy_counts.targets[::-1]]),
        np.concatenate([toy_counts.row(t)[1] for t in toy_counts.targets[::-1]]),
        toy_counts.unigram_counts, toy_counts.total_tokens, toy_counts.config, toy_counts.feature_kind,
    )
    save_counts(shuffled, path)
    assert not sidecar_of(path).exists()
    assert counts_equal(load_counts(path), toy_counts)


def test_a_symlinked_counts_file_has_no_sidecar(tmp_path, toy_counts):
    target = tmp_path / "real.tsv"
    target.touch()
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    save_counts(toy_counts, link)
    assert not sidecar_of(link).exists() and not sidecar_of(target).exists()
    assert counts_equal(load_counts(link), toy_counts)

"""Counts storage: the block reader of tagged TSV files, repeated cells and the count cache."""

import tempfile
import tracemalloc
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
    load_counts,
    load_ic_table,
    load_wccm,
    save_counts,
)
from distsem import corpus
from distsem.concept import WCCM
from distsem.corpus import render_feature
from distsem.errors import DistSemError
from distsem.taxonomy import ICTable

from test_cli import run_cli

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
        with mock.patch.object(corpus, "_BLOCK_CHARS", chars):
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
)
wccm_lines = st.one_of(
    st.builds("{}\t{}\t{}".format, words, words, st.sampled_from(["0.0", "2.0", "3", "-1.0"])),
    st.builds("{}\t{}\t{}".format, words, words, st.sampled_from(["2.5", "nan", "x", "inf"])),
    st.sampled_from(["", " ", "#manifest\tx=1", "#note", "a\tb", "a\tb\t1\t2", "#wccm"]),
)
ic_lines = st.one_of(
    st.builds("{}\t{}\t{}".format, words, st.sampled_from(["0.5", "1e-3", "x", "2.0", "0"]),
              st.sampled_from(["1.0", "2", "y", "nan", "-3"])),
    st.sampled_from(["", " \t", "#manifest\tx=1", "#note", "a\t0.5", "a\t0.5\t1\t2", "#ic"]),
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
)
def test_small_blocks_read_as_one_line_at_a_time(kind_and_lines, block, newline, last_newline):
    kind, lines = kind_and_lines
    text = newline.join(["#manifest\ttool=test", LOADERS[kind][2], *lines])
    load, oracle, _ = LOADERS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.tsv"
        path.write_bytes((text + newline * last_newline).encode("utf-8"))
        with mock.patch.object(corpus, "_BLOCK_CHARS", block):
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
    assert len(text) > 2 * corpus._BLOCK_CHARS
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


class TestRepeatedCells:
    """A cell given twice used to load silently with its last value."""

    def test_counts(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("#counts\ttotal_pairs=3\ttotal_tokens=4\na\tb\t2\na\tb\t3\n")
        code, out, err = run_cli(["profile", "--counts", path, "--target", "a"])
        assert (code, out) == (2, ""), err
        assert f"{path}:3: repeats the cell of line 2" in err

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
        (entry,) = (tmp / "cache").iterdir()
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


@pytest.fixture()
def two_shards(tmp_path, toy_corpus_path):
    """The toy corpus, and a second shard of its first half with every word reversed."""
    lines = toy_corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
    second = tmp_path / "shard2.txt"
    second.write_text("".join(line[-2::-1] + "\n" for line in lines[: len(lines) // 2]))
    return [toy_corpus_path, second]


def edit_lines(data: bytes, change) -> bytes:
    """The entry ``data`` with ``change`` applied to its body lines; the sha256 line is kept."""
    *body, digest = data.decode("utf-8").splitlines(keepends=True)
    header = next(i for i, line in enumerate(body) if line.startswith("#counts"))
    cells = next(i for i, line in enumerate(body) if i > header and line[0] != "#")
    edited = (change(body, header, cells) + digest).encode("utf-8", "surrogateescape")
    assert edited != data
    return edited


def renamed_target(line: str, name: str) -> str:
    return name + line[line.index("\t") :]


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
        (entry,) = (tmp_path / "cache").iterdir()
        assert entry.name.startswith("counts-v3-") and entry.suffix == ".tsv"
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
        assert entry.read_bytes() == plain + b"#sha256\t%s\n" % sha256(plain).hexdigest().encode()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_each_input_is_hashed_once(self, tmp_path, two_shards, shards):
        corpus_files = two_shards[:shards]
        args = ["count", "--corpus", *corpus_files, "--cache-dir", tmp_path / "cache"]
        hashed = []
        real_hash = distsem.cli._hash_file

        def counted_hash(path):
            hashed.append(str(path))
            return real_hash(path)

        with mock.patch.object(distsem.cli, "_hash_file", counted_hash):
            for run in ("cold", "warm"):
                hashed.clear()
                code, _, err = run_cli(args + ["--out", tmp_path / f"{run}.tsv"])
                assert code == 0, err
                assert hashed == list(map(str, corpus_files)), run

    def test_other_version_is_a_miss(self, cached, tmp_path, monkeypatch):
        args, entry, plain = cached
        monkeypatch.setattr(distsem.cli, "__version__", "0.0-other")
        code, _, err = run_cli(args + ["--out", tmp_path / "other.tsv"])
        assert code == 0, err
        other = (tmp_path / "other.tsv").read_bytes()
        assert b"tool=distsem/0.0-other\n" in other
        assert other.replace(b"0.0-other", distsem.__version__.encode()) == plain
        assert len(list(entry.parent.iterdir())) == 2 and entry.read_bytes().startswith(plain)

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
            lambda data: data[:100] + bytes([data[100] ^ 1]) + data[101:],
            lambda data: data[: data.rindex(b"#sha256")],
            lambda data: data[:-2] + (b"0" if data[-2:-1] != b"0" else b"1") + b"\n",
        ],
        ids=["flipped-byte", "no-digest", "altered-digest"],
    )
    def test_damaged_entry(self, cached, tmp_path, change):
        args, entry, _ = cached
        entry.write_bytes(change(entry.read_bytes()))
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
        """An edited body is refused by the sha256 line, even where the counts would still load."""
        args, entry, _ = cached
        entry.write_bytes(edit_lines(entry.read_bytes(), change))
        self.rerun_fails(args, entry, tmp_path)

    def recount_leaves(self, cached, tmp_path, old_name: str):
        """A run with only an entry of another name recounts and leaves that entry alone."""
        args, entry, plain = cached
        key = entry.name[len("counts-v3-") : -len(".tsv")]
        old = entry.parent / old_name.format(key)
        entry.rename(old)
        code, _, err = run_cli(args + ["--out", tmp_path / "recount.tsv"])
        assert code == 0, err
        assert (tmp_path / "recount.tsv").read_bytes() == plain
        assert entry.exists() and old.read_bytes() == plain + distsem.cli._digest_line(plain)

    def test_old_tsv_entry_is_ignored(self, cached, tmp_path):
        self.recount_leaves(cached, tmp_path, "counts-{}.tsv")

    def test_old_npz_entry_is_ignored(self, cached, tmp_path):
        self.recount_leaves(cached, tmp_path, "counts-v2-{}.npz")

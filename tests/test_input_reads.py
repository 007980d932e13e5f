"""Every input is read once, through one reader that hashes it: pipes, symlinks and manifest digests."""

import builtins
import shutil
from collections import Counter
from hashlib import sha256
from pathlib import Path
from typing import Optional
from unittest import mock

import pytest

from distsem import corpus, load_taxonomy, load_wccm
from distsem.errors import CorpusDecodeError

from test_cli import run_cli

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: Each reading subcommand's arguments; a name of an ``inputs`` file stands for its path.
CASES = {
    "count-file": ["count", "--corpus", "toy.txt"],
    "count-line": ["count", "--corpus", "toy.txt", "--docs", "line", "--window", "3"],
    "count-triples": ["count", "--corpus", "toy.triples", "--triples"],
    "profile": ["profile", "--counts", "counts.tsv", "--target", "cat", "--soa", "pmi"],
    "distance": ["distance", "--counts", "counts.tsv", "--w1", "cat", "--w2", "dog"],
    "rank-counts": ["rank", "--counts", "counts.tsv", "--benchmark", "bench.csv", "--measure", "jsd"],
    "rank-wccm": ["rank", "--wccm", "base.tsv", "--thesaurus", "thesaurus.tsv", "--benchmark", "bench.csv"],
    "eval-choices": ["eval", "--counts", "counts.tsv", "--choices", "choices.tsv"],
    "eval-wccm": ["eval", "--wccm", "base.tsv", "--thesaurus", "thesaurus.tsv", "--benchmark", "bench.csv"],
    "wccm-build": ["wccm-build", "--counts", "counts.tsv", "--thesaurus", "thesaurus.tsv"],
    "wccm-bootstrap": ["wccm-bootstrap", "--corpus", "toy.txt", "--docs", "line", "--window", "3",
                       "--base", "base.tsv", "--thesaurus", "thesaurus.tsv"],
    "concept-distance": ["concept-distance", "--wccm", "base.tsv", "--c1", "music", "--c2", "food"],
    "xling-wccm": ["xling-wccm", "--counts", "counts.tsv", "--lexicon", "lexicon.tsv",
                   "--thesaurus", "thesaurus.tsv"],
    "taxo-distance": ["taxo-distance", "--taxonomy", "taxonomy.tsv", "--ic", "ic.tsv", "--taxo-measure", "jc",
                      "--c1", "dog", "--c2", "cat"],
    "ic-build-freqs": ["ic-build", "--taxonomy", "taxonomy.tsv", "--freqs", "freqs.tsv"],
    "ic-build-counts": ["ic-build", "--taxonomy", "taxonomy.tsv", "--counts", "counts.tsv"],
}

COPIED = {"toy.txt": "toy.txt", "toy.triples": "toy.triples", "thesaurus.tsv": "toy_thesaurus.tsv",
          "bench.csv": "toy_benchmark.csv", "choices.tsv": "toy_choices.tsv", "taxonomy.tsv": "toy_taxonomy.tsv"}
MADE = ("counts.tsv", "base.tsv", "ic.tsv", "lexicon.tsv", "freqs.tsv")
NAMES = set(COPIED) | set(MADE)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    return write_inputs(tmp_path_factory.mktemp("inputs"))


def write_inputs(root: Path) -> Path:
    """``root``, made to hold a regular input file of each of ``NAMES``; the written ones have sidecars."""
    root.mkdir(exist_ok=True)
    for name, fixture in COPIED.items():
        shutil.copy(FIXTURES / fixture, root / name)
    (root / "lexicon.tsv").write_text("gitarre\tguitar\nkatze\tcat\nbrot\tbread\n")
    (root / "freqs.tsv").write_text("dog\t5\ncat\t3\nhammer\t2\nthing\t1\n")
    for args in (
        ["count", "--corpus", "toy.txt", "--docs", "line", "--window", "3", "--out", "counts.tsv"],
        ["wccm-build", "--counts", "counts.tsv", "--thesaurus", "thesaurus.tsv", "--out", "base.tsv"],
        ["ic-build", "--taxonomy", "taxonomy.tsv", "--counts", "counts.tsv", "--out", "ic.tsv"],
    ):
        code, _, err = run_cli([root / a if a in NAMES else a for a in args])
        assert code == 0, err
    return root


def run(case: str, inputs: Path, out: Path, given: Optional[dict] = None) -> tuple[str, dict]:
    """The ``--out`` text of ``case``, with the files of ``given`` (name to path) in place of
    those in ``inputs``, and how many times each input path was opened."""
    paths = {name: inputs / name for name in NAMES} | (given or {})
    args = [paths.get(a, a) for a in CASES[case]]
    opened, real_open = Counter(), builtins.open

    def counted_open(file, *rest, **options):
        opened[str(file)] += 1
        return real_open(file, *rest, **options)

    with mock.patch("builtins.open", counted_open):
        code, _, err = run_cli(args + ["--out", out])
    assert code == 0, err
    return out.read_text(encoding="utf-8"), {str(p): opened[str(p)] for p in args if isinstance(p, Path)}


@pytest.mark.parametrize("mode", ["pipe", "symlink"])
@pytest.mark.parametrize(
    "case, name", [(case, name) for case, args in CASES.items() for name in args if name in NAMES]
)
def test_an_input_reads_as_its_regular_file(inputs, tmp_path, fifo, case, name, mode):
    """Output equals the regular file's, but for the manifest's input path, and each input is opened once."""
    regular = inputs / name
    if mode == "pipe":
        given = fifo(regular.read_bytes())
    else:
        given = tmp_path / f"link-{name}"
        given.symlink_to(regular)
    expected, opened = run(case, inputs, tmp_path / "regular.out")
    assert set(opened.values()) == {1}, opened
    got, opened = run(case, inputs, tmp_path / "given.out", {name: given})
    assert set(opened.values()) == {1}, opened
    assert f"#manifest\tinput={given}\tsha256={sha256(regular.read_bytes()).hexdigest()}\n" in got
    assert got.replace(str(given), str(regular)) == expected


def test_a_piped_corpus_is_counted_without_the_cache(inputs, tmp_path, fifo):
    """The output is the uncached one, and no cache entry is stored."""
    expected, _ = run("count-line", inputs, tmp_path / "regular.out")
    piped, cache, out = fifo((inputs / "toy.txt").read_bytes()), tmp_path / "cache", tmp_path / "cached.out"
    code, _, err = run_cli([piped if a == "toy.txt" else a for a in CASES["count-line"]]
                           + ["--cache-dir", cache, "--out", out])
    assert code == 0, err
    assert out.read_text(encoding="utf-8").replace(str(piped), str(inputs / "toy.txt")) == expected
    assert not cache.exists() or not any(cache.iterdir())


TEXT = "café\t€ 𝄞\r\nа\rb\n\nlast é".encode("utf-8")


@pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
def test_a_character_split_across_blocks_reads_whole(tmp_path, block):
    path = tmp_path / "text"
    path.write_bytes(TEXT)
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        text_mode = handle.read()  # \r\n and \r read as \n
    with mock.patch.object(corpus, "_BLOCK_BYTES", block), corpus._recording() as record:
        assert "".join(corpus._file_pieces(path)) == text_mode
        assert corpus.read_documents(path) == [TEXT.decode("utf-8")]
        lines = [line.decode("utf-8") for line in TEXT.split(b"\n") if line.strip()]
        assert list(corpus._document_lines(path)) == lines
    assert record == {str(path): sha256(TEXT).hexdigest()}


@pytest.mark.parametrize("block", [1, 2, 3, 64])
@pytest.mark.parametrize("per_line", [False, True])
def test_a_bad_byte_is_refused_at_its_offset_whatever_the_block(tmp_path, block, per_line):
    path = tmp_path / "bad"
    path.write_bytes(TEXT + b"\n\xe2\x82 x\n")  # a cut-short character
    with mock.patch.object(corpus, "_BLOCK_BYTES", block), pytest.raises(CorpusDecodeError) as caught:
        corpus.read_documents(path, one_doc_per_line=per_line)
    assert caught.value.byte_offset == len(TEXT) + 1


def test_a_load_outside_a_command_hashes_nothing(inputs):
    """A library load makes no sha256 outside a record; within one, the record holds each file's."""
    paths = inputs / "taxonomy.tsv", inputs / "base.tsv"

    def load():
        load_taxonomy(paths[0])
        load_wccm(paths[1])

    with mock.patch.object(corpus.hashlib, "sha256", side_effect=AssertionError("a sha256 was made")):
        load()
    with corpus._recording() as record:
        load()
    assert record == {str(path): sha256(path.read_bytes()).hexdigest() for path in paths}


def test_a_read_outside_a_command_records_nothing(tmp_path):
    path = tmp_path / "text"
    path.write_bytes(TEXT)
    corpus.read_documents(path)
    assert corpus._DIGESTS.get() is None

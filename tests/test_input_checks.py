"""Inputs that once loaded silently wrong or crashed, and options that did nothing."""

import contextlib
import io
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from distsem import (
    CooccurrenceCounts,
    CorpusConfig,
    MeasureConfig,
    SoAKind,
    Taxonomy,
    build_base_wccm,
    build_profile,
    hirst_stonge,
    ic_from_counts,
    leacock_chodorow,
    load_benchmark,
    load_counts,
    load_ic_table,
    load_lexicon,
    load_profile,
    load_taxonomy,
    load_thesaurus,
    load_wccm,
    load_word_choice,
    save_counts,
    save_ic_table,
    save_profile,
    save_wccm,
)
import distsem.cli
from distsem import corpus
from distsem.cli import main
from distsem.corpus import _BLOCK_BYTES, _BLOCK_LINES, counts_equal, ingest_triples
from distsem.errors import ConfigurationError, ParseError, ValidationError, ZeroCreditWarning
from distsem.taxonomy import load_word_frequencies

import oracles
from test_cli import SRC, run_cli
from test_counts_store import outcome


class TestCountsTotals:
    def test_cut_file_is_refused(self, toy_counts, tmp_path, fixtures_dir):
        path = tmp_path / "counts.tsv"
        save_counts(toy_counts, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        with pytest.raises(ValidationError):
            load_counts(path)
        code, _, err = run_cli(
            ["rank", "--counts", path, "--benchmark", fixtures_dir / "toy_benchmark.csv"]
        )
        assert code == 2
        assert "total_pairs" in err

    def test_files_with_min_freq_field_still_load(self, toy_counts, tmp_path):
        path = tmp_path / "counts.tsv"
        save_counts(toy_counts, path)
        text = path.read_text().replace("lowercase=true", "lowercase=true\tmin_freq=1")
        path.write_text(text)
        assert load_counts(path).config == toy_counts.config


class TestMalformedNumbers:
    """A number that does not parse is an input error (exit 2), not a traceback."""

    @pytest.mark.parametrize("tag, field", [("#counts", "total_tokens"), ("#unigram", None)])
    def test_counts_file(self, toy_counts, tmp_path, fixtures_dir, tag, field):
        path = tmp_path / "counts.tsv"
        save_counts(toy_counts, path)
        lines = path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(tag + "\t"))
        parts = lines[at].split("\t")
        if field is None:
            parts[2] = "x"
        else:
            parts = [f"{field}=abc" if p.startswith(field + "=") else p for p in parts]
        lines[at] = "\t".join(parts)
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(
            ["rank", "--counts", path, "--benchmark", fixtures_dir / "toy_benchmark.csv"]
        )
        assert code == 2, err
        assert f"counts.tsv:{at + 1}:" in err

    @pytest.mark.parametrize("column", ["prob", "ic", "log_base"])
    def test_ic_file(self, toy_taxonomy, tmp_path, fixtures_dir, column):
        path = tmp_path / "ic.tsv"
        save_ic_table(ic_from_counts(toy_taxonomy, {"dog": 3, "cat": 2, "hammer": 4}), path)
        lines = path.read_text().splitlines()
        if column == "log_base":
            lines[0] = lines[0].replace("log_base=2.0", "log_base=two")
        else:
            parts = lines[1].split("\t")
            parts[1 if column == "prob" else 2] = "x"
            lines[1] = "\t".join(parts)
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(
            ["taxo-distance", "--taxonomy", fixtures_dir / "toy_taxonomy.tsv", "--c1", "dog",
             "--c2", "cat", "--taxo-measure", "res", "--ic", path]
        )
        assert code == 2, err
        assert f"ic.tsv:{1 if column == 'log_base' else 2}:" in err


def _spoil(source, path, at=-1):
    """Copy ``source`` to ``path`` with the bytes ff fe opening line ``at``; return its number."""
    lines = source.read_bytes().splitlines(keepends=True)
    lines[at] = b"\xff\xfe" + lines[at]
    path.write_bytes(b"".join(lines))
    return range(1, len(lines) + 1)[at]


def _two_defects(source, path, bytes_first):
    """Copy ``source`` to ``path`` with two defects added after its lines: a one-field
    line ``x`` and a copy of the last line opened by the bytes ff fe, in that order or,
    if ``bytes_first``, the other.  Return the number of the first of them."""
    lines = source.read_bytes().splitlines(keepends=True)
    defects = [b"x\n", b"\xff\xfe" + lines[-1]]
    path.write_bytes(b"".join(lines + defects[::-1] if bytes_first else lines + defects))
    return len(lines) + 1


class TestInvalidUtf8:
    """A text input holding bytes that are not UTF-8 ends in ParseError naming
    the first such line (exit 2), not in a UnicodeDecodeError traceback."""

    READERS = ["counts", "wccm", "ic", "profile", "word_frequencies", "lexicon", "taxonomy",
               "thesaurus", "benchmark", "word_choice"]

    @pytest.fixture()
    def readers(self, toy_counts, toy_thesaurus, toy_taxonomy, tmp_path, fixtures_dir):
        counts, wccm, ic = tmp_path / "counts.tsv", tmp_path / "wccm.tsv", tmp_path / "ic.tsv"
        save_counts(toy_counts, counts)
        save_wccm(build_base_wccm(toy_counts, toy_thesaurus), wccm)
        save_ic_table(ic_from_counts(toy_taxonomy, {"dog": 3, "cat": 2, "hammer": 4}), ic)
        profile, freqs, lexicon = tmp_path / "p.tsv", tmp_path / "f.tsv", tmp_path / "l.tsv"
        save_profile(build_profile(toy_counts, "bread", SoAKind.PMI), profile)
        freqs.write_text("dog\t3\ncat\t2\nhammer\t4\n", encoding="utf-8")
        lexicon.write_text("hund\tdog\nkatze\tcat\n", encoding="utf-8")
        return {
            "counts": (load_counts, counts),
            "wccm": (load_wccm, wccm),
            "ic": (load_ic_table, ic),
            "profile": (load_profile, profile),
            "word_frequencies": (load_word_frequencies, freqs),
            "lexicon": (load_lexicon, lexicon),
            "taxonomy": (load_taxonomy, fixtures_dir / "toy_taxonomy.tsv"),
            "thesaurus": (load_thesaurus, fixtures_dir / "toy_thesaurus.tsv"),
            "benchmark": (load_benchmark, fixtures_dir / "toy_benchmark.csv"),
            "word_choice": (load_word_choice, fixtures_dir / "toy_choices.tsv"),
        }

    @pytest.mark.parametrize("reader", READERS)
    def test_reader(self, readers, reader, tmp_path):
        load, source = readers[reader]
        bad = tmp_path / f"bad-{source.name}"
        number = _spoil(source, bad)
        with pytest.raises(ParseError, match="invalid UTF-8") as err:
            load(bad)
        assert err.value.line_number == number

    @pytest.mark.parametrize("block", [None, 1, 7])
    @pytest.mark.parametrize("bytes_first", [False, True], ids=["line-first", "bytes-first"])
    @pytest.mark.parametrize("reader", READERS)
    def test_first_defect_in_file_order_wins(self, readers, reader, tmp_path, bytes_first, block):
        """A one-field line and a line of bad bytes: whichever comes first is named,
        whatever the piece size."""
        load, source = readers[reader]
        bad = tmp_path / f"bad-{source.name}"
        number = _two_defects(source, bad, bytes_first)
        with mock.patch.object(corpus, "_BLOCK_BYTES", block or _BLOCK_BYTES):
            with pytest.raises(ParseError) as err:
                load(bad)
        assert err.value.line_number == number
        assert ("invalid UTF-8" in str(err.value)) == bytes_first

    @pytest.mark.parametrize("at", ["header", "second block"])
    def test_long_counts_file(self, toy_counts, tmp_path, at):
        source, bad = tmp_path / "counts.tsv", tmp_path / "bad.tsv"
        save_counts(toy_counts, source)
        lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
        header = next(i for i, line in enumerate(lines) if line.startswith("#counts"))
        cells = [line for line in lines[header + 1 :] if not line.startswith("#")]
        filler = "".join(f"#unigram\tw{i}\t1\n" for i in range(_BLOCK_LINES + 10))
        source.write_text("".join(lines[: header + 1]) + filler + "".join(cells), "utf-8")
        number = _spoil(source, bad, header if at == "header" else -2)
        with pytest.raises(ParseError, match="invalid UTF-8") as err:
            load_counts(bad)
        assert err.value.line_number == number

    def test_taxonomy_through_cli(self, tmp_path):
        path = tmp_path / "bad.taxo"
        path.write_bytes(b"NODE\ta\tA\n\xff\xfe\n")
        code, out, err = run_cli(
            ["taxo-distance", "--taxonomy", path, "--c1", "a", "--c2", "b",
             "--taxo-measure", "path"]
        )
        assert (code, out) == (2, ""), err
        assert "bad.taxo:2: invalid UTF-8" in err

    def test_triples_through_cli(self, fixtures_dir, tmp_path):
        bad = tmp_path / "bad.triples"
        number = _spoil(fixtures_dir / "toy.triples", bad, 1)
        code, out, err = run_cli(
            ["count", "--corpus", bad, "--triples", "--out", tmp_path / "c.tsv"]
        )
        assert (code, out) == (2, ""), err
        assert f"bad.triples:{number}: invalid UTF-8" in err

    @pytest.mark.parametrize("block", [None, 1, 7])
    @pytest.mark.parametrize("bytes_first", [False, True], ids=["line-first", "bytes-first"])
    def test_triples_defect_order_through_cli(self, fixtures_dir, tmp_path, bytes_first, block):
        bad = tmp_path / "bad.triples"
        number = _two_defects(fixtures_dir / "toy.triples", bad, bytes_first)
        with mock.patch.object(corpus, "_BLOCK_BYTES", block or _BLOCK_BYTES):
            code, out, err = run_cli(
                ["count", "--corpus", bad, "--triples", "--out", tmp_path / "c.tsv"]
            )
        assert (code, out) == (2, ""), err
        message = "invalid UTF-8" if bytes_first else "expected head<TAB>relation<TAB>dependent"
        assert f"bad.triples:{number}: {message}" in err

    def test_triples_file_of_many_pieces(self, fixtures_dir, tmp_path):
        triples = (fixtures_dir / "toy.triples").read_text("utf-8").splitlines()
        lines = (triples + ["", "#note\tx", "  "]) * 3000
        path = tmp_path / "many.triples"
        path.write_text("\n".join(lines) + "\n", "utf-8")
        assert path.stat().st_size > 3 * _BLOCK_BYTES
        code, _, err = run_cli(["count", "--corpus", path, "--triples", "--out", tmp_path / "c.tsv"])
        assert code == 0, err
        assert counts_equal(load_counts(tmp_path / "c.tsv"), ingest_triples(lines))


class TestIgnoredInputs:
    """An input the command would not read is refused (exit 2), not dropped."""

    @pytest.fixture()
    def files(self, toy_counts, toy_thesaurus, toy_taxonomy, tmp_path, fixtures_dir):
        counts, wccm, ic = tmp_path / "counts.tsv", tmp_path / "wccm.tsv", tmp_path / "ic.tsv"
        save_counts(toy_counts, counts)
        save_wccm(build_base_wccm(toy_counts, toy_thesaurus), wccm)
        save_ic_table(ic_from_counts(toy_taxonomy, {"dog": 3, "cat": 2, "hammer": 4}), ic)
        return {
            "counts": counts,
            "wccm": wccm,
            "ic": ic,
            "thesaurus": fixtures_dir / "toy_thesaurus.tsv",
            "benchmark": fixtures_dir / "toy_benchmark.csv",
            "taxonomy": fixtures_dir / "toy_taxonomy.tsv",
        }

    @pytest.mark.parametrize("command", ["rank", "eval"])
    def test_counts_with_wccm(self, files, command):
        code, out, err = run_cli(
            [command, "--counts", files["counts"], "--wccm", files["wccm"],
             "--thesaurus", files["thesaurus"], "--benchmark", files["benchmark"]]
        )
        assert (code, out) == (2, ""), err
        assert "--counts and --wccm" in err

    @pytest.mark.parametrize("command", ["rank", "eval"])
    def test_thesaurus_without_wccm(self, files, command):
        code, out, err = run_cli(
            [command, "--counts", files["counts"], "--thesaurus", files["thesaurus"],
             "--benchmark", files["benchmark"]]
        )
        assert (code, out) == (2, ""), err
        assert "--thesaurus" in err

    @pytest.mark.parametrize("measure", ["path", "hs", "lc"])
    def test_ic_with_path_measure(self, files, measure):
        code, out, err = run_cli(
            ["taxo-distance", "--taxonomy", files["taxonomy"], "--c1", "dog", "--c2", "cat",
             "--taxo-measure", measure, "--ic", files["ic"]]
        )
        assert (code, out) == (2, ""), err
        assert "--ic" in err

    @pytest.mark.parametrize("relations", ["subj", ""])
    def test_relations_without_triples(self, fixtures_dir, tmp_path, relations):
        code, out, err = run_cli(
            ["count", "--corpus", fixtures_dir / "toy.txt", "--relations", relations,
             "--out", tmp_path / "c.tsv"]
        )
        assert (code, out) == (2, ""), err
        assert "--relations" in err
        assert not (tmp_path / "c.tsv").exists()

    def test_empty_relations_with_triples(self, fixtures_dir, tmp_path):
        code, out, err = run_cli(
            ["count", "--corpus", fixtures_dir / "toy.triples", "--triples", "--relations", "",
             "--out", tmp_path / "c.tsv"]
        )
        assert (code, out) == (2, ""), err
        assert "--relations" in err
        assert not (tmp_path / "c.tsv").exists()

    def test_cache_dir_with_triples(self, fixtures_dir, tmp_path):
        cache = tmp_path / "cache"
        code, out, err = run_cli(
            ["count", "--corpus", fixtures_dir / "toy.triples", "--triples", "--cache-dir", cache,
             "--out", tmp_path / "c.tsv"]
        )
        assert (code, out) == (2, ""), err
        assert "--cache-dir" in err
        assert not cache.exists()


class TestPathsUnderAFile:
    """An output or cache path below a regular file is a usage error (exit 2)."""

    @pytest.mark.parametrize(
        "flags",
        [["--out", "afile/x.tsv"], ["--cache-dir", "afile/sub"], ["--cache-dir", "afile"]],
        ids=["out", "cache-dir-below", "cache-dir"],
    )
    def test_exit_2(self, fixtures_dir, tmp_path, flags):
        (tmp_path / "afile").write_text("a file\n")
        flags = [flags[0], tmp_path / flags[1]]
        if flags[0] != "--out":
            flags += ["--out", tmp_path / "c.tsv"]
        code, out, err = run_cli(["count", "--corpus", fixtures_dir / "toy.txt", *flags])
        assert (code, out) == (2, ""), err
        assert "afile" in err


class TestMeasureSettings:
    """A setting out of its range is a usage error (exit 2), not a traceback."""

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--epsilon", "0", "epsilon"), ("--epsilon", "nan", "epsilon"),
         ("--alpha", "2", "alpha"), ("--alpha", "0", "alpha"),
         ("--gamma", "3", "gamma"), ("--beta", "2", "beta"), ("--beta", "-0.5", "beta")],
    )
    def test_out_of_range(self, toy_counts, tmp_path, flag, value, message):
        counts = tmp_path / "counts.tsv"
        save_counts(toy_counts, counts)
        code, out, err = run_cli(
            ["distance", "--counts", counts, "--w1", "bread", "--w2", "jam", flag, value]
        )
        assert (code, out) == (2, ""), err
        assert message in err

    @pytest.mark.parametrize("base", ["1", "0", "-2", "nan", "inf"])
    @pytest.mark.parametrize(
        "command",
        [
            ["distance", "--counts", "c.tsv", "--w1", "a", "--w2", "b", "--measure", "kld"],
            ["rank", "--counts", "c.tsv", "--benchmark", "b.csv"],
            ["eval", "--counts", "c.tsv", "--benchmark", "b.csv"],
            ["concept-distance", "--wccm", "w.tsv", "--c1", "a", "--c2", "b"],
            ["profile", "--counts", "c.tsv", "--target", "a", "--soa", "pmi"],
            ["wccm-bootstrap", "--corpus", "x.txt", "--base", "w.tsv", "--thesaurus", "t.tsv"],
            ["taxo-distance", "--taxonomy", "t.taxo", "--c1", "a", "--c2", "b",
             "--taxo-measure", "lc"],
            ["ic-build", "--taxonomy", "t.taxo", "--freqs", "f.tsv"],
        ],
        ids=lambda command: command[0],
    )
    def test_log_base(self, command, base):
        """Refused before any input is read, so the inputs need not exist."""
        code, out, err = run_cli(command + ["--log-base", base])
        assert (code, out) == (2, ""), err
        assert "--log-base" in err


class TestDeepTaxonomy:
    DEPTH = 3000

    @pytest.fixture()
    def chain_files(self, tmp_path):
        # listed leaf first, so a recursive walk would go 3000 frames deep
        nodes = [f"n{i}" for i in reversed(range(self.DEPTH))]
        lines = [f"NODE\t{n}\t{n}" for n in nodes]
        lines += [f"EDGE\tn{i}\tn{i - 1}\tisa" for i in reversed(range(1, self.DEPTH))]
        lines.append(f"WORD\tleaf\tn{self.DEPTH - 1}")
        taxonomy = tmp_path / "chain.taxo"
        taxonomy.write_text("\n".join(lines) + "\n")
        freqs = tmp_path / "freqs.tsv"
        freqs.write_text("leaf\t5\n")
        return taxonomy, freqs

    def test_deep_chain_loads(self, chain_files):
        taxonomy = load_taxonomy(chain_files[0])
        assert taxonomy.depth == self.DEPTH - 1
        assert taxonomy.node_depth("n0") == 0
        assert taxonomy.roots == ["n0"]

    def test_ic_build_on_deep_chain(self, chain_files, tmp_path):
        taxonomy, freqs = chain_files
        out = tmp_path / "ic.tsv"
        code, _, err = run_cli(
            ["ic-build", "--taxonomy", taxonomy, "--freqs", freqs, "--out", out]
        )
        assert code == 0, err
        assert out.exists()

    def test_depth_is_longest_chain(self, tmp_path):
        path = tmp_path / "t.taxo"
        path.write_text(
            "NODE\tr\tr\nNODE\ta\ta\nNODE\tb\tb\nNODE\tc\tc\n"
            "EDGE\ta\tr\tisa\nEDGE\tb\ta\tisa\nEDGE\tc\tr\tisa\nEDGE\tc\tb\tisa\n"
        )
        taxonomy = load_taxonomy(path)
        assert [taxonomy.node_depth(n) for n in "rabc"] == [0, 1, 2, 3]

    def test_cycle_below_a_root_is_named(self, tmp_path):
        path = tmp_path / "t.taxo"
        path.write_text(
            "NODE\tr\tr\nNODE\ta\ta\nNODE\tb\tb\nNODE\tc\tc\n"
            "EDGE\ta\tr\tisa\nEDGE\tb\ta\tisa\nEDGE\tb\tc\tisa\nEDGE\tc\tb\tisa\n"
        )
        with pytest.raises(ValidationError, match="cycle through '[bc]'"):
            load_taxonomy(path)


class TestRemovedOptions:
    @pytest.mark.parametrize(
        "args",
        [
            ["count", "--corpus", "x.txt", "--threads", "2"],
            ["count", "--corpus", "x.txt", "--min-freq", "2"],
            ["wccm-bootstrap", "--corpus", "x", "--base", "b", "--thesaurus", "t",
             "--cache-dir", "c"],
            ["wccm-bootstrap", "--corpus", "x", "--base", "b", "--thesaurus", "t",
             "--min-freq", "2"],
        ],
    )
    def test_rejected_as_usage_errors(self, args):
        with pytest.raises(SystemExit) as exit_info, contextlib.redirect_stderr(io.StringIO()):
            main(args)
        assert exit_info.value.code == 2


class TestCaseFollowsTheCounts:
    """With ``--no-lowercase`` the thesaurus and lexicon keep their case too, so a
    capitalised corpus still meets its capitalised categories."""

    @pytest.fixture()
    def files(self, tmp_path):
        corpus, thesaurus = tmp_path / "corpus.txt", tmp_path / "thesaurus.tsv"
        corpus.write_text("Music\nGuitar\n")
        thesaurus.write_text("c1\tSound\tMusic Guitar\n")
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("Musik\tMusic\nGitarre\tGuitar\n")
        counts = tmp_path / "counts.tsv"
        code, _, err = run_cli(
            ["count", "--corpus", corpus, "--no-lowercase", "--out", counts]
        )
        assert code == 0, err
        return {"corpus": corpus, "thesaurus": thesaurus, "lexicon": lexicon, "counts": counts}

    def test_wccm_build(self, files, tmp_path):
        out = tmp_path / "wccm.tsv"
        code, _, err = run_cli(
            ["wccm-build", "--counts", files["counts"], "--thesaurus", files["thesaurus"],
             "--out", out]
        )
        assert code == 0, err
        assert load_wccm(out).matrix.nnz() == 2

    def test_wccm_bootstrap(self, files, tmp_path):
        base, out = tmp_path / "wccm.tsv", tmp_path / "boot.tsv"
        run_cli(["wccm-build", "--counts", files["counts"], "--thesaurus", files["thesaurus"],
                 "--out", base])
        code, _, err = run_cli(
            ["wccm-bootstrap", "--corpus", files["corpus"], "--no-lowercase", "--base", base,
             "--thesaurus", files["thesaurus"], "--out", out]
        )
        assert code == 0, err
        assert load_wccm(out).matrix.nnz() == 2

    def test_xling_wccm(self, files, tmp_path):
        # the source words of the lexicon are the corpus's: rename them
        files["lexicon"].write_text("Music\tMusic\nGuitar\tGuitar\n")
        out = tmp_path / "xling.tsv"
        code, _, err = run_cli(
            ["xling-wccm", "--counts", files["counts"], "--lexicon", files["lexicon"],
             "--thesaurus", files["thesaurus"], "--out", out]
        )
        assert code == 0, err
        assert load_wccm(out).matrix.nnz() == 2

    def test_lowercased_counts_still_lowercase_the_thesaurus(self, files, tmp_path):
        counts, out = tmp_path / "lower.tsv", tmp_path / "wccm.tsv"
        run_cli(["count", "--corpus", files["corpus"], "--out", counts])
        code, _, err = run_cli(
            ["wccm-build", "--counts", counts, "--thesaurus", files["thesaurus"], "--out", out]
        )
        assert code == 0, err
        assert load_wccm(out).matrix.nnz() == 2


class TestProfileRefusals:
    """A profile file states each feature once under one header."""

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("#x\tpmi\na\t1.5\nb\t2.0\na\t-2.0\n", 4, "repeats the feature of line 2"),
            ("#x\tpmi\na\t0.0\nb\t2.0\na\t-2.0\n", 4, "repeats the feature of line 2"),
            ("#x\tpmi\na\t1.5\n#y\tcp\nb\t0.5\n", 3, "repeats the profile header of line 1"),
            ("#x\tpmi\n#x\tpmi\na\t1.5\n", 2, "repeats the profile header of line 1"),
        ],
        ids=["feature", "feature-first-zero", "header", "same-header"],
    )
    def test_refused(self, tmp_path, text, line, message):
        path = tmp_path / "p.tsv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message) as err:
            load_profile(path)
        assert err.value.line_number == line

    def test_whitespace_line_is_blank(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("#x\tpmi\n   \na\t1.5\n\t\n")
        assert dict(load_profile(path).entries) == {"a": 1.5}

    def test_target_named_like_the_manifest(self, toy_counts, tmp_path):
        path = tmp_path / "p.tsv"
        save_profile(build_profile(toy_counts, "bread", SoAKind.PMI), path,
                     extra_header=["#manifest\ttool=test"])
        path.write_text(path.read_text().replace("#bread\t", "#manifesto\t"))
        assert load_profile(path).target == "manifesto"


class TestLogBaseInTheLibrary:
    """Every library entry that takes a log base refuses one no logarithm has."""

    BASES = [1.0, 0.0, -2.0, float("nan"), float("inf")]

    @pytest.mark.parametrize("base", BASES)
    def test_measure_config(self, base):
        with pytest.raises(ConfigurationError, match="log base"):
            MeasureConfig(log_base=base)

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("kind", [SoAKind.PMI, SoAKind.CP])
    def test_build_profile(self, toy_counts, base, kind):
        with pytest.raises(ConfigurationError, match="log base"):
            build_profile(toy_counts, "bread", kind, log_base=base)

    @pytest.mark.parametrize("base", BASES)
    def test_ic_from_counts(self, toy_taxonomy, base):
        with pytest.raises(ConfigurationError, match="log base"):
            ic_from_counts(toy_taxonomy, {"dog": 3, "cat": 2, "hammer": 4}, log_base=base)

    @pytest.mark.parametrize("base", BASES)
    def test_leacock_chodorow(self, toy_taxonomy, base):
        with pytest.raises(ConfigurationError, match="log base"):
            leacock_chodorow(toy_taxonomy, "dog", "cat", base)

    @pytest.mark.parametrize("base", [2.0, 10.0, 0.5, 1.5])
    def test_usable_bases_pass(self, toy_counts, toy_taxonomy, base):
        MeasureConfig(log_base=base)
        build_profile(toy_counts, "bread", SoAKind.PMI, log_base=base)
        ic_from_counts(toy_taxonomy, {"dog": 3, "cat": 2, "hammer": 4}, log_base=base)
        leacock_chodorow(toy_taxonomy, "dog", "cat", base)


class TestOutCheckedFirst:
    """An ``--out`` that cannot be written is refused before any input is read."""

    COMMANDS = [
        ["count", "--corpus", "x.txt"],
        ["profile", "--counts", "c.tsv", "--target", "a"],
        ["distance", "--counts", "c.tsv", "--w1", "a", "--w2", "b"],
        ["rank", "--counts", "c.tsv", "--benchmark", "b.csv"],
        ["eval", "--counts", "c.tsv", "--benchmark", "b.csv"],
        ["wccm-build", "--counts", "c.tsv", "--thesaurus", "t.tsv"],
        ["wccm-bootstrap", "--corpus", "x.txt", "--base", "w.tsv", "--thesaurus", "t.tsv"],
        ["concept-distance", "--wccm", "w.tsv", "--c1", "a", "--c2", "b"],
        ["xling-wccm", "--counts", "c.tsv", "--lexicon", "l.tsv", "--thesaurus", "t.tsv"],
        ["taxo-distance", "--taxonomy", "t.taxo", "--c1", "a", "--c2", "b"],
        ["ic-build", "--taxonomy", "t.taxo", "--freqs", "f.tsv"],
    ]

    @pytest.mark.parametrize("where", ["below-a-file", "missing-directory", "a-directory"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_exit_2(self, tmp_path, command, where):
        (tmp_path / "afile").write_text("a file\n")
        out = {
            "below-a-file": tmp_path / "afile" / "x.tsv",
            "missing-directory": tmp_path / "nodir" / "x.tsv",
            "a-directory": tmp_path,
        }[where]
        code, stdout, err = run_cli(command + ["--out", out])
        assert (code, stdout) == (2, ""), err
        assert "--out" in err

    def test_count_does_no_work(self, fixtures_dir, tmp_path, monkeypatch):
        import distsem.cli

        def refuse(*args, **kwargs):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(distsem.cli, "read_documents", refuse)
        (tmp_path / "afile").write_text("a file\n")
        code, _, err = run_cli(
            ["count", "--corpus", fixtures_dir / "toy.txt", "--out", tmp_path / "afile" / "c.tsv"]
        )
        assert code == 2, err
        assert "afile" in err


class TestMinFreqWhereItApplies:
    """``--min-freq`` filters word profiles; with ``--wccm`` a value other than 1 is refused."""

    @pytest.fixture()
    def files(self, toy_counts, toy_thesaurus, tmp_path, fixtures_dir):
        counts, wccm = tmp_path / "counts.tsv", tmp_path / "wccm.tsv"
        save_counts(toy_counts, counts)
        save_wccm(build_base_wccm(toy_counts, toy_thesaurus), wccm)
        return {
            "counts": counts,
            "wccm": wccm,
            "thesaurus": fixtures_dir / "toy_thesaurus.tsv",
            "benchmark": fixtures_dir / "toy_benchmark.csv",
            "choices": fixtures_dir / "toy_choices.tsv",
        }

    def concept_commands(self, files):
        model = ["--wccm", files["wccm"], "--thesaurus", files["thesaurus"]]
        return {
            "concept-distance": ["concept-distance", "--wccm", files["wccm"],
                                 "--c1", "music", "--c2", "food"],
            "rank": ["rank", *model, "--benchmark", files["benchmark"]],
            "eval": ["eval", *model, "--choices", files["choices"]],
        }

    @pytest.mark.parametrize("command", ["concept-distance", "rank", "eval"])
    def test_refused_with_a_concept_matrix(self, files, command):
        args = self.concept_commands(files)[command]
        assert run_cli(args)[0] == 0
        code, out, err = run_cli([*args, "--min-freq", "50"])
        assert (code, out) == (2, ""), err
        assert "--min-freq" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("command", ["profile", "distance", "rank"])
    def test_below_one(self, files, command, value):
        args = {
            "profile": ["profile", "--counts", files["counts"], "--target", "band"],
            "distance": ["distance", "--counts", files["counts"], "--w1", "cat", "--w2", "dog"],
            "rank": ["rank", "--counts", files["counts"], "--benchmark", files["benchmark"]],
        }[command]
        code, out, err = run_cli([*args, "--min-freq", value])
        assert (code, out) == (2, ""), err
        assert "--min-freq" in err

    @pytest.mark.parametrize("value", [0, -3])
    def test_below_one_in_the_library(self, toy_counts, value):
        with pytest.raises(ConfigurationError, match="min_feature_count"):
            build_profile(toy_counts, "band", SoAKind.CP, min_feature_count=value)


class TestWordChoiceAlternatives:
    """An empty alternative would shift the answer index onto another word."""

    @pytest.mark.parametrize("listed", ["bird||bread|drum", "|bird|bread", "bird|bread|", ""])
    def test_empty_alternative_is_refused(self, tmp_path, listed):
        path = tmp_path / "choices.tsv"
        path.write_text(f"cat\tdog|jam\t0\nsoup\t{listed}\t1\n")
        with pytest.raises(ParseError, match="empty alternative") as err:
            load_word_choice(path)
        assert err.value.line_number == 2

    def test_through_the_cli(self, toy_counts, tmp_path):
        counts, choices = tmp_path / "counts.tsv", tmp_path / "choices.tsv"
        save_counts(toy_counts, counts)
        choices.write_text("soup\tbird||bread|drum\t1\n")
        code, out, err = run_cli(["eval", "--counts", counts, "--choices", choices])
        assert (code, out) == (2, ""), err
        assert "choices.tsv:1: empty alternative" in err


class TestCountsValues:
    """A count that is negative, or a header field no writer gives, is refused at its line."""

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("#counts\ttotal_tokens=4\n#unigram\ta\t-3\na\tb\t2\n", 2, "bad count '-3'"),
            ("#counts\ttotal_tokens=-4\na\tb\t2\n", 1, "bad total_tokens '-4'"),
            ("#counts\tfeature_kind=bogus\na\tb\t2\n", 1, "bad feature_kind 'bogus'"),
            ("#counts\ttotal_tokens=4\na\tb\t2\na\tc\t-2\nb\t\t\n", 4, "bad count ''"),
            ("#counts\ttotal_tokens=4\na\tb\t2\na\tc\t-2\nb\ta\t1\n", 3, "negative count -2"),
            (
                "#counts\ttotal_tokens=4\tfeature_kind=relation\nb\tobj:a\t1\na\tc\t2\na\td\t1\n",
                3,
                "feature 'c' is not relation:word",
            ),
        ],
        ids=["unigram", "total_tokens", "feature_kind", "bad-line-first", "negative-cell",
             "plain-relation-feature"],
    )
    def test_refused(self, tmp_path, text, line, message):
        path = tmp_path / "counts.tsv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message) as err:
            load_counts(path)
        assert err.value.line_number == line

    def test_negative_cell_is_not_scored(self, tmp_path, fixtures_dir):
        # the row total of "cat" is 0, so its PMI values would be undefined
        path = tmp_path / "counts.tsv"
        path.write_text(
            "#counts\ttotal_pairs=4\ttotal_tokens=8\n"
            "cat\tdog\t-2\ncat\tjam\t2\ndog\tcat\t4\n"
        )
        code, out, err = run_cli(
            ["rank", "--counts", path, "--benchmark", fixtures_dir / "toy_benchmark.csv",
             "--measure", "lin"]
        )
        assert (code, out) == (2, ""), err
        assert "counts.tsv:2: negative count -2" in err

    def test_relation_kind_on_word_features(self, toy_counts, tmp_path, fixtures_dir):
        # a word-feature file whose header says relation once loaded and ranked with exit 0
        path = tmp_path / "counts.tsv"
        save_counts(toy_counts, path)
        text = path.read_text()
        path.write_text(text.replace("feature_kind=word", "feature_kind=relation"))
        first = next(i for i, line in enumerate(text.splitlines(), 1) if line[:1] != "#")
        code, out, err = run_cli(
            ["rank", "--counts", path, "--benchmark", fixtures_dir / "toy_benchmark.csv"]
        )
        assert (code, out) == (2, ""), err
        assert f"counts.tsv:{first}: feature " in err and "is not relation:word" in err

    def test_library_constructors_refuse_negative_counts(self):
        # the file readers' rule: a row total of 0 for "a" would make its PMI undefined
        cells = {("a", "b"): -2, ("a", "c"): 2, ("b", "a"): 3, ("c", "a"): 1}
        with pytest.raises(ValidationError, match=r"negative count -2 for cell \('a', 'b'\)"):
            CooccurrenceCounts.from_pairs(cells)
        with pytest.raises(ValidationError, match="negative count -1"):
            CooccurrenceCounts.from_ids(["a"], ["b"], np.array([0, 0]), np.array([0, 0]),
                                        np.array([2, -1]))

    @pytest.mark.parametrize("kind", ["word", "relation"])
    def test_written_kinds_load(self, tmp_path, kind):
        path = tmp_path / "counts.tsv"
        path.write_text(f"#counts\ttotal_tokens=0\tfeature_kind={kind}\na\tobj:b\t2\n")
        assert load_counts(path).feature_kind == kind


class TestCountText:
    """A count is ASCII ``-?[0-9]+``; ``int`` used to read ``1_0``, ``+3``, `` 7`` and ``٣``
    as 10, 3, 7 and 3, a text no writer makes."""

    TEXTS = ["1_0", "+3", " 7", "7 ", "٣", "--1"]

    @pytest.mark.parametrize("text", TEXTS)
    def test_cell(self, tmp_path, text):
        # a bad line comes before the negative cell after it
        path = tmp_path / "counts.tsv"
        path.write_text(f"#counts\ttotal_tokens=4\na\tb\t2\na\tc\t{text}\nb\ta\t-1\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_counts(path)
        assert str(err.value) == f"{path}:3: bad count {text!r}"
        assert outcome(oracles.counts_file, path) == ("ParseError", str(err.value))

    @pytest.mark.parametrize("text", TEXTS)
    def test_unigram(self, tmp_path, text):
        path = tmp_path / "counts.tsv"
        path.write_text(f"#counts\ttotal_tokens=4\n#unigram\ta\t{text}\na\tb\t2\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_counts(path)
        assert str(err.value) == f"{path}:2: bad count {text!r}"
        assert outcome(oracles.counts_file, path) == ("ParseError", str(err.value))

    @pytest.mark.parametrize("text", TEXTS)
    def test_total_tokens(self, tmp_path, text):
        path = tmp_path / "counts.tsv"
        path.write_text(f"#counts\ttotal_tokens={text}\na\tb\t2\n", encoding="utf-8")
        with pytest.raises(ParseError, match="^.*:1: bad total_tokens"):
            load_counts(path)

    @pytest.mark.parametrize("text", TEXTS)
    def test_frequency(self, tmp_path, text):
        path = tmp_path / "freqs.tsv"
        path.write_text(f"w\t-3\nx\t{text}\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_word_frequencies(path)
        assert str(err.value) == f"{path}:2: bad count {text!r}"
        assert outcome(oracles.frequency_file, path) == ("ParseError", str(err.value))

    def test_signed_ascii_digits_still_read(self, tmp_path):
        path = tmp_path / "freqs.tsv"
        path.write_text("w\t007\nx\t-0\ny\t" + "9" * 25 + "\n")
        assert load_word_frequencies(path) == {"w": 7, "x": 0, "y": int("9" * 25)}


TAGGED_FILES = {
    "counts": (load_counts, "#counts\ttotal_tokens=4", "a\tb\t2", "#counts\ttotal_tokens=9"),
    "wccm": (load_wccm, "#wccm\tkind=base", "w\tc\t2.0", "#wccm\tkind=bootstrapped"),
    "ic": (load_ic_table, "#ic\tlog_base=2.0", "c\t0.5\t1.0", "#ic\tlog_base=10.0"),
}


class TestTaggedFileLines:
    """Counts, WCCM and IC files follow the line rules of every other input."""

    @pytest.mark.parametrize("blank", ["   ", "\t", "\t\t", " \t \u3000"])
    @pytest.mark.parametrize("kind", sorted(TAGGED_FILES))
    def test_whitespace_line_is_blank(self, tmp_path, kind, blank):
        load, header, data, _ = TAGGED_FILES[kind]
        path = tmp_path / f"{kind}.tsv"
        path.write_text(f"{header}\n{data}\n", encoding="utf-8")
        expected = outcome(load, path)
        path.write_text(f"{blank}\n{header}\n{blank}\n{data}\n{blank}\n{blank}", encoding="utf-8")
        assert outcome(load, path) == expected
        assert expected[0] == "loaded"

    @pytest.mark.parametrize("at_end", [False, True], ids=["middle", "end"])
    @pytest.mark.parametrize("kind", sorted(TAGGED_FILES))
    def test_second_header_is_refused(self, tmp_path, kind, at_end):
        load, header, data, again = TAGGED_FILES[kind]
        path = tmp_path / f"{kind}.tsv"
        lines = [header, data, again] if at_end else [header, again, data]
        path.write_text("#manifest\ttool=test\n" + "\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="repeats the header of line 2") as err:
            load(path)
        assert err.value.line_number == (4 if at_end else 3)

    def test_unigram_line_before_the_header_is_refused(self, tmp_path, fixtures_dir):
        """It used to be skipped as a note, so ``ic-build --counts`` ran on a short unigram table."""
        path = tmp_path / "counts.tsv"
        # the first defect in file order: the bad cell after it comes later
        path.write_text("#manifest\ttool=test\n#unigram\tq\t9\n#counts\ttotal_tokens=9\n"
                        "#unigram\tdog\t3\ndog\tcat\tx\n", encoding="utf-8")
        expected = f"{path}:2: unigram line before the #counts header"
        with pytest.raises(ParseError) as err:
            load_counts(path)
        assert str(err.value) == expected
        assert outcome(oracles.counts_file, path) == ("ParseError", expected)
        code, out, err = run_cli(["ic-build", "--taxonomy", fixtures_dir / "toy_taxonomy.tsv",
                                  "--counts", path, "--out", tmp_path / "ic.tsv"])
        assert (code, out) == (2, ""), err
        assert expected in err

    def test_header_is_read_alone(self, tmp_path):
        """The header scan stops at the header, so a bad header is named before later bad bytes."""
        body = "".join(f"t{i}\tf\t1\n" for i in range(2000))  # past the first decoded chunk
        path = tmp_path / "counts.tsv"
        path.write_bytes(b"#counts\ttotal_tokens=abc\n" + body.encode() + b"\xff\n")
        with pytest.raises(ParseError, match="bad total_tokens") as err:
            load_counts(path)
        assert err.value.line_number == 1

    def test_whitespace_line_in_a_later_block(self, tmp_path):
        lines = _BLOCK_BYTES // 8  # over eight characters a line, so past the first piece
        body = [f"t{i // 50}\tf{i % 50}\t1" for i in range(lines + 100)]
        body.insert(lines + 50, "  ")
        path = tmp_path / "counts.tsv"
        path.write_text("#counts\ttotal_tokens=0\n" + "\n".join(body) + "\n")
        assert load_counts(path).total_pairs == lines + 100


class TestHugeWindow:
    """A window wider than the corpus pairs every two tokens of a document, at no greater cost."""

    HUGE = 10**20  # buffers of this many positions could never be allocated

    def test_count_and_bootstrap(self, tmp_path, fixtures_dir):
        corpus, thesaurus = fixtures_dir / "toy.txt", fixtures_dir / "toy_thesaurus.tsv"
        for window in (self.HUGE, 1000):  # the toy corpus has fewer than 1000 tokens
            counts, base, boot = (tmp_path / f"{name}_{window}.tsv" for name in ("c", "b", "s"))
            for args in (
                ["count", "--corpus", corpus, "--window", window, "--out", counts],
                ["wccm-build", "--counts", counts, "--thesaurus", thesaurus, "--out", base],
                ["wccm-bootstrap", "--corpus", corpus, "--window", window, "--base", base,
                 "--thesaurus", thesaurus, "--out", boot],
            ):
                code, _, err = run_cli(args)
                assert code == 0, err

        def cells(name, window):
            return [line for line in (tmp_path / f"{name}_{window}.tsv").read_text().splitlines()
                    if not line.startswith("#")]

        for name in ("c", "s"):
            assert cells(name, self.HUGE) == cells(name, 1000)


class TestHeaderCorpusSettings:
    """Corpus settings in a file header are ones the writer could have written."""

    @pytest.mark.parametrize(
        "old, new",
        [("lowercase=true", "lowercase=yes"), ("lowercase=true", "lowercase=TRUE"),
         ("window=3", "window=0"), ("window=3", "window=-2")],
    )
    @pytest.mark.parametrize("kind", ["counts", "wccm"])
    def test_refused_at_the_header(self, toy_counts, toy_thesaurus, tmp_path, kind, old, new):
        path = tmp_path / f"{kind}.tsv"
        if kind == "counts":
            save_counts(toy_counts, path, extra_header=["#manifest\ttool=test"])
        else:
            save_wccm(build_base_wccm(toy_counts, toy_thesaurus), path,
                      extra_header=["#manifest\ttool=test"])
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(ParseError, match="bad corpus settings") as err:
            (load_counts if kind == "counts" else load_wccm)(path)
        assert (err.value.source, err.value.line_number) == (str(path), 2)

    def test_through_the_cli(self, toy_counts, toy_thesaurus, tmp_path, fixtures_dir):
        wccm = tmp_path / "wccm.tsv"
        save_wccm(build_base_wccm(toy_counts, toy_thesaurus), wccm)
        wccm.write_text(wccm.read_text().replace("lowercase=true", "lowercase=yes"))
        code, out, err = run_cli(
            ["rank", "--wccm", wccm, "--thesaurus", fixtures_dir / "toy_thesaurus.tsv",
             "--benchmark", fixtures_dir / "toy_benchmark.csv"]
        )
        assert (code, out) == (2, ""), err
        assert f"{wccm}:1: bad corpus settings" in err

    def test_written_settings_load(self, toy_counts, tmp_path):
        path = tmp_path / "counts.tsv"
        for config in (CorpusConfig(lowercase=False), CorpusConfig(window_radius=1)):
            counts = CooccurrenceCounts.from_pairs({("a", "b"): 1}, config=config)
            save_counts(counts, path)
            assert load_counts(path).config == config


class TestHirstStOngeConstants:
    """The constants of the Hirst-St-Onge measure are finite and not negative."""

    BAD = [float("inf"), float("nan"), -1.0, float("-inf")]

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("which", ["c_const", "k"])
    def test_library(self, toy_taxonomy, which, value):
        with pytest.raises(ConfigurationError, match="finite and >= 0"):
            hirst_stonge(toy_taxonomy, "dog", "cat", **{which: value})

    def test_usable_constants_pass(self, toy_taxonomy):
        assert hirst_stonge(toy_taxonomy, "dog", "cat", c_const=0.0, k=0.0) == 0.0
        assert hirst_stonge(toy_taxonomy, "dog", "cat", c_const=8.0, k=0.5) > 0.0

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("flag", ["--hs-c", "--hs-k"])
    def test_cli_before_any_input(self, tmp_path, flag, value):
        missing = tmp_path / "missing.tsv"  # never opened: the flag is refused first
        code, out, err = run_cli(
            ["taxo-distance", "--taxonomy", missing, "--c1", "dog", "--c2", "cat",
             "--taxo-measure", "hs", f"{flag}={value}"]
        )
        assert (code, out) == (2, ""), err
        assert f"{flag} must be finite and >= 0" in err


class TestUnreadFlags:
    """A flag the chosen mode never reads is refused (exit 2) unless left at its default."""

    @pytest.mark.parametrize(
        "flags",
        [["--window", "3"], ["--boundaries", "sentence"], ["--no-lowercase"], ["--docs", "line"]],
        ids=lambda flags: flags[0],
    )
    def test_window_flags_with_triples(self, tmp_path, flags):
        out = tmp_path / "c.tsv"
        code, stdout, err = run_cli(
            ["count", "--corpus", tmp_path / "missing.triples", "--triples", *flags, "--out", out]
        )
        assert (code, stdout) == (2, ""), err
        assert f"{flags[0]} is not used with --triples" in err
        assert not out.exists()

    def test_defaults_with_triples(self, fixtures_dir, tmp_path):
        plain, spelled = tmp_path / "plain.tsv", tmp_path / "spelled.tsv"
        corpus = fixtures_dir / "toy.triples"
        assert run_cli(["count", "--corpus", corpus, "--triples", "--out", plain])[0] == 0
        code, _, err = run_cli(
            ["count", "--corpus", corpus, "--triples", "--window", "5", "--boundaries", "document",
             "--docs", "file", "--out", spelled]
        )
        assert code == 0, err
        assert spelled.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "measure, flags",
        [("path", ["--log-base", "10"]), ("hs", ["--log-base", "10"]),
         ("path", ["--hs-c", "3"]), ("lc", ["--hs-k", "2"]), ("path", ["--hs-c", "nan"])],
    )
    def test_taxonomy_constants(self, tmp_path, measure, flags):
        code, out, err = run_cli(
            ["taxo-distance", "--taxonomy", tmp_path / "missing.tsv", "--c1", "dog", "--c2", "cat",
             "--taxo-measure", measure, *flags]
        )
        assert (code, out) == (2, ""), err
        assert f"{flags[0]} is not used with --taxo-measure {measure}" in err

    @pytest.mark.parametrize(
        "measure, flags",
        [("lc", ["--log-base", "10"]), ("hs", ["--hs-c", "3", "--hs-k", "2"]),
         ("path", ["--log-base", "2", "--hs-c", "8"])],
    )
    def test_taxonomy_constants_where_read(self, fixtures_dir, measure, flags):
        code, out, err = run_cli(
            ["taxo-distance", "--taxonomy", fixtures_dir / "toy_taxonomy.tsv", "--c1", "dog",
             "--c2", "cat", "--taxo-measure", measure, *flags]
        )
        assert code == 0, err
        assert out.splitlines()[-1].startswith(f"dog\tcat\t{measure}\t")


class TestFrequencyTotalAbove2To53:
    """A total float64 cannot add exactly ended in an OverflowError traceback
    (``10**400``) or in a root credit silently rounded (``2**53 + 3``)."""

    def run(self, fixtures_dir, tmp_path, source, lines):
        path = tmp_path / "input.tsv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "ic.tsv"
        code, stdout, err = run_cli(
            ["ic-build", "--taxonomy", fixtures_dir / "toy_taxonomy.tsv", source, path, "--out", out]
        )
        assert (code, stdout) == (2, ""), err
        assert "more than 2**53" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines",
        [["dog\t1" + "0" * 400], ["dog\t9007199254740992", "cat\t3"]],
        ids=["10**400", "2**53+3"],
    )
    def test_freqs(self, fixtures_dir, tmp_path, lines):
        self.run(fixtures_dir, tmp_path, "--freqs", lines)

    def test_counts(self, fixtures_dir, tmp_path):
        lines = [
            "#counts\ttotal_tokens=9007199254740995",
            "#unigram\tcat\t3",
            "#unigram\tdog\t9007199254740992",
            "cat\tdog\t1",
            "dog\tcat\t1",
        ]
        self.run(fixtures_dir, tmp_path, "--counts", lines)


class TestCellTotalAbove2To53:
    """Cells whose counts add up to more than 2**53 loaded with wrapped totals
    (two cells of 2**63 - 1 gave total_pairs -2) or rounded ones (a feature
    total of 9007199254740994 read 9007199254740992)."""

    @pytest.mark.parametrize(
        "cells",
        [["a\tx\t9223372036854775807", "b\tx\t9223372036854775807"],
         ["a\tx\t9007199254740993", "b\tx\t1", "a\ty\t2"]],
        ids=["wraps", "rounds"],
    )
    def test_counts_file(self, tmp_path, cells):
        path = tmp_path / "counts.tsv"
        path.write_text("\n".join(["#counts\ttotal_tokens=9", *cells]) + "\n")
        with pytest.raises(ValidationError, match=r"more than 2\*\*53"):
            load_counts(path)
        code, out, err = run_cli(["profile", "--counts", path, "--target", "a"])
        assert (code, out) == (2, ""), err
        assert "more than 2**53" in err

    def test_library(self):
        rows, cols = np.array([0, 1]), np.array([0, 0])
        counts = CooccurrenceCounts.from_ids(["a", "b"], ["x"], rows, cols, [2**53 - 1, 1])
        assert counts.feature_total("x") == counts.total_pairs == 2**53
        assert counts.target_total("a") == 2**53 - 1
        with pytest.raises(ValidationError, match=r"add up to 9007199254740993, more than 2\*\*53"):
            CooccurrenceCounts.from_ids(["a", "b"], ["x"], rows, cols, [2**53 - 1, 2])


class TestTotalAbove2To53NamesItsFile:
    """The refusal of cells past 2**53 named no file, so with several inputs
    (``xling-wccm``, ``ic-build --counts``) the user could not tell which one."""

    @pytest.mark.parametrize("kind", ["counts", "wccm"])
    def test_reader(self, tmp_path, kind):
        path = tmp_path / f"{kind}.tsv"
        header = {"counts": "#counts\ttotal_tokens=9",
                  "wccm": "#wccm\tkind=base\tlanguage_mode=monolingual"}[kind]
        cells = ["a\tx\t9007199254740992", "b\tx\t2"]
        if kind == "wccm":
            cells = [cell + ".0" for cell in cells]
        path.write_text("\n".join([header, *cells]) + "\n")
        load = {"counts": load_counts, "wccm": load_wccm}[kind]
        with pytest.raises(ValidationError) as err:
            load(path)
        assert str(err.value) == (
            f"{path}: counts add up to 9007199254740994, more than 2**53, "
            "which float64 cannot add exactly"
        )


class TestUnknownNodeLine:
    """An ``EDGE`` end or ``WORD`` concept that no ``NODE`` line declares ended
    in a ValidationError that named no file and no line."""

    def write(self, tmp_path, fixtures_dir, *records, at=9):
        lines = (fixtures_dir / "toy_taxonomy.tsv").read_text().splitlines()
        lines[at:at] = records
        path = tmp_path / "taxonomy.tsv"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("record, message", [
        ("EDGE\tcat\tzz\tisa", "edge 'cat' -> 'zz' uses unknown node"),
        ("EDGE\tzz\tcat\tpartof", "edge 'zz' -> 'cat' uses unknown node"),
        ("WORD\tw\tzz", "word 'w' maps to unknown concept 'zz'"),
    ])
    def test_named_at_its_line(self, tmp_path, fixtures_dir, record, message):
        path = self.write(tmp_path, fixtures_dir, record)
        with pytest.raises(ParseError) as err:
            load_taxonomy(path)
        assert str(err.value) == f"{path}:10: {message}"
        out = tmp_path / "ic.tsv"
        code, _, stderr = run_cli(
            ["ic-build", "--taxonomy", path, "--freqs", fixtures_dir / "toy_taxonomy.tsv",
             "--out", out]
        )
        assert code == 2 and stderr == f"distsem: {path}:10: {message}\n"
        assert not out.exists()

    def test_line_errors_then_edges_then_words(self, tmp_path, fixtures_dir):
        records = ["WORD\tw\tzz", "EDGE\tzz\tcat\tisa", "EDGE\tcat\tyy\tisa"]
        path = self.write(tmp_path, fixtures_dir, *records, "NODE\tdog\tDog")
        with pytest.raises(ParseError, match=":13: duplicate node 'dog'$"):
            load_taxonomy(path)
        path = self.write(tmp_path, fixtures_dir, *records)
        with pytest.raises(ParseError, match=":11: edge 'zz' -> 'cat' uses unknown node$"):
            load_taxonomy(path)

    def test_declared_after_use(self, tmp_path, fixtures_dir):
        path = self.write(tmp_path, fixtures_dir, "EDGE\tzz\tcat\tisa", "WORD\tw\tzz", at=0)
        path.write_text(path.read_text() + "NODE\tzz\tZZ\n")
        taxonomy = load_taxonomy(path)
        assert taxonomy.word_map["w"] == frozenset({"zz"})
        assert taxonomy.node_depth("zz") == 3

    def test_name_keyed_constructor_keeps_validation_error(self):
        with pytest.raises(ValidationError, match="^edge 'a' -> 'b' uses unknown node$"):
            Taxonomy(nodes={"a": "A"}, edges=[("a", "b", "isa")])
        with pytest.raises(ValidationError, match="^word 'w' maps to unknown concept 'b'$"):
            Taxonomy(nodes={"a": "A"}, edges=[], word_map={"w": frozenset({"b"})})


class TestNegativeFrequency:
    """A negative count in a frequency table was hidden by the sum of a repeated
    word (``w`` 5 and -3 built an IC table with ``w`` = 2, exit 0)."""

    def test_refused_at_its_line(self, tmp_path, fixtures_dir):
        path = tmp_path / "freqs.tsv"
        path.write_text("w\t5\nw\t-3\nx\t7\n")
        with pytest.raises(ParseError) as err:
            load_word_frequencies(path)
        assert str(err.value) == f"{path}:2: negative count -3"
        out = tmp_path / "ic.tsv"
        code, _, stderr = run_cli(
            ["ic-build", "--taxonomy", fixtures_dir / "toy_taxonomy.tsv", "--freqs", path,
             "--out", out]
        )
        assert code == 2 and stderr == f"distsem: {path}:2: negative count -3\n"
        assert not out.exists()

    def test_bad_lines_come_first(self, tmp_path):
        path = tmp_path / "freqs.tsv"
        path.write_text("w\t-3\nx\tmany\n")
        with pytest.raises(ParseError, match=":2: bad count 'many'$"):
            load_word_frequencies(path)

    def test_repeated_words_add_up(self, tmp_path):
        path = tmp_path / "freqs.tsv"
        path.write_text("w\t5\n# note\nw\t3\nx\t7\n\nbig\t1" + "0" * 30 + "\n")
        assert load_word_frequencies(path) == {"w": 8, "x": 7, "big": 10**30}


class TestWarningLine:
    """A package warning used to reach stderr as Python prints it: the path and
    line of ``cli.py``, then that source line."""

    def test_one_distsem_line(self, fixtures_dir, tmp_path):
        freqs = tmp_path / "freqs.tsv"
        freqs.write_text("dog\t1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "distsem", "ic-build", "--taxonomy",
             str(fixtures_dir / "toy_taxonomy.tsv"), "--freqs", str(freqs), "--out", "ic.tsv"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == (
            "distsem: warning: concepts with zero corpus credit floored: "
            "['artifact', 'cat', 'hammer', 'tool']\n"
        )
        assert (tmp_path / "ic.tsv").exists()

    def test_other_warnings_pass_through(self, capsys):
        """Python's own warnings keep their usual form and go where they went."""
        shown = []
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = lambda *args: shown.append(args[:2])
            printer = distsem.cli._warning_printer(warnings.showwarning)
            printer(DeprecationWarning("old"), DeprecationWarning, "f.py", 1)
            printer(ZeroCreditWarning("floored"), ZeroCreditWarning, "f.py", 1)
        assert [category for _, category in shown] == [DeprecationWarning]
        assert capsys.readouterr().err == "distsem: warning: floored\n"


class TestICValues:
    """An IC table value no IC build makes is an input error at its line (exit 2), not a printed score."""

    def write(self, toy_taxonomy, path, log_base=2.0):
        table = ic_from_counts(toy_taxonomy, {"dog": 3, "cat": 2, "hammer": 4}, log_base=log_base)
        save_ic_table(table, path)
        return path.read_text().splitlines()

    def res(self, path, fixtures_dir):
        return run_cli(
            ["taxo-distance", "--taxonomy", fixtures_dir / "toy_taxonomy.tsv", "--c1", "dog",
             "--c2", "cat", "--taxo-measure", "res", "--ic", path]
        )

    @pytest.mark.parametrize("column, value, message", [
        ("ic", "nan", "ic nan must be finite and >= 0"),
        ("ic", "inf", "ic inf must be finite and >= 0"),
        ("ic", "-3", "ic -3.0 must be finite and >= 0"),
        ("prob", "2.0", r"prob 2.0 is outside \(0, 1\]"),
        ("prob", "0.0", r"prob 0.0 is outside \(0, 1\]"),
    ])
    def test_bad_value(self, toy_taxonomy, tmp_path, fixtures_dir, column, value, message):
        path = tmp_path / "ic.tsv"
        lines = self.write(toy_taxonomy, path)
        parts = lines[3].split("\t")
        parts[1 if column == "prob" else 2] = value
        lines[3] = "\t".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=message) as err:
            load_ic_table(path)
        assert err.value.line_number == 4
        code, out, stderr = self.res(path, fixtures_dir)
        assert code == 2 and not out
        assert "ic.tsv:4:" in stderr

    def test_sign_follows_the_log_base(self, toy_taxonomy, tmp_path):
        path = tmp_path / "ic.tsv"
        lines = self.write(toy_taxonomy, path, log_base=0.5)
        assert load_ic_table(path).ic["dog"] < 0.0  # a base below 1 gives ic <= 0
        lines[3] = lines[3].rsplit("\t", 1)[0] + "\t3.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="ic 3.0 must be finite and <= 0") as err:
            load_ic_table(path)
        assert err.value.line_number == 4

    def test_repeated_concept(self, toy_taxonomy, tmp_path, fixtures_dir):
        path = tmp_path / "ic.tsv"
        lines = self.write(toy_taxonomy, path)
        lines.insert(6, lines[3].split("\t")[0] + "\t0.5\t1.0")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="repeats the concept of line 4") as err:
            load_ic_table(path)
        assert err.value.line_number == 7
        code, _, stderr = self.res(path, fixtures_dir)
        assert code == 2 and "ic.tsv:7: repeats the concept of line 4" in stderr

    def test_repeat_in_a_later_block(self, tmp_path):
        body = [f"c{i}\t0.5\t1.0" for i in range(_BLOCK_BYTES // 8)]  # past the first piece
        path = tmp_path / "ic.tsv"
        path.write_text("#ic\tlog_base=2.0\n" + "\n".join(body + ["c7\t0.5\t1.0"]) + "\n")
        with pytest.raises(ParseError, match="repeats the concept of line 9") as err:
            load_ic_table(path)
        assert err.value.line_number == len(body) + 2
        # as in a counts file, a bad value anywhere is named before a repeat
        path.write_text(path.read_text() + "c8\t0.5\tnan\n")
        with pytest.raises(ParseError, match="ic nan must be finite") as err:
            load_ic_table(path)
        assert err.value.line_number == len(body) + 3

    @pytest.mark.parametrize("log_base", ["1.0", "-2", "0", "inf", "nan"])
    def test_bad_header_log_base(self, toy_taxonomy, tmp_path, fixtures_dir, log_base):
        path = tmp_path / "ic.tsv"
        lines = self.write(toy_taxonomy, path)
        lines[0] = lines[0].replace("log_base=2.0", f"log_base={log_base}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"bad log_base '{log_base}'") as err:
            load_ic_table(path)
        assert err.value.line_number == 1
        code, out, stderr = self.res(path, fixtures_dir)
        assert code == 2 and not out
        assert "ic.tsv:1:" in stderr


class TestEmptyNames:
    """A concept, relation or category named by the empty string is refused at its line (exit 2)."""

    @pytest.mark.parametrize("record, message", [
        ("NODE\t\tEmpty", "empty concept name"),
        ("EDGE\thammer\tdog\t", "empty relation"),
        # an empty child gave "edge '' -> 'entity' uses unknown node", with no line
        ("EDGE\t\tentity\tisa", "empty concept name"),
        ("EDGE\tdog\t\tisa", "empty concept name"),
        ("WORD\t\tdog", "empty word"),  # loaded, as a word named ""
        ("WORD\tdog\t", "empty concept name"),
    ])
    def test_taxonomy(self, tmp_path, fixtures_dir, record, message):
        path = tmp_path / "taxonomy.tsv"
        lines = (fixtures_dir / "toy_taxonomy.tsv").read_text().splitlines()
        lines.insert(9, record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=message) as err:
            load_taxonomy(path)
        assert err.value.line_number == 10
        code, _, stderr = run_cli(
            ["taxo-distance", "--taxonomy", path, "--c1", "dog", "--c2", "cat",
             "--taxo-measure", "path"]
        )
        assert code == 2 and "taxonomy.tsv:10: " + message in stderr

    def test_thesaurus_category_id(self, toy_counts, tmp_path, fixtures_dir):
        thesaurus, counts = tmp_path / "thesaurus.tsv", tmp_path / "counts.tsv"
        lines = (fixtures_dir / "toy_thesaurus.tsv").read_text().splitlines()
        lines.insert(1, "\tNameless\tband song")
        thesaurus.write_text("\n".join(lines) + "\n")
        save_counts(toy_counts, counts)
        with pytest.raises(ParseError, match="empty category id") as err:
            load_thesaurus(thesaurus)
        assert err.value.line_number == 2
        out = tmp_path / "base.tsv"
        code, _, stderr = run_cli(
            ["wccm-build", "--counts", counts, "--thesaurus", thesaurus, "--out", out]
        )
        assert code == 2 and "thesaurus.tsv:2: empty category id" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("line, side", [("bass\t", "target"), ("\tbass", "source")])
    def test_lexicon_word(self, toy_counts, tmp_path, fixtures_dir, line, side):
        # these loaded as a translation "" of "bass" and as a source word ""
        lexicon, counts = tmp_path / "lexicon.tsv", tmp_path / "counts.tsv"
        lexicon.write_text(f"guitar\tguitar\n{line}\n")
        save_counts(toy_counts, counts)
        with pytest.raises(ParseError, match=f"empty {side} word") as err:
            load_lexicon(lexicon)
        assert err.value.line_number == 2
        out = tmp_path / "xling.tsv"
        code, _, stderr = run_cli(
            ["xling-wccm", "--counts", counts, "--lexicon", lexicon,
             "--thesaurus", fixtures_dir / "toy_thesaurus.tsv", "--out", out]
        )
        assert code == 2 and f"lexicon.tsv:2: empty {side} word" in stderr
        assert not out.exists()


class TestNamesThatDoNotReadBack:
    """Counts whose names a counts file cannot hold are refused before anything is written."""

    def test_triple_dependent_starting_with_hash(self, tmp_path):
        # exited 0; the '#y' row then read back as a note, and every load of the file failed
        # with "cells add up to 3 pairs, the header says total_pairs=4"
        triples, out = tmp_path / "in.triples", tmp_path / "counts.tsv"
        triples.write_text("a\tnsubj\tb\na\tnsubj\t#y\n")
        with pytest.raises(ParseError, match="dependent '#y' starts with '#'") as err:
            ingest_triples(triples.read_text().splitlines(keepends=True), source=str(triples))
        assert err.value.line_number == 2
        code, _, stderr = run_cli(["count", "--triples", "--corpus", triples, "--out", out])
        assert code == 2 and f"{triples}:2: dependent '#y'" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("pairs, unigrams, kind, what", [
        ({("#x", "f"): 1}, {}, "word", "target '#x'"),
        ({("", "f"): 1}, {}, "word", "target ''"),
        ({("a\tb", "f"): 1}, {}, "word", "target 'a\\tb'"),
        ({("t", "f\nx"): 1}, {}, "word", "feature 'f\\nx'"),
        ({("t", ""): 1}, {}, "word", "feature ''"),
        ({("t", "f"): 1}, {"w\r": 2}, "word", "unigram word 'w\\r'"),
        ({("t", "f"): 1}, {"": 2}, "word", "unigram word ''"),
        ({("t", "f"): 1}, {}, "relation", "feature 'f'"),
        ({("t", ("obj", "x\ty")): 1}, {}, "relation", "feature 'obj:x\\ty'"),
        # both render as 'a:b:c'; the file was written, and every load of it failed on the cell
        ({("t", ("a:b", "c")): 1, ("t", ("a", "b:c")): 2}, {}, "relation", "feature 'a:b:c'"),
    ])
    def test_save_counts(self, tmp_path, pairs, unigrams, kind, what):
        counts = CooccurrenceCounts.from_pairs(pairs, unigram_counts=unigrams, feature_kind=kind)
        path = tmp_path / "counts.tsv"
        with pytest.raises(ValidationError, match="would not read back") as err:
            save_counts(counts, path)
        assert str(err.value).startswith(f"{path}: the {what} ")
        assert list(tmp_path.iterdir()) == []

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from distsem import (
    CorpusConfig,
    bootstrap_wccm,
    count_cooccurrences,
    counts_equal,
    load_counts,
    load_thesaurus,
    load_wccm,
    tokenize_documents,
)
from distsem import corpus as corpus_module
from distsem.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, tmp_path=None):
    """Invoke the entry point in-process, capturing stdout."""
    import contextlib
    import io

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, toy_corpus_path, fixtures_dir):
    root = tmp_path_factory.mktemp("cli")
    shutil.copy(toy_corpus_path, root / "toy.txt")
    shutil.copy(fixtures_dir / "toy_thesaurus.tsv", root / "thesaurus.tsv")
    shutil.copy(fixtures_dir / "toy_benchmark.csv", root / "bench.csv")
    shutil.copy(fixtures_dir / "toy_choices.tsv", root / "choices.tsv")
    shutil.copy(fixtures_dir / "toy_taxonomy.tsv", root / "taxo.tsv")
    shutil.copy(fixtures_dir / "toy.triples", root / "toy.triples")
    return root


@pytest.fixture(scope="module")
def counts_file(workdir):
    out = workdir / "counts.tsv"
    code, _, err = run_cli(
        [
            "count",
            "--corpus",
            workdir / "toy.txt",
            "--docs",
            "line",
            "--window",
            "3",
            "--out",
            out,
        ]
    )
    assert code == 0, err
    return out


class TestCount:
    def test_emits_manifest_and_header(self, counts_file):
        text = counts_file.read_text()
        assert text.startswith("#manifest\ttool=distsem/")
        assert "#counts\t" in text

    def test_triples_input(self, workdir):
        out = workdir / "triple-counts.tsv"
        code, _, err = run_cli(
            [
                "count",
                "--corpus",
                workdir / "toy.triples",
                "--triples",
                "--relations",
                "obj,subj",
                "--out",
                out,
            ]
        )
        assert code == 0, err
        assert "obj^-1:" in out.read_text()

    def test_sharded_count_with_threads(self, workdir, counts_file):
        half = workdir / "half"
        half.mkdir(exist_ok=True)
        lines = (workdir / "toy.txt").read_text().splitlines()
        (half / "a.txt").write_text("\n".join(lines[:6]) + "\n")
        (half / "b.txt").write_text("\n".join(lines[6:]) + "\n")
        out = workdir / "sharded.tsv"
        code, _, err = run_cli(
            [
                "count",
                "--corpus",
                half / "a.txt",
                half / "b.txt",
                "--docs",
                "line",
                "--window",
                "3",
                "--out",
                out,
            ]
        )
        assert code == 0, err
        from distsem import counts_equal, load_counts

        assert counts_equal(load_counts(out), load_counts(counts_file))

    def test_cache_round_trip(self, workdir):
        cache = workdir / "cache"
        first = workdir / "c1.tsv"
        second = workdir / "c2.tsv"
        for out in (first, second):
            code, _, err = run_cli(
                [
                    "count",
                    "--corpus",
                    workdir / "toy.txt",
                    "--docs",
                    "line",
                    "--window",
                    "3",
                    "--cache-dir",
                    cache,
                    "--out",
                    out,
                ]
            )
            assert code == 0, err
        assert list(cache.glob("counts-v3-*.tsv"))
        assert first.read_bytes() == second.read_bytes()

    def test_cut_cache_write_leaves_no_entry(self, workdir, tmp_path, monkeypatch):
        import distsem.cli

        def cut_before_digest(data):
            raise OSError("disk full")  # the body is written, its sha256 line is not

        cache = tmp_path / "cache"
        args = ["count", "--corpus", workdir / "toy.txt", "--cache-dir", cache]
        with monkeypatch.context() as patch:
            patch.setattr(distsem.cli, "_digest_line", cut_before_digest)
            with pytest.raises(OSError):
                run_cli(args + ["--out", tmp_path / "cut.tsv"])
        assert list(cache.iterdir()) == []

        code, _, err = run_cli(args + ["--out", tmp_path / "cached.tsv"])
        assert code == 0, err
        assert list(cache.glob("counts-v3-*.tsv"))
        code, _, err = run_cli(args[:3] + ["--out", tmp_path / "plain.tsv"])
        assert code == 0, err
        assert (tmp_path / "cached.tsv").read_bytes() == (tmp_path / "plain.tsv").read_bytes()


class TestProfile:
    def test_profile_to_stdout(self, counts_file):
        code, out, _ = run_cli(
            ["profile", "--counts", counts_file, "--target", "cat", "--soa", "cp"]
        )
        assert code == 0
        body = [l for l in out.splitlines() if l and not l.startswith("#manifest")]
        assert body[0] == "#cat\tcp"
        values = [float(l.split("\t")[1]) for l in body[1:]]
        assert sum(values) == pytest.approx(1.0, abs=1e-9)

    def test_profile_to_file_round_trips(self, counts_file, workdir):
        out = workdir / "cat.dp"
        code, _, err = run_cli(
            [
                "profile",
                "--counts",
                counts_file,
                "--target",
                "cat",
                "--soa",
                "pmi",
                "--out",
                out,
            ]
        )
        assert code == 0, err
        from distsem import load_profile

        assert load_profile(out).target == "cat"

    @pytest.mark.parametrize("soa", ["cp", "pmi"])
    def test_stdout_equals_file(self, counts_file, workdir, soa):
        out = workdir / f"cat-{soa}.dp"
        args = ["profile", "--counts", counts_file, "--target", "cat", "--soa", soa]
        code, _, err = run_cli(args + ["--out", out])
        assert code == 0, err
        code, printed, err = run_cli(args)
        assert code == 0, err
        assert printed.encode("utf-8") == out.read_bytes()
        assert "np.float64" not in printed


class TestDistance:
    def test_self_cosine_is_one(self, counts_file):
        code, out, _ = run_cli(
            [
                "distance",
                "--counts",
                counts_file,
                "--w1",
                "cat",
                "--w2",
                "cat",
                "--measure",
                "cos",
            ]
        )
        assert code == 0
        value = [l for l in out.splitlines() if not l.startswith("#")][0].split("\t")[3]
        assert float(value) == 1.0

    def test_relation_measure_on_triples_counts(self, workdir):
        triples_counts = workdir / "triple-counts.tsv"
        if not triples_counts.exists():
            run_cli(
                [
                    "count",
                    "--corpus",
                    workdir / "toy.triples",
                    "--triples",
                    "--out",
                    triples_counts,
                ]
            )
        code, out, err = run_cli(
            [
                "distance",
                "--counts",
                triples_counts,
                "--w1",
                "guitar",
                "--w2",
                "piano",
                "--measure",
                "lin",
            ]
        )
        assert code == 0, err
        value = [l for l in out.splitlines() if not l.startswith("#")][0].split("\t")[3]
        assert 0.0 <= float(value) <= 1.0

    def test_unknown_word_is_computation_error(self, counts_file):
        code, _, err = run_cli(
            [
                "distance",
                "--counts",
                counts_file,
                "--w1",
                "zebra",
                "--w2",
                "cat",
            ]
        )
        assert code == 1
        assert "zebra" in err


class TestRankAndEval:
    def test_rank_matches_library(self, counts_file, workdir):
        code, out, _ = run_cli(
            [
                "rank",
                "--counts",
                counts_file,
                "--benchmark",
                workdir / "bench.csv",
                "--measure",
                "cos",
            ]
        )
        assert code == 0
        from distsem import (
            MeasureId,
            Orientation,
            load_benchmark,
            load_counts,
            rank_pairs,
            word_pair_scorer,
        )

        counts = load_counts(counts_file)
        bench = load_benchmark(workdir / "bench.csv")
        want = rank_pairs(
            bench, word_pair_scorer(counts, MeasureId.COS), Orientation.CLOSENESS
        )
        body = [
            l.split("\t")
            for l in out.splitlines()
            if l and not l.startswith(("#", "rank"))
        ]
        assert [(row[1], row[2]) for row in body] == [
            (r[0], r[1]) for r in want.ranked
        ]

    def test_eval_reports_correlations(self, counts_file, workdir):
        code, out, _ = run_cli(
            [
                "eval",
                "--counts",
                counts_file,
                "--benchmark",
                workdir / "bench.csv",
                "--measure",
                "cos",
            ]
        )
        assert code == 0
        fields = dict(
            line.split("\t", 1)
            for line in out.splitlines()
            if line and not line.startswith("#")
        )
        assert -1.0 <= float(fields["spearman_raw"]) <= 1.0
        assert fields["orientation"] == "closeness"

    def test_eval_word_choice(self, counts_file, workdir):
        code, out, _ = run_cli(
            [
                "eval",
                "--counts",
                counts_file,
                "--choices",
                workdir / "choices.tsv",
                "--measure",
                "cos",
            ]
        )
        assert code == 0
        fields = dict(
            line.split("\t", 1)
            for line in out.splitlines()
            if line and not line.startswith("#")
        )
        assert 0.0 <= float(fields["accuracy"]) <= 1.0

    def test_eval_needs_exactly_one_mode(self, counts_file, workdir):
        code, _, err = run_cli(
            ["eval", "--counts", counts_file, "--measure", "cos"]
        )
        assert code == 2

    def test_rerun_is_byte_identical(self, counts_file, workdir):
        args = [
            "rank",
            "--counts",
            counts_file,
            "--benchmark",
            workdir / "bench.csv",
            "--measure",
            "jsd",
        ]
        _, first, _ = run_cli(args)
        _, second, _ = run_cli(args)
        assert first == second


@pytest.fixture(scope="module")
def wccm_file(counts_file, workdir):
    out = workdir / "wccm.tsv"
    code, _, err = run_cli(
        [
            "wccm-build",
            "--counts",
            counts_file,
            "--thesaurus",
            workdir / "thesaurus.tsv",
            "--out",
            out,
        ]
    )
    assert code == 0, err
    return out


class TestConceptCommands:
    def test_wccm_file_has_kind_header(self, wccm_file):
        assert "#wccm\tkind=base" in wccm_file.read_text()

    def test_bootstrap(self, wccm_file, workdir):
        out = workdir / "boot.tsv"
        code, _, err = run_cli(
            [
                "wccm-bootstrap",
                "--corpus",
                workdir / "toy.txt",
                "--docs",
                "line",
                "--window",
                "3",
                "--base",
                wccm_file,
                "--thesaurus",
                workdir / "thesaurus.tsv",
                "--out",
                out,
            ]
        )
        assert code == 0, err
        assert "kind=bootstrapped" in out.read_text()

    def test_concept_distance(self, wccm_file):
        code, out, _ = run_cli(
            [
                "concept-distance",
                "--wccm",
                wccm_file,
                "--c1",
                "music",
                "--c2",
                "music",
                "--measure",
                "cos",
            ]
        )
        assert code == 0
        value = [l for l in out.splitlines() if not l.startswith("#")][0].split("\t")[3]
        assert float(value) == 1.0

    def test_concept_rank(self, wccm_file, workdir):
        code, out, _ = run_cli(
            [
                "rank",
                "--wccm",
                wccm_file,
                "--thesaurus",
                workdir / "thesaurus.tsv",
                "--benchmark",
                workdir / "bench.csv",
                "--measure",
                "cos",
            ]
        )
        assert code == 0
        assert any(line.startswith("1\t") for line in out.splitlines())

    def test_xling_wccm(self, counts_file, workdir):
        lexicon = workdir / "lex.tsv"
        lexicon.write_text("gitarre\tguitar\nkatze\tcat\nbrot\tbread\n")
        out = workdir / "xling.tsv"
        code, _, err = run_cli(
            [
                "xling-wccm",
                "--counts",
                counts_file,
                "--lexicon",
                lexicon,
                "--thesaurus",
                workdir / "thesaurus.tsv",
                "--out",
                out,
            ]
        )
        assert code == 0, err
        assert "language_mode=crosslingual" in out.read_text()

    def test_bootstrap_windows_stop_at_file_ends(self, workdir, tmp_path):
        # two files under --boundaries none give the events of two separate lines
        files = [tmp_path / "a.txt", tmp_path / "b.txt"]
        files[0].write_text("jam bread\n")
        files[1].write_text("guitar jam\n")
        lines = tmp_path / "lines.txt"
        lines.write_text("jam bread\nguitar jam\n")
        thesaurus = workdir / "thesaurus.tsv"

        def pipeline(corpus, name, *flags):
            counts, base, boot = (tmp_path / f"{name}-{n}.tsv" for n in ("c", "base", "boot"))
            for args in (
                ["count", "--corpus", *corpus, *flags, "--out", counts],
                ["wccm-build", "--counts", counts, "--thesaurus", thesaurus, "--out", base],
                ["wccm-bootstrap", "--corpus", *corpus, *flags, "--base", base,
                 "--thesaurus", thesaurus, "--out", boot],
            ):
                code, _, err = run_cli(args)
                assert code == 0, err
            return [load_wccm(base).matrix, load_wccm(boot).matrix]

        base, boot = pipeline(files, "files", "--window", "2", "--boundaries", "none")
        assert (base.total_pairs, boot.total_pairs) == (6, 4)
        by_line = pipeline([lines], "lines", "--window", "2", "--docs", "line")
        assert [sorted(m.items()) for m in by_line] == [sorted(base.items()), sorted(boot.items())]

    @pytest.mark.parametrize("boundaries", ["document", "sentence", "none"])
    @pytest.mark.parametrize("docs", ["line", "file"])
    def test_mixed_corpus_counts_as_its_token_stream(self, tmp_path, docs, boundaries):
        # ASCII and non-ASCII lines, blank and whitespace-only ones, in three token batches
        words = ["jam", "Bread", "guitar", "cat", "İstanbul", "Straße", "ÉTÉ", "x_1", "song."]
        rng = random.Random(5)
        lines = [" ".join(rng.choices(words[: rng.choice([4, 9])], k=rng.randint(1, 15)))
                 for _ in range(1500)]
        for at, blank in zip(rng.sample(range(1500), 60), ["", " ", "\t", "\x0b\x1c", "\r"] * 12):
            lines[at] = blank
        corpus = tmp_path / "mixed.txt"
        corpus.write_text("\n".join(lines), encoding="utf-8")
        thesaurus = tmp_path / "thesaurus.tsv"
        thesaurus.write_text("music\tMusic\tjam guitar song\nfood\tFood\tjam bread i\u0307stanbul\n"
                             "place\tPlace\ti\u0307stanbul straße été\n", encoding="utf-8")
        documents = [line for line in lines if line.strip()]
        if docs == "file":
            documents = ["\n".join(lines)]
        config = CorpusConfig(window_radius=3, respect_boundaries=boundaries)
        tokens = list(tokenize_documents(documents, config))
        assert len(tokens) > 2 * corpus_module._TOKEN_BATCH

        flags = ["--corpus", corpus, "--docs", docs, "--window", "3", "--boundaries", boundaries]
        counts, base, boot = (tmp_path / n for n in ("counts.tsv", "base.tsv", "boot.tsv"))
        for args in (
            ["count", *flags, "--out", counts],
            ["wccm-build", "--counts", counts, "--thesaurus", thesaurus, "--out", base],
            ["wccm-bootstrap", *flags, "--base", base, "--thesaurus", thesaurus, "--out", boot],
        ):
            code, _, err = run_cli(args)
            assert code == 0, err
        assert counts_equal(load_counts(counts), count_cooccurrences(tokens, config))
        want = bootstrap_wccm(tokens, load_wccm(base), load_thesaurus(thesaurus), config)
        assert counts_equal(load_wccm(boot).matrix, want.matrix)


@pytest.fixture(scope="module")
def ic_file(workdir):
    freqs = workdir / "freqs.tsv"
    freqs.write_text(
        "dog\t10\npuppy\t5\ncat\t10\njaguar\t5\nhammer\t8\ntool\t4\nanimal\t3\nthing\t5\n"
    )
    out = workdir / "ic.tsv"
    code, _, err = run_cli(
        [
            "ic-build",
            "--taxonomy",
            workdir / "taxo.tsv",
            "--freqs",
            freqs,
            "--out",
            out,
        ]
    )
    assert code == 0, err
    return out


class TestTaxonomyCommands:
    def test_taxo_path(self, workdir):
        code, out, _ = run_cli(
            [
                "taxo-distance",
                "--taxonomy",
                workdir / "taxo.tsv",
                "--c1",
                "dog",
                "--c2",
                "hammer",
                "--taxo-measure",
                "path",
            ]
        )
        assert code == 0
        line = [l for l in out.splitlines() if not l.startswith("#")][0]
        assert line.split("\t")[3] == "2.0"
        assert "relation_changes=1" in line

    def test_taxo_jc(self, workdir, ic_file):
        code, out, _ = run_cli(
            [
                "taxo-distance",
                "--taxonomy",
                workdir / "taxo.tsv",
                "--c1",
                "dog",
                "--c2",
                "cat",
                "--taxo-measure",
                "jc",
                "--ic",
                ic_file,
            ]
        )
        assert code == 0
        line = [l for l in out.splitlines() if not l.startswith("#")][0]
        assert float(line.split("\t")[3]) > 0

    def test_certain_concept_ic_is_positive_zero(self, workdir, tmp_path):
        """Every toy counts word credits the animal subtree, whose IC then prints as 0.0."""
        ic = tmp_path / "ic.tsv"
        counts = tmp_path / "counts.tsv"
        (tmp_path / "animals.txt").write_text("dog cat puppy\ncat dog\n")
        code, _, err = run_cli(["count", "--corpus", tmp_path / "animals.txt", "--out", counts])
        assert code == 0, err
        code, _, err = run_cli(
            ["ic-build", "--taxonomy", workdir / "taxo.tsv", "--counts", counts, "--out", ic]
        )
        assert code == 0, err
        assert "animal\t1.0\t0.0" in ic.read_text().splitlines()
        code, out, err = run_cli(
            ["taxo-distance", "--taxonomy", workdir / "taxo.tsv", "--c1", "dog", "--c2", "cat",
             "--taxo-measure", "res", "--ic", ic]
        )
        assert code == 0, err
        assert out.splitlines()[-1] == "dog\tcat\tres\t0.0"

    def test_ic_requires_source(self, workdir):
        code, _, err = run_cli(
            ["taxo-distance", "--taxonomy", workdir / "taxo.tsv", "--c1", "dog",
             "--c2", "cat", "--taxo-measure", "res"]
        )
        assert code == 2


class TestExitCodes:
    def test_missing_file_is_usage_error(self, tmp_path):
        code, _, err = run_cli(["profile", "--counts", tmp_path / "nope.tsv", "--target", "x"])
        assert code == 2

    def test_unknown_flag_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "distsem", "count", "--nonsense"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 2

    def test_subprocess_entry_point(self, workdir):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "distsem",
                "count",
                "--corpus",
                str(workdir / "toy.txt"),
                "--docs",
                "line",
            ],
            capture_output=True,
            text=True,
            cwd=str(workdir),
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert (workdir / "counts.tsv").exists()

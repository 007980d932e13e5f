import math
import random

import pytest

from distsem import (
    BenchmarkSet,
    MeasureId,
    Orientation,
    WordChoiceProblem,
    build_base_wccm,
    concept_pair_scorer,
    correlate,
    load_benchmark,
    load_word_choice,
    pearson,
    rank_pairs,
    save_counts,
    solve_word_choice,
    spearman,
    word_pair_scorer,
)
from distsem.errors import (
    CoverageError,
    MissingWordError,
    ParseError,
    TieBreakWarning,
    UndefinedAssociationError,
    ValidationError,
)

from test_cli import run_cli


def textbook_pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = math.sqrt(sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys))
    return num / den


def textbook_ranks(values):
    ranks = [0.0] * len(values)
    for i, v in enumerate(values):
        smaller = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks[i] = smaller + (equal + 1) / 2.0
    return ranks


class TestLoadBenchmark:
    def test_toy_file(self, fixtures_dir):
        bench = load_benchmark(fixtures_dir / "toy_benchmark.csv")
        assert len(bench.pairs) == 5
        assert bench.score_scale == (0.0, 4.0)

    def test_thirty_noun_pairs(self, fixtures_dir):
        bench = load_benchmark(fixtures_dir / "miller_charles.csv")
        assert len(bench.pairs) == 30
        assert bench.score_scale == (0.0, 4.0)

    def test_sixty_five_pair_format(self, tmp_path):
        rows = ["word1,word2,score,scale_min,scale_max"]
        rng = random.Random(0)
        for i in range(65):
            rows.append(f"w{i}a,w{i}b,{rng.uniform(0, 4):.2f},0.0,4.0")
        path = tmp_path / "pairs65.csv"
        path.write_text("\n".join(rows) + "\n")
        bench = load_benchmark(path)
        assert len(bench.pairs) == 65
        assert bench.score_scale == (0.0, 4.0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("word1,word2,score,scale_min,scale_max\n")
        with pytest.raises(ValidationError):
            load_benchmark(path)

    def test_out_of_scale_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "word1,word2,score,scale_min,scale_max\na,b,9.0,0.0,4.0\n"
        )
        with pytest.raises(ParseError) as err:
            load_benchmark(path)
        assert err.value.line_number == 2

    def test_infinite_score_and_scale_refused(self, tmp_path, toy_counts):
        """An infinite score inside an infinite scale used to give eval a nan correlation."""
        counts = tmp_path / "counts.tsv"
        save_counts(toy_counts, counts)
        path = tmp_path / "pairs.csv"
        path.write_text(
            "word1,word2,score,scale_min,scale_max\n"
            "guitar,piano,inf,-inf,inf\nbread,cheese,3.5,-inf,inf\n"
        )
        code, out, err = run_cli(
            ["eval", "--counts", counts, "--benchmark", path, "--measure", "cos"]
        )
        assert (code, out) == (2, ""), err
        assert f"{path}:2: non-finite score or scale" in err


class TestRankPairs:
    def bench(self, pairs):
        return BenchmarkSet(name="t", pairs=pairs, score_scale=(0.0, 4.0))

    def test_identical_word_pair_ranks_closest(self, toy_counts):
        scorer = word_pair_scorer(toy_counts, MeasureId.COS)
        bench = self.bench([("guitar", "horse", 1.0), ("cat", "cat", 4.0)])
        result = rank_pairs(bench, scorer, Orientation.CLOSENESS)
        assert result.ranked[0][:2] == ("cat", "cat")

    def test_orientation_flip_reverses_order(self):
        table = {("a", "b"): 0.9, ("c", "d"): 0.1}
        scorer = lambda w1, w2: table[(w1, w2)]
        bench = self.bench([("a", "b", 3.0), ("c", "d", 1.0)])
        close = rank_pairs(bench, scorer, Orientation.CLOSENESS)
        far = rank_pairs(bench, scorer, Orientation.DISTANCE)
        assert [r[:2] for r in close.ranked] == [("a", "b"), ("c", "d")]
        assert [r[:2] for r in far.ranked] == [("c", "d"), ("a", "b")]

    def test_toy_fixture_matches_oracle_sort(self, fixtures_dir, toy_counts):
        bench = load_benchmark(fixtures_dir / "toy_benchmark.csv")
        scorer = word_pair_scorer(toy_counts, MeasureId.COS)
        result = rank_pairs(bench, scorer, Orientation.CLOSENESS)
        oracle = sorted(
            ((w1, w2, scorer(w1, w2)) for w1, w2, _ in bench.pairs),
            key=lambda row: row[2],
            reverse=True,
        )
        assert [(r[0], r[1]) for r in result.ranked] == [(o[0], o[1]) for o in oracle]

    def test_missing_words_skipped_with_flag(self, toy_counts):
        scorer = word_pair_scorer(toy_counts, MeasureId.COS)
        bench = self.bench(
            [("guitar", "piano", 3.0), ("guitar", "zebra", 2.0), ("cat", "dog", 3.0)]
        )
        result = rank_pairs(bench, scorer, Orientation.CLOSENESS)
        assert len(result.ranked) == 2
        assert result.skipped[0][:2] == ("guitar", "zebra")

    def test_coverage_error(self, toy_counts):
        scorer = word_pair_scorer(toy_counts, MeasureId.COS)
        bench = self.bench(
            [("guitar", "zebra", 1.0), ("lion", "piano", 1.0), ("cat", "dog", 3.0)]
        )
        with pytest.raises(CoverageError):
            rank_pairs(bench, scorer, Orientation.CLOSENESS)

    def test_output_is_permutation(self, fixtures_dir, toy_counts):
        bench = load_benchmark(fixtures_dir / "toy_benchmark.csv")
        scorer = word_pair_scorer(toy_counts, MeasureId.L1)
        result = rank_pairs(bench, scorer, Orientation.DISTANCE)
        assert sorted(r[:2] for r in result.ranked) == sorted(
            (w1, w2) for w1, w2, _ in bench.pairs
        )

    def test_stable_tie_break_by_input_order(self):
        scorer = lambda w1, w2: 1.0
        bench = self.bench([("a", "b", 1.0), ("c", "d", 2.0), ("e", "f", 3.0)])
        result = rank_pairs(bench, scorer, Orientation.CLOSENESS)
        assert [r[:2] for r in result.ranked] == [("a", "b"), ("c", "d"), ("e", "f")]


class TestCorrelation:
    def test_identical_vectors(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, xs) == pytest.approx(1.0, abs=1e-12)
        assert spearman(xs, xs) == pytest.approx(1.0, abs=1e-12)

    def test_reversed_ranking(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [9.0, 7.0, 5.0, 1.0]
        assert spearman(xs, ys) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_textbook_formula(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(3, 30)
            xs = [rng.uniform(-5, 5) for _ in range(n)]
            ys = [rng.uniform(-5, 5) for _ in range(n)]
            assert pearson(xs, ys) == pytest.approx(
                textbook_pearson(xs, ys), abs=1e-12
            )
            assert spearman(xs, ys) == pytest.approx(
                textbook_pearson(textbook_ranks(xs), textbook_ranks(ys)), abs=1e-12
            )

    def test_ties_use_average_ranks(self):
        xs = [1.0, 1.0, 2.0]
        ys = [3.0, 3.0, 5.0]
        assert spearman(xs, ys) == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(UndefinedAssociationError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            pearson([1.0, 2.0], [1.0])

    def test_pearson_affine_invariance(self):
        rng = random.Random(33)
        xs = [rng.uniform(0, 1) for _ in range(20)]
        ys = [rng.uniform(0, 1) for _ in range(20)]
        base = pearson(xs, ys)
        shifted = pearson([3.0 * x + 7.0 for x in xs], ys)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_spearman_monotone_invariance(self):
        rng = random.Random(35)
        xs = [rng.uniform(0.1, 5) for _ in range(20)]
        ys = [rng.uniform(0.1, 5) for _ in range(20)]
        base = spearman(xs, ys)
        warped = spearman([math.exp(x) for x in xs], ys)
        assert warped == pytest.approx(base, abs=1e-12)

    def test_correlate_report(self, fixtures_dir, toy_counts):
        bench = load_benchmark(fixtures_dir / "toy_benchmark.csv")
        scorer = word_pair_scorer(toy_counts, MeasureId.COS)
        report = correlate(bench, scorer, Orientation.CLOSENESS)
        assert -1.0 <= report.spearman_raw <= 1.0
        assert report.spearman_abs == abs(report.spearman_raw)
        assert report.n_used == 5


class TestWordChoice:
    def test_load(self, fixtures_dir):
        problems = load_word_choice(fixtures_dir / "toy_choices.tsv")
        assert len(problems) == 5
        assert problems[0].alternatives == ["soup", "piano", "horse", "bread"]

    def test_identical_alternative_wins(self):
        scorer = lambda t, a: 1.0 if t == a else 0.2
        problems = [WordChoiceProblem("cat", ["dog", "cat", "bird"], 1)]
        outcome = solve_word_choice(problems, scorer, Orientation.CLOSENESS)
        assert outcome.accuracy == 1.0

    def test_all_alternatives_missing(self):
        def scorer(t, a):
            raise MissingWordError(a)

        problems = [WordChoiceProblem("cat", ["dog", "bird"], 0)]
        outcome = solve_word_choice(problems, scorer, Orientation.CLOSENESS)
        assert outcome.accuracy == 0.0
        assert outcome.flagged == [0]

    def test_missing_alternative_scored_most_distant(self):
        def scorer(t, a):
            if a == "ghost":
                raise MissingWordError(a)
            return {"dog": 0.9, "bird": 0.5}[a]

        problems = [WordChoiceProblem("cat", ["ghost", "dog", "bird"], 1)]
        outcome = solve_word_choice(problems, scorer, Orientation.CLOSENESS)
        assert outcome.accuracy == 1.0
        assert outcome.choices == [1]

    def test_tie_flagged_first_kept(self):
        scorer = lambda t, a: 1.0
        problems = [WordChoiceProblem("cat", ["dog", "bird"], 1)]
        with pytest.warns(TieBreakWarning):
            outcome = solve_word_choice(problems, scorer, Orientation.CLOSENESS)
        assert outcome.choices == [0]
        assert outcome.flagged == [0]
        assert outcome.accuracy == 0.0

    def test_distance_orientation_picks_minimum(self):
        table = {"dog": 0.1, "bird": 0.9}
        scorer = lambda t, a: table[a]
        problems = [WordChoiceProblem("cat", ["dog", "bird"], 0)]
        outcome = solve_word_choice(problems, scorer, Orientation.DISTANCE)
        assert outcome.accuracy == 1.0

    def test_toy_fixture_against_oracle(self, fixtures_dir, toy_counts):
        problems = load_word_choice(fixtures_dir / "toy_choices.tsv")
        scorer = word_pair_scorer(toy_counts, MeasureId.COS)
        outcome = solve_word_choice(problems, scorer, Orientation.CLOSENESS)
        correct = 0
        for problem in problems:
            best_idx, best_val = None, None
            for i, alt in enumerate(problem.alternatives):
                try:
                    v = scorer(problem.target, alt)
                except MissingWordError:
                    continue
                if best_val is None or v > best_val:
                    best_idx, best_val = i, v
            if best_idx == problem.answer_index:
                correct += 1
        assert outcome.accuracy == pytest.approx(correct / len(problems))


class TestConceptScorer:
    def test_closest_sense_pair_used(self, toy_counts, toy_thesaurus):
        wccm = build_base_wccm(toy_counts, toy_thesaurus)
        scorer = concept_pair_scorer(wccm, toy_thesaurus, MeasureId.COS)
        value = scorer("jam", "bread")
        from distsem import concept_profile, score, SoAKind

        best = max(
            score(
                MeasureId.COS,
                concept_profile(wccm, c1, SoAKind.CP),
                concept_profile(wccm, c2, SoAKind.CP),
            )
            for c1 in sorted(toy_thesaurus.senses("jam"))
            for c2 in sorted(toy_thesaurus.senses("bread"))
        )
        assert value == best

    def test_word_outside_thesaurus_is_missing(self, toy_counts, toy_thesaurus):
        wccm = build_base_wccm(toy_counts, toy_thesaurus)
        scorer = concept_pair_scorer(wccm, toy_thesaurus, MeasureId.COS)
        with pytest.raises(MissingWordError):
            scorer("the", "bread")

"""Benchmark loading, pair ranking, correlation, and word-choice evaluation.

Benchmark scores are closeness-oriented (higher means closer), so ranking
and choice selection honor each measure's orientation tag rather than
assuming one sense of "distance".
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    CoverageError,
    EmptyProfileError,
    MissingWordError,
    ParseError,
    TieBreakWarning,
    UndefinedAssociationError,
    ValidationError,
)
from .corpus import CooccurrenceCounts, read_records
from .measures import (
    DEFAULT_CONFIG,
    MeasureConfig,
    MeasureId,
    Orientation,
    orientation,
    required_soa,
    score,
)
from .profiles import DistributionalProfile, build_profile

ScoreFn = Callable[[str, str], float]


@dataclass
class BenchmarkSet:
    name: str
    pairs: list[tuple[str, str, float]]
    score_scale: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.score_scale
        if lo >= hi:
            raise ValidationError(f"{self.name}: bad score scale ({lo}, {hi})")
        for w1, w2, value in self.pairs:
            if not lo <= value <= hi:
                raise ValidationError(
                    f"{self.name}: score {value} for ({w1}, {w2}) outside scale"
                )


@dataclass
class WordChoiceProblem:
    target: str
    alternatives: list[str]
    answer_index: int

    def __post_init__(self):
        if not 0 <= self.answer_index < len(self.alternatives):
            raise ValidationError(
                f"answer index {self.answer_index} outside alternatives for {self.target!r}"
            )


def load_benchmark(path, name: Optional[str] = None) -> BenchmarkSet:
    """Read ``word1,word2,score,scale_min,scale_max`` CSV rows under that header.

    The scale columns must be constant across the file and finite, and every
    score must fall inside them.
    """
    pairs: list[tuple[str, str, float]] = []
    scale: Optional[tuple[float, float]] = None
    for line_number, fields in read_records(path, sep=","):
        parts = [p.strip() for p in fields]
        # a "#" after leading spaces starts a comment too
        if parts[0].startswith("#") or parts[:2] == ["word1", "word2"]:
            continue
        if len(parts) != 5:
            raise ParseError(
                str(path), line_number, "expected word1,word2,score,scale_min,scale_max"
            )
        try:
            value = float(parts[2])
            lo, hi = float(parts[3]), float(parts[4])
        except ValueError:
            raise ParseError(str(path), line_number, "non-numeric score or scale") from None
        if scale is None:
            scale = (lo, hi)
        elif scale != (lo, hi):
            raise ParseError(str(path), line_number, "scale changes mid-file")
        if not lo <= value <= hi:
            raise ParseError(str(path), line_number, f"score {value} outside scale [{lo}, {hi}]")
        if not (math.isfinite(lo) and math.isfinite(hi)):  # a score inside is finite too
            raise ParseError(str(path), line_number, "non-finite score or scale")
        pairs.append((parts[0], parts[1], value))
    if not pairs or scale is None:
        raise ValidationError(f"{path}: benchmark file has no pairs")
    return BenchmarkSet(name=name or str(path), pairs=pairs, score_scale=scale)


def load_word_choice(path) -> list[WordChoiceProblem]:
    """Read ``target<TAB>alt1|alt2|...<TAB>answer_index`` lines."""
    problems: list[WordChoiceProblem] = []
    expect = "target<TAB>alternatives<TAB>answer"
    for line_number, (target, listed, answer) in read_records(path, expect):
        alternatives = listed.split("|")
        if "" in alternatives:
            raise ParseError(str(path), line_number, "empty alternative")
        try:
            problems.append(WordChoiceProblem(target, alternatives, int(answer)))
        except ValueError:
            raise ParseError(str(path), line_number, "bad answer index") from None
        except ValidationError as exc:
            raise ParseError(str(path), line_number, str(exc)) from None
    if not problems:
        raise ValidationError(f"{path}: word-choice file has no problems")
    return problems


@dataclass
class RankedPairs:
    ranked: list[tuple[str, str, float, float]]  # word1, word2, human, measure
    skipped: list[tuple[str, str, str]] = field(default_factory=list)


def rank_pairs(
    benchmark: BenchmarkSet,
    score_fn: ScoreFn,
    measure_orientation: Orientation,
) -> RankedPairs:
    """Order benchmark pairs from closest to farthest under a scoring function.

    Pairs whose words are missing from the model are skipped and reported;
    more than half skipped is a coverage failure.  Ties keep input order.
    """
    scored: list[tuple[str, str, float, float]] = []
    skipped: list[tuple[str, str, str]] = []
    for w1, w2, human in benchmark.pairs:
        try:
            value = score_fn(w1, w2)
        except MissingWordError as exc:
            skipped.append((w1, w2, str(exc)))
            continue
        scored.append((w1, w2, human, value))
    if len(skipped) * 2 > len(benchmark.pairs):
        raise CoverageError(
            f"{benchmark.name}: {len(skipped)} of {len(benchmark.pairs)} pairs skipped"
        )
    reverse = Orientation(measure_orientation) is Orientation.CLOSENESS
    ranked = sorted(scored, key=lambda row: row[3], reverse=reverse)
    return RankedPairs(ranked=ranked, skipped=skipped)


def pearson(xs, ys) -> float:
    """Product-moment correlation of two equal-length sequences."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("correlation needs two equal-length vectors")
    if x.size < 2:
        raise ValidationError("correlation needs at least two points")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float((dx * dx).sum()) * float((dy * dy).sum()))
    if denom == 0.0:
        raise UndefinedAssociationError("pearson", "zero variance")
    return float((dx * dy).sum()) / denom


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_values = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Rank correlation with average ranks for ties."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("correlation needs two equal-length vectors")
    return pearson(_average_ranks(x), _average_ranks(y))


@dataclass
class CorrelationReport:
    pearson_raw: float
    spearman_raw: float
    orientation: Orientation
    n_used: int
    n_skipped: int

    @property
    def pearson_abs(self) -> float:
        return abs(self.pearson_raw)

    @property
    def spearman_abs(self) -> float:
        return abs(self.spearman_raw)


def correlate(
    benchmark: BenchmarkSet, score_fn: ScoreFn, measure_orientation: Orientation
) -> CorrelationReport:
    """Rank-and-correlate a measure against human scores, orientation noted.

    Human scores are closeness-oriented, so a good distance measure shows a
    negative raw correlation; the magnitude is what both raw values share.
    """
    result = rank_pairs(benchmark, score_fn, measure_orientation)
    humans = [row[2] for row in result.ranked]
    scores = [row[3] for row in result.ranked]
    return CorrelationReport(
        pearson_raw=pearson(humans, scores),
        spearman_raw=spearman(humans, scores),
        orientation=Orientation(measure_orientation),
        n_used=len(result.ranked),
        n_skipped=len(result.skipped),
    )


@dataclass
class WordChoiceOutcome:
    accuracy: float
    n_correct: int
    n_problems: int
    flagged: list[int] = field(default_factory=list)  # problem indices with ties / no data
    choices: list[Optional[int]] = field(default_factory=list)


def solve_word_choice(
    problems: list[WordChoiceProblem],
    score_fn: ScoreFn,
    measure_orientation: Orientation,
) -> WordChoiceOutcome:
    """Pick the closest alternative per problem; accuracy is the correct fraction.

    Missing alternatives score as maximally distant; a problem with every
    alternative missing counts as wrong and is flagged, as are ties (broken
    by the first alternative).
    """
    closeness = Orientation(measure_orientation) is Orientation.CLOSENESS
    n_correct = 0
    flagged: list[int] = []
    choices: list[Optional[int]] = []
    for idx, problem in enumerate(problems):
        values: list[Optional[float]] = []
        for alternative in problem.alternatives:
            try:
                values.append(score_fn(problem.target, alternative))
            except MissingWordError:
                values.append(None)
        present = [(i, v) for i, v in enumerate(values) if v is not None]
        if not present:
            flagged.append(idx)
            choices.append(None)
            continue
        best_index, best_value = present[0]
        tied = False
        for i, v in present[1:]:
            better = v > best_value if closeness else v < best_value
            if better:
                best_index, best_value = i, v
                tied = False
            elif v == best_value:
                tied = True
        if tied:
            flagged.append(idx)
            warnings.warn(
                f"word-choice tie for target {problem.target!r}; keeping first alternative",
                TieBreakWarning,
                stacklevel=2,
            )
        choices.append(best_index)
        if best_index == problem.answer_index:
            n_correct += 1
    return WordChoiceOutcome(
        accuracy=n_correct / len(problems) if problems else 0.0,
        n_correct=n_correct,
        n_problems=len(problems),
        flagged=flagged,
        choices=choices,
    )


def word_pair_scorer(
    counts: CooccurrenceCounts,
    measure: MeasureId,
    config: MeasureConfig = DEFAULT_CONFIG,
    min_feature_count: int = 1,
) -> ScoreFn:
    """Score word pairs by building (and caching) the profiles a measure needs."""
    measure = MeasureId(measure)
    kind = required_soa(measure, config)
    cache: dict[str, DistributionalProfile] = {}

    def profile_of(word: str) -> DistributionalProfile:
        cached = cache.get(word)
        if cached is None:
            try:
                cached = build_profile(
                    counts,
                    word,
                    kind,
                    log_base=config.log_base,
                    min_feature_count=min_feature_count,
                )
            except EmptyProfileError as exc:
                raise MissingWordError(str(exc)) from None
            cache[word] = cached
        return cached

    def scorer(w1: str, w2: str) -> float:
        return score(measure, profile_of(w1), profile_of(w2), config)

    return scorer


def concept_pair_scorer(
    wccm,
    thesaurus,
    measure: MeasureId,
    config: MeasureConfig = DEFAULT_CONFIG,
) -> ScoreFn:
    """Score word pairs through their thesaurus categories, keeping the closest.

    Each word maps to all its categories; the reported value is the closest
    cross-category score under the measure's orientation, mirroring how
    annotators rate the closest senses of a pair.
    """
    closeness = orientation(measure) is Orientation.CLOSENESS
    category_scorer = word_pair_scorer(wccm.matrix, measure, config)

    def scorer(w1: str, w2: str) -> float:
        senses1 = thesaurus.senses(w1)
        senses2 = thesaurus.senses(w2)
        if not senses1:
            raise MissingWordError(f"{w1!r} is not in the thesaurus")
        if not senses2:
            raise MissingWordError(f"{w2!r} is not in the thesaurus")
        best: Optional[float] = None
        for c1 in sorted(senses1):
            for c2 in sorted(senses2):
                try:
                    value = category_scorer(c1, c2)
                except MissingWordError:  # a category with no row or an empty profile
                    continue
                if best is None or (value > best if closeness else value < best):
                    best = value
        if best is None:
            raise MissingWordError(f"no scorable category pair for ({w1!r}, {w2!r})")
        return best

    return scorer

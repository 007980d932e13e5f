"""Distance and closeness measures between two distributional profiles.

One table maps each :class:`MeasureId` to its traits and its kernel.  A
kernel scores rows of pairs at once: :func:`score` checks one pair, aligns
both profiles once on the union of their features and hands the kernel one
row of each; :func:`score_rows` hands it many pairs aligned on shared
columns, whose zeros outside a pair's union leave its score unchanged, bit
for bit.  Intersection measures mask the shared features out of those rows.

Every measure carries an orientation tag (distance: larger = farther apart;
closeness: larger = closer) and a symmetry tag.  Orientation is metadata
only: nothing here converts a distance into a closeness, and ranking code is
expected to consume the tag.

Divergence variants whose log ratio can blow up on a missing feature
(``kld``, ``kld_abs``, ``kld_unw_abs``, and the ``div`` compositional form)
are evaluated on epsilon-smoothed copies of both profiles: zero entries over
the union support are replaced by ``epsilon`` and each side is rescaled so
its total mass is unchanged.  Smoothing both sides keeps the symmetric
variants exactly symmetric and makes the averaged form agree with its
closed-form rewrite.  The skew and average-mixture divergences need no
smoothing by construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .assoc import SoAKind, check_log_base
from .errors import (
    ConfigurationError,
    EmptyIntersectionWarning,
    IncompatibleProfilesError,
    UndefinedMeasureError,
)
from .profiles import DistributionalProfile


class Orientation(str, Enum):
    DISTANCE = "distance"
    CLOSENESS = "closeness"


class WeightScheme(str, Enum):
    NONE = "none"
    AVG = "avg"
    MAX = "max"


class CrmKind(str, Enum):
    TYPE = "type"
    TOKEN = "token"
    MI = "mi"


class CrmPenalty(str, Enum):
    ADD = "add"
    DW = "dw"


@dataclass(frozen=True)
class MeasureConfig:
    log_base: float = 2.0
    epsilon: float = 1e-8
    alpha: float = 0.99
    gamma: float = 0.5
    beta: float = 0.5
    weight_scheme: WeightScheme = WeightScheme.NONE
    crm_kind: CrmKind = CrmKind.TOKEN
    crm_penalty: CrmPenalty = CrmPenalty.DW

    def __post_init__(self):
        object.__setattr__(self, "weight_scheme", WeightScheme(self.weight_scheme))
        object.__setattr__(self, "crm_kind", CrmKind(self.crm_kind))
        object.__setattr__(self, "crm_penalty", CrmPenalty(self.crm_penalty))
        check_log_base(self.log_base)
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("alpha must lie in (0, 1]")
        if not 0.0 <= self.gamma <= 1.0 or not 0.0 <= self.beta <= 1.0:
            raise ConfigurationError("gamma and beta must lie in [0, 1]")
        if not self.epsilon > 0.0:
            raise ConfigurationError("epsilon must be positive")


DEFAULT_CONFIG = MeasureConfig()


class MeasureId(str, Enum):
    COS = "cos"
    L1 = "l1"
    L2 = "l2"
    KLD = "kld"
    KLD_COM = "kld_com"
    KLD_ABS = "kld_abs"
    KLD_UNW_ABS = "kld_unw_abs"
    KLD_MAX = "kld_max"
    KLD_AVG = "kld_avg"
    ASD = "asd"
    JSD = "jsd"
    JSD_ABS = "jsd_abs"
    DICE_CP = "dice_cp"
    JACCARD_CP = "jaccard_cp"
    HINDLE = "hindle"
    HINDLE_REL = "hindle_rel"
    LIN = "lin"
    DIF = "dif"
    DIV = "div"
    PDT_AVG = "pdt_avg"
    PDT_AVG_WT = "pdt_avg_wt"
    CRM = "crm"


# A kernel scores rows of pairs: row i of p (or p's only row) against row i of
# q, zero-filled value arrays aligned on columns in ascending feature order
# that cover each pair's union support.  It gives one score per row.
Kernel = Callable[[np.ndarray, np.ndarray, MeasureConfig], np.ndarray]


class Measure(NamedTuple):
    orientation: Orientation
    symmetric: bool
    soa: Optional[SoAKind]  # None: depends on configuration
    kernel: Kernel


def orientation(measure: MeasureId) -> Orientation:
    return _MEASURES[MeasureId(measure)].orientation


def is_symmetric(measure: MeasureId) -> bool:
    return _MEASURES[MeasureId(measure)].symmetric


def required_soa(measure: MeasureId, config: MeasureConfig = DEFAULT_CONFIG) -> SoAKind:
    """The strength-of-association kind profiles must carry for this measure."""
    soa = _MEASURES[MeasureId(measure)].soa
    if soa is not None:
        return soa
    return SoAKind.PMI if config.crm_kind is CrmKind.MI else SoAKind.CP


# the inverse dependency relations of the syntactic matched-sign measure: a
# noun profiled by the verbs it is object or subject of
SYNTACTIC_RELATIONS = ("obj^-1", "subj^-1")


def score(
    measure: MeasureId,
    dp1: DistributionalProfile,
    dp2: DistributionalProfile,
    config: MeasureConfig = DEFAULT_CONFIG,
) -> float:
    """Evaluate any catalogued measure on a profile pair.

    A feature stored with the value 0 counts as one the profile does not hold.
    """
    measure = MeasureId(measure)
    _check_pair(dp1, dp2, required_soa(measure, config))
    v1, v2 = dp1.values, dp2.values
    if measure is MeasureId.HINDLE:
        if not (dp1.relation_constrained and dp2.relation_constrained):
            raise IncompatibleProfilesError(
                "syntactic variant needs relation-constrained profiles"
            )
        v1, v2 = _syntactic_only(dp1), _syntactic_only(dp2)
    p, q = _align(dp1, v1, dp2, v2)
    return float(_MEASURES[measure].kernel(p[None], q[None], config)[0])


def score_rows(
    measure: MeasureId, p: np.ndarray, q: np.ndarray, config: MeasureConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Scores of relation-free profile pairs given as aligned value rows, one per row of ``q``.

    Row i of ``q`` is scored against row i of ``p``, or against its only row.
    Columns ascend in feature order, and a zero is a feature that profile
    does not hold.  Each score equals :func:`score`'s on the two profiles, bit
    for bit; the caller vouches that the rows carry ``measure``'s association
    kind.
    """
    measure = MeasureId(measure)
    if measure is MeasureId.HINDLE:
        raise IncompatibleProfilesError("syntactic variant needs relation-constrained profiles")
    return _MEASURES[measure].kernel(p, q, config)


def _syntactic_only(dp: DistributionalProfile) -> np.ndarray:
    keep = [isinstance(f, tuple) and f[0] in SYNTACTIC_RELATIONS for f in dp.features]
    return np.where(keep, dp.values, 0.0)


def _check_pair(dp1: DistributionalProfile, dp2: DistributionalProfile, require: SoAKind) -> None:
    if dp1.soa != dp2.soa:
        raise IncompatibleProfilesError(
            f"profiles carry different association kinds: {dp1.soa} vs {dp2.soa}"
        )
    if dp1.soa is not require:
        raise IncompatibleProfilesError(
            f"measure needs {require.value} profiles, got {dp1.soa.value}"
        )
    if dp1.values.size and dp2.values.size:
        if dp1.relation_constrained != dp2.relation_constrained:
            raise IncompatibleProfilesError(
                "cannot compare a relation-free profile with a relation-constrained one"
            )


def _align(
    dp1: DistributionalProfile, v1: np.ndarray, dp2: DistributionalProfile, v2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two profiles' values zero-filled over the union of their features, in feature order.

    Profiles of one counts object are aligned on their column ids, which
    ascend in feature order as their keys do; any other pair on its keys.
    """
    same = dp1.counts is not None and dp1.counts is dp2.counts
    k1, k2 = (dp1.columns, dp2.columns) if same else (dp1.keys, dp2.keys)
    pos = np.searchsorted(k1, k2)
    shared = pos < k1.size
    shared[shared] = k1[pos[shared]] == k2[shared]
    # a key only k2 holds goes in before k1[pos], after the k2-only keys below it
    only2 = ~shared
    at1 = np.arange(k1.size) + np.searchsorted(pos[only2], np.arange(k1.size), side="right")
    at2 = pos + np.cumsum(only2) - 1
    at2[shared] = at1[pos[shared]]
    p = np.zeros(k1.size + np.count_nonzero(only2))
    q = np.zeros(p.size)
    p[at1] = v1
    q[at2] = v2
    return p, q


def _sum(x: np.ndarray) -> np.ndarray:
    """Row sums added left to right in feature order, as a plain loop adds.

    Adding -0.0 leaves every sum unchanged, and adding 0.0 every sum but
    -0.0.  So a kernel may sum over all columns where the measure sums over a
    pair's union, if every term outside it is -0.0, or is 0.0 while no term
    inside can be -0.0; :func:`_sum_over` masks the terms outside with -0.0.
    """
    if not x.shape[-1]:
        return np.zeros(x.shape[:-1])
    return np.cumsum(x, axis=-1)[..., -1]


def _sum_over(x: np.ndarray, where: np.ndarray) -> np.ndarray:
    """Row sums of ``x`` over the columns ``where`` holds, as :func:`_sum` adds them.

    The other columns' terms become -0.0, which leaves every sum unchanged.  A
    row holding no column sums to 0.0.
    """
    return np.where(where.any(axis=-1), _sum(np.where(where, x, -0.0)), 0.0)


def _union(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Each pair's union support: the columns where either profile holds a value."""
    return (p != 0.0) | (q != 0.0)


def _log(x: np.ndarray, base: float) -> np.ndarray:
    return np.log(x) / math.log(base)


def _smooth(raw: np.ndarray, union: np.ndarray, epsilon: float) -> np.ndarray:
    """Zeros of the union replaced by epsilon, rescaled so the total stays unchanged.

    Columns outside the union stay 0.
    """
    total = _sum(raw)
    if (total <= 0.0).any():
        raise UndefinedMeasureError("cannot smooth an empty profile")
    zeros = np.count_nonzero(union & (raw <= 0.0), axis=-1)
    # with no zeros the scale is exactly 1.0, which leaves every value as it is
    scale = total / (total + epsilon * zeros)
    return np.where(union, np.where(raw > 0.0, raw, epsilon), 0.0) * scale[..., None]


# ---------------------------------------------------------------------------
# spatial measures


def _cos(p, q, config):
    sq1 = _sum(p * p)
    sq2 = _sum(q * q)
    if (sq1 == 0.0).any() or (sq2 == 0.0).any():
        raise UndefinedMeasureError("cosine of an empty or zero-norm profile")
    value = _sum(p * q) / (np.sqrt(sq1) * np.sqrt(sq2))
    # the true value is within [-1, 1]; strip rounding overshoot
    return np.clip(value, -1.0, 1.0)


def _l1(p, q, config):
    return _sum(np.abs(p - q))


def _l2(p, q, config):
    diff = p - q
    return np.sqrt(_sum(diff * diff))


# ---------------------------------------------------------------------------
# relative-entropy family


def _log_ratio(p, q, config):
    """Smoothed p and its log ratio to smoothed q, -0.0 outside the union."""
    union = _union(p, q)
    p, q = _smooth(p, union, config.epsilon), _smooth(q, union, config.epsilon)
    with np.errstate(divide="ignore", invalid="ignore"):
        # difference of logs keeps |ratio| exactly order-free
        ratio = (np.log(p) - np.log(q)) / math.log(config.log_base)
    # no row's union is empty, as smoothing refuses an empty profile
    return p, np.where(union, ratio, -0.0)


def _kld(p, q, config):
    p, ratio = _log_ratio(p, q, config)
    return _sum(p * ratio)


def _kld_abs(p, q, config):
    p, ratio = _log_ratio(p, q, config)
    return _sum(p * np.abs(ratio))


def _kld_unw_abs(p, q, config):
    return _sum(np.abs(_log_ratio(p, q, config)[1]))


def _kld_max(p, q, config):
    forward, backward = _kld(p, q, config), _kld(q, p, config)
    # as max() picks, which np.maximum does not between 0.0 and -0.0
    return np.where(backward > forward, backward, forward)


def _kld_avg(p, q, config):
    return 0.5 * (_kld(p, q, config) + _kld(q, p, config))


def _kld_com(p, q, config):
    shared = (p != 0.0) & (q != 0.0)
    if not shared.any(axis=-1).all():
        warnings.warn(
            "profiles share no features; common-support divergence reported as 0",
            EmptyIntersectionWarning,
            stacklevel=3,
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        return _sum_over(p * _log(p / q, config.log_base), shared)


def _asd(p, q, config):
    seen = p > 0.0
    mix = config.alpha * q + (1.0 - config.alpha) * p
    if (seen & (mix <= 0.0)).any():
        raise UndefinedMeasureError("skew divergence undefined: zero mixture with alpha = 1")
    with np.errstate(divide="ignore", invalid="ignore"):
        return _sum_over(p * _log(p / mix, config.log_base), seen)


def _jsd_logs(p, q, config):
    """Each side's log ratio to the average mixture, 0 off its support."""
    mid = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(p > 0.0, _log(p / mid, config.log_base), 0.0)
        right = np.where(q > 0.0, _log(q / mid, config.log_base), 0.0)
    return left, right


def _jsd(p, q, config):
    left, right = _jsd_logs(p, q, config)
    # with identical sides and a log base below 1, every term is -0.0
    return _sum_over(p * left + q * right, _union(p, q))


def _jsd_abs(p, q, config):
    left, right = _jsd_logs(p, q, config)
    return _sum(p * np.abs(left) + q * np.abs(right))


# ---------------------------------------------------------------------------
# pointwise-mutual-information measures


def _hindle(p, q, config):
    """Sum of matched-sign association strengths over shared features."""
    positive = (p > 0.0) & (q > 0.0)
    negative = (p < 0.0) & (q < 0.0)
    # of two negatives, keep the one smaller in absolute value
    return _sum(np.where(positive, np.minimum(p, q), np.where(negative, -np.maximum(p, q), 0.0)))


def _lin(p, q, config):
    """Shared positive association mass over total positive association mass."""
    p, q = np.maximum(p, 0.0), np.maximum(q, 0.0)
    if (~p.any(axis=-1) & ~q.any(axis=-1)).any():
        raise UndefinedMeasureError("no positively associated features on either side")
    shared = (p != 0.0) & (q != 0.0)
    value = _sum(np.where(shared, p + q, 0.0)) / (_sum(p) + _sum(q))
    return np.where(shared.any(axis=-1), value, 0.0)


# ---------------------------------------------------------------------------
# support-overlap measures over CP profiles


def _dice_cp(p, q, config):
    denominator = _sum(p) + _sum(q)
    if (denominator == 0.0).any():
        raise UndefinedMeasureError("dice overlap of empty profiles")
    return 2.0 * _sum(np.minimum(p, q)) / denominator


def _jaccard_cp(p, q, config):
    denominator = _sum_over(np.maximum(p, q), (p != 0.0) & (q != 0.0))
    if (denominator == 0.0).any():
        raise UndefinedMeasureError("jaccard overlap with empty intersection")
    return _sum(np.minimum(p, q)) / denominator


# ---------------------------------------------------------------------------
# primary compositional measures: per-feature difference, log-ratio, or
# scaled-product terms.  ``dif`` and ``div`` add up plain (optionally
# weighted) terms.  The unweighted product form averages its terms, which pins
# it to [0, 1] with 1 on identical profiles; its ``avg`` weighting is the
# plain weighted sum, whose terms telescope to product over half-sum.


def _dif_terms(p, q, config):
    return np.abs(p - q)


def _div_terms(p, q, config):
    return np.abs(_log_ratio(p, q, config)[1])


def _pdt_terms(p, q, config):
    half_sum = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        # product over squared mean never exceeds 1; strip rounding overshoot
        terms = np.minimum((p * q) / (half_sum * half_sum), 1.0)
    return np.where(p + q <= 0.0, 0.0, terms)


def _compositional(
    terms_of, scheme: Optional[WeightScheme] = None, average: bool = False
) -> Kernel:
    """Kernel adding up ``terms_of``'s terms under ``scheme`` (the configured one if None)."""

    def kernel(p, q, config):
        size = np.count_nonzero(_union(p, q), axis=-1)
        if not size.all():
            raise UndefinedMeasureError("compositional measure of empty profiles")
        terms = terms_of(p, q, config)
        weighting = scheme or config.weight_scheme
        if weighting is WeightScheme.NONE:
            return _sum(terms) / size if average else _sum(terms)
        if weighting is WeightScheme.AVG:
            weights = 0.5 * (p + q)
        else:
            maxes = np.maximum(p, q)
            norm = _sum(maxes)
            if (norm <= 0.0).any():
                raise UndefinedMeasureError("max-weighting of empty profiles")
            weights = maxes / norm[..., None]
        return _sum(weights * terms)

    return kernel


# ---------------------------------------------------------------------------
# co-occurrence retrieval


def crm_precision_recall(
    dp1: DistributionalProfile,
    dp2: DistributionalProfile,
    kind: CrmKind = CrmKind.TOKEN,
    penalty: CrmPenalty = CrmPenalty.DW,
) -> tuple[float, float]:
    """Substitutability precision and recall of dp1's co-occurrences against dp2's.

    ``type`` cores count shared support, ``token`` cores sum conditional
    probabilities, ``mi`` cores sum positive association strengths.  The
    difference-weighted penalty discounts mismatched strengths; for token
    cores the penalty cancels into a plain sum of minima, making precision
    and recall coincide.
    """
    kind, penalty = CrmKind(kind), CrmPenalty(penalty)
    _check_pair(dp1, dp2, required_soa(MeasureId.CRM, MeasureConfig(crm_kind=kind)))
    p, q = _align(dp1, dp1.values, dp2, dp2.values)
    precision, recall = _crm_pr(p[None], q[None], kind, penalty)
    return float(precision[0]), float(recall[0])


def _crm_pr(p, q, kind: CrmKind, penalty: CrmPenalty) -> tuple[np.ndarray, np.ndarray]:
    if kind is CrmKind.MI:
        # negative associations are too unreliable to subtract evidence
        p, q = np.maximum(p, 0.0), np.maximum(q, 0.0)
    n1, n2 = np.count_nonzero(p, axis=-1), np.count_nonzero(q, axis=-1)
    if not (n1.all() and n2.all()):
        raise UndefinedMeasureError("substitutability of an empty co-occurrence set")
    mass1, mass2 = _sum(p), _sum(q)
    shared = (p != 0.0) & (q != 0.0)
    least = np.minimum(p, q)

    if kind is CrmKind.TYPE:
        if penalty is CrmPenalty.ADD:
            both = np.count_nonzero(shared, axis=-1)
            return both / n1, both / n2
        with np.errstate(divide="ignore", invalid="ignore"):
            return _sum_over(least / p, shared) / n1, _sum_over(least / q, shared) / n2
    if penalty is CrmPenalty.ADD:
        core1, core2 = _sum_over(p, shared), _sum_over(q, shared)
    else:
        core1 = core2 = _sum_over(least, shared)
    if kind is CrmKind.TOKEN:
        return core1, core2
    if (mass1 <= 0.0).any() or (mass2 <= 0.0).any():
        raise UndefinedMeasureError("no positive association mass on one side")
    return core1 / mass1, core2 / mass2


def crm_combine(p, r, gamma: float, beta: float):
    """Weighted blend of the harmonic mean with a precision/recall mixture.

    ``p`` and ``r`` are numbers, giving a number, or equal-shape arrays of them.
    """
    p, r = np.asarray(p, dtype=np.float64), np.asarray(r, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        harmonic = np.where(p + r == 0.0, 0.0, (2.0 * p * r) / (p + r))
    value = gamma * harmonic + (1.0 - gamma) * (beta * p + (1.0 - beta) * r)
    return float(value) if value.ndim == 0 else value


def _crm(p, q, config):
    pr = _crm_pr(p, q, config.crm_kind, config.crm_penalty)
    return crm_combine(*pr, config.gamma, config.beta)


# ---------------------------------------------------------------------------
# the catalog

_D = Orientation.DISTANCE
_C = Orientation.CLOSENESS
_CP = SoAKind.CP
_PMI = SoAKind.PMI

_MEASURES: dict[MeasureId, Measure] = {
    MeasureId.COS: Measure(_C, True, _CP, _cos),
    MeasureId.L1: Measure(_D, True, _CP, _l1),
    MeasureId.L2: Measure(_D, True, _CP, _l2),
    MeasureId.KLD: Measure(_D, False, _CP, _kld),
    MeasureId.KLD_COM: Measure(_D, False, _CP, _kld_com),
    MeasureId.KLD_ABS: Measure(_D, False, _CP, _kld_abs),
    MeasureId.KLD_UNW_ABS: Measure(_D, True, _CP, _kld_unw_abs),
    MeasureId.KLD_MAX: Measure(_D, True, _CP, _kld_max),
    MeasureId.KLD_AVG: Measure(_D, True, _CP, _kld_avg),
    MeasureId.ASD: Measure(_D, False, _CP, _asd),
    MeasureId.JSD: Measure(_D, True, _CP, _jsd),
    MeasureId.JSD_ABS: Measure(_D, True, _CP, _jsd_abs),
    MeasureId.DICE_CP: Measure(_C, True, _CP, _dice_cp),
    MeasureId.JACCARD_CP: Measure(_C, True, _CP, _jaccard_cp),
    MeasureId.HINDLE: Measure(_C, True, _PMI, _hindle),  # on syntactic relations only
    MeasureId.HINDLE_REL: Measure(_C, True, _PMI, _hindle),
    MeasureId.LIN: Measure(_C, True, _PMI, _lin),
    MeasureId.DIF: Measure(_D, True, _CP, _compositional(_dif_terms)),
    MeasureId.DIV: Measure(_D, True, _CP, _compositional(_div_terms)),
    MeasureId.PDT_AVG: Measure(_C, True, _CP, _compositional(_pdt_terms, average=True)),
    MeasureId.PDT_AVG_WT: Measure(_C, True, _CP, _compositional(_pdt_terms, WeightScheme.AVG)),
    MeasureId.CRM: Measure(_C, False, None, _crm),
}

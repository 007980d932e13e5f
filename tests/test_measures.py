import math
import random

import pytest

from distsem import (
    CrmKind,
    CrmPenalty,
    DistributionalProfile,
    MeasureConfig,
    MeasureId,
    Orientation,
    SoAKind,
    WeightScheme,
    crm_combine,
    crm_precision_recall,
    orientation,
    score,
)
from distsem.errors import (
    EmptyIntersectionWarning,
    IncompatibleProfilesError,
    UndefinedMeasureError,
)

import oracles


def cp(entries, target="w"):
    return DistributionalProfile(target=target, soa=SoAKind.CP, entries=dict(entries))


def pmi(entries, target="w"):
    return DistributionalProfile(target=target, soa=SoAKind.PMI, entries=dict(entries))


DIVERGENCES = [
    MeasureId.KLD,
    MeasureId.KLD_COM,
    MeasureId.KLD_ABS,
    MeasureId.KLD_UNW_ABS,
    MeasureId.ASD,
    MeasureId.JSD,
    MeasureId.JSD_ABS,
]


def random_cp(rng, pool, n_min=3, n_max=10, target="w"):
    n = rng.randint(n_min, min(n_max, len(pool)))
    feats = rng.sample(pool, n)
    raw = [rng.random() + 1e-3 for _ in feats]
    total = sum(raw)
    return cp({f: v / total for f, v in zip(feats, raw)}, target)


class TestCosine:
    def test_identical(self):
        d = cp({"x": 0.25, "y": 0.75})
        assert score(MeasureId.COS, d, d) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint(self):
        assert score(MeasureId.COS, cp({"x": 1.0}), cp({"y": 1.0})) == 0.0

    def test_hand_value(self):
        d1 = cp({"x": 0.6, "y": 0.8})
        d2 = cp({"x": 0.8, "y": 0.6})
        assert score(MeasureId.COS, d1, d2) == pytest.approx(0.96, abs=1e-12)

    def test_empty_profile_undefined(self):
        with pytest.raises(UndefinedMeasureError):
            score(MeasureId.COS, cp({}), cp({"x": 1.0}))

    def test_mixed_soa_rejected(self):
        with pytest.raises(IncompatibleProfilesError):
            score(MeasureId.COS, cp({"x": 1.0}), pmi({"x": 1.0}))


class TestMinkowski:
    def test_identical(self):
        d = cp({"x": 0.5, "y": 0.5})
        assert score(MeasureId.L1, d, d) == 0.0
        assert score(MeasureId.L2, d, d) == 0.0

    def test_disjoint_cp_l1_is_two(self):
        assert score(MeasureId.L1, cp({"x": 0.4, "y": 0.6}), cp({"z": 1.0})) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_hand_values(self):
        d1 = cp({"x": 0.5, "y": 0.5})
        d2 = cp({"x": 1.0})
        assert score(MeasureId.L1, d1, d2) == pytest.approx(1.0, abs=1e-12)
        assert score(MeasureId.L2, d1, d2) == pytest.approx(math.sqrt(0.5), abs=1e-12)


class TestDivergences:
    def test_identity_is_zero(self):
        d = cp({"x": 0.3, "y": 0.7})
        for measure in DIVERGENCES:
            assert score(measure, d, d) == pytest.approx(0.0, abs=1e-12)

    def test_jsd_symmetric_random(self):
        rng = random.Random(2)
        pool = [f"f{i}" for i in range(20)]
        for _ in range(50):
            d1 = random_cp(rng, pool)
            d2 = random_cp(rng, pool)
            forward = score(MeasureId.JSD, d1, d2)
            backward = score(MeasureId.JSD, d2, d1)
            assert abs(forward - backward) <= 1e-12

    def test_skew_divergence_at_alpha_one_equals_plain_on_shared_support(self):
        d1 = cp({"a": 0.2, "b": 0.5, "c": 0.3})
        d2 = cp({"a": 0.4, "b": 0.1, "c": 0.5})
        plain = sum(
            d1.entries[k] * math.log(d1.entries[k] / d2.entries[k], 2) for k in "abc"
        )
        exact = score(MeasureId.ASD, d1, d2, MeasureConfig(alpha=1.0))
        assert exact == pytest.approx(plain, abs=1e-12)
        near = score(MeasureId.ASD, d1, d2, MeasureConfig(alpha=1.0 - 1e-9))
        assert near == pytest.approx(plain, abs=1e-6)

    def test_against_oracles(self):
        rng = random.Random(4)
        pool = [f"f{i}" for i in range(12)]
        cases = [
            (MeasureId.KLD, oracles.o_kld),
            (MeasureId.KLD_ABS, oracles.o_kld_abs),
            (MeasureId.KLD_UNW_ABS, oracles.o_kld_unw_abs),
            (MeasureId.ASD, lambda p, q: oracles.o_asd(p, q)),
            (MeasureId.JSD, oracles.o_jsd),
            (MeasureId.JSD_ABS, lambda p, q: oracles.o_jsd(p, q, use_abs=True)),
        ]
        for _ in range(25):
            d1 = random_cp(rng, pool)
            d2 = random_cp(rng, pool)
            for measure, oracle in cases:
                got = score(measure, d1, d2)
                want = oracle(d1.entries, d2.entries)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12), measure

    def test_common_support_matches_oracle(self):
        d1 = cp({"x": 0.5, "y": 0.3, "z": 0.2})
        d2 = cp({"x": 0.1, "y": 0.6, "w": 0.3})
        got = score(MeasureId.KLD_COM, d1, d2)
        assert got == pytest.approx(oracles.o_kld_com(d1.entries, d2.entries), rel=1e-12)

    def test_common_support_empty_intersection_warns_zero(self):
        d1 = cp({"x": 1.0})
        d2 = cp({"y": 1.0})
        with pytest.warns(EmptyIntersectionWarning):
            assert score(MeasureId.KLD_COM, d1, d2) == 0.0

    def test_common_support_can_go_negative(self):
        d1 = cp({"x": 0.1, "y": 0.9})
        d2 = cp({"x": 0.9, "z": 0.1})
        assert score(MeasureId.KLD_COM, d1, d2) < 0.0

    def test_abs_dominates_plain(self):
        rng = random.Random(6)
        pool = [f"f{i}" for i in range(10)]
        for _ in range(50):
            d1 = random_cp(rng, pool)
            d2 = random_cp(rng, pool)
            assert score(MeasureId.KLD_ABS, d1, d2) >= score(MeasureId.KLD, d1, d2) - 1e-12


class TestHindle:
    def test_positive_branch(self):
        d1 = pmi({("obj^-1", "v"): 2.0})
        d2 = pmi({("obj^-1", "v"): 3.0})
        assert score(MeasureId.HINDLE, d1, d2) == 2.0

    def test_negative_branch(self):
        d1 = pmi({("obj^-1", "v"): -2.0})
        d2 = pmi({("obj^-1", "v"): -3.0})
        assert score(MeasureId.HINDLE, d1, d2) == 2.0

    def test_opposite_signs(self):
        d1 = pmi({("obj^-1", "v"): 2.0})
        d2 = pmi({("obj^-1", "v"): -3.0})
        assert score(MeasureId.HINDLE, d1, d2) == 0.0

    def test_syntactic_filters_relations(self):
        d1 = pmi({("obj^-1", "v"): 2.0, ("mod^-1", "m"): 5.0})
        d2 = pmi({("obj^-1", "v"): 3.0, ("mod^-1", "m"): 5.0})
        assert score(MeasureId.HINDLE, d1, d2) == 2.0
        assert score(MeasureId.HINDLE_REL, d1, d2) == 7.0

    def test_syntactic_needs_relation_features(self):
        with pytest.raises(IncompatibleProfilesError):
            score(MeasureId.HINDLE, pmi({"a": 1.0}), pmi({"a": 2.0}))

    def test_matches_oracle(self):
        rng = random.Random(8)
        pool = [("obj^-1", f"v{i}") for i in range(6)] + [
            ("subj^-1", f"v{i}") for i in range(6)
        ]
        for _ in range(30):
            feats1 = rng.sample(pool, 6)
            feats2 = rng.sample(pool, 6)
            d1 = pmi({f: rng.uniform(-3, 4) for f in feats1})
            d2 = pmi({f: rng.uniform(-3, 4) for f in feats2})
            got = score(MeasureId.HINDLE, d1, d2)
            want = oracles.o_hindle(d1.entries, d2.entries, ("obj^-1", "subj^-1"))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestLin:
    def test_identical_all_positive(self):
        d = pmi({("obj^-1", "a"): 1.5, ("obj^-1", "b"): 0.5})
        assert score(MeasureId.LIN, d, d) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_positive_sets(self):
        d1 = pmi({("obj^-1", "a"): 1.0})
        d2 = pmi({("obj^-1", "b"): 1.0})
        assert score(MeasureId.LIN, d1, d2) == 0.0

    def test_no_positive_features_undefined(self):
        with pytest.raises(UndefinedMeasureError):
            score(
                MeasureId.LIN, pmi({("obj^-1", "a"): -1.0}), pmi({("obj^-1", "b"): -2.0})
            )

    def test_three_feature_hand_value(self):
        d1 = pmi({("obj^-1", "a"): 2.0, ("obj^-1", "b"): 1.0, ("obj^-1", "c"): -1.0})
        d2 = pmi({("obj^-1", "a"): 1.0, ("obj^-1", "c"): 2.0, ("obj^-1", "d"): 3.0})
        # shared positive features: {a}; numerator 2+1; denominator (2+1)+(1+2+3)
        assert score(MeasureId.LIN, d1, d2) == pytest.approx(3.0 / 9.0, rel=1e-12)
        assert score(MeasureId.LIN, d1, d2) == pytest.approx(
            oracles.o_lin(d1.entries, d2.entries)
        )


class TestOverlap:
    def test_identical_dice(self):
        d = cp({"x": 0.5, "y": 0.5})
        assert score(MeasureId.DICE_CP, d, d) == 1.0

    def test_disjoint_dice(self):
        assert score(MeasureId.DICE_CP, cp({"x": 1.0}), cp({"y": 1.0})) == 0.0

    def test_hand_value(self):
        assert score(MeasureId.DICE_CP, cp({"x": 0.5, "y": 0.5}), cp({"x": 1.0})) == (
            pytest.approx(0.5, abs=1e-12)
        )

    def test_identical_jaccard(self):
        d = cp({"x": 0.4, "y": 0.6})
        assert score(MeasureId.JACCARD_CP, d, d) == pytest.approx(1.0, abs=1e-12)

    def test_jaccard_empty_intersection_undefined(self):
        with pytest.raises(UndefinedMeasureError):
            score(MeasureId.JACCARD_CP, cp({"x": 1.0}), cp({"y": 1.0}))

    def test_matches_oracles(self):
        rng = random.Random(10)
        pool = [f"f{i}" for i in range(10)]
        for _ in range(40):
            d1 = random_cp(rng, pool)
            d2 = random_cp(rng, pool)
            assert score(MeasureId.DICE_CP, d1, d2) == pytest.approx(
                oracles.o_dice_cp(d1.entries, d2.entries), rel=1e-12
            )
            if set(d1.entries) & set(d2.entries):
                assert score(MeasureId.JACCARD_CP, d1, d2) == pytest.approx(
                    oracles.o_jaccard_cp(d1.entries, d2.entries), rel=1e-12
                )


class TestPcm:
    def test_dif_equals_l1(self):
        rng = random.Random(12)
        pool = [f"f{i}" for i in range(8)]
        for _ in range(30):
            d1 = random_cp(rng, pool)
            d2 = random_cp(rng, pool)
            assert score(MeasureId.DIF, d1, d2) == score(MeasureId.L1, d1, d2)

    def test_pdt_avg_identity(self):
        rng = random.Random(14)
        pool = [f"f{i}" for i in range(8)]
        for _ in range(20):
            d = random_cp(rng, pool)
            assert score(MeasureId.PDT_AVG, d, d) == pytest.approx(1.0, abs=1e-12)

    def test_worked_single_feature_pairs(self):
        # single shared context word with the four stated probabilities
        pair_close = (cp({"w": 0.91}), cp({"w": 0.80}))
        pair_far = (cp({"w": 0.60}), cp({"w": 0.50}))
        dif_close = score(MeasureId.DIF, *pair_close)
        dif_far = score(MeasureId.DIF, *pair_far)
        assert dif_close == pytest.approx(0.11, abs=1e-12)
        assert dif_far == pytest.approx(0.10, abs=1e-12)
        div_close = score(MeasureId.DIV, *pair_close)
        div_far = score(MeasureId.DIV, *pair_far)
        # the two manipulations rank the pairs in opposite order
        assert dif_close > dif_far
        assert div_close < div_far

    def test_weighted_product_reduces_to_closed_form(self):
        rng = random.Random(16)
        pool = [f"f{i}" for i in range(9)]
        for _ in range(30):
            d1 = random_cp(rng, pool)
            d2 = random_cp(rng, pool)
            got = score(MeasureId.PDT_AVG_WT, d1, d2)
            want = oracles.o_pdt_avg_wt_closed(d1.entries, d2.entries)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_max_weighting_matches_oracle(self):
        rng = random.Random(18)
        pool = [f"f{i}" for i in range(9)]
        for _ in range(30):
            d1 = random_cp(rng, pool)
            d2 = random_cp(rng, pool)
            for measure, oracle in [
                (MeasureId.DIF, oracles.o_dif),
                (MeasureId.PDT_AVG, oracles.o_pdt_avg),
            ]:
                got = score(measure, d1, d2, MeasureConfig(weight_scheme=WeightScheme.MAX))
                want = oracle(d1.entries, d2.entries, "max")
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_div_matches_oracle(self):
        rng = random.Random(20)
        pool = [f"f{i}" for i in range(9)]
        for _ in range(30):
            d1 = random_cp(rng, pool)
            d2 = random_cp(rng, pool)
            for scheme in WeightScheme:
                got = score(MeasureId.DIV, d1, d2, MeasureConfig(weight_scheme=scheme))
                want = oracles.o_div(d1.entries, d2.entries, scheme.value)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestCrm:
    def test_subset_support_token_add_precision_one(self):
        d1 = cp({"x": 0.4, "y": 0.6})
        d2 = cp({"x": 0.2, "y": 0.3, "z": 0.5})
        p, r = crm_precision_recall(d1, d2, CrmKind.TOKEN, CrmPenalty.ADD)
        assert p == pytest.approx(1.0, abs=1e-12)
        assert r == pytest.approx(0.5, abs=1e-12)

    def test_token_dw_precision_equals_recall(self):
        rng = random.Random(22)
        pool = [f"f{i}" for i in range(10)]
        for _ in range(50):
            d1 = random_cp(rng, pool)
            d2 = random_cp(rng, pool)
            p, r = crm_precision_recall(d1, d2, CrmKind.TOKEN, CrmPenalty.DW)
            assert p == r

    def test_mi_dw_hand_value(self):
        d1 = pmi({"a": 2.0, "b": 1.0, "c": 3.0, "d": -1.0})
        d2 = pmi({"a": 1.0, "b": 4.0, "e": 2.0})
        # positive supports: {a,b,c} and {a,b,e}; matched min mass = 1 + 1
        p, r = crm_precision_recall(d1, d2, CrmKind.MI, CrmPenalty.DW)
        assert p == pytest.approx(2.0 / 6.0, rel=1e-12)
        assert r == pytest.approx(2.0 / 7.0, rel=1e-12)
        want = oracles.o_crm_pr(d1.entries, d2.entries, "mi", "dw")
        assert (p, r) == (pytest.approx(want[0]), pytest.approx(want[1]))

    def test_all_kinds_match_oracle(self):
        rng = random.Random(24)
        pool = [f"f{i}" for i in range(10)]
        for _ in range(25):
            c1 = random_cp(rng, pool)
            c2 = random_cp(rng, pool)
            m1 = pmi({f: rng.uniform(-2, 4) for f in rng.sample(pool, 6)})
            m2 = pmi({f: rng.uniform(-2, 4) for f in rng.sample(pool, 6)})
            for kind in CrmKind:
                for penalty in CrmPenalty:
                    d1, d2 = (m1, m2) if kind is CrmKind.MI else (c1, c2)
                    if kind is CrmKind.MI and (
                        not any(v > 0 for v in d1.entries.values())
                        or not any(v > 0 for v in d2.entries.values())
                    ):
                        continue
                    got = crm_precision_recall(d1, d2, kind, penalty)
                    want = oracles.o_crm_pr(d1.entries, d2.entries, kind.value, penalty.value)
                    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-12)
                    assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-12)

    def test_empty_side_undefined(self):
        with pytest.raises(UndefinedMeasureError):
            crm_precision_recall(cp({}), cp({"x": 1.0}))

    def test_combine_gamma_one_is_harmonic(self):
        assert crm_combine(0.5, 0.25, gamma=1.0, beta=0.7) == pytest.approx(
            2 * 0.5 * 0.25 / 0.75, rel=1e-12
        )

    def test_combine_gamma_zero_beta_one_is_precision(self):
        assert crm_combine(0.5, 0.25, gamma=0.0, beta=1.0) == 0.5

    def test_combine_hand_value(self):
        got = crm_combine(0.5, 0.25, gamma=0.5, beta=0.5)
        assert got == pytest.approx(0.5 * (1.0 / 3.0) + 0.5 * 0.375, abs=1e-12)

    def test_combine_zero_sum(self):
        assert crm_combine(0.0, 0.0, gamma=1.0, beta=0.5) == 0.0


class TestSymmetrize:
    def test_averaged_divergence_closed_form(self):
        rng = random.Random(26)
        pool = [f"f{i}" for i in range(10)]
        for _ in range(40):
            d1 = random_cp(rng, pool)
            d2 = random_cp(rng, pool)
            got = score(MeasureId.KLD_AVG, d1, d2)
            want = oracles.o_kld_avg_closed(d1.entries, d2.entries)
            assert got == pytest.approx(want, abs=1e-9)
            assert got == pytest.approx(
                oracles.o_kld_avg(d1.entries, d2.entries), abs=1e-12
            )

    def test_max_divergence_dominates_both_directions(self):
        rng = random.Random(28)
        pool = [f"f{i}" for i in range(10)]
        for _ in range(40):
            d1 = random_cp(rng, pool)
            d2 = random_cp(rng, pool)
            both = score(MeasureId.KLD_MAX, d1, d2)
            assert both >= score(MeasureId.KLD, d1, d2) - 1e-15
            assert both >= score(MeasureId.KLD, d2, d1) - 1e-15


class TestDispatchAndTraits:
    def test_every_measure_dispatches(self):
        rng = random.Random(30)
        pool = [f"f{i}" for i in range(8)]
        rel_pool = [("obj^-1", f"v{i}") for i in range(8)]
        d_cp1, d_cp2 = random_cp(rng, pool), random_cp(rng, pool)
        d_pmi1 = pmi({f: rng.uniform(-2, 4) for f in rng.sample(rel_pool, 5)})
        d_pmi2 = pmi({f: rng.uniform(-2, 4) for f in rng.sample(rel_pool, 5)})
        for measure in MeasureId:
            cfg = MeasureConfig(
                crm_kind=CrmKind.MI if measure is MeasureId.CRM else CrmKind.TOKEN
            )
            if measure in (MeasureId.HINDLE, MeasureId.HINDLE_REL, MeasureId.LIN) or (
                measure is MeasureId.CRM and cfg.crm_kind is CrmKind.MI
            ):
                value = score(measure, d_pmi1, d_pmi2, cfg)
            else:
                value = score(measure, d_cp1, d_cp2)
            assert isinstance(value, float)

    def test_orientation_tags(self):
        assert orientation(MeasureId.COS) is Orientation.CLOSENESS
        assert orientation(MeasureId.KLD) is Orientation.DISTANCE
        assert orientation(MeasureId.PDT_AVG) is Orientation.CLOSENESS
        assert orientation(MeasureId.DIV) is Orientation.DISTANCE

    def test_count_scaling_leaves_cp_measures_unchanged(self, toy_counts):
        from distsem import CooccurrenceCounts, SoAKind, build_profile

        scaled = CooccurrenceCounts.from_pairs(
            {(t, f): 3 * n for t, f, n in toy_counts.items()}
        )
        for w1, w2 in [("guitar", "piano"), ("cat", "bread")]:
            base1 = build_profile(toy_counts, w1, SoAKind.CP)
            base2 = build_profile(toy_counts, w2, SoAKind.CP)
            big1 = build_profile(scaled, w1, SoAKind.CP)
            big2 = build_profile(scaled, w2, SoAKind.CP)
            for measure in (MeasureId.COS, MeasureId.L1, MeasureId.L2, MeasureId.JSD):
                assert score(measure, base1, base2) == pytest.approx(
                    score(measure, big1, big2), abs=1e-12
                )

import random

import numpy as np
import pytest

from distsem import (
    ContingencyTable,
    SoAKind,
    contingency,
    count_cooccurrences,
    CorpusConfig,
    strength,
)
from distsem.errors import MissingWordError, UndefinedAssociationError

from oracles import contingency_from_pairs, soa_value

ALL_KINDS = [k.value for k in SoAKind]


def table(*cells):
    return ContingencyTable(*map(float, cells))


class TestContingency:
    def test_two_token_corpus(self):
        counts = count_cooccurrences(["a", "b"], CorpusConfig(window_radius=1))
        t = contingency(counts, "a", "b")
        assert (t.n_wc, t.n_w_nc, t.n_nw_c, t.n_nw_nc) == (1, 0, 0, 1)
        assert t.total == counts.total_pairs

    def test_matches_oracle_on_two_tokens(self):
        counts = count_cooccurrences(["a", "b"], CorpusConfig(window_radius=1))
        pairs = {(t, f): n for t, f, n in counts.items()}
        want = contingency_from_pairs(pairs, "a", "b")
        got = contingency(counts, "a", "b")
        assert (got.n_wc, got.n_w_nc, got.n_nw_c, got.n_nw_nc) == want

    def test_never_cooccurring_feature(self, toy_counts):
        t = contingency(toy_counts, "guitar", "horse")
        assert t.n_wc == 0

    def test_cells_sum_to_total_pairs(self, toy_counts):
        for target, feature in [("band", "song"), ("cat", "dog"), ("jam", "bread")]:
            t = contingency(toy_counts, target, feature)
            assert t.total == toy_counts.total_pairs

    def test_toy_tables_match_oracle(self, toy_counts, toy_pairs):
        pairs = dict(toy_pairs)
        for target, feature in [
            ("band", "song"),
            ("guitar", "piano"),
            ("jam", "bread"),
            ("cat", "horse"),
            ("the", "the"),
        ]:
            got = contingency(toy_counts, target, feature)
            want = contingency_from_pairs(pairs, target, feature)
            assert (got.n_wc, got.n_w_nc, got.n_nw_c, got.n_nw_nc) == want

    def test_missing_row(self, toy_counts):
        with pytest.raises(MissingWordError):
            contingency(toy_counts, "zebra", "cat")


class TestStrength:
    def test_independent_table_pmi_zero(self):
        assert strength(table(2, 2, 2, 2), SoAKind.PMI) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_association(self):
        for k, m in [(1, 1), (3, 5), (10, 2)]:
            t = table(k, 0, 0, m)
            assert strength(t, SoAKind.YULE) == 1.0
            assert strength(t, SoAKind.PHI) == 1.0

    def test_cp_is_a_proportion(self):
        rng = random.Random(3)
        for _ in range(200):
            t = table(*(rng.randint(0, 20) for _ in range(4)))
            if t.word_total == 0:
                continue
            assert 0.0 <= strength(t, SoAKind.CP) <= 1.0

    def test_bounds_random(self):
        rng = random.Random(5)
        for _ in range(300):
            t = table(*(rng.randint(0, 30) for _ in range(4)))
            for kind in (SoAKind.DICE,):
                try:
                    assert 0.0 <= strength(t, kind) <= 1.0
                except UndefinedAssociationError:
                    pass
            for kind in (SoAKind.PHI, SoAKind.YULE):
                try:
                    assert -1.0 <= strength(t, kind) <= 1.0 + 1e-12
                except UndefinedAssociationError:
                    pass

    def test_pmi_zero_iff_independent(self):
        rng = random.Random(9)
        for _ in range(300):
            t = table(*(rng.randint(1, 15) for _ in range(4)))
            pmi = strength(t, SoAKind.PMI)
            independent = t.n_wc * t.total == t.word_total * t.feature_total
            if independent:
                assert pmi == pytest.approx(0.0, abs=1e-12)
            else:
                assert abs(pmi) > 1e-12

    def test_scale_invariance(self):
        rng = random.Random(13)
        for _ in range(100):
            cells = [rng.randint(1, 12) for _ in range(4)]
            factor = rng.choice([2, 3, 7, 10])
            before = table(*cells)
            after = table(*(factor * c for c in cells))
            for kind in SoAKind:
                assert strength(before, kind) == pytest.approx(
                    strength(after, kind), rel=1e-12, abs=1e-12
                )

    def test_matches_oracle_on_toy_cells(self, toy_counts, toy_pairs):
        pairs = dict(toy_pairs)
        checked = 0
        for target, feature in list(pairs)[:200]:
            t_pkg = contingency(toy_counts, target, feature)
            t_orc = contingency_from_pairs(pairs, target, feature)
            for kind in ALL_KINDS:
                want = soa_value(t_orc, kind)
                if want is None:
                    with pytest.raises(UndefinedAssociationError):
                        strength(t_pkg, SoAKind(kind))
                else:
                    got = strength(t_pkg, SoAKind(kind))
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
                    checked += 1
        assert checked > 100

    def test_undefined_errors_name_statistic(self):
        with pytest.raises(UndefinedAssociationError) as err:
            strength(table(0, 0, 3, 4), SoAKind.CP)
        assert "cp" in str(err.value)
        with pytest.raises(UndefinedAssociationError):
            strength(table(0, 2, 3, 4), SoAKind.PMI)
        with pytest.raises(UndefinedAssociationError):
            strength(table(1, 0, 0, 4), SoAKind.ODDS)

    def test_arrays_of_cells(self):
        columns = ([1, 0], [2, 2], [3, 3], [4, 4])
        cells = ContingencyTable(*(np.array(c, dtype=float) for c in columns))
        with pytest.raises(UndefinedAssociationError) as err:
            strength(cells, SoAKind.PMI)
        assert "pmi" in str(err.value)
        got = strength(cells, SoAKind.PMI, undefined_value=-7.0)
        assert got.tolist() == [strength(table(1, 2, 3, 4), SoAKind.PMI), -7.0]

    def test_log_base_rescales_pmi(self):
        t = table(4, 2, 2, 4)
        base2 = strength(t, SoAKind.PMI, log_base=2.0)
        base10 = strength(t, SoAKind.PMI, log_base=10.0)
        assert base2 / base10 == pytest.approx(3.321928094887362, rel=1e-12)

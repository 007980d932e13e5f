"""The word-by-category matrix kept as transposed co-occurrence counts."""

import numpy as np
import pytest

from distsem import (
    CooccurrenceCounts,
    CorpusConfig,
    MeasureId,
    SoAKind,
    bootstrap_wccm,
    build_base_wccm,
    concept_distance,
    concept_profile,
    load_wccm,
    save_wccm,
)
from distsem.concept import WCCM
from distsem.errors import DistSemError, EmptyProfileError, ValidationError

from oracles import contingency_from_pairs, matrix_cells, soa_value
from test_cli import run_cli


def write_wccm(path, *cells):
    lines = ["#wccm\tkind=base\tlanguage_mode=monolingual"]
    lines += [f"{w}\t{c}\t{v}" for w, c, v in cells]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestMatrixLayout:
    def test_categories_are_rows_and_words_are_features(self):
        wccm = WCCM({"a": {"c1": 2.0, "c2": 1.0}, "b": {"c1": 3.0}})
        assert wccm.matrix.targets == ["c1", "c2"]
        assert sorted(wccm.matrix.features) == ["a", "b"]
        matrix = wccm.matrix
        assert {w: matrix.feature_total(w) for w in matrix.features} == {"a": 3, "b": 3}
        assert {c: matrix.target_total(c) for c in matrix.targets} == {"c1": 5, "c2": 1}
        assert matrix.total_pairs == 6
        assert dict(matrix.row_items("c1")) == {"a": 2, "b": 3}
        assert not matrix.has_target("c3")

    def test_zero_cells_are_not_stored(self):
        wccm = WCCM({"a": {"c1": 0.0}, "b": {"c2": 4.0}})
        assert matrix_cells(wccm.matrix) == {"b": {"c2": 4}}
        assert wccm.matrix.feature_total("a") == 0
        assert wccm.categories() == ["c2"]

    @pytest.mark.parametrize("value", [-1.0, 0.5, float("nan"), float("inf")])
    def test_constructor_rejects_non_counts(self, value):
        with pytest.raises(ValidationError):
            WCCM({"a": {"c1": value}})

    def test_base_matrix_is_counts_times_incidence(self, toy_counts, toy_thesaurus):
        wccm = build_base_wccm(toy_counts, toy_thesaurus)
        want = {}
        for target, feature, n in toy_counts.items():
            for cat in toy_thesaurus.senses(feature):
                want.setdefault(target, {}).setdefault(cat, 0.0)
                want[target][cat] += n
        assert matrix_cells(wccm.matrix) == want
        assert wccm.matrix.total_pairs == sum(
            n * len(toy_thesaurus.senses(f)) for _, f, n in toy_counts.items()
        )


class TestConceptProfiles:
    def test_pmi_profile_matches_oracle(self, toy_counts, toy_thesaurus):
        wccm = build_base_wccm(toy_counts, toy_thesaurus)
        pairs = {(w, c): n for c, w, n in wccm.matrix.items()}
        for cat in wccm.categories():
            profile = concept_profile(wccm, cat, SoAKind.PMI)
            want = {
                w: soa_value(contingency_from_pairs(pairs, w, cat), "pmi")
                for w, _ in wccm.matrix.row_items(cat)
            }
            want = {w: v for w, v in want.items() if v != 0.0}
            assert profile.entries.keys() == want.keys()
            for word, value in want.items():
                assert profile.entries[word] == pytest.approx(value, rel=1e-12, abs=1e-12)

    def test_category_without_row_is_empty(self):
        wccm = WCCM({"a": {"c1": 2.0}})
        with pytest.raises(EmptyProfileError):
            concept_profile(wccm, "c2", SoAKind.PMI)

    def test_zero_only_category_is_empty(self):
        wccm = WCCM({"a": {"c1": 0.0, "c2": 1.0}})
        with pytest.raises(EmptyProfileError):
            concept_distance(wccm, "c1", "c2", MeasureId.COS)


class TestBootstrapReference:
    def test_category_without_reference_row_scores_zero(self):
        # "y" is listed under A and B, but B has no row in the reference:
        # its association is 0, so the tie goes to the smaller id, A
        base = WCCM({"ctx": {"A": 3.0}})
        senses = {"y": frozenset({"A", "B"})}
        boot = bootstrap_wccm(["ctx", "y"], base, senses, CorpusConfig(window_radius=1))
        assert matrix_cells(boot.matrix) == {"ctx": {"A": 1}}

    def test_iterated_reference_may_lose_a_category(self):
        base = WCCM({"ctx": {"A": 3.0, "B": 1.0}, "z": {"B": 2.0}})
        senses = {"y": frozenset({"A", "B"})}
        tokens = ["ctx", "y", None, "ctx", "y"]
        boot = bootstrap_wccm(tokens, base, senses, CorpusConfig(window_radius=1), iterations=2)
        assert boot.categories() == ["A"]


class TestWccmFiles:
    @pytest.mark.parametrize("value", ["-1.0", "2.5", "nan", "inf", "1e300"])
    def test_load_rejects_non_counts(self, tmp_path, value):
        path = write_wccm(tmp_path / "m.tsv", ("w", "c1", "1.0"), ("w", "c2", value))
        with pytest.raises(ValidationError):
            load_wccm(path)
        code, _, err = run_cli(["concept-distance", "--wccm", path, "--c1", "c1", "--c2", "c2"])
        assert code == 2
        assert err.startswith("distsem: ")

    def test_load_drops_zero_cells(self, tmp_path):
        path = write_wccm(tmp_path / "m.tsv", ("w", "c1", "0.0"), ("v", "c2", "2.0"))
        wccm = load_wccm(path)
        assert matrix_cells(wccm.matrix) == {"v": {"c2": 2}}
        save_wccm(wccm, tmp_path / "again.tsv")
        assert "c1" not in (tmp_path / "again.tsv").read_text()

    def test_zero_only_category_ends_in_typed_error(self, tmp_path):
        path = write_wccm(tmp_path / "m.tsv", ("w", "c1", "0.0"), ("w", "c2", "2.0"))
        with pytest.raises(DistSemError):
            concept_distance(load_wccm(path), "c1", "c2", MeasureId.COS)
        code, out, err = run_cli(["concept-distance", "--wccm", path, "--c1", "c1", "--c2", "c2"])
        assert code == 1
        assert err.startswith("distsem: ") and "c1" in err
        assert "Traceback" not in err

    def test_missing_header(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("w\tc1\t1.0\n")
        with pytest.raises(ValidationError):
            load_wccm(path)

    def test_header_must_precede_cells(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("w\tc1\t1.0\n#wccm\tkind=base\n")
        with pytest.raises(ValidationError):
            load_wccm(path)

    @pytest.mark.parametrize(
        "matrix",
        [
            # names held out of order, as no loader leaves them, and a row's cells out of order
            CooccurrenceCounts(["k", "b", "é"], ["z", "日本", "a", "ä"], np.array([0, 3, 4, 6]),
                               np.array([2, 0, 3, 1, 1, 0]), np.array([3, 1, 4, 2, 7, 5])),
            CooccurrenceCounts.from_pairs({("ß", "é"): 2**53}),
            CooccurrenceCounts.from_pairs({("c", "w"): 1}),
            CooccurrenceCounts.from_pairs({(c, w): i + 1 for i, (c, w) in enumerate(
                [("Ω", "a"), ("a", "日本"), ("Z", "a"), ("a", "Z"), ("Ω", "ä"), ("b", "a b")])}),
        ],
        ids=["unsorted-names", "2**53", "one-cell", "non-ascii"],
    )
    def test_cells_are_sorted_float_lines(self, tmp_path, matrix):
        path = tmp_path / "m.tsv"
        save_wccm(WCCM(matrix), path)
        cells = sorted((word, cat, n) for cat, word, n in matrix.items())
        want = "".join(f"{word}\t{cat}\t{float(n)!r}\n" for word, cat, n in cells)
        header = "#wccm\tkind=base\tlanguage_mode=monolingual\n"
        assert path.read_bytes() == (header + want).encode("utf-8")

    def test_manifest_lines_are_skipped(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(
            "#manifest\ttool=x\n#wccm\tkind=bootstrapped\twindow=4\n"
            "#manifest\tlate=1\nw\tc1\t3.0\n"
        )
        wccm = load_wccm(path)
        assert wccm.kind == "bootstrapped"
        assert wccm.config == CorpusConfig(window_radius=4)
        assert matrix_cells(wccm.matrix) == {"w": {"c1": 3}}

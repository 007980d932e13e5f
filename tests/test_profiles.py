import pytest

from distsem import (
    CooccurrenceCounts,
    CorpusConfig,
    DistributionalProfile,
    SoAKind,
    build_profile,
    contingency,
    count_cooccurrences,
    ingest_triples,
    load_profile,
    save_profile,
    strength,
)
from distsem.errors import (
    EmptyProfileError,
    IncompatibleProfilesError,
    MissingWordError,
    ParseError,
    UndefinedAssociationError,
)

from oracles import cp_profile, pmi_profile


class TestBuildProfile:
    def test_two_token_cp(self):
        counts = count_cooccurrences(["a", "b"], CorpusConfig(window_radius=1))
        profile = build_profile(counts, "a", SoAKind.CP)
        assert profile.entries == {"b": 1.0}

    def test_cp_sums_to_one(self, toy_counts):
        for target in toy_counts.targets:
            profile = build_profile(counts=toy_counts, target=target, kind=SoAKind.CP)
            assert sum(profile.entries.values()) == pytest.approx(1.0, abs=1e-9)
            profile.validate()

    def test_cp_matches_oracle(self, toy_counts, toy_pairs):
        for target in ["band", "jam", "cat"]:
            got = build_profile(toy_counts, target, SoAKind.CP).entries
            want = cp_profile(dict(toy_pairs), target)
            assert set(got) == set(want)
            for feature in want:
                assert got[feature] == pytest.approx(want[feature], rel=1e-12)

    def test_pmi_matches_oracle(self, toy_counts, toy_pairs):
        for target in ["band", "bread", "horse"]:
            got = build_profile(toy_counts, target, SoAKind.PMI).entries
            want = pmi_profile(dict(toy_pairs), target)
            assert set(got) == set(want)
            for feature in want:
                assert got[feature] == pytest.approx(want[feature], rel=1e-12)

    def test_pmi_keeps_negative_values(self, toy_counts):
        profile = build_profile(toy_counts, "the", SoAKind.PMI)
        assert any(v < 0 for v in profile.entries.values())

    def test_unknown_target(self, toy_counts):
        with pytest.raises(MissingWordError):
            build_profile(toy_counts, "zebra", SoAKind.CP)

    def test_min_feature_count_drops_rare_features(self, toy_counts):
        full = build_profile(toy_counts, "band", SoAKind.CP)
        filtered = build_profile(toy_counts, "band", SoAKind.CP, min_feature_count=3)
        assert set(filtered.entries) < set(full.entries)
        assert sum(filtered.entries.values()) == pytest.approx(1.0, abs=1e-9)
        for feature in filtered.entries:
            assert toy_counts.unigram_count(feature) >= 3

    @pytest.mark.parametrize("relation", [False, True])
    @pytest.mark.parametrize("min_count", [2, 3, 4, 10**20, 10**20 + 1])
    def test_min_feature_count_keeps_features_by_their_frequency(self, relation, min_count):
        """A feature is kept where the unigram count of its word, or its own total where
        that count is 0 or absent, reaches the minimum; counts past int64 compare exactly."""
        def feature(word):
            return ("obj", word) if relation else word

        cells = {("t", "a"): 1, ("t", "b"): 2, ("t", "c"): 5, ("t", "d"): 2, ("u", "a"): 3, ("u", "b"): 1}
        counts = CooccurrenceCounts.from_pairs(
            {(t, feature(w)): n for (t, w), n in cells.items()},
            unigram_counts={"a": 10**20, "b": 0, "c": 1},  # "d" has none
            feature_kind="relation" if relation else "word",
        )

        def frequency(f):
            return counts.unigram_counts.get(f[1] if relation else f, 0) or counts.feature_total(f)

        kept = {f for f, _ in counts.row_items("t") if frequency(f) >= min_count}
        assert kept == {feature(w) for w in {2: "abd", 3: "ab", 4: "a", 10**20: "a"}.get(min_count, "")}
        if not kept:
            with pytest.raises(EmptyProfileError):
                build_profile(counts, "t", SoAKind.CP, min_feature_count=min_count)
            return
        assert set(build_profile(counts, "t", SoAKind.CP, min_feature_count=min_count).entries) == kept

    def test_filtering_everything_is_an_error(self, toy_counts):
        with pytest.raises(EmptyProfileError):
            build_profile(toy_counts, "band", SoAKind.CP, min_feature_count=10**6)

    def test_relation_constrained_object_features(self, fixtures_dir):
        lines = (fixtures_dir / "toy.triples").read_text().splitlines()
        counts = ingest_triples(lines)
        profile = build_profile(counts, "apple", SoAKind.CP)
        assert set(profile.entries) == {("obj^-1", "eat")}
        pmi = build_profile(counts, "guitar", SoAKind.PMI)
        assert all(isinstance(f, tuple) and f[0] == "obj^-1" for f in pmi.entries)


class TestWholeRow:
    @pytest.mark.parametrize("kind", list(SoAKind))
    def test_row_equals_cell_by_cell(self, toy_counts, kind):
        """One strength call on the row gives each cell's own value, undefined ones as 0."""
        for target in toy_counts.targets:
            want = {}
            for feature, _ in toy_counts.row_items(target):
                try:
                    value = strength(contingency(toy_counts, target, feature), kind)
                except UndefinedAssociationError:
                    value = 0.0
                if value != 0.0:
                    want[feature] = value
            if not want:
                with pytest.raises(EmptyProfileError):
                    build_profile(toy_counts, target, kind, undefined_value=0.0)
                continue
            assert build_profile(toy_counts, target, kind, undefined_value=0.0).entries == want


class TestValidation:
    def test_mixed_variants_rejected(self):
        profile = DistributionalProfile(
            target="x", soa=SoAKind.CP, entries={"a": 0.5, ("obj", "b"): 0.5}
        )
        with pytest.raises(IncompatibleProfilesError):
            profile.validate()

    def test_unnormalized_cp_rejected(self):
        profile = DistributionalProfile(target="x", soa=SoAKind.CP, entries={"a": 0.4})
        with pytest.raises(Exception):
            profile.validate()


class TestSerialization:
    def test_round_trip(self, toy_counts, tmp_path):
        for kind in (SoAKind.CP, SoAKind.PMI):
            profile = build_profile(toy_counts, "band", kind)
            path = tmp_path / f"band.{kind.value}.dp"
            save_profile(profile, path)
            loaded = load_profile(path)
            assert loaded.target == profile.target
            assert loaded.soa == profile.soa
            assert loaded.entries == profile.entries

    def test_relation_feature_round_trip(self, fixtures_dir, tmp_path):
        lines = (fixtures_dir / "toy.triples").read_text().splitlines()
        counts = ingest_triples(lines)
        profile = build_profile(counts, "guitar", SoAKind.CP)
        path = tmp_path / "guitar.dp"
        save_profile(profile, path)
        assert load_profile(path).entries == profile.entries

    def test_entry_count_matches_line_count(self, toy_counts, tmp_path):
        profile = build_profile(toy_counts, "cheese", SoAKind.CP)
        path = tmp_path / "cheese.dp"
        save_profile(profile, path)
        lines = path.read_text().splitlines()
        assert len(load_profile(path).entries) == len(lines) - 1

    def test_empty_entry_file(self, tmp_path):
        path = tmp_path / "empty.dp"
        path.write_text("#x\tcp\n")
        with pytest.raises(EmptyProfileError):
            load_profile(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.dp"
        path.write_text("#x\tcp\na\tnot-a-number\n")
        with pytest.raises(ParseError) as err:
            load_profile(path)
        assert err.value.line_number == 2

    def test_sorted_output_is_deterministic(self, toy_counts, tmp_path):
        profile = build_profile(toy_counts, "band", SoAKind.PMI)
        a, b = tmp_path / "a.dp", tmp_path / "b.dp"
        save_profile(profile, a)
        save_profile(profile, b)
        assert a.read_bytes() == b.read_bytes()

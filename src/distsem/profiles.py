"""Distributional profiles: sparse feature-to-strength maps for one target.

A profile is relation-free (word features) or relation-constrained
((relation, word) features); the two never mix.  Conditional-probability
profiles are proper distributions over the target's observed features.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .assoc import ContingencyTable, SoAKind, strength
from .corpus import CooccurrenceCounts, parse_feature, read_records, render_feature
from .errors import (
    ConfigurationError,
    EmptyProfileError,
    IncompatibleProfilesError,
    MissingWordError,
    ParseError,
    ValidationError,
)


class DistributionalProfile:
    """One target's strength of association with each of its features.

    Features are held once, in ascending order of their rendered form (the
    order of profile files): ``features`` lists them, ``keys`` holds their
    rendered forms as a numpy string array, and ``values`` their strengths as
    float64.  ``entries`` is a read-only feature-to-value mapping.  A profile
    built from counts holds ``counts`` and its features' column ids there
    (``columns``, ascending); its ``features``, ``keys`` and ``entries`` are
    built on first use, and two profiles of one counts object are aligned on
    their column ids.
    """

    counts: CooccurrenceCounts | None = None
    columns: np.ndarray | None = None

    def __init__(self, target: str, soa: SoAKind, entries: Mapping = MappingProxyType({})):
        features = list(entries)
        keys = np.array([render_feature(f) for f in features], dtype=str)
        order = np.argsort(keys, kind="stable")
        self.target = target
        self.soa = SoAKind(soa)
        self.keys = keys[order]
        self.features = [features[i] for i in order.tolist()]
        self.values = np.asarray(list(entries.values()), dtype=np.float64)[order]

    @cached_property
    def features(self) -> list:
        return [self.counts.features[c] for c in self.columns.tolist()]

    @cached_property
    def keys(self) -> np.ndarray:
        return np.array([render_feature(f) for f in self.features], dtype=str)

    @cached_property
    def relation_constrained(self) -> bool:
        if self.counts is not None:
            return self.counts.feature_kind == "relation"
        return any(isinstance(f, tuple) for f in self.features)

    @cached_property
    def entries(self) -> Mapping:
        return MappingProxyType(dict(zip(self.features, self.values.tolist())))

    def __repr__(self) -> str:
        return (
            f"DistributionalProfile(target={self.target!r}, soa={self.soa.value!r}, "
            f"features={self.values.size})"
        )

    def validate(self) -> None:
        kinds = {isinstance(k, tuple) for k in self.features}
        if len(kinds) > 1:
            raise IncompatibleProfilesError(
                f"profile {self.target!r} mixes word and relation features"
            )
        if not self.values.all():
            raise ValidationError(f"profile {self.target!r} stores explicit zeros")
        if self.soa is SoAKind.CP and self.features:
            total = sum(self.values.tolist())
            if abs(total - 1.0) > 1e-9:
                raise ValidationError(
                    f"cp profile {self.target!r} sums to {total!r}, expected 1"
                )
            if ((self.values < 0) | (self.values > 1)).any():
                raise ValidationError(f"cp profile {self.target!r} has values outside [0,1]")


def build_profile(
    counts: CooccurrenceCounts,
    target: str,
    kind: SoAKind,
    *,
    log_base: float = 2.0,
    min_feature_count: int = 1,
    undefined_value: float | None = None,
) -> DistributionalProfile:
    """Compute the strength of association of a target with each observed feature.

    Features whose word falls below ``min_feature_count`` occurrences are
    dropped before computing values, and CP values are renormalized over the
    kept features; ``min_feature_count`` below 1 ends in
    :class:`ConfigurationError`.  Statistics that are undefined for a cell
    propagate unless ``undefined_value`` supplies a substitute; zero-valued
    results are not stored.  The profile holds ``counts`` and the column ids
    of its features, and builds its feature list only on first use.
    """
    kind = SoAKind(kind)
    if min_feature_count < 1:
        raise ConfigurationError(f"min_feature_count must be >= 1, not {min_feature_count}")
    if not counts.has_target(target):
        raise MissingWordError(f"no counts row for {target!r}")
    cols, n, feature_totals = counts.row(target)
    if min_feature_count > 1:
        keep = np.array(
            [_frequency(counts, counts.features[c]) >= min_feature_count for c in cols.tolist()],
            dtype=bool,
        )
        cols, n, feature_totals = cols[keep], n[keep], feature_totals[keep]
    if not n.size:
        raise EmptyProfileError(f"no features left for {target!r}")

    # CP sees only the kept features; the other statistics see the whole matrix
    word_total = int(n.sum()) if kind is SoAKind.CP else counts.target_total(target)
    values = _strengths(counts, kind, n, word_total, feature_totals, log_base, undefined_value)
    stored = np.flatnonzero(values != 0.0)
    if not stored.size:
        raise EmptyProfileError(f"profile for {target!r} is empty")
    profile = DistributionalProfile.__new__(DistributionalProfile)
    profile.target, profile.soa, profile.values = target, kind, values[stored]
    profile.counts, profile.columns = counts, cols[stored]
    return profile


def cell_strengths(counts: CooccurrenceCounts, kind: SoAKind, log_base: float = 2.0) -> np.ndarray:
    """The strength of association of every stored cell, in row order (see ``coo``).

    A cell's value is the one :func:`build_profile` gives it with its other
    settings left at their defaults, bit for bit; undefined values raise.
    """
    _, _, n = counts.coo()
    target_totals, feature_totals = counts.cell_totals()
    return _strengths(counts, kind, n, target_totals, feature_totals, log_base)


def _strengths(counts, kind, n, word_total, feature_totals, log_base, undefined_value=None):
    """Association values of cells with counts ``n`` and the given marginals."""
    n_nw_c = feature_totals - n
    table = ContingencyTable(n, word_total - n, n_nw_c, counts.total_pairs - word_total - n_nw_c)
    return strength(table, kind, log_base, undefined_value)


def _frequency(counts: CooccurrenceCounts, feature) -> int:
    """Occurrences of a feature's word, or the feature's total if the word has no unigram count."""
    word = feature[1] if isinstance(feature, tuple) else feature
    return counts.unigram_count(word) or counts.feature_total(feature)


def profile_lines(profile: DistributionalProfile, extra_header: list[str] = ()) -> list[str]:
    """``extra_header``, ``#target<TAB>soa``, then one ``feature<TAB>value`` line per entry.

    Entries come in rendered-feature order and values use full round-trip
    precision, so rewriting a loaded profile is byte-stable.
    """
    lines = [*extra_header, f"#{profile.target}\t{profile.soa.value}"]
    values = profile.values.tolist()
    return lines + [f"{key}\t{value!r}" for key, value in zip(profile.keys.tolist(), values)]


def save_profile(profile: DistributionalProfile, path, extra_header: list[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(line + "\n" for line in profile_lines(profile, extra_header))


def load_profile(path) -> DistributionalProfile:
    """Read a file written by :func:`save_profile`.

    A second header, or a feature given twice, ends in :class:`ParseError`.
    """
    headers: list[tuple[int, str, SoAKind]] = []

    def header(line_number: int, parts: list[str]) -> None:
        if len(parts) != 2:
            raise ParseError(str(path), line_number, "malformed profile header")
        if headers:
            raise ParseError(
                str(path), line_number, f"repeats the profile header of line {headers[0][0]}"
            )
        try:
            headers.append((line_number, parts[0][1:], SoAKind(parts[1])))
        except ValueError:
            raise ParseError(str(path), line_number, f"unknown soa kind {parts[1]!r}") from None

    seen: dict[str, int] = {}
    entries: dict = {}
    for line_number, (feature, text) in read_records(path, "feature<TAB>value", on_note=header):
        if feature in seen:
            raise ParseError(
                str(path), line_number, f"repeats the feature of line {seen[feature]}"
            )
        seen[feature] = line_number
        try:
            value = float(text)
        except ValueError:
            raise ParseError(str(path), line_number, f"bad value {text!r}") from None
        if value != 0.0:
            entries[parse_feature(feature)] = value
    if not headers:
        raise ParseError(str(path), 0, "missing profile header")
    _, target, kind = headers[0]
    if not entries:
        raise EmptyProfileError(f"{path}: profile file has no entries")
    profile = DistributionalProfile(target=target, soa=kind, entries=entries)
    profile.validate()
    return profile

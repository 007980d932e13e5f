"""Strength-of-association statistics over 2x2 contingency tables.

A table for (word w, feature c) collapses all other words and features into
single cells.  All statistics are invariant under scaling the four cells by a
positive constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .corpus import CooccurrenceCounts, Feature
from .errors import ConfigurationError, MissingWordError, UndefinedAssociationError


class SoAKind(str, Enum):
    """The closed set of supported association statistics."""

    CP = "cp"
    PMI = "pmi"
    PHI = "phi"
    ODDS = "odds"
    DICE = "dice"
    YULE = "yule"
    COS = "cos"


@dataclass(frozen=True)
class ContingencyTable:
    """Cell counts: with/with, with/without, without/with, without/without."""

    n_wc: float
    n_w_nc: float
    n_nw_c: float
    n_nw_nc: float

    @property
    def word_total(self) -> float:
        return self.n_wc + self.n_w_nc

    @property
    def feature_total(self) -> float:
        return self.n_wc + self.n_nw_c

    @property
    def total(self) -> float:
        return self.n_wc + self.n_w_nc + self.n_nw_c + self.n_nw_nc


def check_log_base(log_base: float, name: str = "log base") -> float:
    """``log_base``, refused if it is not positive and finite, or is 1 (:class:`ConfigurationError`)."""
    if not (0.0 < log_base < math.inf and log_base != 1.0):
        raise ConfigurationError(f"{name} must be positive, finite and not 1, not {log_base}")
    return log_base


def contingency(
    counts: CooccurrenceCounts, target: str, feature: Feature
) -> ContingencyTable:
    """Collapse the counts matrix into a 2x2 table for one (target, feature) cell."""
    if not counts.has_target(target):
        raise MissingWordError(f"no counts row for {target!r}")
    n_wc = counts.pair_count(target, feature)
    n_w_nc = counts.target_total(target) - n_wc
    n_nw_c = counts.feature_total(feature) - n_wc
    n_nw_nc = counts.total_pairs - n_wc - n_w_nc - n_nw_c
    return ContingencyTable(float(n_wc), float(n_w_nc), float(n_nw_c), float(n_nw_nc))


def strength(
    table: ContingencyTable,
    kind: SoAKind,
    log_base: float = 2.0,
    undefined_value: Optional[float] = None,
):
    """Evaluate one association statistic on a table, cell by cell.

    The four cells may be numbers or equal-length arrays; a number table gives
    a Python ``float`` and an array table a float64 array.  Where a
    denominator vanishes the statistic is undefined: :class:`UndefinedAssociationError`
    naming the statistic is raised unless ``undefined_value`` stands in.
    """
    kind = SoAKind(kind)
    check_log_base(log_base)
    n_wc, n_w_nc, n_nw_c, n_nw_nc = (
        np.asarray(c, dtype=np.float64)
        for c in (table.n_wc, table.n_w_nc, table.n_nw_c, table.n_nw_nc)
    )
    row = n_wc + n_w_nc
    col = n_wc + n_nw_c
    total = row + n_nw_c + n_nw_nc

    with np.errstate(all="ignore"):
        if kind is SoAKind.CP:
            undefined, reason = row == 0, "zero word total"
            value = n_wc / row
        elif kind is SoAKind.PMI:
            undefined, reason = (n_wc == 0) | (row == 0) | (col == 0), "zero cell or marginal"
            value = np.log((n_wc * total) / (row * col)) / math.log(log_base)
        elif kind is SoAKind.PHI:
            denom = row * col * (n_nw_c + n_nw_nc) * (n_w_nc + n_nw_nc)
            undefined, reason = denom == 0, "zero marginal"
            value = (n_wc * n_nw_nc - n_w_nc * n_nw_c) / np.sqrt(denom)
        elif kind is SoAKind.ODDS:
            denom = n_w_nc * n_nw_c
            undefined, reason = denom == 0, "zero off-diagonal product"
            value = (n_wc * n_nw_nc) / denom
        elif kind is SoAKind.YULE:
            concordant = n_wc * n_nw_nc
            discordant = n_w_nc * n_nw_c
            undefined = concordant + discordant == 0
            reason = "both diagonal products zero"
            value = (concordant - discordant) / (concordant + discordant)
        elif kind is SoAKind.DICE:
            undefined, reason = row + col == 0, "zero marginals"
            value = 2.0 * n_wc / (row + col)
        else:  # SoAKind.COS
            undefined, reason = (row == 0) | (col == 0), "zero marginal"
            value = n_wc / np.sqrt(row * col)

    empty = total <= 0
    if empty.any():
        undefined, reason = undefined | empty, "empty table"
    if undefined.any():
        if undefined_value is None:
            raise UndefinedAssociationError(kind.value, reason)
        value = np.where(undefined, undefined_value, value)
    return float(value) if value.ndim == 0 else value

"""Small statistical helpers for Monte Carlo verification.

Chi-square goodness of fit against a fully specified law.  Cells with zero
expected probability are split off: any observed mass there fails the test
outright, otherwise they are dropped and the degrees of freedom come from the
support alone.  A single-cell support is a point mass and passes trivially.
"""

from __future__ import annotations

from dataclasses import dataclass

SIGNIFICANCE = 0.01     # a test passes when its p-value is above this

def _chi2_sf(dof: int, stat: float) -> float:
    """The chi-square survival function. scipy.special is imported here, not
    at module level: it is most of the package's import time, and only
    commands that compute a p-value need it."""
    from scipy.special import chdtrc

    return float(chdtrc(dof, stat))


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float

    def passes(self) -> bool:
        return self.p_value > SIGNIFICANCE


def chisquare_expected(counts, probs) -> ChiSquareResult:
    """Test observed counts against expected probabilities, index-aligned."""
    if len(counts) != len(probs):
        raise ValueError("counts and probs must have equal length")
    total = sum(counts)
    if total <= 0:
        raise ValueError("need at least one observation")
    support = [i for i, p in enumerate(probs) if p > 0]
    off_support = sum(c for c, p in zip(counts, probs) if not p > 0)
    if off_support > 0:
        return ChiSquareResult(statistic=float("inf"), dof=max(len(support) - 1, 0),
                               p_value=0.0)
    dof = len(support) - 1
    if dof == 0:
        return ChiSquareResult(statistic=0.0, dof=0, p_value=1.0)
    stat = 0.0
    for i in support:
        expected = float(probs[i]) * total
        stat += (counts[i] - expected) ** 2 / expected
    return ChiSquareResult(statistic=stat, dof=dof, p_value=_chi2_sf(dof, stat))


def chisquare_uniform(counts) -> ChiSquareResult:
    n = len(counts)
    return chisquare_expected(list(counts), [1.0 / n] * n)


def combine_chisquares(results) -> ChiSquareResult:
    """Sum independent chi-square statistics and their degrees of freedom."""
    results = list(results)
    if not results:
        return ChiSquareResult(0.0, 0, 1.0)
    stat = sum(r.statistic for r in results)
    dof = sum(r.dof for r in results)
    if dof == 0:
        p = 0.0 if stat == float("inf") else 1.0
        return ChiSquareResult(stat, 0, p)
    return ChiSquareResult(stat, dof, _chi2_sf(dof, stat))

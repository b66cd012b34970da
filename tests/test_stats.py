"""Chi-square helpers: the survival function behind every p-value."""

import math
import random

from scipy.special import chdtrc
from scipy.stats import chi2

from chamberwalk.stats import ChiSquareResult, chisquare_expected, chisquare_uniform, combine_chisquares


def test_chdtrc_equals_chi2_sf_bit_for_bit_on_a_grid():
    dofs = [1, 2, 3, 4, 5, 7, 10, 13, 20, 31, 50, 99, 100, 250, 1000, 4096]
    xs = [0.0, 5e-324, 1e-300, 1e-12, 1e-3, 0.5, 1.0, 2.5, 10.0, 37.7, 100.0, 999.9,
          1e4, 1e6, math.inf]
    xs += [d * f for d in dofs for f in (0.5, 0.97, 1.0, 1.03, 2.0)]
    for dof in dofs:
        for x in xs:
            assert float(chdtrc(dof, x)).hex() == float(chi2.sf(x, dof)).hex(), (dof, x)


def test_p_values_come_from_the_chi_square_survival_function():
    res = chisquare_expected([30, 50, 20], [0.25, 0.5, 0.25])
    assert res.dof == 2 and res.statistic == 2.0
    assert res.p_value == float(chi2.sf(2.0, 2))
    both = combine_chisquares([res, res])
    assert (both.statistic, both.dof) == (4.0, 4)
    assert both.p_value == float(chi2.sf(4.0, 4))


def test_combining_one_result_returns_it_unchanged():
    for counts in ([30, 50, 20], [5, 0, 0, 7], [0, 9, 1], [4]):
        r = chisquare_uniform(counts)
        assert combine_chisquares([r]) == r


def _chisquare_by_support_scan(counts, probs):
    """chisquare_expected as it was written first: the support rebuilt as a
    set for every cell it scans."""
    support = [i for i, p in enumerate(probs) if p > 0]
    off_support = sum(counts[i] for i in range(len(counts)) if i not in set(support))
    if off_support > 0:
        return ChiSquareResult(float("inf"), max(len(support) - 1, 0), 0.0)
    stat = 0.0
    for i in support:
        expected = float(probs[i]) * sum(counts)
        stat += (counts[i] - expected) ** 2 / expected
    dof = len(support) - 1
    return ChiSquareResult(stat, dof, float(chi2.sf(stat, dof)))


def test_chisquare_expected_equals_the_support_scan_on_672_cells():
    rand = random.Random(19)
    probs = [rand.randint(1, 9) for _ in range(672)]
    probs[300] = 0
    total = sum(probs)
    probs = [p / total for p in probs]
    counts = [rand.randint(0, 40) for _ in range(672)]
    for mass in (0, 3):
        counts[300] = mass
        res = chisquare_expected(counts, probs)
        assert res == _chisquare_by_support_scan(counts, probs)
        assert res.dof == 670 and (res.statistic == math.inf) == (mass > 0)

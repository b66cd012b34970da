"""Cylinder measures, isotropic kernels, exit statistics, colouring detector."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from chamberwalk.boundary import (
    CylinderMeasure,
    IsotropicKernel,
    boundary_hitting_mc,
    m_measure_checks,
    m_product_value,
    partition_defect,
    radon_nikodym_check,
    refinement_check,
    special_subgroup_detect,
)
from chamberwalk.buildings import A2Ball, SphericalA2, TreeBuilding
from chamberwalk.netwalk import _CHUNK, _TAIL, FIRST_BLOCK, MAX_BLOCK, RngStream, encode_node
from chamberwalk.stats import ChiSquareResult, chisquare_uniform, combine_chisquares


@pytest.fixture(scope="module")
def tree2():
    return TreeBuilding(2)


@pytest.fixture(scope="module")
def ball22():
    return A2Ball(2, 2)


@pytest.fixture(scope="module")
def ball23():
    return A2Ball(2, 3)


@pytest.fixture(scope="module")
def pg2():
    return SphericalA2(2)


# -- cylinder measure values -------------------------------------------------------


def test_nu_values_tree(tree2):
    m = CylinderMeasure(tree2)
    o = ()
    assert m.nu(o, o) == 1
    assert m.nu(o, (0,)) == Fraction(1, 3)
    assert m.nu(o, (0, 1)) == Fraction(1, 6)
    assert m.nu((2, 0), (2,)) == Fraction(1, 3)


def test_nu_values_ball(ball22):
    m = CylinderMeasure(ball22)
    o = ball22.origin
    part = ball22.sigma_partition(o)
    assert m.nu(o, o) == 1
    assert all(m.nu(o, y) == Fraction(1, 7) for y in part[(1, 0)])
    assert all(m.nu(o, y) == Fraction(1, 42) for y in part[(1, 1)])


def test_nu_matches_sphere_sizes(tree2):
    # the denominator N_lambda is exactly the sphere cardinality
    m = CylinderMeasure(tree2)
    for k in range(1, 5):
        assert m.n_lambda((k,)) == len(tree2.sphere((), k))


def test_partition_sums_tree(tree2):
    m = CylinderMeasure(tree2)
    for x in [(), (1, 0, 2)]:
        for k in range(5):
            assert partition_defect(m, x, (k,)) == 0


def test_partition_sums_ball(ball22):
    m = CylinderMeasure(ball22)
    o = ball22.origin
    for lam in ball22.sigma_partition(o):
        assert partition_defect(m, o, lam) == 0
    # off-centre base, level still provably complete in the ball
    o1 = ball22.sigma_partition(o)[(1, 0)][0]
    assert partition_defect(m, o1, (1, 0)) == 0


# -- refinement consistency ---------------------------------------------------------


def test_refinement_tree(tree2):
    m = CylinderMeasure(tree2)
    # each level-1 cylinder splits into 2 of the 6 level-2 cylinders
    assert refinement_check(m, (), [((1,), (2,)), ((2,), (3,))]) == 0
    assert refinement_check(m, (0, 1), [((1,), (3,))]) == 0


def test_refinement_ball(ball22):
    m = CylinderMeasure(ball22)
    o = ball22.origin
    levels = [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((1, 0), (1, 1)), ((0, 1), (1, 1))]
    assert refinement_check(m, o, levels) == 0


def test_refinement_rejects_non_deepening(tree2):
    m = CylinderMeasure(tree2)
    with pytest.raises(ValueError):
        refinement_check(m, (), [((2,), (1,))])
    with pytest.raises(ValueError):
        refinement_check(m, (), [((1,), (1,))])


def test_refinement_rejects_clipped_levels(ball22):
    m = CylinderMeasure(ball22)
    with pytest.raises(ValueError):
        refinement_check(m, ball22.origin, [((2, 0), (3, 0))])


# -- Radon-Nikodym ratios on trees ----------------------------------------------------


def test_radon_nikodym_one_step(tree2):
    m = CylinderMeasure(tree2)
    x, y, z = (), (0,), (0, 1)
    # y is one step toward the cylinder below z
    assert m.nu(y, z) / m.nu(x, z) == 2
    report = radon_nikodym_check(m, x, y, [z, (0, 1, 0), (0, 1, 0, 2)])
    assert report.checked == 3
    assert report.defect == 0
    assert report.verdict


def test_radon_nikodym_two_steps_q3():
    m = CylinderMeasure(TreeBuilding(3))
    x, y = (), (0, 1)
    z = (0, 1, 2, 0)
    assert m.nu(y, z) / m.nu(x, z) == 9
    assert radon_nikodym_check(m, x, y, [z]).verdict


def test_radon_nikodym_same_basepoint(tree2):
    m = CylinderMeasure(tree2)
    report = radon_nikodym_check(m, (1,), (1,), [(0, 1, 0)])
    assert report.defect == 0


def test_radon_nikodym_random_configurations(tree2):
    m = CylinderMeasure(tree2)
    rng = random.Random(20260825)
    for _ in range(25):
        # basepoints in the subtrees below 0 and 2, targets below 1
        x = _word(rng, first=0, depth=rng.randrange(0, 4))
        y = _word(rng, first=2, depth=rng.randrange(0, 4))
        zs = [_word(rng, first=1, depth=d) for d in (2, 4, 6)]
        report = radon_nikodym_check(m, x, y, zs)
        assert report.checked == 3
        assert report.defect == 0


def _word(rng, first, depth):
    w = [first]
    for _ in range(depth):
        w.append(rng.choice([a for a in range(3) if a != w[-1]]))
    return tuple(w)


def test_radon_nikodym_rejects_bad_targets(tree2):
    m = CylinderMeasure(tree2)
    with pytest.raises(ValueError):
        radon_nikodym_check(m, (1, 0), (2,), [(1,)])
    with pytest.raises(ValueError):
        radon_nikodym_check(m, (0,), (2,), [()])
    with pytest.raises(TypeError):
        radon_nikodym_check(CylinderMeasure(A2Ball(2, 1)), (), (), [()])


# -- the product measure on opposite directions --------------------------------------


def test_m_product_value_oracle(tree2):
    # x at the branch vertex: beta = 0, value = 1 * (1/3) * (1/3)
    m = CylinderMeasure(tree2)
    assert m_product_value(m, (), (1,), (2,)) == Fraction(1, 9)
    # one step into the 0-subtree: nu drops to 1/6 each, chi(beta) = 4
    assert m_product_value(m, (0,), (1,), (2,)) == Fraction(1, 9)
    # two steps off the line: chi(4) * (1/12)^2
    assert m_product_value(m, (0, 1), (1,), (2,)) == Fraction(1, 9)


def test_m_measure_basepoint_independence(tree2):
    pairs = [((1,), (2,)), ((1, 0), (2, 2)), ((1, 0, 1), (0, 1))]
    report = m_measure_checks(tree2, (), (0,), pairs)
    assert report.checked == 3
    assert report.defect == 0
    assert report.verdict
    # distant basepoints
    assert m_measure_checks(tree2, (0, 1, 0), (2, 0), [((1,), (0, 2))]).verdict


def test_m_measure_automorphism_invariance(tree2):
    m = CylinderMeasure(tree2)
    perm = {0: 1, 1: 2, 2: 0}
    for base, z1, z2 in [((), (1,), (2,)), ((0, 1), (1, 0), (2,))]:
        value = m_product_value(m, base, z1, z2)
        image = m_product_value(
            m,
            TreeBuilding.relabel(base, perm),
            TreeBuilding.relabel(z1, perm),
            TreeBuilding.relabel(z2, perm),
        )
        assert value == image


def test_m_measure_rejects_bad_configurations(tree2):
    m = CylinderMeasure(tree2)
    with pytest.raises(ValueError):
        m_product_value(m, (), (1,), (1, 0))
    with pytest.raises(ValueError):
        m_product_value(m, (1, 0), (1,), (2,))


# -- isotropic kernels ---------------------------------------------------------------


def test_isotropic_tree_rows(tree2):
    ik = IsotropicKernel(tree2)
    row = dict(ik.row(()))
    assert len(row) == 3
    assert all(p == Fraction(1, 3) for p in row.values())
    far = IsotropicKernel(tree2, {(2,): Fraction(1, 2), (1,): Fraction(1, 2)})
    row = dict(far.row((0, 1)))
    assert sum(row.values()) == 1
    assert len(row) == 9
    kern = far.kernel()
    assert sum(p for _, p in kern.row(())) == 1


def test_isotropic_ball_rows(ball22):
    ik = IsotropicKernel(ball22)
    row = ik.row(ball22.origin)
    assert len(row) == 14
    assert all(p == Fraction(1, 14) for _, p in row)
    IsotropicKernel(ball22, {(1, 0): 1})     # a one-sided law is accepted
    boundary_vertex = ball22.sigma_partition(ball22.origin)[(2, 0)][0]
    with pytest.raises(ValueError):
        ik.row(boundary_vertex)


def _sigma_grouped_row(ik, x):
    """A ball kernel row built the earlier way: the in-ball neighbours of x
    grouped by sigma(x, y), each class refused unless it is full."""
    model = ik.model
    full = model.p * model.p + model.p + 1
    by_class: dict = {}
    for y in model.neighbors(x):
        by_class.setdefault(model.sigma(x, y), []).append(y)
    out = []
    for lam, pr in sorted(ik.c.items()):
        ys = by_class.get(lam, [])
        if len(ys) != full:
            raise ValueError(f"lambda-sphere {lam} truncated at {x}")
        out.extend((y, pr / full) for y in ys)
    return out


def _row_or_refusal(row, *args):
    try:
        return row(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("p,radius", [(2, 2), (3, 1)])
def test_ball_rows_match_the_sigma_grouped_rows(p, radius, monkeypatch):
    ball = A2Ball(p, radius)
    laws = [{(1, 0): 1}, {(0, 1): 1}, None]
    expected = {}
    for j, law in enumerate(laws):
        ik = IsotropicKernel(ball, law)
        for x in ball.vertices:
            expected[j, x] = _row_or_refusal(_sigma_grouped_row, ik, x)
    calls = []
    sigma = A2Ball.sigma

    def counted(self, x, y):
        calls.append((x, y))
        return sigma(self, x, y)

    monkeypatch.setattr(A2Ball, "sigma", counted)
    refused = 0
    for j, law in enumerate(laws):
        ik = IsotropicKernel(ball, law)
        for x in ball.vertices:
            got = _row_or_refusal(ik.row, x)
            assert got == expected[j, x]
            if isinstance(got, str):
                refused += 1
            else:
                assert all(isinstance(pr, Fraction) for _, pr in got)
    assert calls == []
    assert 0 < refused < len(laws) * len(ball.vertices)


def test_isotropic_validation(tree2, ball22):
    with pytest.raises(ValueError):
        IsotropicKernel(tree2, {(1,): Fraction(1, 2)})
    with pytest.raises(ValueError):
        IsotropicKernel(tree2, {(1,): 0.5, (2,): 0.5})
    with pytest.raises(ValueError):
        IsotropicKernel(tree2, {(0,): 1})
    with pytest.raises(ValueError):
        IsotropicKernel(ball22, {(1, 1): 1})


# -- boundary hitting statistics -------------------------------------------------------


def test_hitting_tree_level_one(tree2):
    ik = IsotropicKernel(tree2)
    stats = boundary_hitting_mc(ik, (), 1, 3000, RngStream(7101))
    assert stats.unresolved == 0
    assert stats.samples - stats.unresolved == sum(c for _, c in stats.counts)
    assert set(v for v, _ in stats.counts) <= set(tree2.sphere((), 1))
    assert stats.passes()
    assert not stats.truncation_limited


def test_hitting_tree_level_two_off_centre(tree2):
    ik = IsotropicKernel(tree2)
    stats = boundary_hitting_mc(ik, (0, 1), 2, 6000, RngStream(7102))
    assert stats.passes()
    assert stats.chi.dof == 5


def test_tree_exit_cells_feed_one_sphere_chisquare(tree2):
    # steps of length 2 can jump past the level; the exit cell is the vertex
    # of V_level(o) on the way
    ik = IsotropicKernel(tree2, {(1,): Fraction(1, 2), (2,): Fraction(1, 2)})
    o, level = (0, 1), 2
    stats = boundary_hitting_mc(ik, o, level, 2000, RngStream(7106))
    sphere = tree2.sphere(o, level)
    tally = dict(stats.counts)
    assert set(tally) <= set(sphere)
    assert stats.chi == chisquare_uniform([tally.get(v, 0) for v in sphere])


def _exit_walks(kernel, o, stop, rng, samples, horizon):
    """The exit state of each walk, or None at the horizon, from a scalar
    loop on one generator: per chunk of _CHUNK walks, one uniform per live
    walk and time step, in walk order, until at most _TAIL are left; then
    each of those walks alone, in blocks of FIRST_BLOCK, 4 FIRST_BLOCK, ...
    up to MAX_BLOCK uniforms, each block capped at horizon - t.  A step
    scans the row's running float sum."""
    def step(z, u):
        acc = 0.0
        for y, p in kernel.row(z):
            acc += float(p)
            if u < acc:
                return y
        return y

    gen, out = rng.generator(), []
    for lo in range(0, samples, _CHUNK):
        live = {w: o for w in range(lo, min(lo + _CHUNK, samples))}
        exits, t = {}, 0
        while t < horizon and len(live) > _TAIL:
            t += 1
            for (w, z), u in zip(list(live.items()), gen.random(len(live)).tolist()):
                live[w] = z = step(z, u)
                if stop(z):
                    exits[w] = z
                    del live[w]
        for w, z in live.items():
            s, block, exits[w] = t, FIRST_BLOCK, None
            while s < horizon and exits[w] is None:
                for u in gen.random(min(block, horizon - s)).tolist():
                    s, z = s + 1, step(z, u)
                    if stop(z):
                        exits[w] = z
                        break
                block = min(4 * block, MAX_BLOCK)
        out += [exits[w] for w in sorted(exits)]
    return out


def _hitting_by_exit_tuples(ik, o, level, samples, rng, horizon=100000):
    """counts, unresolved and chi as boundary_hitting_mc formed them from one
    exit per walk: a Counter over the exit states, each mapped through
    exit_cell, the tally sorted by encode_node."""
    model = ik.model
    exits = _exit_walks(ik.kernel(), o, lambda z: max(model.sigma(o, z)) >= level,
                       rng, samples, horizon)
    tally = Counter()
    for z, c in Counter(z for z in exits if z is not None).items():
        tally[model.exit_cell(o, z, level)] += c
    parts = []
    for cells in model.exit_classes(o, level).values():
        counts = [tally.get(v, 0) for v in cells]
        if sum(counts) > 0:
            parts.append(chisquare_uniform(counts))
    stat = combine_chisquares(parts) if parts else ChiSquareResult(float("inf"), 0, 0.0)
    counts = tuple(sorted(tally.items(), key=lambda t: encode_node(t[0])))
    return counts, exits.count(None), stat


@pytest.mark.parametrize("model, level, samples, horizon", [
    ("tree2", 3, 3000, 100000),
    ("ball23", 2, 2000, 100000),
    ("ball23", 2, 300, 3),     # some walks still out at the horizon
], ids=["tree-level-3", "a2-ball-level-2", "a2-ball-unresolved"])
def test_hitting_counts_equal_the_exit_tuple_tally(model, level, samples, horizon, request):
    model = request.getfixturevalue(model)
    ik = IsotropicKernel(model)
    o = () if isinstance(model, TreeBuilding) else model.origin
    stats = boundary_hitting_mc(ik, o, level, samples, RngStream(7107), horizon=horizon)
    counts, unresolved, chi = _hitting_by_exit_tuples(ik, o, level, samples,
                                                      RngStream(7107), horizon)
    assert (stats.counts, stats.unresolved, stats.chi) == (counts, unresolved, chi)
    assert all(type(c) is int for _, c in stats.counts) and type(stats.unresolved) is int
    assert stats.counts and (unresolved > 0) == (horizon == 3)


def test_hitting_tree_worker_count_invariance(tree2):
    ik = IsotropicKernel(tree2)
    runs = [
        boundary_hitting_mc(ik, (), 2, 2000, RngStream(7103), workers=w)
        for w in (1, 3)
    ]
    assert runs[0].counts == runs[1].counts
    assert runs[0].chi == runs[1].chi


def test_hitting_ball_level_one(ball22):
    ik = IsotropicKernel(ball22)
    stats = boundary_hitting_mc(ik, ball22.origin, 1, 4000, RngStream(7104))
    assert stats.truncation_limited
    assert stats.unresolved == 0
    assert stats.passes()
    # exit level 1 is reached in one step, so counts split over 14 vertices
    assert len(stats.counts) == 14


def test_hitting_flags_exhausted_horizon(tree2):
    ik = IsotropicKernel(tree2)
    stats = boundary_hitting_mc(ik, (), 3, 50, RngStream(7105), horizon=2)
    assert stats.unresolved == 50
    assert stats.flagged
    assert not stats.passes()


def test_hitting_rejects_bad_levels(ball22, tree2):
    ik = IsotropicKernel(ball22)
    with pytest.raises(ValueError):
        boundary_hitting_mc(ik, ball22.origin, 2, 10, RngStream(1))
    with pytest.raises(ValueError):
        boundary_hitting_mc(IsotropicKernel(tree2), (), 0, 10, RngStream(1))


# -- colouring detector ---------------------------------------------------------------


def test_detector_constant_colouring(pg2):
    E, J, verdict = special_subgroup_detect(pg2, lambda c: 1)
    assert set(E) == set(pg2.weyl.elements)
    assert J == {1, 2}
    assert verdict


def test_detector_point_colouring(pg2):
    marked = (0, 0, 1)
    E, J, verdict = special_subgroup_detect(pg2, lambda c: c[0] == marked)
    assert set(E) == set(pg2.weyl.parabolic({2}))
    assert J == {2}
    assert verdict


def test_detector_line_colouring(pg2):
    marked = (0, 0, 1)
    E, J, verdict = special_subgroup_detect(pg2, lambda c: c[1] == marked)
    assert set(E) == set(pg2.weyl.parabolic({1}))
    assert J == {1}
    assert verdict


def test_detector_random_colourings(pg2):
    rng = random.Random(20260826)
    for _ in range(100):
        colours = {c: rng.randrange(2) for c in pg2.chambers}
        E, J, verdict = special_subgroup_detect(pg2, colours.get)
        assert set(E) == {pg2.weyl.identity}
        assert J == frozenset()
        assert verdict

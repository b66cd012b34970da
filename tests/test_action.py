"""Group actions, quotient networks, covolume and return-time statistics."""

from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import pytest

from chamberwalk.action import (
    FiniteAction,
    FreeGroupTreeAction,
    IntegerTranslationAction,
    InvolutionTreeAction,
    QuotientNetwork,
    action_invariance_check,
    covolume,
    exact_distribution_after,
    quotient_law_check,
    quotient_network,
    return_time_stats,
)
from chamberwalk.netwalk import (
    _SEED_CHUNK,
    MarkovKernel,
    RngStream,
    cycle_network,
    integer_line_network,
    kernel_from_network,
    path_network,
)


def c6_rotation_action(shift):
    perm = [(i + shift) % 6 for i in range(6)]
    return FiniteAction(range(6), [perm])


def test_finite_action_c6_rotations():
    rot2 = c6_rotation_action(2)
    assert len(rot2.elements) == 3
    assert rot2.fundamental_domain() == [0, 1]
    assert rot2.canonicalize(4) == 0
    assert rot2.stabilizer_order(0) == 1
    rot3 = c6_rotation_action(3)
    assert len(rot3.elements) == 2
    assert rot3.fundamental_domain() == [0, 1, 2]


def test_finite_action_reflection_stabilizer():
    refl = FiniteAction(range(5), [[4, 3, 2, 1, 0]])
    assert len(refl.elements) == 2
    assert refl.stabilizer_order(2) == 2
    assert refl.stabilizer_order(1) == 1
    assert refl.fundamental_domain() == [0, 1, 2]


def test_covolume_integer_line():
    net = integer_line_network()
    act = IntegerTranslationAction(2)
    res = covolume(net, act)
    assert res.value == 4
    assert res.verdict == "finite"
    assert res.terms == 2


def test_covolume_transitive_tree():
    act = FreeGroupTreeAction(2)
    res = covolume(act.network(), act)
    assert res.value == 4
    assert res.terms == 1


def test_covolume_budget_unknown():
    net = path_network(10)
    act = FiniteAction(range(10), [list(range(10))])   # trivial group
    res = covolume(net, act, budget=3)
    assert res.verdict == "unknown"
    assert res.terms == 3


def test_quotient_z_mod_2z():
    qnet = quotient_network(integer_line_network(), IntegerTranslationAction(2))
    assert set(qnet.network.nodes) == {0, 1}
    assert qnet.network.conductance(0, 1) == 2
    assert qnet.m_prime == {0: 2, 1: 2}
    kern = qnet.kernel()
    assert kern.prob(0, 1) == 1


def test_quotient_c6_rot2():
    qnet = quotient_network(cycle_network(6), c6_rotation_action(2))
    assert qnet.network.nodes == (0, 1)
    assert qnet.network.conductance(0, 1) == 2
    assert qnet.m_prime == {0: 2, 1: 2}


def test_quotient_c6_rot3_triangle():
    qnet = quotient_network(cycle_network(6), c6_rotation_action(3))
    assert qnet.network.nodes == (0, 1, 2)
    for x, y in [(0, 1), (1, 2), (0, 2)]:
        assert qnet.network.conductance(x, y) == 1
    assert qnet.m_prime == {0: 2, 1: 2, 2: 2}


def test_quotient_reflection_path():
    qnet = quotient_network(path_network(5), FiniteAction(range(5), [[4, 3, 2, 1, 0]]))
    assert qnet.network.nodes == (0, 1, 2)
    assert qnet.m_prime == {0: 1, 1: 2, 2: 1}
    assert qnet.network.conductance(1, 2) == 1
    # the quotient network's own weights coincide with m'
    for x in qnet.network.nodes:
        assert qnet.network.m(x) == qnet.m_prime[x]


def test_quotient_transitive_tree_self_loop():
    act = InvolutionTreeAction(3)
    qnet = quotient_network(act.network(), act)
    assert qnet.network.nodes == ((),)
    assert qnet.network.conductance((), ()) == 3
    assert qnet.kernel().prob((), ()) == 1


def test_quotient_kernel_is_projected_kernel():
    # q(pi(x), pi(y)) equals the sum of p(x, y') over the fibre of y
    from chamberwalk.netwalk import kernel_from_network

    net = cycle_network(6)
    act = c6_rotation_action(3)
    qnet = quotient_network(net, act)
    pk = kernel_from_network(net)
    qk = qnet.kernel()
    for x in [0, 1, 2]:
        fibre_sums: dict = {}
        for y, p in pk.row(x):
            fibre_sums[act.canonicalize(y)] = fibre_sums.get(act.canonicalize(y), 0) + p
        for ybar, total in fibre_sums.items():
            assert qk.prob(x, ybar) == total


def test_exact_distribution_after():
    qnet = quotient_network(cycle_network(6), c6_rotation_action(3))
    dist = exact_distribution_after(qnet.kernel(), 0, 2)
    # triangle SRW: return prob after 2 steps is 1/2
    assert dist[0] == Fraction(1, 2)
    assert dist[1] == Fraction(1, 4)
    assert sum(dist.values()) == 1


def test_quotient_law_z_mod_2z():
    qnet = quotient_network(integer_line_network(), IntegerTranslationAction(2))
    rep = quotient_law_check(qnet, start=0, steps=5, samples=2000, rng=RngStream(5))
    # parity is deterministic: all mass on the odd class
    assert rep.expected == {1: 1}
    assert rep.counts[1] == 2000
    assert rep.chi_square.p_value == 1.0


def test_quotient_law_c6_rot3():
    qnet = quotient_network(cycle_network(6), c6_rotation_action(3))
    rep = quotient_law_check(qnet, start=0, steps=5, samples=20000, rng=RngStream(6))
    assert rep.passes(0.01)
    assert sum(rep.counts.values()) == 20000


def _reference_quotient_counts(qnet, start, steps, samples, rng):
    """quotient_law_check's tally as a scalar loop: one stream, walk after
    walk, one uniform per step and a linear scan of the row's running float
    sum."""
    kernel = kernel_from_network(qnet.ambient)
    expected = exact_distribution_after(qnet.kernel(), qnet.project(start), steps)
    counts = {y: 0 for y in sorted(expected, key=repr)}
    gen = rng.generator()
    for _ in range(samples):
        x = start
        for _ in range(steps):
            row, u = kernel.row(x), gen.random()
            sums = accumulate(float(p) for _, p in row)
            x = next((y for (y, _), acc in zip(row, sums) if u < acc), row[-1][0])
        xbar = qnet.project(x)
        if xbar not in counts:
            counts[xbar] = 0
        counts[xbar] += 1
    return counts


def _mislabelled_quotient():
    # a quotient law with one class, so that the walk's other classes are
    # added to counts in the order the walks first reach them
    return SimpleNamespace(ambient=cycle_network(9),
                           kernel=lambda: MarkovKernel.finite({"home": [("home", 1)]}),
                           project=lambda x: "home" if x == 0 else x % 4)


@pytest.mark.parametrize("case", [
    lambda: (quotient_network(integer_line_network(), IntegerTranslationAction(3)), 0, 5,
             2 * _SEED_CHUNK + 5, RngStream(13)),
    lambda: (quotient_network(cycle_network(6), c6_rotation_action(2)), 1, 4, 700,
             RngStream(14, (2,))),
    lambda: (quotient_network(cycle_network(6), c6_rotation_action(3)), 0, 0, 40,
             RngStream(15)),
    lambda: (_mislabelled_quotient(), 0, 3, _SEED_CHUNK + 9, RngStream(16)),
], ids=["line-mod-3", "cycle6-rot2", "no-steps", "new-keys"])
def test_quotient_law_counts_equal_a_scalar_loop(case):
    qnet, start, steps, samples, rng = case()
    rep = quotient_law_check(qnet, start, steps, samples, rng)
    expected = _reference_quotient_counts(qnet, start, steps, samples, rng)
    assert list(rep.counts.items()) == list(expected.items())
    assert sum(rep.counts.values()) == samples


def test_return_time_z_mod_2z_deterministic():
    from chamberwalk.action import return_time_samples

    qnet = quotient_network(integer_line_network(), IntegerTranslationAction(2))
    times, unresolved = return_time_samples(qnet.kernel(), 0, 200, RngStream(7))
    assert unresolved == 0
    assert set(times) == {2}


def test_return_times_leave_out_the_walks_censored_at_the_horizon():
    from chamberwalk.action import return_time_samples

    kernel = kernel_from_network(cycle_network(8))
    times, unresolved = return_time_samples(kernel, 0, 500, RngStream(9), horizon=6)
    assert 0 < unresolved < 500 and len(times) + unresolved == 500
    assert set(times.tolist()) == {2, 4, 6}


def test_return_time_stats_c6():
    qnet = quotient_network(cycle_network(6), c6_rotation_action(3))
    stats = return_time_stats(qnet, 0, samples=4000, rng=RngStream(8), exp_rate=0.05)
    assert stats.exact_mean == 3
    assert stats.unresolved == 0
    assert stats.mean_within_sigmas(3.0)
    assert stats.tail_slope < 0
    assert stats.exp_moment is not None and stats.exp_moment > 1.0


def test_invariance_exact_finite():
    net = cycle_network(6)
    rep = action_invariance_check(net, c6_rotation_action(2))
    assert rep.mode == "exact"
    assert rep.verdict
    # a deliberately broken network fails
    bad = cycle_network(6).to_json()
    bad["edges"][0][2] = 5
    from chamberwalk.netwalk import network_from_json

    rep_bad = action_invariance_check(network_from_json(bad), c6_rotation_action(2))
    assert not rep_bad.verdict


def test_invariance_sampled_lazy():
    act = FreeGroupTreeAction(2)
    rep = action_invariance_check(act.network(), act, rng=RngStream(9), samples=500)
    assert rep.mode == "sampled"
    assert rep.verdict
    act3 = InvolutionTreeAction(3)
    rep3 = action_invariance_check(act3.network(), act3, rng=RngStream(10), samples=500)
    assert rep3.verdict
    actz = IntegerTranslationAction(2)
    repz = action_invariance_check(integer_line_network(), actz, rng=RngStream(11),
                                   samples=500)
    assert repz.verdict


def test_word_reduction_group_laws():
    act = FreeGroupTreeAction(2)
    gen = RngStream(12).generator()
    for _ in range(50):
        g = act.random_key(gen)
        h = act.random_key(gen)
        w = act.random_key(gen)
        assert act.translate(g, act.translate(h, w)) == (
            act.translate(act.reduce_concat(g, h), w)
        )
        assert act.translate(act.inverse_key(g), act.translate(g, w)) == w
        assert act.element_for((), act.translate(g, ())) == g
    act3 = InvolutionTreeAction(3)
    for _ in range(50):
        g = act3.random_key(gen)
        w = act3.random_key(gen)
        assert act3.translate(act3.inverse_key(g), act3.translate(g, w)) == w
        assert act3.element_for((), act3.translate(g, ())) == g

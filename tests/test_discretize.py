"""Induced chains on subsets and lattice step laws."""

import random
from fractions import Fraction

import pytest

from chamberwalk.action import (
    FiniteAction,
    FreeGroupTreeAction,
    IntegerTranslationAction,
    InvolutionTreeAction,
)
from chamberwalk.discretize import (
    _induced_row,
    discretize_lattice,
    harmonic_extension,
    harmonic_transfer_check,
    induced_kernel_exact,
)
from chamberwalk.netwalk import (
    _hitting_rows,
    FiniteNetwork,
    MarkovKernel,
    RngStream,
    cycle_network,
    hitting_matrix,
    integer_line_network,
    kernel_from_network,
    path_network,
)


def random_network(rng, n, symmetric_p=False):
    """Connected random conductance network on n nodes, exact rationals."""
    nodes = list(range(n))
    edges = {}
    for i in range(1, n):
        j = rng.randrange(i)
        edges[(j, i)] = Fraction(rng.randint(1, 6), rng.randint(1, 4))
    for _ in range(n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j and (min(i, j), max(i, j)) not in edges:
            edges[(min(i, j), max(i, j))] = Fraction(rng.randint(1, 6), rng.randint(1, 4))
    edge_list = [(u, v, a) for (u, v), a in edges.items()]
    if symmetric_p:
        m = {x: Fraction(0) for x in nodes}
        for u, v, a in edge_list:
            m[u] += a
            m[v] += a
        target = max(m.values()) + 1
        edge_list += [(x, x, target - m[x]) for x in nodes]
    return FiniteNetwork(nodes, edge_list)


def test_induced_kernel_path_oracle():
    kernel = kernel_from_network(path_network(3))
    q = induced_kernel_exact(kernel, [0, 2])
    assert dict(q.row(0)) == {0: Fraction(1, 2), 2: Fraction(1, 2)}
    assert dict(q.row(2)) == {0: Fraction(1, 2), 2: Fraction(1, 2)}


def test_induced_on_everything_is_identity_operation():
    rng = random.Random(5)
    net = random_network(rng, 7)
    kernel = kernel_from_network(net)
    q = induced_kernel_exact(kernel, net.nodes)
    for x in net.nodes:
        assert dict(q.row(x)) == dict(kernel.row(x))


def test_induced_rows_exact_and_reversible():
    rng = random.Random(23)
    for trial in range(8):
        net = random_network(rng, rng.randint(4, 10))
        kernel = kernel_from_network(net)
        subset = sorted(rng.sample(net.nodes, rng.randint(2, len(net.nodes) - 1)))
        q = induced_kernel_exact(kernel, subset)
        for x in subset:
            row = dict(q.row(x))
            assert sum(row.values()) == 1
            # induced chain stays reversible for the restricted vertex weights
            for y in subset:
                assert row.get(y, Fraction(0)) * net.m(x) == \
                    dict(q.row(y)).get(x, Fraction(0)) * net.m(y)


def test_induced_kernel_symmetric_when_ambient_symmetric():
    rng = random.Random(31)
    net = random_network(rng, 8, symmetric_p=True)
    kernel = kernel_from_network(net)
    subset = [0, 2, 3, 6]
    q = induced_kernel_exact(kernel, subset)
    for x in subset:
        for y, p in q.row(x):
            assert dict(q.row(y)).get(x, Fraction(0)) == p


def test_tower_property():
    rng = random.Random(47)
    for trial in range(6):
        net = random_network(rng, rng.randint(5, 9))
        kernel = kernel_from_network(net)
        nodes = list(net.nodes)
        subset = sorted(rng.sample(nodes, rng.randint(3, len(nodes) - 1)))
        inner = sorted(rng.sample(subset, rng.randint(2, len(subset) - 1)))
        q = induced_kernel_exact(kernel, subset)
        via_q = induced_kernel_exact(q, inner)
        direct = induced_kernel_exact(kernel, inner)
        for x in inner:
            assert dict(via_q.row(x)) == dict(direct.row(x))


@pytest.mark.parametrize("n, r", [(24, 3), (90, 6), (404, 2)])
def test_induced_kernel_on_a_cycle_orbit_matches_dense_hitting_rows(n, r):
    orbit = FiniteAction(range(n), [tuple((i + r) % n for i in range(n))]).orbit(0)
    q = induced_kernel_exact(kernel_from_network(cycle_network(n)), orbit)
    # reference: q(x, .) = sum_z p(x, z) alpha(z, .) over dense hitting_matrix rows
    kernel = kernel_from_network(cycle_network(n))
    alpha = hitting_matrix(kernel, orbit)
    for x in orbit:
        row: dict = {}
        for z, p in kernel.row(x):
            for y, a in alpha[z].items():
                if a != 0:
                    row[y] = row.get(y, Fraction(0)) + p * a
        assert q.row(x) == tuple(sorted(row.items(), key=lambda t: repr(t[0])))
    assert q.is_exact


def _base_row_matches_induced_kernel(net, orbit, o):
    """_induced_row at o against the row of the whole induced kernel, each
    from its own kernel so that no memo is shared: same values, same order."""
    oracle = induced_kernel_exact(kernel_from_network(net), orbit).row(o)
    kernel = kernel_from_network(net)
    row = _induced_row(kernel, _hitting_rows(kernel, orbit)[1], o)
    assert row == oracle
    assert [repr(a) for _, a in row] == [repr(a) for _, a in oracle]


@pytest.mark.parametrize("n, rotations", [(12, (2, 3, 4, 8)), (24, (3, 4, 6, 9)),
                                          (404, (2, 4))])
def test_induced_base_row_on_cycle_orbits(n, rotations):
    for r in rotations:
        action = FiniteAction(range(n), [tuple((i + r) % n for i in range(n))])
        for o in (0, 1):
            _base_row_matches_induced_kernel(cycle_network(n), action.orbit(o), o)


def test_induced_base_row_on_a_random_two_orbit_network():
    # conductances invariant under i -> i + 2 on 14 nodes: orbits are evens and odds
    rng = random.Random(1811)
    n, edges = 14, {}
    for _ in range(9):
        u, v = rng.sample(range(n), 2)
        a = Fraction(rng.randint(1, 9), rng.randint(1, 7))
        for s in range(0, n, 2):
            key = tuple(sorted(((u + s) % n, (v + s) % n)))
            edges.setdefault(key, a)
    for i in range(n):  # a ring keeps it connected
        edges.setdefault((min(i, (i + 1) % n), max(i, (i + 1) % n)), Fraction(1, 1 + i % 2))
    net = FiniteNetwork(range(n), [(u, v, a) for (u, v), a in edges.items()])
    action = FiniteAction(range(n), [tuple((i + 2) % n for i in range(n))])
    assert len(action.fundamental_domain()) == 2
    for o in (0, 1, 6, 9):
        _base_row_matches_induced_kernel(net, action.orbit(o), o)
    mu = discretize_lattice(net, action, 0)
    law = {action.translate(g, 0): p for g, p in mu.entries}
    assert mu.provenance == "exact" and law == dict(induced_kernel_exact(
        kernel_from_network(net), action.orbit(0)).row(0))


def test_induced_base_row_with_float_conductances():
    rng = random.Random(4)
    net = FiniteNetwork(range(10), [(i, (i + 1) % 10, rng.uniform(0.5, 3.0)) for i in range(10)]
                        + [(0, 5, 0.75), (2, 7, 1.5)])
    _base_row_matches_induced_kernel(net, [0, 3, 5, 8], 0)
    _base_row_matches_induced_kernel(net, [0, 3, 5, 8], 5)


def test_induced_base_row_refuses_a_subset_not_revisited():
    # from 0 the chain falls into the trap 2 and never comes back
    kernel = MarkovKernel.finite({0: [(1, 1)], 1: [(0, Fraction(1, 2)), (2, Fraction(1, 2))],
                                  2: [(2, 1)]})
    with pytest.raises(ValueError, match="subset not a.s. revisited"):
        _induced_row(kernel, _hitting_rows(kernel, [0])[1], 0)
    with pytest.raises(ValueError, match="subset not a.s. revisited"):
        induced_kernel_exact(kernel, [0])


def test_hitting_distributions_preserved():
    rng = random.Random(59)
    for trial in range(6):
        net = random_network(rng, rng.randint(5, 9))
        kernel = kernel_from_network(net)
        nodes = list(net.nodes)
        subset = sorted(rng.sample(nodes, rng.randint(3, len(nodes) - 1)))
        targets = sorted(rng.sample(subset, 2))
        q = induced_kernel_exact(kernel, subset)
        ambient = hitting_matrix(kernel, targets)
        induced = hitting_matrix(q, targets)
        for x in subset:
            assert ambient[x] == induced[x]


def test_harmonic_transfer_defects():
    rng = random.Random(71)
    for trial in range(5):
        net = random_network(rng, rng.randint(5, 9))
        kernel = kernel_from_network(net)
        nodes = list(net.nodes)
        subset = sorted(rng.sample(nodes, rng.randint(2, len(nodes) - 1)))
        f = {y: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for y in subset}
        report = harmonic_transfer_check(kernel, subset, f)
        assert report.restriction_defect == 0
        assert report.interior_defect == 0
        # constants are harmonic for the induced chain too
        const = harmonic_transfer_check(kernel, subset, {y: Fraction(3) for y in subset})
        assert const.q_harmonic_input and const.global_defect == 0


def test_harmonic_transfer_gamblers_ruin():
    # absorbing ends, f = probability of ruin at the top
    rows = {0: [(0, Fraction(1))], 4: [(4, Fraction(1))]}
    for x in (1, 2, 3):
        rows[x] = [(x - 1, Fraction(1, 2)), (x + 1, Fraction(1, 2))]
    kernel = MarkovKernel.finite(rows)
    subset = [0, 2, 4]
    f = {0: Fraction(0), 2: Fraction(1, 2), 4: Fraction(1)}
    report = harmonic_transfer_check(kernel, subset, f)
    assert report.q_harmonic_input
    assert report.verdict
    h = harmonic_extension(kernel, subset, f)
    assert h == {0: Fraction(0), 1: Fraction(1, 4), 2: Fraction(1, 2),
                 3: Fraction(3, 4), 4: Fraction(1)}


def test_free_group_step_law():
    action = FreeGroupTreeAction(2)
    mu = discretize_lattice(action.network(), action, ())
    assert mu.provenance == "exact"
    assert mu.stabilizer_order == 1
    assert sorted(k for k, _ in mu.entries) == [(-2,), (-1,), (1,), (2,)]
    assert all(p == Fraction(1, 4) for _, p in mu.entries)
    assert mu.symmetric
    assert mu.total() == 1
    assert mu.first_moment(action) == 1


def test_involution_tree_step_law():
    action = InvolutionTreeAction(3)
    mu = discretize_lattice(action.network(), action, ())
    assert sorted(k for k, _ in mu.entries) == [(0,), (1,), (2,)]
    assert all(p == Fraction(1, 3) for _, p in mu.entries)
    assert mu.symmetric and mu.first_moment(action) == 1


def test_integer_sublattice_step_law():
    action = IntegerTranslationAction(2)
    mu = discretize_lattice(integer_line_network(), action, 0)
    assert mu.provenance == "exact"
    assert dict(mu.entries) == {0: Fraction(1, 2), 2: Fraction(1, 4), -2: Fraction(1, 4)}
    assert mu.symmetric
    assert mu.first_moment(action) == 1
    wider = discretize_lattice(integer_line_network(), IntegerTranslationAction(3), 0)
    assert dict(wider.entries) == {0: Fraction(2, 3), 3: Fraction(1, 6), -3: Fraction(1, 6)}


def test_integer_sublattice_matches_absorption_oracle():
    # independent window solve: restrict the line to [-2, 2], absorb at -2, 0, 2
    rows = {x: [(x - 1, Fraction(1, 2)), (x + 1, Fraction(1, 2))] for x in (-1, 1)}
    for y in (-2, 0, 2):
        rows[y] = [(y, Fraction(1))]
    alpha = hitting_matrix(MarkovKernel.finite(rows), [-2, 0, 2])
    oracle = {}
    for z in (-1, 1):
        for y, a in alpha[z].items():
            oracle[y] = oracle.get(y, Fraction(0)) + Fraction(1, 2) * a
    mu = discretize_lattice(integer_line_network(), IntegerTranslationAction(2), 0)
    assert dict(mu.entries) == {y: p for y, p in oracle.items() if p}


def test_finite_action_step_law():
    # C6 walk observed on the even sublattice
    net = FiniteNetwork(range(6), [(i, (i + 1) % 6, 1) for i in range(6)])
    action = FiniteAction(range(6), [tuple((i + 2) % 6 for i in range(6))])
    mu = discretize_lattice(net, action, 0)
    assert mu.provenance == "exact"
    law = {action.translate(g, 0): p for g, p in mu.entries}
    assert law == {0: Fraction(1, 2), 2: Fraction(1, 4), 4: Fraction(1, 4)}
    assert mu.symmetric and mu.total() == 1


def test_transitive_finite_action_with_stabilizer():
    # triangle with its full symmetry group: |stab| = 2, loop mass drops out
    net = FiniteNetwork(range(3), [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    action = FiniteAction(range(3), [(1, 2, 0), (1, 0, 2)])
    assert action.stabilizer_order(0) == 2
    mu = discretize_lattice(net, action, 0)
    assert mu.stabilizer_order == 2
    assert len(mu.entries) == 4
    assert all(p == Fraction(1, 4) for _, p in mu.entries)
    assert mu.total() == 1 and mu.symmetric


def test_monte_carlo_step_law_matches_exact():
    action = IntegerTranslationAction(2)
    exact = discretize_lattice(integer_line_network(), action, 0)
    mc = discretize_lattice(integer_line_network(), action, 0,
                            rng=RngStream(99, ()), samples=4000, method="mc")
    assert mc.provenance == "mc"
    assert mc.unresolved == 0
    assert [k for k, _ in mc.entries] == [k for k, _ in exact.entries]
    for g, p in exact.entries:
        sigma = (float(p) * (1 - float(p)) / 4000) ** 0.5
        assert abs(mc.prob(g) - float(p)) < 4 * sigma


def test_discretize_requires_rng_for_mc():
    with pytest.raises(ValueError):
        discretize_lattice(integer_line_network(), IntegerTranslationAction(2), 0,
                           method="mc")

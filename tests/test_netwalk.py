"""Network and kernel layer: exact structure checks and reproducibility."""

import gc
import json
import math
import random
import weakref
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from chamberwalk.boundary import IsotropicKernel
from chamberwalk.buildings import A2Ball, TreeBuilding
from chamberwalk import netwalk
from chamberwalk.errors import SchemaError
from chamberwalk.discretize import induced_kernel_exact
from chamberwalk.netwalk import (
    _CHUNK,
    _TAIL,
    EXACT_SOLVE_LIMIT,
    FIRST_BLOCK,
    MAX_BLOCK,
    FiniteNetwork,
    LazyNetwork,
    MarkovKernel,
    RngStream,
    check_stationary,
    cycle_network,
    first_passages,
    harmonic_defect,
    hitting_distribution,
    hitting_matrix,
    integer_line_network,
    kernel_from_network,
    network_from_json,
    path_network,
    reversibility_defect,
    simulate,
    solve_float,
    _RowTables,
    _cumulative,
    _eliminate,
    _hitting_rows,
)
from chamberwalk.stats import chisquare_expected


def random_network(rng, n, symmetric_p=False):
    """Connected random conductance network on n nodes, exact rationals.

    With symmetric_p, self-loops equalise all vertex weights so the kernel
    itself becomes a symmetric matrix.
    """
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


def test_path_weights():
    net = path_network(3)
    assert [net.m(x) for x in net.nodes] == [1, 2, 1]
    assert net.is_exact


def test_kernel_rows_sum_to_one_exactly():
    rng = random.Random(21)
    for _ in range(10):
        net = random_network(rng, rng.randint(2, 12))
        kern = kernel_from_network(net)
        for x in kern.nodes:
            assert sum(p for _, p in kern.row(x)) == 1


def test_kernel_reversibility_exact():
    rng = random.Random(22)
    for _ in range(10):
        net = random_network(rng, rng.randint(2, 12))
        kern = kernel_from_network(net)
        assert reversibility_defect(kern, {x: net.m(x) for x in net.nodes}) == 0


def test_isolated_node_rejected():
    net = FiniteNetwork([0, 1, 2], [(0, 1, 1)])
    with pytest.raises(ValueError):
        kernel_from_network(net)


def test_network_json_roundtrip():
    net = FiniteNetwork(["a", "b", "c"], [("a", "b", Fraction(1, 3)), ("b", "c", 2)])
    doc = net.to_json()
    back = network_from_json(doc)
    assert back.to_json() == doc
    assert back.conductance("a", "b") == Fraction(1, 3)
    with pytest.raises(SchemaError):
        network_from_json({"nodes": [0], "edges": [[0, 1, 1]]})
    with pytest.raises(SchemaError):
        network_from_json({"nodes": [0, 1], "edges": [[0, 1]]})
    # nested tuple nodes come back from JSON lists of lists
    nested = FiniteNetwork([((0, 1), (2,)), 3], [(((0, 1), (2,)), 3, 1)])
    assert network_from_json(json.dumps(nested.to_json())).to_json() == nested.to_json()


def test_simulate_reproducible():
    kern = kernel_from_network(cycle_network(6))
    s = RngStream(7, (3,))
    t1 = simulate(kern, 0, 50, s)
    t2 = simulate(kern, 0, 50, s)
    assert t1 == t2
    t3 = simulate(kern, 0, 50, RngStream(7, (4,)))
    assert t3 != t1
    assert len(t1) == 51
    assert t1[0] == 0


def test_first_passages_never_test_the_start():
    # every walk starts inside the stop set; on a cycle of 6 the earliest
    # return is at t = 2, so no entry may read (0, 0) or (z, 1)
    kern = kernel_from_network(cycle_network(6))
    hits = _hits(first_passages(kern, 0, lambda z: z == 0, RngStream(5), 60, 1000))
    assert len(hits) == 60
    assert all(hit is not None and hit[0] == 0 and hit[1] >= 2 and hit[1] % 2 == 0
               for hit in hits)


def test_first_passages_stop_at_the_first_hit_within_the_horizon():
    walks = (kernel_from_network(cycle_network(7)), 0, lambda z: z in (3, 4), RngStream(8),
             80, 6)
    ends = _walks(first_passages(*walks))
    resolved = [(z, t) for z, t in ends if t is not None]
    assert resolved and len(resolved) < len(ends)
    assert all(z in (3, 4) and 3 <= t <= 6 for z, t in resolved)
    # a walk the horizon stopped ends at its state at t = 6, outside the stop set
    assert all(z not in (3, 4) for z, t in ends if t is None)
    assert ends == _reference_first_passages(*walks)


def test_first_passages_unreachable_stop_in_one_step():
    kern = kernel_from_network(cycle_network(6))
    assert _hits(first_passages(kern, 0, lambda z: z == 3, RngStream(2), 25, 1)) == [None] * 25


# -- stream identity and the compiled walk step ----------------------------------


def test_child_states_refuse_a_negative_seed_or_key_at_the_call():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        RngStream(-1).generator()
    kern = kernel_from_network(cycle_network(6))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        first_passages(kern, 0, lambda z: z == 3, RngStream(3, (-2,)), 5, 10)


def test_block_draws_equal_scalar_draws():
    scalar = RngStream(9).generator()
    expected = [scalar.random() for _ in range(3000)]
    gen = RngStream(9).generator()
    assert gen.random(5).tolist() + gen.random(2995).tolist() == expected


def _scan_step(row, u):
    """The walk step as a linear scan of the row's running float sum."""
    acc = 0.0
    for y, p in row:
        acc += float(p)
        if u < acc:
            return y
    return row[-1][0]


def _walks(passages):
    """first_passages' (states, ids, times) as one (end state, first stop
    time or None) per walk."""
    states, ids, times = passages
    return [(states[i], None if t < 0 else t) for i, t in zip(ids.tolist(), times.tolist())]


def _hits(passages):
    """first_passages' answer as one (Z_t, t) or None per walk."""
    return [None if t is None else (z, t) for z, t in _walks(passages)]


def _reference_first_passages(kernel, start, stop, rng, samples, horizon):
    """_walks' answer from a scalar loop on one generator: per chunk of
    _CHUNK walks, one uniform per live walk and time step, in walk order,
    until at most _TAIL are left; then each of those walks alone, in blocks
    of FIRST_BLOCK, 4 FIRST_BLOCK, ... up to MAX_BLOCK uniforms, each block
    capped at horizon - t."""
    gen = rng.generator()
    out = []
    for lo in range(0, samples, _CHUNK):
        live = {w: start for w in range(lo, min(lo + _CHUNK, samples))}
        ends, t = {}, 0
        while t < horizon and len(live) > _TAIL:
            t += 1
            for (w, z), u in zip(list(live.items()), gen.random(len(live)).tolist()):
                live[w] = z = _scan_step(kernel.row(z), u)
                if stop(z):
                    ends[w] = (z, t)
                    del live[w]
        for w, z in live.items():
            s, block, hit = t, FIRST_BLOCK, None
            while s < horizon and hit is None:
                for u in gen.random(min(block, horizon - s)).tolist():
                    s += 1
                    z = _scan_step(kernel.row(z), u)
                    if stop(z):
                        hit = s
                        break
                block = min(4 * block, MAX_BLOCK)
            ends[w] = (z, hit)
        out += [ends[w] for w in sorted(ends)]
    return out


def _tree_walks():
    tree = TreeBuilding(2)
    return (IsotropicKernel(tree).kernel(), (), lambda z: tree.distance((), z) >= 3,
            RngStream(41, (2,)), 400, 4)


def _ball_walks():
    ball = A2Ball(2, 2)
    o = ball.origin
    return (IsotropicKernel(ball).kernel(), o, lambda z: max(ball.sigma(o, z)) >= 2,
            RngStream(42), 300, 2)


def _cycle_walks():
    return (kernel_from_network(cycle_network(9)), 0, lambda z: z in (4, 5),
            RngStream(43), _CHUNK + 40, 7)


def _two_chunk_edges_walks():
    return (kernel_from_network(cycle_network(7)), 0, lambda z: z == 3,
            RngStream(44, (1,)), 2 * _CHUNK + 7, 12)


def _long_return_walks():
    # about a quarter of the walks is still out after 10 steps, fewer than
    # _TAIL after some twenty lockstep steps; the rest finish one by one
    return (kernel_from_network(cycle_network(400)), 0, lambda z: z == 0,
            RngStream(45), 300, 40000)


def _random_rows(rand, n, exact):
    """Rows of 1 to 5 targets, some with probability zero, over range(n)."""
    rows = {}
    for x in range(n):
        targets = rand.sample(range(n), rand.randint(1, 5))
        weights = [rand.choice([0, 0, 1, 2, 3]) for _ in targets]
        weights[rand.randrange(len(weights))] += 1
        total = sum(weights)
        rows[x] = [(y, Fraction(w, total) if exact else w / total)
                   for y, w in zip(targets, weights)]
    return MarkovKernel.finite(rows)


def _ragged_exact_walks():
    return (_random_rows(random.Random(46), 30, True), 0, lambda z: z % 7 == 6,
            RngStream(46), 700, 25)


def _ragged_float_walks():
    kernel = _random_rows(random.Random(47), 30, False)
    assert not kernel.is_exact
    return kernel, 0, lambda z: z % 7 == 6, RngStream(47), 700, 25


@pytest.mark.parametrize("walks", [_tree_walks, _ball_walks, _cycle_walks],
                         ids=["tree", "a2-ball", "cycle"])
def test_first_passages_equal_a_scalar_linear_scan_loop(walks):
    kernel, start, stop, rng, samples, horizon = walks()
    ends = _walks(first_passages(kernel, start, stop, rng, samples, horizon))
    assert ends == _reference_first_passages(kernel, start, stop, rng, samples, horizon)
    assert {t is None for _, t in ends} == {True, False}


@pytest.mark.parametrize("walks", [_two_chunk_edges_walks, _long_return_walks,
                                   _ragged_exact_walks, _ragged_float_walks],
                         ids=["two-chunk-edges", "long-returns", "ragged-exact", "ragged-float"])
def test_lockstep_chunks_tails_and_ragged_rows_equal_the_scalar_loop(walks):
    kernel, start, stop, rng, samples, horizon = walks()
    ends = _walks(first_passages(kernel, start, stop, rng, samples, horizon))
    assert ends == _reference_first_passages(kernel, start, stop, rng, samples, horizon)
    assert any(t is not None for _, t in ends)


def test_long_return_walks_reach_the_scalar_tail_after_lockstep_steps():
    hits = _hits(first_passages(*_long_return_walks()))
    # more than _TAIL walks are out after 10 steps, so at least 10 steps ran
    # in lockstep; the last walks run on to thousands of steps and the horizon
    assert sum(hit is None or hit[1] > 10 for hit in hits) > _TAIL
    assert None in hits and max(hit[1] for hit in hits if hit is not None) > 1000


@pytest.mark.parametrize("horizon", [0, 1])
@pytest.mark.parametrize("samples", [29, _CHUNK + 5])     # every walk in the tail; lockstep
def test_first_passages_at_horizons_zero_and_one(horizon, samples):
    kernel = _random_rows(random.Random(48), 12, True)
    stop = lambda z: z % 3 == 0     # noqa: E731
    ends = _walks(first_passages(kernel, 4, stop, RngStream(48), samples, horizon))
    assert ends == _reference_first_passages(kernel, 4, stop, RngStream(48), samples, horizon)
    if horizon == 0:
        assert ends == [(4, None)] * samples


def test_step_equals_the_linear_scan_at_every_cumulative_value():
    tenth = Fraction(1, 10)
    rows = {
        0: [(0, Fraction(0)), (1, Fraction(1, 4)), (2, Fraction(0)), (3, Fraction(3, 4)),
            (4, Fraction(0))],
        1: [(y, tenth) for y in range(10)],    # float running sum ends below 1
        2: [(2, Fraction(1))],
    }
    rows.update({x: [(x, Fraction(1))] for x in range(3, 10)})
    exact = MarkovKernel.finite(rows)
    floats = MarkovKernel.finite({0: [(0, 0.1), (1, 0.0), (2, 0.2), (3, 0.7)],
                                  1: [(1, 1.0)], 2: [(2, 1.0)], 3: [(3, 1.0)]})
    assert not floats.is_exact
    below_one = math.nextafter(1.0, 0.0)
    for kernel in (exact, floats):
        for x in kernel.nodes:
            row = kernel.row(x)
            acc, points = 0.0, {0.0, below_one}
            for _, p in row:
                acc += float(p)
                points |= {acc, math.nextafter(acc, 0.0), math.nextafter(acc, 2.0)}
            targets, cum = _cumulative(row)
            for u in sorted(v for v in points if 0.0 <= v < 1.0):
                assert targets[bisect_right(cum, u)] == _scan_step(row, u), (x, u)
    targets, cum = _cumulative(exact.row(1))
    assert targets[bisect_right(cum, below_one)] == 9
    targets, cum = _cumulative(exact.row(0))
    assert targets[bisect_right(cum, 0.25)] == 3


def test_table_step_equals_the_linear_scan_at_every_cumulative_value():
    tenth = Fraction(1, 10)
    rows = {
        0: [(0, Fraction(0)), (1, Fraction(1, 4)), (2, Fraction(0)), (3, Fraction(3, 4)),
            (4, Fraction(0))],
        1: [(y, tenth) for y in range(10)],    # float running sum ends below 1
    }
    rows.update({x: [(x, Fraction(1))] for x in range(2, 10)})
    floats = {0: [(0, 0.1), (1, 0.0), (2, 0.2), (3, 0.7)], 1: [(1, 1.0)], 2: [(2, 1.0)],
              3: [(3, 1.0)]}
    for kernel in (MarkovKernel.finite(rows), MarkovKernel.finite(floats)):
        for x in kernel.nodes:
            row = kernel.row(x)
            acc, points = 0.0, {0.0, math.nextafter(1.0, 0.0)}
            for _, p in row:
                acc += float(p)
                points |= {acc, math.nextafter(acc, 0.0), math.nextafter(acc, 2.0)}
            us = sorted(v for v in points if 0.0 <= v < 1.0)
            # every walk stands at x with its own u, in one lockstep step
            tables = _RowTables(kernel, x)
            ids = tables.step(np.zeros(len(us), np.intp), np.array(us)).tolist()
            assert [tables.states[i] for i in ids] == [_scan_step(row, u) for u in us]


def _probe_points(cum):
    """0, just below 1, every running sum but the last and its two float
    neighbours: the uniforms at which a binary search can go wrong."""
    points = {0.0, math.nextafter(1.0, 0.0)}
    for c in cum[:-1]:
        points |= {c, math.nextafter(c, 0.0), math.nextafter(c, 2.0)}
    return sorted(v for v in points if 0.0 <= v < 1.0)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_table_step_is_bisect_right_on_the_cumulative_sums_at_every_width(exact):
    # rows of these widths at states 0-8 lead to 17 states that stay put, so
    # a walk's first step alone decides which table rows are filled
    widths = (1, 2, 3, 4, 5, 8, 14, 16, 17)
    ends = range(len(widths), len(widths) + 17)
    rand = random.Random(49)
    rows = {x: [(x, Fraction(1) if exact else 1.0)] for x in ends}
    for x, width in enumerate(widths):      # zero weights repeat a running sum
        weights = [rand.choice([0, 0, 1, 2, 3]) for _ in range(width)]
        weights[rand.randrange(width)] += 1
        total = sum(weights)
        rows[x] = [(y, Fraction(w, total) if exact else w / total)
                   for y, w in zip(rand.sample(ends, width), weights)]
    kernel = MarkovKernel.finite(rows)
    assert kernel.is_exact == exact
    tables = _RowTables(kernel, 0)
    ids = [tables._intern(x) for x in range(len(widths))]
    tables._grow(len(ids), 1)   # room for walks to stand at states 0-8 from the start
    # narrow rows first, then wider ones: the tables grow and pad the rows
    # already filled, while the walks of earlier steps go on
    cur = []
    for stage, table_width in ((4, 4), (6, 8), (9, 32)):
        u = [rand.random() for _ in cur]
        for i in ids[:stage]:
            probes = _probe_points(_cumulative(kernel.row(tables.states[i]))[1])
            cur, u = cur + [i] * len(probes), u + probes
        after = tables.step(np.array(cur, np.intp), np.array(u)).tolist()
        for i, v, j in zip(cur, u, after):
            targets, cum = _cumulative(kernel.row(tables.states[i]))
            assert tables.states[j] == targets[bisect_right(cum, v)], (tables.states[i], v)
        assert tables.cum.shape[1] == tables.nxt.shape[1] == table_width
        cur = after


def test_sample_next_takes_one_uniform_per_step():
    kern = kernel_from_network(cycle_network(6))
    gen, ref = RngStream(4).generator(), RngStream(4).generator()
    x = 0
    for _ in range(200):
        y = kern.sample_next(x, gen)
        assert y == _scan_step(kern.row(x), ref.random())
        x = y
    assert gen.random() == ref.random()


def test_harmonic_defect_dirichlet():
    # harmonic interpolation on a path: f(k) = k/4 solves the Dirichlet
    # problem with boundary values 0 and 1
    net = path_network(5)
    kern = kernel_from_network(net)
    f = {k: Fraction(k, 4) for k in range(5)}
    assert harmonic_defect(kern, f, nodes=[1, 2, 3]) == 0
    assert harmonic_defect(kern, f) > 0   # boundary rows are not harmonic


def test_hitting_distribution_gambler():
    kern = kernel_from_network(path_network(5))
    dist = hitting_distribution(kern, [0, 4], 2)
    assert dist == {0: Fraction(1, 2), 4: Fraction(1, 2)}
    dist1 = hitting_distribution(kern, [0, 4], 1)
    assert dist1 == {0: Fraction(3, 4), 4: Fraction(1, 4)}
    assert hitting_distribution(kern, [0, 4], 0) == {0: 1, 4: 0}


def test_hitting_matrix_rows_harmonic():
    rng = random.Random(31)
    net = random_network(rng, 9)
    kern = kernel_from_network(net)
    absorbing = [0, 3]
    alpha = hitting_matrix(kern, absorbing)
    for x in kern.nodes:
        assert sum(alpha[x].values()) == 1
    # alpha(., y) is harmonic off the absorbing set
    for y in absorbing:
        f = {x: alpha[x][y] for x in kern.nodes}
        interior = [x for x in kern.nodes if x not in absorbing]
        assert harmonic_defect(kern, f, nodes=interior) == 0


def test_hitting_unreachable_substochastic():
    # two components: from the second, the absorbing node is unreachable
    net = FiniteNetwork([0, 1, 2, 3], [(0, 1, 1), (2, 3, 1)])
    kern = kernel_from_network(net)
    alpha = hitting_matrix(kern, [0])
    assert alpha[1][0] == 1
    assert alpha[2][0] == 0
    assert alpha[3][0] == 0


def test_check_stationary_network_weights():
    rng = random.Random(41)
    for _ in range(8):
        net = random_network(rng, rng.randint(2, 10))
        kern = kernel_from_network(net)
        m = {x: net.m(x) for x in net.nodes}
        assert check_stationary(kern, m) == 0
        skew = dict(m)
        skew[kern.nodes[0]] += 1
        assert check_stationary(kern, skew) > 0


def test_symmetric_kernel_construction():
    rng = random.Random(51)
    net = random_network(rng, 8, symmetric_p=True)
    kern = kernel_from_network(net)
    for x in kern.nodes:
        for y, p in kern.row(x):
            assert kern.prob(y, x) == p


def test_lazy_integer_line():
    net = integer_line_network()
    kern = kernel_from_network(net)
    assert kern.row(5) == ((4, Fraction(1, 2)), (6, Fraction(1, 2)))
    t = simulate(kern, 0, 100, RngStream(3))
    assert len(t) == 101 and all(abs(a - b) == 1 for a, b in zip(t, t[1:]))


def _augmented(rows, rhs_cols):
    """_eliminate's rows for integer rows {column: int} and integer
    right-hand sides {row: int}: right-hand side j in column n + j."""
    aug = [dict(row) for row in rows]
    for j, col in enumerate(rhs_cols):
        for i, v in col.items():
            aug[i][len(rows) + j] = v
    return aug


def _residual(rows, rhs_cols, cols):
    """Every entry of A x - b, for sparse rows, right-hand sides and columns."""
    assert len(cols) == len(rhs_cols)
    return [sum(a * x.get(c, 0) for c, a in row.items()) - b.get(i, 0)
            for b, x in zip(rhs_cols, cols) for i, row in enumerate(rows)]


def test_solve_exact_sparse_m_matrices():
    # _eliminate on 8 (S + 1) (I - P) for a random sparse substochastic P
    # with row weights S: a nonsingular M-matrix, as in an absorption solve;
    # a zero residual proves the unique solution
    rng = random.Random(61)
    for _ in range(25):
        n = rng.randint(1, 40)
        rows = []
        for i in range(n):
            out = rng.sample(range(n), min(n, rng.randint(1, 4)))
            keep = 8 - (rng.randint(1, 3) if rng.random() < 0.3 else 0)
            weights = [rng.randint(1, 9) for _ in out]
            row = {i: 8 * (sum(weights) + 1)}
            for c, w in zip(out, weights):
                row[c] = row.get(c, 0) - keep * w
            rows.append(row)
        rhs = [{i: rng.randint(-4, 4) for i in rng.sample(range(n), rng.randint(0, n))}
               for _ in range(3)]
        cols = _eliminate(_augmented(rows, rhs), len(rhs))
        assert all(type(v) is Fraction and v for col in cols for v in col.values())
        assert all(list(col) == sorted(col) for col in cols)
        assert set(_residual(rows, rhs, cols)) <= {0}


def test_solve_exact_swaps_rows_at_a_zero_pivot():
    # no row holds its diagonal entry
    rows = [{1: 2, 2: 1}, {0: 3}, {0: 3, 1: 1}]
    rhs = [{0: 7, 1: 1, 2: 5}, {0: 1}]
    cols = _eliminate(_augmented(rows, rhs), len(rhs))
    assert set(_residual(rows, rhs, cols)) == {0}
    assert cols[0][0] == Fraction(1, 3)


def test_solve_exact_singular_raises():
    with pytest.raises(ValueError, match="singular"):
        _eliminate(_augmented([{0: 1, 1: 2}, {0: 1, 1: 2}], [{0: 1, 1: 2}]), 1)
    with pytest.raises(ValueError, match="singular"):
        _eliminate(_augmented([{0: 1, 2: 1}, {1: 1}, {0: 2, 2: 2}], [{}]), 1)


def test_hitting_matrix_repeat_is_equal_and_fresh():
    kern = kernel_from_network(random_network(random.Random(71), 12))
    first = hitting_matrix(kern, [0, 5])
    again = hitting_matrix(kern, [0, 5])
    assert again == first and again is not first
    assert hitting_matrix(kernel_from_network(random_network(random.Random(71), 12)),
                          [0, 5]) == first
    # mutating a returned dict or row does not reach the next answer
    kept = {x: dict(row) for x, row in first.items()}
    first[3][0] = Fraction(99)
    del first[4]
    row = hitting_distribution(kern, [0, 5], 2)
    row[5] = Fraction(-1)
    assert hitting_matrix(kern, [0, 5]) == kept
    assert hitting_distribution(kern, [0, 5], 2) == kept[2]


def test_hitting_distribution_is_the_hitting_matrix_row_and_leaves_the_memo_alone():
    rand = random.Random(75)
    main = random_network(rand, 14)
    edges = [(u, v, a) for u in main.nodes for v, a in main.neighbors(u) if u <= v]
    # nodes 14 and 15 cannot reach the absorbing set
    edges.append((14, 15, Fraction(2)))
    exact = kernel_from_network(FiniteNetwork(range(16), edges))
    floats = kernel_from_network(FiniteNetwork(range(16), [(u, v, float(a))
                                                         for u, v, a in edges]))
    assert exact.is_exact and not floats.is_exact
    absorbing = [9, 2, 5, 13]
    for kern in (exact, floats):
        alpha = hitting_matrix(kern, absorbing)
        zero, rows = _hitting_rows(kern, absorbing)
        memo = {x: dict(row) for x, row in rows.items()}
        for x in kern.nodes:
            dist = hitting_distribution(kern, iter(absorbing), x)
            assert list(dist) == absorbing
            assert [repr(v) for v in dist.values()] == [repr(v) for v in alpha[x].values()]
            dist[absorbing[0]] = Fraction(-1)
            del dist[absorbing[1]]
        assert _hitting_rows(kern, absorbing) == (zero, memo)
        assert hitting_matrix(kern, absorbing) == alpha
        with pytest.raises(KeyError):
            hitting_distribution(kern, absorbing, 16)


def test_hitting_matrix_follows_absorbing_order():
    kern = kernel_from_network(path_network(5))
    forward = hitting_matrix(kern, [0, 4])
    backward = hitting_matrix(kern, [4, 0])
    for x in kern.nodes:
        assert list(forward[x]) == [0, 4]
        assert list(backward[x]) == [4, 0]
        assert forward[x] == backward[x]
    assert backward[1] == {4: Fraction(1, 4), 0: Fraction(3, 4)}


def _absorption_system(kern, absorbing, solvable):
    """Sparse rows of I - P on the solvable states and sparse columns P(., y)
    over the absorbing y, in the order hitting_matrix builds them."""
    idx = {x: i for i, x in enumerate(solvable)}
    rows = [{i: 1} for i in range(len(solvable))]
    rhs = [{} for _ in absorbing]
    for i, x in enumerate(solvable):
        for y, p in kern.row(x):
            if y in idx:
                rows[i][idx[y]] = rows[i].get(idx[y], 0) - p
            elif y in absorbing:
                rhs[absorbing.index(y)][i] = p
    return rows, rhs


def test_hitting_matrix_with_many_absorbing_nodes_matches_a_dense_solve():
    rng = random.Random(73)
    for n in (9, 16, 23):
        main = random_network(rng, n)
        # nodes n and n + 1 form a component that cannot reach the absorbing set
        net = FiniteNetwork(range(n + 2), [*((u, v, a) for u in main.nodes
                                             for v, a in main.neighbors(u) if u <= v),
                                           (n, n + 1, Fraction(3, 2))])
        kern = kernel_from_network(net)
        for size in (n // 2, n - 2):
            absorbing = rng.sample(range(n), size)
            alpha = hitting_matrix(kern, absorbing)
            _check_absorption(kern, absorbing, alpha)
            assert all(list(alpha[x]) == absorbing for x in net.nodes)
            assert all(type(v) is Fraction for row in alpha.values() for v in row.values())
            assert alpha[n + 1] == {y: 0 for y in absorbing}


def test_hitting_matrix_past_the_limit_returns_the_float_solve_bit_for_bit():
    n = EXACT_SOLVE_LIMIT + 15
    kern = kernel_from_network(path_network(n))
    absorbing = [n - 1, 0, n // 2]
    solvable = [x for x in range(n) if x not in absorbing]
    cols = solve_float(*_absorption_system(kern, absorbing, solvable))
    alpha = hitting_matrix(kern, absorbing)
    for i, x in enumerate(solvable):
        assert list(alpha[x]) == absorbing
        # hex tells 0.0 from -0.0 and compares every bit
        assert [v.hex() for v in alpha[x].values()] == [col[i].hex() for col in cols]
    assert sum(v == 0 for x in solvable for v in alpha[x].values()) >= len(solvable)
    assert alpha[0] == {n - 1: 0.0, 0: 1.0, n // 2: 0.0}


def test_mutating_a_hitting_matrix_leaves_the_induced_kernel_alone():
    subset = [0, 3, 4, 8, 11]

    def induced_rows(kern):
        q = induced_kernel_exact(kern, subset)
        return {x: q.row(x) for x in q.nodes}

    expected = induced_rows(kernel_from_network(random_network(random.Random(79), 14)))
    kern = kernel_from_network(random_network(random.Random(79), 14))
    alpha = hitting_matrix(kern, subset)
    for row in alpha.values():
        for y in row:
            row[y] = Fraction(7)
    del alpha[subset[0]]
    assert induced_rows(kern) == expected


def test_hitting_memo_lives_with_its_kernel():
    kern = kernel_from_network(cycle_network(9))
    hitting_matrix(kern, [0, 4])
    ref = weakref.ref(kern)
    del kern
    gc.collect()
    assert ref() is None


def test_occupation_matches_stationary_chisquare():
    # long run on a small reversible chain, occupation vs m-normalised law
    net = FiniteNetwork([0, 1, 2], [(0, 1, 2), (1, 2, 1), (0, 2, 1)])
    kern = kernel_from_network(net)
    m = {x: net.m(x) for x in net.nodes}
    total = sum(m.values())
    counts = Counter(simulate(kern, 0, 30000, RngStream(17)))
    probs = [float(m[x] / total) for x in kern.nodes]
    res = chisquare_expected([counts.get(x, 0) for x in kern.nodes], probs)
    assert res.p_value > 0.01


def test_finite_kernel_row_validation():
    with pytest.raises(ValueError):
        MarkovKernel.finite({0: [(0, Fraction(1, 2))]})
    with pytest.raises(ValueError):
        MarkovKernel.finite({0: [(0, Fraction(3, 2)), (1, Fraction(-1, 2))],
                             1: [(1, Fraction(1))]})


@pytest.mark.parametrize("rows, message", [
    ({0: [(0, Fraction(1, 2)), (1, 1)], 1: [(1, 1)]}, "row of 0 sums to 3/2, not 1"),
    ({0: [], 1: [(1, 1)]}, "row of 0 sums to 0, not 1"),
    ({0: [(0, 2), (1, Fraction(-1))], 1: [(1, 1)]}, "negative probability in row of 0"),
    ({"a": [("a", 0.5), ("b", 0.5 + 1e-9)], "b": [("b", 1.0)]},
     f"row of 'a' sums to {0.5 + (0.5 + 1e-9)}, not 1"),
    ({0: [(0, float("nan")), (1, 0.5)], 1: [(1, 1.0)]}, "row of 0 sums to nan, not 1"),
])
def test_finite_kernel_row_refusals_keep_their_texts(rows, message):
    with pytest.raises(ValueError) as err:
        MarkovKernel.finite(rows)
    assert str(err.value) == message


def test_finite_kernel_accepts_a_mixed_int_and_fraction_row():
    kernel = MarkovKernel.finite({0: [(2, Fraction(3, 4)), (1, 0), (0, Fraction(1, 4))],
                                  1: [(1, 1)], 2: [(2, 1)]})
    assert kernel.is_exact
    assert kernel.row(0) == ((0, Fraction(1, 4)), (1, 0), (2, Fraction(3, 4)))


def test_lazy_exact_kernel_refuses_a_float_row():
    kernel = kernel_from_network(LazyNetwork(lambda n: [(n - 1, 0.25), (n + 1, 0.75)]))
    assert kernel.is_exact
    with pytest.raises(ValueError, match=r"^inexact probability in exact row of 0$"):
        kernel.row(0)


def test_network_rows_follow_encode_order_not_insertion_order():
    # adjacency of 10 is {9, 2} in insertion order; b"10" < b"2" < b"9"
    net = FiniteNetwork([10, 9, 2], [(10, 9, 1), (10, 2, 2), (9, 2, 3)])
    kernel = kernel_from_network(net)
    assert list(kernel._cache) == [10, 9, 2]    # sorted once, in finite: row() sorts nothing
    assert [y for y, _ in kernel.row(10)] == [2, 9]
    assert [y for y, _ in kernel.row(9)] == [10, 2]
    assert kernel.row(2) == ((10, Fraction(2, 5)), (9, Fraction(3, 5)))
    for x in kernel.nodes:
        assert kernel.row(x) is kernel.row(x)
        assert kernel.row(x) == tuple((y, a / net.m(x)) for y, a in net.neighbors(x))


# -- exact chains in integers ---------------------------------------------------------

def _division_reference(net):
    """kernel_from_network's answer by the a/m(x) division, as (nodes, rows):
    rows sorted by encode_node."""
    rows = {x: tuple(sorted(((y, a / net.m(x)) for y, a in net._adj[x].items()),
                            key=lambda t: repr(t[0]).encode()))
            for x in net.nodes}
    return list(net.nodes), rows


def _check_absorption(kern, absorbing, alpha):
    """Assert that alpha solves the absorption equations exactly: a point
    mass on absorbing x, zeros where the absorbing set is out of reach
    (found by sweeping the positive entries until nothing new reaches it),
    and alpha(x, .) = sum_z p(x, z) alpha(z, .) on every other x.  That
    solution is unique, so alpha is the hitting matrix."""
    reach, grew = set(absorbing), True
    while grew:
        grew = False
        for x in kern.nodes:
            if x not in reach and any(p > 0 and y in reach for y, p in kern.row(x)):
                reach.add(x)
                grew = True
    assert set(alpha) == set(kern.nodes)
    for x in kern.nodes:
        if x in absorbing:
            assert alpha[x] == {y: int(x == y) for y in absorbing}
        elif x not in reach:
            assert alpha[x] == {y: 0 for y in absorbing}
        else:
            assert alpha[x] == {y: sum(p * alpha[z][y] for z, p in kern.row(x))
                                for y in absorbing}


def _string_network():
    edges = [[0, 1, "2/3"], [1, 2, "5/7"], [2, 3, "1/6"], [3, 0, "9/4"], [1, 3, "3/10"],
             [3, 4, "11/12"], [4, 5, "7/9"], [5, 2, "1"]]
    return network_from_json({"nodes": list(range(6)), "edges": edges})


def _self_loop_network():
    # symmetric_p adds a self-loop at every node, of conductance 0 at the
    # heaviest node
    return random_network(random.Random(87), 11, symmetric_p=True)


def _zero_edge_network():
    return FiniteNetwork(range(6), [(0, 1, 2), (1, 2, Fraction(1, 3)), (2, 3, 0), (3, 4, 5),
                                    (4, 5, Fraction(2, 7)), (1, 4, 1), (2, 5, 0), (5, 0, 3)])


def _two_component_network():
    # nodes 9, 10 and 11 cannot reach the absorbing sets, which lie in 0..8:
    # the edge from 11 to 0 has conductance 0
    main = random_network(random.Random(89), 9)
    return FiniteNetwork(range(12), [*((u, v, a) for u in main.nodes
                                       for v, a in main.neighbors(u) if u <= v),
                                     (9, 10, Fraction(3, 2)), (10, 11, 4), (11, 11, 1),
                                     (11, 0, 0)])


def _mixed_lazy_kernel():
    """An exact kernel on 0..9 whose rows are made on demand, with int and
    Fraction entries: 0 and 9 stay put, 6 moves to 7 with probability 1,
    3 has an int 0 entry."""
    def row(x):
        if x in (0, 9):
            return [(x, 1)]
        if x == 6:
            return [(7, 1)]
        if x == 3:
            return [(2, Fraction(1, 2)), (4, Fraction(1, 2)), (8, 0)]
        return [(x - 1, Fraction(1, 3)), (x, Fraction(1, 6)), (x + 1, Fraction(1, 2))]

    return MarkovKernel(row, nodes=range(10))


@pytest.mark.parametrize("kernel, absorbing", [
    (lambda: kernel_from_network(_string_network()), [0, 4]),
    (lambda: kernel_from_network(_string_network()), [5, 2, 1]),
    (lambda: kernel_from_network(_self_loop_network()), [3, 7]),
    (lambda: kernel_from_network(_self_loop_network()), [10, 0, 5, 1]),
    (lambda: kernel_from_network(_zero_edge_network()), [3, 0]),
    (lambda: kernel_from_network(_zero_edge_network()), [2]),
    (lambda: kernel_from_network(_two_component_network()), [0, 4, 8]),
    (lambda: kernel_from_network(_two_component_network()), [6]),
    (_mixed_lazy_kernel, [0, 9]),
    (_mixed_lazy_kernel, [5, 0]),
], ids=["strings", "strings-3", "self-loops", "self-loops-4", "zero-edges",
        "zero-edges-1", "unreachable", "unreachable-1", "mixed-lazy", "mixed-lazy-mid"])
def test_integer_hitting_rows_equal_a_dense_solve(kernel, absorbing):
    kern = kernel()
    assert kern.is_exact
    alpha = hitting_matrix(kern, absorbing)
    _check_absorption(kernel(), absorbing, alpha)
    assert all(list(alpha[x]) == absorbing for x in kern.nodes)
    assert all(type(v) is Fraction for row in alpha.values() for v in row.values())


def test_unreachable_and_zero_edge_rows_are_zero():
    alpha = hitting_matrix(kernel_from_network(_two_component_network()), [0, 4, 8])
    assert [alpha[x] for x in (9, 10, 11)] == [{0: 0, 4: 0, 8: 0}] * 3
    # the edges from 2 to 3 and 5 have conductance 0: 2 steps to 1 only
    alpha = hitting_matrix(kernel_from_network(_zero_edge_network()), [2])
    assert all(alpha[x] == {2: 1} for x in (0, 1, 4, 5)) and alpha[3] == {2: 1}
    alpha = hitting_matrix(_mixed_lazy_kernel(), [5, 0])
    assert alpha[9] == {5: 0, 0: 0} and alpha[6] == alpha[8] == {5: 0, 0: 0}


@pytest.mark.parametrize("net", [
    _string_network, _self_loop_network, _zero_edge_network, _two_component_network,
    lambda: random_network(random.Random(91), 14), lambda: cycle_network(404),
    lambda: FiniteNetwork([10, 9, 2], [(10, 9, 1), (10, 2, 2), (9, 2, 3)]),
], ids=["strings", "self-loops", "zero-edges", "two-components", "random-14", "cycle-404",
        "encode-order"])
def test_exact_network_kernel_equals_the_division_reference(net):
    net = net()
    kernel = kernel_from_network(net)
    nodes, rows = _division_reference(net)
    assert list(kernel.nodes) == nodes and list(kernel._cache) == nodes
    for x in nodes:
        assert kernel.row(x) == rows[x]
        assert [type(p) for _, p in kernel.row(x)] == [type(p) for _, p in rows[x]]


@pytest.mark.parametrize("edges, node", [
    ([(0, 1, 1)], 2),
    ([(0, 1, 1), (2, 2, 0)], 2),
    ([(0, 1, 0), (1, 2, "1/2")], 0),
])
def test_a_node_with_zero_weight_keeps_its_error_text(edges, node):
    with pytest.raises(ValueError, match=rf"^node {node} has m = 0, no kernel row$"):
        kernel_from_network(FiniteNetwork(range(3), edges))


_FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                        "__truediv__")


def test_exact_hitting_assembly_does_no_fraction_arithmetic(monkeypatch):
    """kernel_from_network and the exact hitting solve read numerators and
    denominators only: with Fraction arithmetic refused they give the same
    answers, and the only Fractions made are the back substitution's one per
    nonzero solution entry, plus the shared zero and one."""
    cases = [(cycle_network(404), tuple(range(0, 404, 2))),
             (random_network(random.Random(97), 14), (2, 11, 5))]
    expected = [netwalk._solve_hitting(kernel_from_network(net), absorbing)
                for net, absorbing in cases]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the exact assembly")

    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    for name in _FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, refuse)
    with pytest.raises(AssertionError, match="Fraction arithmetic"):
        Fraction(1, 2) + Fraction(1, 3)
    kernels = [kernel_from_network(net) for net, _ in cases]
    got = []
    for kern, (_, absorbing) in zip(kernels, cases):
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        made.clear()
        got.append(netwalk._solve_hitting(kern, absorbing))
        monkeypatch.setattr(Fraction, "__new__", staticmethod(new))
        nonzero = sum(len(row) for x, row in got[-1][1].items() if x not in absorbing)
        assert len(made) == nonzero + 2
    monkeypatch.undo()
    assert got == expected
    assert got[0][1][1] == {0: Fraction(1, 2), 2: Fraction(1, 2)}

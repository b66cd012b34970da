"""End-to-end acceptance battery.

Ten checks covering the load-bearing claims of the package: exact sphere
counting, the induced-walk correspondence, quotient networks, return
times, lattice discretization, harmonic measure identities, boundary
hitting statistics, opposite-chamber search, parabolic detection from
colourings, and worker-independent CLI reports.
"""

import json
import time
from fractions import Fraction

from chamberwalk.action import (
    FiniteAction,
    FreeGroupTreeAction,
    IntegerTranslationAction,
    InvolutionTreeAction,
    quotient_law_check,
    quotient_network,
    return_time_samples,
    return_time_stats,
)
from chamberwalk.boundary import (
    CylinderMeasure,
    IsotropicKernel,
    boundary_hitting_mc,
    m_measure_checks,
    partition_defect,
    radon_nikodym_check,
    refinement_check,
    special_subgroup_detect,
)
from chamberwalk.buildings import SphericalA2, TreeBuilding
from chamberwalk.cli import _ball, generic_residue_colouring, main
from chamberwalk.discretize import (
    discretize_lattice,
    harmonic_transfer_check,
    induced_kernel_exact,
)
from chamberwalk.netwalk import (
    FiniteNetwork,
    RngStream,
    check_stationary,
    cycle_network,
    hitting_distribution,
    integer_line_network,
    kernel_from_network,
    path_network,
    reversibility_defect,
)

def _rotation(size, r):
    return FiniteAction(range(size), [tuple((i + r) % size for i in range(size))])


# 1 -- sphere cardinalities: formula vs. brute-force enumeration ---------------------


def test_tree_sphere_formula_matches_enumeration():
    t0 = time.time()
    for q in (2, 3):
        tree = TreeBuilding(q)
        measure = CylinderMeasure(tree)
        for k in range(1, 9):
            assert measure.n_lambda((k,)) == len(tree.sphere((), k))
    assert time.time() - t0 < 1.0


def test_a2_ball_sphere_formula_matches_enumeration():
    t0 = time.time()
    small = _ball(2, 3)
    larger = _ball(3, 2)
    expected_p2 = {(1, 0): 7, (0, 1): 7, (1, 1): 42}
    for ball, radius in ((small, 3), (larger, 2)):
        measure = CylinderMeasure(ball)
        partition = ball.sigma_partition(ball.origin)
        checked = 0
        for lam in sorted(partition):
            if lam == (0, 0) or max(lam) > 2:
                continue
            assert measure.n_lambda(lam) == len(partition[lam])
            checked += 1
        assert checked == 8  # every class with both coordinates <= 2
    for lam, count in expected_p2.items():
        assert len(small.sigma_partition(small.origin)[lam]) == count
    assert time.time() - t0 < 60.0


# 2 -- induced chains on fifty random reversible networks ----------------------------


def _random_network(gen, size):
    edges = {}
    for i in range(1, size):
        j = int(gen.integers(i))
        edges[(j, i)] = Fraction(int(gen.integers(1, 6)))
    for _ in range(size):
        u, v = int(gen.integers(size)), int(gen.integers(size))
        if u != v and (min(u, v), max(u, v)) not in edges:
            edges[(min(u, v), max(u, v))] = Fraction(int(gen.integers(1, 6)))
    return FiniteNetwork(range(size), [(u, v, a) for (u, v), a in sorted(edges.items())])


def _random_circulant(gen, size):
    """Unit conductances with constant degree, so the kernel is symmetric."""
    offsets = {1} | {int(s) for s in gen.integers(2, size // 2 + 1, size=2)}
    pairs = {frozenset((i, (i + s) % size)) for s in offsets for i in range(size)}
    return FiniteNetwork(range(size), [(min(p), max(p), 1) for p in sorted(
        (tuple(sorted(e)) for e in pairs))])


def test_induced_chain_correspondence_on_random_networks():
    t0 = time.time()
    rng = RngStream(20260825)
    for trial in range(50):
        gen = rng.child(trial).generator()
        size = int(gen.integers(8, 31))
        net = _random_network(gen, size)
        kernel = kernel_from_network(net)
        k = int(gen.integers(4, size))
        subset = sorted(int(x) for x in gen.choice(size, size=k, replace=False))
        induced = induced_kernel_exact(kernel, subset)
        for x in subset:  # rows sum to one exactly
            assert sum(p for _, p in induced.row(x)) == 1
        assert reversibility_defect(induced, {x: net.m(x) for x in subset}) == 0
        f = {x: Fraction(int(gen.integers(-5, 6))) for x in subset}
        report = harmonic_transfer_check(kernel, subset, f)
        assert report.restriction_defect <= Fraction(1, 10**10)
        assert report.interior_defect <= Fraction(1, 10**10)
        assert report.verdict
        inner = subset[: max(2, k // 2)]  # tower: induce twice = induce once
        towered = induced_kernel_exact(induced, inner)
        direct = induced_kernel_exact(kernel, inner)
        assert all(dict(towered.row(x)) == dict(direct.row(x)) for x in inner)
        absorbing = inner[:2]
        for start in subset:
            if start in absorbing:
                continue
            ambient_hit = hitting_distribution(kernel, absorbing, start)
            induced_hit = hitting_distribution(induced, absorbing, start)
            assert all(
                abs(ambient_hit[z] - induced_hit[z]) <= Fraction(1, 10**10)
                for z in absorbing
            )
    for trial in range(10):  # symmetric kernels stay symmetric after induction
        gen = rng.child(1000 + trial).generator()
        size = int(gen.integers(9, 25))
        net = _random_circulant(gen, size)
        kernel = kernel_from_network(net)
        subset = sorted(int(x) for x in gen.choice(size, size=5, replace=False))
        induced = induced_kernel_exact(kernel, subset)
        for x in subset:
            assert all(kernel.prob(x, y) == kernel.prob(y, x) for y in net.nodes)
            assert all(induced.prob(x, y) == induced.prob(y, x) for y in subset)
    assert time.time() - t0 < 30.0


# 3 -- quotient networks: exact structure and the projected law ----------------------


def test_quotient_structure_exact_and_projected_law():
    shipped = [
        (integer_line_network(), IntegerTranslationAction(2)),
        (integer_line_network(), IntegerTranslationAction(3)),
        (cycle_network(6), _rotation(6, 2)),
        (cycle_network(6), _rotation(6, 3)),
        (FreeGroupTreeAction(2).network(), FreeGroupTreeAction(2)),
        (InvolutionTreeAction(3).network(), InvolutionTreeAction(3)),
    ]
    for net, action in shipped:
        qnet = quotient_network(net, action)  # constructor asserts a' symmetry
        for x in qnet.network.nodes:
            assert qnet.m_prime[x] == Fraction(net.m(x)) / action.stabilizer_order(x)
        assert reversibility_defect(qnet.kernel(), qnet.m_prime) == 0
        assert check_stationary(qnet.kernel(), qnet.m_prime) == 0
    rng = RngStream(314159)
    cases = [
        (integer_line_network(), IntegerTranslationAction(2), 0, 5),
        (cycle_network(6), _rotation(6, 2), 0, 5),
        (cycle_network(6), _rotation(6, 3), 0, 4),
    ]
    for j, (net, action, start, steps) in enumerate(cases):
        qnet = quotient_network(net, action)
        report = quotient_law_check(qnet, start, steps, 100000, rng.child(j))
        assert report.chi_square.p_value > 0.01


# 4 -- return times of quotient walks ------------------------------------------------


def test_return_time_statistics():
    two = quotient_network(integer_line_network(), IntegerTranslationAction(2))
    times, unresolved = return_time_samples(two.kernel(), two.project(0), 20000,
                                            RngStream(62831).child(0))
    assert unresolved == 0 and set(times) == {2}
    six = quotient_network(cycle_network(6), _rotation(6, 3))
    stats = return_time_stats(six, 0, 100000, RngStream(62831).child(1))
    assert stats.unresolved == 0
    assert stats.exact_mean == sum(six.m_prime.values()) / six.m_prime[six.project(0)]
    assert abs(stats.mean - float(stats.exact_mean)) <= 3 * stats.std_error
    assert stats.tail_slope < 0


# 5 -- lattice discretization: exact step laws ---------------------------------------


def test_lattice_discretization_exact_laws():
    free = FreeGroupTreeAction(2)
    mu = discretize_lattice(free.network(), free, ())
    assert mu.provenance == "exact"
    assert len(mu.entries) == 4
    assert all(p == Fraction(1, 4) for _, p in mu.entries)
    assert mu.first_moment(free) == 1
    assert mu.symmetric

    line = discretize_lattice(integer_line_network(), IntegerTranslationAction(2), 0)
    assert line.provenance == "exact"
    # absorption oracle on the window [-2, 2] with {-2, 0, 2} absorbing:
    # the walk started at +-1 stays inside the window until absorption
    window = kernel_from_network(path_network(5))
    up = hitting_distribution(window, [0, 2, 4], 3)
    down = hitting_distribution(window, [0, 2, 4], 1)
    oracle = {
        2: Fraction(1, 2) * up[4],
        -2: Fraction(1, 2) * down[0],
        0: Fraction(1, 2) * up[2] + Fraction(1, 2) * down[2],
    }
    assert oracle == {0: Fraction(1, 2), 2: Fraction(1, 4), -2: Fraction(1, 4)}
    assert dict(line.entries) == oracle


# 6 -- harmonic measure identities on trees ------------------------------------------


def test_harmonic_measure_identities_exact():
    for q in (2, 3):
        tree = TreeBuilding(q)
        measure = CylinderMeasure(tree)
        for base in ((), (0, 1)):
            for k in range(1, 5):
                assert partition_defect(measure, base, (k,)) == 0
            assert refinement_check(
                measure, base, [((1,), (2,)), ((2,), (3,)), ((3,), (4,))]) == 0
        report = radon_nikodym_check(
            measure, (0,), (1, 0),
            [(2,), (2, 0), (2, 1, 0), (2, 0, 1, 0, 2), (2, 1, 0, 2, 1, 0)])
        assert report.checked == 5 and report.defect == 0 and report.verdict
        pairs = [((1,), (2,)), ((1, 0), (2, 0)), ((1, 0, 1), (2, 1))]
        for x, y in (((), (0,)), ((0,), (0, 1)), ((), (0, 1, 0))):
            report = m_measure_checks(tree, x, y, pairs)
            assert report.defect == 0 and report.verdict


# 7 -- boundary exit frequencies -----------------------------------------------------


def test_tree_exit_frequencies_uniform():
    t0 = time.time()
    kernel = IsotropicKernel(TreeBuilding(2))
    for j, level in enumerate((1, 2, 3)):
        stats = boundary_hitting_mc(kernel, (), level, 100000,
                                    RngStream(4040).child(j), workers=4)
        assert stats.unresolved == 0
        assert stats.chi.p_value > 0.01
    assert time.time() - t0 < 60.0


def test_a2_ball_exit_frequencies_uniform_with_truncation_flag():
    ball = _ball(2, 3)
    kernel = IsotropicKernel(ball)
    stats = boundary_hitting_mc(kernel, ball.origin, 2, 100000,
                                RngStream(4041), workers=4)
    assert stats.truncation_limited
    assert stats.unresolved == 0
    assert stats.chi.p_value > 0.01


# 8 -- opposite-chamber search -------------------------------------------------------


def test_opposite_chamber_search_terminates_and_validates():
    small = SphericalA2(2)
    w0 = small.weyl.longest_element()
    assert len(small.chambers) == 21
    for c1 in small.chambers:
        for c2 in small.chambers:
            found, steps = small.opposite_to_both_verbose(c1, c2)
            assert steps <= 3
            assert small.weyl_distance(found, c1) == w0
            assert small.weyl_distance(found, c2) == w0
    larger = SphericalA2(3)
    w0 = larger.weyl.longest_element()
    gen = RngStream(271828).generator()
    for _ in range(1000):
        c1 = larger.chambers[int(gen.integers(len(larger.chambers)))]
        c2 = larger.chambers[int(gen.integers(len(larger.chambers)))]
        found, steps = larger.opposite_to_both_verbose(c1, c2)
        assert steps <= 3
        assert larger.weyl_distance(found, c1) == w0
        assert larger.weyl_distance(found, c2) == w0


# 9 -- parabolic detection from residue colourings -----------------------------------


def test_detector_recovers_every_standard_parabolic():
    flags = SphericalA2(2)
    gen = RngStream(161803).generator()
    for subset in ((), (1,), (2,), (1, 2)):
        expected = set(flags.weyl.parabolic(subset))
        for _ in range(100):
            table = generic_residue_colouring(flags, subset, gen)
            # the detector asserts splitting closure of E on every call
            E, letters, verdict = special_subgroup_detect(flags, table.get)
            assert set(E) == expected
            assert letters == frozenset(subset)
            assert verdict


# 10 -- identical seeds give byte-identical reports at any worker count --------------


def test_cli_reports_independent_of_worker_count(capsys):
    outputs = []
    for workers in ("1", "4", "8"):
        code = main(["verify", "--suite", "hitting-tree", "--suite", "hitting-a2",
                     "--seed", "777", "--samples", "2000", "--workers", workers])
        out = capsys.readouterr().out
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    report = json.loads(outputs[0])
    assert report["schema"] == "chamberwalk/1"
    assert report["verdict"] is True

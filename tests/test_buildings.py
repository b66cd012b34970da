"""Tree, p-adic ball and projective-flag building models."""

import hashlib
import json
import random
from collections import deque

import pytest

from chamberwalk import buildings
from chamberwalk.buildings import (
    A2Ball,
    CylinderId,
    SphericalA2,
    TreeBuilding,
    _hnf_rows,
    ball_size,
    is_between,
    refines,
)
from chamberwalk.boundary import CylinderMeasure
from chamberwalk.cli import main
from chamberwalk.coxeter import n_lambda, uniform_thickness
from chamberwalk.errors import SizeGuardError


def _canonical_class(rows, p):
    """Canonical matrix of the homothety class: Hermite form, divided by p
    until some entry is a p-unit."""
    h = [list(r) for r in _hnf_rows(rows)]
    while all(v % p == 0 for r in h for v in r):
        h = [[v // p for v in r] for r in h]
    return tuple(tuple(r) for r in h)


@pytest.fixture(scope="module")
def ball22():
    return A2Ball(2, 2)


@pytest.fixture(scope="module")
def pg2():
    return SphericalA2(2)


@pytest.fixture(scope="module")
def pg3():
    return SphericalA2(3)


# -- trees ------------------------------------------------------------------------


def test_tree_degrees():
    t = TreeBuilding(2)
    assert len(t.neighbors(())) == 3
    for w in [(0,), (0, 1), (2, 1, 0, 2)]:
        nbrs = t.neighbors(w)
        assert len(nbrs) == 3
        assert len(set(nbrs)) == 3
        assert all(t.distance(w, n) == 1 for n in nbrs)


def test_tree_sphere_counts():
    for q in (2, 3):
        t = TreeBuilding(q)
        for k in range(1, 6):
            assert len(t.sphere((), k)) == (q + 1) * q ** (k - 1)
        # spheres around a non-root vertex have the same sizes
        assert len(t.sphere((0, 1), 3)) == (q + 1) * q ** 2


def test_tree_distance_and_geodesic():
    t = TreeBuilding(2)
    rng = random.Random(7)
    words = [()] + [tuple(rng.randrange(3) for _ in range(rng.randint(1, 6)))
                    for _ in range(30)]
    words = [w for w in words if all(a != b for a, b in zip(w, w[1:]))]
    for u in words:
        for v in words:
            d = t.distance(u, v)
            assert d == t.distance(v, u)
            path = t.geodesic(u, v)
            assert path[0] == u and path[-1] == v
            assert len(path) == d + 1
            assert all(t.distance(a, b) == 1 for a, b in zip(path, path[1:]))


def test_tree_sigma_is_graph_distance():
    t = TreeBuilding(3)
    assert t.sigma((), (1, 2, 3)) == (3,)
    assert t.v_lambda((), (2,)) == t.sphere((), 2)


def test_tree_busemann_values():
    t = TreeBuilding(2)
    end = (0, 1, 0, 1, 0, 1)
    # y one step toward the end from x
    assert t.busemann_h((0,), (0, 1), end) == (1,)
    assert t.busemann_h((0, 1), (0,), end) == (-1,)
    # moving away from the end
    assert t.busemann_h((), (1,), end) == (-1,)
    with pytest.raises(ValueError):
        t.busemann_h((0, 1, 0, 1, 0), (), end)


def test_tree_busemann_cocycle():
    t = TreeBuilding(2)
    end = (0, 1, 2, 0, 1, 2, 0, 1)
    rng = random.Random(11)
    verts = [(), (0,), (1,), (0, 1), (2, 1), (0, 1, 2), (1, 0)]
    for _ in range(40):
        x, y, z = (verts[rng.randrange(len(verts))] for _ in range(3))
        hxy = t.busemann_h(x, y, end)[0]
        hyz = t.busemann_h(y, z, end)[0]
        hxz = t.busemann_h(x, z, end)[0]
        assert hxy + hyz == hxz


def test_tree_beta_and_distance_to_line():
    t = TreeBuilding(2)
    e1 = (0, 1, 0, 1, 0, 1)
    e2 = (1, 0, 1, 0, 1, 0)
    # beta_x is twice the distance from x to the line joining the two ends:
    # the origin lies on it, and x hangs off it by two steps
    assert t.beta((), e1, e2) == (0,)
    x = (2, 0)
    assert t.beta(x, e1, e2) == (4,)
    with pytest.raises(ValueError):
        t.beta((), e1, e1 + (0,))  # same end


def test_tree_beta_basepoint_identity():
    t = TreeBuilding(2)
    e1 = (0, 1, 0, 1, 0, 1, 0, 1)
    e2 = (1, 2, 1, 2, 1, 2, 1, 2)
    rng = random.Random(13)
    verts = [(), (0,), (2,), (0, 2), (1,), (2, 1), (0, 1)]
    for _ in range(25):
        x = verts[rng.randrange(len(verts))]
        y = verts[rng.randrange(len(verts))]
        lhs = t.beta(x, e1, e2)[0] - t.beta(y, e1, e2)[0]
        rhs = t.busemann_h(x, y, e1)[0] + t.busemann_h(x, y, e2)[0]
        assert lhs == rhs


def test_tree_relabel_is_automorphism():
    t = TreeBuilding(2)
    perm = (2, 0, 1)
    words = [(), (0,), (0, 1), (2, 1, 0)]
    for u in words:
        for v in words:
            assert t.distance(t.relabel(u, perm), t.relabel(v, perm)) == t.distance(u, v)


# -- Hermite forms ------------------------------------------------------------------


def test_hnf_canonicalizes_row_span():
    rng = random.Random(17)
    for _ in range(50):
        # random unimodular-ish shuffles of a fixed lattice basis
        base = [[4, 0, 0], [2, 2, 0], [1, 1, 1]]
        rows = [list(r) for r in base]
        for _ in range(6):
            i, j = rng.randrange(3), rng.randrange(3)
            k = rng.choice([-2, -1, 1, 2])
            if i != j:
                rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        h = _hnf_rows(rows)
        assert h == _hnf_rows(base)
        assert abs(_det3(h)) == abs(_det3(tuple(tuple(r) for r in base)))
    # upper triangular, positive pivots, reduced entries
    h = _hnf_rows([[4, 0, 0], [2, 2, 0], [1, 1, 1]])
    for i in range(3):
        assert h[i][i] > 0
        for j in range(i):
            assert h[i][j] == 0
        for j in range(i + 1, 3):
            assert 0 <= h[i][j] < h[j][j]


def test_canonical_class_strips_homothety():
    m = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    assert _canonical_class(m, 2) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


# -- A2 ball ------------------------------------------------------------------------


def test_ball_vertex_counts_match_formula(ball22):
    tv = uniform_thickness(ball22.root_system, 2)
    part = ball22.sigma_partition(ball22.origin)
    for lam, verts in part.items():
        if lam == (0, 0):
            assert verts == [ball22.origin]
        else:
            assert len(verts) == n_lambda(ball22.weyl, tv, lam)
    assert len(part[(1, 0)]) == 7
    assert len(part[(1, 1)]) == 42


def test_ball_p3_neighbor_count():
    b = A2Ball(3, 1)
    part = b.sigma_partition(b.origin)
    assert len(part[(1, 0)]) == 13
    assert len(part[(0, 1)]) == 13


def test_neighbor_classes_distinct_and_symmetric(ball22):
    rng = random.Random(19)
    sample = [ball22.vertices[rng.randrange(len(ball22.vertices))] for _ in range(12)]
    for x in sample:
        nbrs = ball22.neighbor_classes(x)
        assert len(nbrs) == len(set(nbrs)) == 2 * (4 + 2 + 1)
        assert x not in nbrs
    for x in sample:
        for y in ball22.neighbors(x):
            assert x in ball22.neighbors(y)


def test_edges_join_distinct_types(ball22):
    types = dict(zip(ball22.vertices, ball22.to_json()["types"]))
    for x in ball22.vertices[:400]:
        tx = types[x]
        for y in ball22.neighbors(x):
            assert types[y] != tx
            assert (types[y] - tx) % 3 in (1, 2)


def test_sigma_involution_and_dominance(ball22):
    rs = ball22.root_system
    rng = random.Random(23)
    verts = ball22.vertices
    for _ in range(60):
        x = verts[rng.randrange(len(verts))]
        y = verts[rng.randrange(len(verts))]
        s = ball22.sigma(x, y)
        assert rs.is_dominant(s)
        assert ball22.sigma(y, x) == s[::-1]    # -w0 swaps the A2 coordinates
        assert (ball22.sigma(x, y) == (0, 0)) == (x == y)
    assert ball22.sigma(ball22.origin, ball22.origin) == (0, 0)


def test_v_lambda_base_independence(ball22):
    o = ball22.neighbors(ball22.origin)[0]
    assert len(ball22.v_lambda(o, (1, 0))) == 7
    assert len(ball22.v_lambda(o, (0, 1))) == 7
    assert len(ball22.v_lambda(o, (1, 1))) == 42
    with pytest.raises(ValueError):
        ball22.v_lambda(o, (2, 2))  # sphere may leave the ball


def test_ball_size_guards():
    with pytest.raises(SizeGuardError):
        A2Ball(2, 5)
    # a radius below 1 is a bad request, not a size the guard refuses
    for radius in (0, -2):
        with pytest.raises(ValueError, match="radius must be at least 1"):
            A2Ball(2, radius)
    with pytest.raises(SizeGuardError):
        A2Ball(2, 2, max_vertices=100)


def test_chambers_at_origin(ball22):
    chambers = ball22.chambers_at(ball22.origin)
    assert len(chambers) == 21
    for u, v in chambers:
        assert ball22.sigma(ball22.origin, u) == (1, 0)
        assert ball22.sigma(ball22.origin, v) == (0, 1)
        assert ball22.sigma(u, v) in ((1, 0), (0, 1))


# -- A2 ball against the general lattice routes --------------------------------------


def _matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
                 for i in range(3))


def _general_neighbors(x, p):
    """Index-p sublattices s x, then pL + Zw for each projective point v and
    w = v x, each canonicalized through the full Hermite-form route."""
    subs = ([((p, 0, 0), (0, 1, 0), (0, 0, 1))]
            + [((1, a, 0), (0, p, 0), (0, 0, 1)) for a in range(p)]
            + [((1, 0, b), (0, 1, c), (0, 0, p)) for b in range(p) for c in range(p)])
    points = ([(1, a, b) for a in range(p) for b in range(p)]
              + [(0, 1, c) for c in range(p)] + [(0, 0, 1)])
    out = [_canonical_class(_matmul(s, x), p) for s in subs]
    for v in points:
        w = [sum(v[i] * x[i][j] for i in range(3)) for j in range(3)]
        out.append(_canonical_class([[p * e for e in r] for r in x] + [w], p))
    return out


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _all_minors_sigma(c, p):
    """Dominant coweight of any nonsingular 3x3 integer matrix from the
    valuations of all its entries, all nine 2x2 minors and its determinant."""
    pairs = ((0, 1), (0, 2), (1, 2))
    minors = [c[r0][c0] * c[r1][c1] - c[r0][c1] * c[r1][c0]
              for r0, r1 in pairs for c0, c1 in pairs]
    g1 = min(_vp(v, p) for r in c for v in r if v)
    g2 = min(_vp(m, p) for m in minors if m)
    g3 = _vp(_det3(c), p)
    return (g3 - 2 * g2 + g1, g2 - 2 * g1)


def _adjugate(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return ((e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d))


def _det3(m):
    """Row 0 of m times column 0 of its adjugate."""
    return sum(m[0][k] * _adjugate(m)[k][0] for k in range(3))


def _scramble(rows, rng):
    """A basis of the same lattice: random unimodular row operations."""
    rows = [list(r) for r in rows]
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        k = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    return tuple(tuple(r) for r in rows)


@pytest.mark.parametrize("p,radius", [(2, 2), (3, 1)])
def test_neighbor_classes_match_general_route(p, radius, ball22):
    ball = ball22 if (p, radius) == (2, 2) else A2Ball(p, radius)
    for x in ball.vertices:
        assert ball.neighbor_classes(x) == _general_neighbors(x, p)


@pytest.mark.parametrize("p,radius", [(2, 2), (3, 1), (5, 1)])
def test_sigma_from_origin_matches_all_minors(p, radius, ball22):
    ball = ball22 if (p, radius) == (2, 2) else A2Ball(p, radius)
    for y in ball.vertices:
        assert ball._sigma_from_origin(y) == _all_minors_sigma(y, p)


def test_sigma_matches_all_minors_of_y_adj_x(ball22):
    rng = random.Random(41)
    verts = ball22.vertices
    for _ in range(300):
        x, y = verts[rng.randrange(len(verts))], verts[rng.randrange(len(verts))]
        assert ball22.sigma(x, y) == _all_minors_sigma(_matmul(y, _adjugate(x)), 2)


def test_sigma_of_scrambled_basis_equals_hermite_form(ball22):
    rng = random.Random(43)
    verts = ball22.vertices
    for _ in range(100):
        x, y = verts[rng.randrange(len(verts))], verts[rng.randrange(len(verts))]
        xs, ys = _scramble(x, rng), _scramble(y, rng)
        assert _hnf_rows(ys) == y
        assert ball22.sigma(x, ys) == ball22.sigma(xs, y) == ball22.sigma(x, y)
        assert ball22.sigma(ball22.origin, ys) == ball22.sigma(ball22.origin, y)


def test_sigma_refuses_a_singular_basis():
    # 0 has no p-adic valuation; the division loop must not run on it
    with pytest.raises(ValueError, match="singular basis"):
        buildings._vp(0, 2)
    assert buildings._vp(12, 2) == 2 and buildings._vp(-27, 3) == 3
    ball = A2Ball(2, 1)
    with pytest.raises(ValueError, match="singular basis"):
        ball.sigma(ball.origin, ((1, 0, 0), (0, 0, 0), (0, 0, 1)))


# sha256 of json.dumps(to_json(), sort_keys=True), the bytes of ball.json
BALL_JSON_SHA256 = {
    (2, 1): "ed2136aefb7b33525e001084a187ac1ea107cd25165c762d5207be1bd621edc9",
    (2, 2): "7856157544b5d4013bf52737e29482e07dd9ce5bd7d417d6c01e7b0ce75875f5",
    (3, 1): "43385834e0e03603e822b5264e5a26ba46a146377de8b89ecfc1cb8a61213076",
}


@pytest.mark.parametrize("p,radius", sorted(BALL_JSON_SHA256))
def test_ball_json_is_pinned(p, radius, ball22):
    ball = ball22 if (p, radius) == (2, 2) else A2Ball(p, radius)
    text = json.dumps(ball.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BALL_JSON_SHA256[(p, radius)]


# -- the shell build against the breadth-first build it replaced ---------------------


def _bfs_ball(ball):
    """The breadth-first build A2Ball used before its shell build: vertices,
    adjacency in move order, and the sigma partition around the origin, each
    from the per-vertex neighbor_classes and _sigma_from_origin."""
    origin, radius = ball.origin, ball.radius
    verts = {origin}
    adj = {}
    queue = deque([origin])
    while queue:
        x = queue.popleft()
        kept = []
        for y in ball.neighbor_classes(x):
            if y in verts:
                kept.append(y)
                continue
            if max(ball._sigma_from_origin(y)) <= radius:
                verts.add(y)
                queue.append(y)
                kept.append(y)
        adj[x] = tuple(kept)
    vertices = tuple(sorted(verts))
    part = {}
    for y in vertices:
        part.setdefault(ball._sigma_from_origin(y), []).append(y)
    index = {v: i for i, v in enumerate(vertices)}
    doc = {
        "family": "a2ball",
        "p": ball.p,
        "radius": radius,
        "vertices": [[list(r) for r in v] for v in vertices],
        "types": [_vp(_det3(v), ball.p) % 3 for v in vertices],
        "edges": sorted([index[x], index[y]] for x in vertices for y in adj[x] if x < y),
    }
    return vertices, adj, part, doc


@pytest.mark.parametrize("p,radius", [(2, 1), (2, 2), (3, 1), (5, 1)])
def test_shell_build_equals_the_breadth_first_build(p, radius, ball22):
    ball = ball22 if (p, radius) == (2, 2) else A2Ball(p, radius)
    vertices, adj, part, doc = _bfs_ball(ball)
    assert ball.vertices == vertices
    for x in vertices:
        assert ball.neighbors(x) == adj[x]
    assert list(ball.sigma_partition(ball.origin).items()) == list(part.items())
    assert ball.to_json() == doc


def test_build_sigma_equals_all_minors(ball22):
    part = ball22.sigma_partition(ball22.origin)
    assert sum(len(v) for v in part.values()) == len(ball22.vertices)
    for lam, verts in part.items():
        for y in verts:
            assert _all_minors_sigma(y, 2) == lam


def test_neighbors_are_the_stored_vertex_objects(ball22):
    stored = {id(v) for v in ball22.vertices}
    by_value = {v: v for v in ball22.vertices}
    for x in ball22.vertices:
        assert all(id(y) in stored for y in ball22.neighbors(x))
        assert all(y is by_value[y] for y in ball22.neighbors(x))


# -- the stored arrays against the eager views they replaced --------------------------


def _reference_json(ball):
    """to_json as it was computed before the ball was kept as arrays: an
    index dict over the vertex tuples, and every neighbour tuple looked up
    in it."""
    verts = ball.vertices
    index = {v: i for i, v in enumerate(verts)}
    edges = sorted([index[x], index[y]] for x in verts for y in ball.neighbors(x)
                   if index[x] < index[y])
    return {
        "family": "a2ball",
        "p": ball.p,
        "radius": ball.radius,
        "vertices": [[list(r) for r in v] for v in verts],
        "types": [_vp(_det3(v), ball.p) % 3 for v in verts],
        "edges": edges,
    }


@pytest.mark.parametrize("p,radius", [(2, 1), (2, 2), (3, 1), (5, 1)])
def test_to_json_equals_the_index_dict_reference(p, radius):
    # a fresh ball: to_json must not lean on views an earlier call built
    ball = A2Ball(p, radius)
    doc = ball.to_json()
    assert "vertices" not in ball.__dict__
    assert doc == _reference_json(ball)


@pytest.mark.parametrize("p,radius", [(2, 2), (3, 1)])
def test_neighbors_built_on_demand_equal_the_eager_adjacency(p, radius):
    ball = A2Ball(p, radius)
    _, eager, _, _ = _bfs_ball(ball)
    by_value = {v: v for v in ball.vertices}
    for x in ball.vertices:
        row = ball.neighbors(x)
        assert row == eager[x]
        assert all(y is by_value[y] for y in row)
        assert ball.neighbors(x) is row      # kept in the memo


def test_step_sphere_refuses_rim_vertices(ball22):
    full = 7
    rim = [x for x in ball22.vertices if len(ball22.neighbors(x)) < 2 * full]
    assert rim
    refused = 0
    for x in rim:
        for lam in ((1, 0), (0, 1)):
            moves = ball22.neighbor_classes(x)
            half = moves[:full] if lam == (1, 0) else moves[full:]
            if all(y in ball22.neighbors(x) for y in half):
                assert list(ball22.step_sphere(x, lam)) == half
            else:
                with pytest.raises(ValueError, match=rf"lambda-sphere \({lam[0]}, "
                                                     rf"{lam[1]}\) truncated at"):
                    ball22.step_sphere(x, lam)
                refused += 1
    assert refused


@pytest.mark.parametrize("outside", [((64, 0, 0), (0, 8, 0), (0, 0, 1)),
                                     ((1, 0, 0), (0, 1, 0), (0, 0, 2 ** 9)), 0, "vertex"])
def test_a_vertex_outside_the_ball_raises_key_error(outside, ball22):
    with pytest.raises(KeyError):
        ball22.neighbors(outside)
    with pytest.raises(KeyError):
        ball22.step_sphere(outside, (1, 0))


@pytest.mark.parametrize("p,radius", [(2, 1), (2, 2), (3, 1), (5, 1), (2, 3)])
def test_class_sizes_count_the_origin_partition(p, radius, ball22):
    ball = ball22 if (p, radius) == (2, 2) else A2Ball(p, radius)
    part = ball.sigma_partition(ball.origin)
    assert list(ball.class_sizes.items()) == [(lam, len(v)) for lam, v in sorted(part.items())]
    assert ball.size == len(ball.vertices) == sum(ball.class_sizes.values())


@pytest.mark.parametrize("p,radius", [(2, 1), (2, 2), (3, 1), (5, 1), (2, 3), (3, 2)])
def test_ball_size_closed_form(p, radius, ball22):
    ball = ball22 if (p, radius) == (2, 2) else A2Ball(p, radius)
    measure = CylinderMeasure(ball)
    box = [(a, b) for a in range(radius + 1) for b in range(radius + 1) if (a, b) != (0, 0)]
    assert ball_size(p, radius) == len(ball.vertices)
    assert ball_size(p, radius) == 1 + sum(measure.n_lambda(lam) for lam in box)


def _refuse_build(self):
    raise AssertionError("the build ran past a size guard")


def test_size_guard_counts_before_building(monkeypatch):
    monkeypatch.setattr(A2Ball, "_build", _refuse_build)
    with pytest.raises(SizeGuardError, match="ball exceeds 56 vertices"):
        A2Ball(2, 1, max_vertices=56)
    with pytest.raises(AssertionError, match="past a size guard"):
        A2Ball(2, 1, max_vertices=57)
    with pytest.raises(SizeGuardError, match="ball exceeds 300000 vertices"):
        A2Ball(1009, 1)


def test_int64_bound_refusal_through_max_vertices(monkeypatch):
    monkeypatch.setattr(A2Ball, "_build", _refuse_build)
    # p = 19 is the largest prime whose radius-1 ball fits MAX_VERTICES
    with pytest.raises(AssertionError, match="past a size guard"):
        A2Ball(19, 1)
    with pytest.raises(AssertionError, match="past a size guard"):
        A2Ball(3, 2)
    assert ball_size(1009, 1) < 10 ** 13
    with pytest.raises(SizeGuardError, match="exceed int64"):
        A2Ball(1009, 1, max_vertices=10 ** 13)
    # entries fit int64, but 104,915,721 vertices x 26 moves overflow int32
    with pytest.raises(SizeGuardError, match="exceeds int32"):
        A2Ball(3, 4, max_vertices=10 ** 9)


def test_refused_ball_exits_3_before_building(monkeypatch, capsys):
    monkeypatch.setattr(A2Ball, "_build", _refuse_build)
    assert main(["ball", "--p", "1009", "--radius", "1"]) == 3
    assert capsys.readouterr().err == "size guard: ball exceeds 300000 vertices\n"


# sha256 of the files `ball --out` writes, as before the shell build
BALL_OUT_SHA256 = {
    (2, 2): {"ball.json": "eac4076f53b387627ee8fd8654afe7b1b9853853e8e8660e495062299a58d751",
             "report.json": "d9c1cd2ed3d7b88ddb216c1b04488f8c472f6493c6a8f2dc17a399b2434a540b"},
    (3, 1): {"ball.json": "22cac8963ce1d6640098f4270c84c09f4e265ae2e29c9f868d3e88539fec1b77",
             "report.json": "76b4017cf90bedd1094443d4664642dd9e035e430a45fc8084cc2cb404427bb8"},
}


@pytest.mark.parametrize("p,radius", sorted(BALL_OUT_SHA256))
def test_ball_out_files_are_pinned(p, radius, tmp_path, capsys):
    assert main(["ball", "--p", str(p), "--radius", str(radius), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name, digest in BALL_OUT_SHA256[(p, radius)].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def _diag_class(p, a, b, c):
    return _canonical_class(((p ** a, 0, 0), (0, p ** b, 0), (0, 0, p ** c)), p)


def test_first_chamber_unique_and_consistent(ball22):
    o = ball22.origin
    z = _diag_class(2, 2, 1, 0)
    u, v = ball22.first_chamber(o, z)
    assert ball22.sigma(o, u) == (1, 0)
    assert ball22.sigma(o, v) == (0, 1)
    assert is_between(ball22, o, u, z) and is_between(ball22, o, v, z)
    with pytest.raises(ValueError):
        ball22.first_chamber(o, ball22.neighbors(o)[0])  # not regular


def test_link_opposition_straight_apartment(ball22):
    o = ball22.origin
    z = _diag_class(2, 2, 1, 0)
    zp = _diag_class(2, 0, 1, 2)
    assert ball22.link_opposition_check(o, z, zp)
    # same germ twice: shared first chamber, never opposite
    deeper = _diag_class(2, 4, 2, 0)
    assert not ball22.link_opposition_check(o, z, deeper)


def test_link_opposition_matches_betweenness(ball22):
    o = ball22.origin
    regular = ball22.sigma_partition(o)[(1, 1)]
    rng = random.Random(29)
    agree = 0
    for _ in range(120):
        z = regular[rng.randrange(len(regular))]
        zp = regular[rng.randrange(len(regular))]
        verdict = ball22.link_opposition_check(o, z, zp)
        oracle = is_between(ball22, z, o, zp)
        assert verdict == oracle
        agree += verdict
    assert 0 < agree < 120  # both outcomes exercised


# -- link queries against the enumeration route ---------------------------------------


def _oracle_chambers_at(ball, o):
    """Flags at o by enumeration: every neighbour's sigma from o, then the
    generic sigma between each pair of types."""
    nbrs = ball.neighbor_classes(o)
    us = [u for u in nbrs if ball.sigma(o, u) == (1, 0)]
    vs = [v for v in nbrs if ball.sigma(o, v) == (0, 1)]
    return [(u, v) for u in us for v in vs if ball.sigma(u, v) in ((1, 0), (0, 1))]


def _oracle_first_chamber(ball, o, z):
    """The neighbours of each type on a sigma-geodesic from o to z, by
    is_between over every neighbour."""
    m = ball.sigma(o, z)
    if m[0] < 1 or m[1] < 1:
        raise ValueError(f"sector target must be regular, got sigma={m}")
    nbrs = ball.neighbor_classes(o)
    us = [u for u in nbrs if ball.sigma(o, u) == (1, 0) and is_between(ball, o, u, z)]
    vs = [v for v in nbrs if ball.sigma(o, v) == (0, 1) and is_between(ball, o, v, z)]
    assert len(us) == 1 and len(vs) == 1
    return us[0], vs[0]


def _oracle_opposite(ball, c1, c2):
    (u1, v1), (u2, v2) = c1, c2
    return (ball.sigma(u1, v2) not in ((1, 0), (0, 1))
            and ball.sigma(u2, v1) not in ((1, 0), (0, 1)))


def _link_ball(p, radius, ball22):
    return ball22 if (p, radius) == (2, 2) else A2Ball(p, radius)


@pytest.mark.parametrize("p,radius", [(2, 2), (3, 1)])
def test_move_type_sigma_at_every_vertex(p, radius, ball22):
    ball = _link_ball(p, radius, ball22)
    half = p * p + p + 1
    for x in ball.vertices:
        assert [ball.sigma(x, u) for u in ball.neighbor_classes(x)] == (
            [(1, 0)] * half + [(0, 1)] * half)


@pytest.mark.parametrize("p,radius,flags", [(2, 2, 21), (3, 1, 52)])
def test_chambers_at_equals_enumeration_at_every_vertex(p, radius, flags, ball22):
    ball = _link_ball(p, radius, ball22)
    for o in ball.vertices:
        chambers = ball.chambers_at(o)
        assert len(chambers) == flags
        assert chambers == _oracle_chambers_at(ball, o)


@pytest.mark.parametrize("p,radius", [(2, 2), (3, 1)])
def test_first_chamber_and_opposition_equal_enumeration(p, radius, ball22):
    ball = _link_ball(p, radius, ball22)
    rng = random.Random(14)
    regular = refused = 0
    for o in rng.sample(ball.vertices, 20):
        targets = rng.sample(ball.vertices, 15)
        answers = []
        for z in targets:
            try:
                want = _oracle_first_chamber(ball, o, z)
            except ValueError:
                with pytest.raises(ValueError, match="sector target must be regular"):
                    ball.first_chamber(o, z)
                refused += 1
                continue
            assert ball.first_chamber(o, z) == want
            answers.append((z, want))
            regular += 1
        for (z, c1), (zp, c2) in zip(answers, answers[1:]):
            assert ball.link_opposition_check(o, z, zp) == _oracle_opposite(ball, c1, c2)
    assert regular and refused   # both outcomes exercised


def test_ball_network_export(ball22):
    doc = ball22.to_json()
    assert doc["family"] == "a2ball" and len(doc["vertices"]) == len(ball22.vertices)
    assert all(t in (0, 1, 2) for t in doc["types"])


def test_cylinder_refinement(ball22):
    o = ball22.origin
    part = ball22.sigma_partition(o)
    y = part[(1, 0)][0]
    finer = [yp for yp in part[(2, 0)] if is_between(ball22, o, y, yp)]
    assert finer
    for yp in finer:
        assert refines(ball22, CylinderId(o, yp), CylinderId(o, y))
    assert refines(ball22, CylinderId(o, y), CylinderId(o, y))
    with pytest.raises(ValueError):
        refines(ball22, CylinderId(o, y), CylinderId(y, o))


# -- spherical A2 ---------------------------------------------------------------------


def test_projective_plane_counts(pg2, pg3):
    assert len(pg2.points) == 7 and len(pg2.lines) == 7
    assert len(pg2.chambers) == 21
    assert len(pg3.points) == 13 and len(pg3.chambers) == 52


def test_panel_thickness(pg2, pg3):
    for s in (pg2, pg3):
        for c in s.chambers:
            assert len(s.residue(c, {1})) == s.q + 1
            assert len(s.residue(c, {2})) == s.q + 1
            assert c in s.residue(c, {1})
        assert s.residue(s.chambers[0], set()) == [s.chambers[0]]


def test_weyl_distance_cases(pg2):
    s = pg2
    c = s.chambers[0]
    assert s.weyl_distance(c, c) == s.weyl.identity
    same_line = [d for d in s.residue(c, {1}) if d != c]
    assert all(s.weyl_distance(c, d) == s.weyl.from_word((1,)) for d in same_line)
    same_point = [d for d in s.residue(c, {2}) if d != c]
    assert all(s.weyl_distance(c, d) == s.weyl.from_word((2,)) for d in same_point)
    # delta(c', c) is the inverse of delta(c, c')
    for d in s.chambers:
        assert s.weyl.mult(s.weyl_distance(d, c), s.weyl_distance(c, d)) == s.weyl.identity


def test_weyl_distance_gallery_consistency(pg2):
    s = pg2
    rng = random.Random(31)
    for _ in range(40):
        c = s.chambers[rng.randrange(21)]
        d = s.chambers[rng.randrange(21)]
        w = s.weyl_distance(c, d)
        if w.length != 2:
            continue
        i, j = w.word
        mids = [m for m in s.chambers
                if s.weyl_distance(c, m) == s.weyl.from_word((i,))
                and s.weyl_distance(m, d) == s.weyl.from_word((j,))]
        assert len(mids) == 1


def test_distance_partition_sizes(pg2):
    s = pg2
    c = s.chambers[0]
    by_len = {}
    for d in s.chambers:
        by_len.setdefault(s.weyl_distance(c, d).length, []).append(d)
    # Poincare series of A2 at q=2: 1, 2q, 2q^2, q^3
    assert [len(by_len[k]) for k in range(4)] == [1, 4, 8, 8]


def test_projection_gate_property(pg2):
    s = pg2
    for c in s.chambers:
        for j in ({1}, {2}):
            r = s.residue(s.chambers[7], j)
            gate = s.proj_residue(r, c)
            wg = s.weyl_distance(c, gate)
            for d in r:
                assert s.weyl_distance(c, d) == s.weyl.mult(wg, s.weyl_distance(gate, d))
                if d != gate:
                    assert s.weyl_distance(c, d).length == wg.length + 1


def test_opposite_to_both_exhaustive_pg2(pg2):
    s = pg2
    w0 = s.weyl.longest_element()
    for c1 in s.chambers:
        for c2 in s.chambers:
            d, steps = s.opposite_to_both_verbose(c1, c2)
            assert s.weyl_distance(d, c1) == w0
            assert s.weyl_distance(d, c2) == w0
            assert steps <= 3


def test_opposite_to_both_random_pg3(pg3):
    s = pg3
    w0 = s.weyl.longest_element()
    rng = random.Random(37)
    for _ in range(60):
        c1 = s.chambers[rng.randrange(len(s.chambers))]
        c2 = s.chambers[rng.randrange(len(s.chambers))]
        d, steps = s.opposite_to_both_verbose(c1, c2)
        assert s.weyl_distance(d, c1) == w0 and s.weyl_distance(d, c2) == w0
        assert steps <= 3
        # brute force: such chambers exist and the output is among them
        brute = [e for e in s.chambers
                 if s.weyl_distance(e, c1) == w0 and s.weyl_distance(e, c2) == w0]
        assert d in brute


def test_prime_validation():
    with pytest.raises(ValueError):
        SphericalA2(4)
    with pytest.raises(ValueError):
        A2Ball(4, 1)

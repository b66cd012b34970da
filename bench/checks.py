"""Checks of chamberwalk's answers, made apart from chamberwalk.

Nothing here imports chamberwalk.  Exact values are recomputed from the
inputs the benchmark generated (conductances, lattice matrices, quotient
conductances), from closed forms, or from a numpy float solve.  Every
checker raises CheckError with a reason when an answer is wrong.
"""

from __future__ import annotations

import json
import re
from array import array
from fractions import Fraction
from math import gcd

import numpy as np
from scipy.stats import chi2

# A Monte Carlo tally is rejected when its chi-square p-value falls below
# this.  A run makes about a dozen such tests, so a sound program fails one
# by chance about once in 10^5 runs, while a visible bias still fails.
SIGNIFICANCE = 1e-6
FLOAT_TOL = 1e-9
KAC_SIGMAS = 4


class CheckError(AssertionError):
    """An answer of the program is wrong."""


def require(condition, reason: str) -> None:
    if not condition:
        raise CheckError(reason)


# -- networks and absorption ------------------------------------------------------


class Net:
    """A conductance network as the benchmark generated it: {(u, v): int}."""

    def __init__(self, nodes, edges: dict) -> None:
        self.nodes = list(nodes)
        self.edges = dict(edges)
        self.adj: dict = {x: {} for x in self.nodes}
        for (u, v), a in self.edges.items():
            self.adj[u][v] = self.adj[u].get(v, 0) + a
            if u != v:
                self.adj[v][u] = self.adj[v].get(u, 0) + a
        self.m = {x: sum(nbrs.values()) for x, nbrs in self.adj.items()}

    def p(self) -> dict:
        """Exact transition probabilities p(x, y) = a(x, y)/m(x)."""
        return {x: {y: Fraction(a, self.m[x]) for y, a in nbrs.items()}
                for x, nbrs in self.adj.items()}

    def to_json(self) -> dict:
        return {"nodes": self.nodes,
                "edges": [[u, v, a] for (u, v), a in sorted(self.edges.items())]}


def check_absorption(p: dict, absorbing, alpha: dict) -> None:
    """alpha(y, .) = delta_y on the absorbing set and alpha(x, y) =
    sum_z p(x, z) alpha(z, y) exactly at every transient x.

    On a connected network this system has one solution, so a zero residual
    proves the answer exact.
    """
    absorbing = list(absorbing)
    require(set(alpha) == set(p), "hitting matrix does not cover every node")
    for y in absorbing:
        for z in absorbing:
            require(alpha[y][z] == (1 if y == z else 0),
                    f"alpha({y!r}, .) is not a point mass")
    for x, row in p.items():
        if x in absorbing:
            continue
        require(set(alpha[x]) == set(absorbing), f"alpha({x!r}, .) has wrong support")
        for y in absorbing:
            value = sum((q * alpha[z][y] for z, q in row.items()), Fraction(0))
            require(alpha[x][y] == value,
                    f"alpha({x!r}, {y!r}) is not harmonic: residual {alpha[x][y] - value}")


def check_induced(net: Net, subset, rows: dict) -> None:
    """Rows of an induced kernel sum to 1 and satisfy m(x)q(x,y) = m(y)q(y,x)."""
    subset = list(subset)
    require(set(rows) == set(subset), "induced kernel rows do not match the subset")
    for x in subset:
        row = rows[x]
        require(set(row) <= set(subset), f"induced row {x!r} leaves the subset")
        require(all(q >= 0 for q in row.values()), f"negative entry in row {x!r}")
        require(sum(row.values()) == 1, f"induced row {x!r} sums to {sum(row.values())}")
        for y, q in row.items():
            back = rows[y].get(x, 0)
            require(net.m[x] * q == net.m[y] * back,
                    f"induced kernel not reversible at {(x, y)!r}")


def _float_matrix(p: dict, nodes):
    index = {x: i for i, x in enumerate(nodes)}
    mat = np.zeros((len(nodes), len(nodes)))
    for x, row in p.items():
        for y, q in row.items():
            mat[index[x], index[y]] = float(q)
    return mat


def float_hitting(p: dict, absorbing) -> dict:
    """Absorption probabilities from a numpy solve of (I - P_TT) A = P_TB."""
    nodes = list(p)
    absorbing = list(absorbing)
    trans = [x for x in nodes if x not in absorbing]
    mat = _float_matrix(p, nodes)
    ti = [nodes.index(x) for x in trans]
    bi = [nodes.index(y) for y in absorbing]
    sol = np.linalg.solve(np.eye(len(ti)) - mat[np.ix_(ti, ti)], mat[np.ix_(ti, bi)])
    out = {y: {z: float(y == z) for z in absorbing} for y in absorbing}
    for r, x in enumerate(trans):
        out[x] = {y: float(sol[r, c]) for c, y in enumerate(absorbing)}
    return out


def float_induced(p: dict, subset) -> dict:
    """q = P_SS + P_ST (I - P_TT)^-1 P_TS from a numpy solve."""
    nodes = list(p)
    subset = list(subset)
    trans = [x for x in nodes if x not in subset]
    mat = _float_matrix(p, nodes)
    si = [nodes.index(x) for x in subset]
    ti = [nodes.index(x) for x in trans]
    q = mat[np.ix_(si, si)]
    if ti:
        q = q + mat[np.ix_(si, ti)] @ np.linalg.solve(
            np.eye(len(ti)) - mat[np.ix_(ti, ti)], mat[np.ix_(ti, si)])
    return {x: {y: float(q[i, j]) for j, y in enumerate(subset)}
            for i, x in enumerate(subset)}


def check_close(exact: dict, approx: dict, what: str, tol: float = FLOAT_TOL) -> None:
    """Every exact entry agrees with the float solve within tol."""
    for x, row in approx.items():
        for y, value in row.items():
            got = float(exact.get(x, {}).get(y, 0))
            require(abs(got - value) <= tol,
                    f"{what}({x!r}, {y!r}) = {got} but a float solve gives {value}")


def check_path_hitting(conductances, alpha: dict) -> None:
    """On a path, alpha(x, end) = sum_{i<x} 1/c_i / sum_i 1/c_i."""
    n = len(conductances) + 1
    resistance = [Fraction(0)]
    for c in conductances:
        resistance.append(resistance[-1] + Fraction(1, c))
    total = resistance[-1]
    for x in range(n):
        far = resistance[x] / total
        require(alpha[x][n - 1] == far and alpha[x][0] == 1 - far,
                f"path hitting at {x} is not the resistance ratio")


def check_cycle_hitting(n: int, k: int, alpha: dict) -> None:
    """Gambler's ruin on the two arcs of a cycle between 0 and k."""
    for x in range(n):
        if x <= k:
            near_k = Fraction(x, k)
        else:
            near_k = Fraction(n - x, n - k)
        require(alpha[x][k] == near_k and alpha[x][0] == 1 - near_k,
                f"cycle-{n} hitting at {x} is not gambler's ruin")


def check_rotation_law(n: int, r: int, report: dict, tol: float = 1e-12) -> None:
    """discretize on cycle:n with rotation:r gives 1 - 1/d at the element
    fixing 0 and 1/(2d) at the two taking 0 to +-d, where d = gcd(n, r).

    A report labelled exact must hold these values exactly; any other must
    hold them within tol.
    """
    d = gcd(n, r)
    want = {0: 1 - Fraction(1, d), d: Fraction(1, 2 * d), n - d: Fraction(1, 2 * d)}
    got = {}
    for entry in report["measure"]:
        image = json.loads(entry["element"].replace("(", "[").replace(")", "]"))[0]
        require(image not in got, f"two elements take 0 to {image}")
        got[image] = entry["prob"]
    require(set(got) == set(want), f"support {sorted(got)} is not {sorted(want)}")
    for image, value in want.items():
        if report["provenance"] == "exact":
            require(isinstance(got[image], (int, str)) and Fraction(got[image]) == value,
                    f"exact weight at 0 -> {image} is {got[image]!r}, not {value}")
        else:
            require(abs(float(Fraction(got[image])) - float(value)) <= tol,
                    f"weight at 0 -> {image} is {got[image]!r}, not {value}")
    require(report["symmetric"] is True and report["verdict"] is True,
            "rotation law should be symmetric and pass")


def denominator_bits(rows: dict) -> int:
    return max((q.denominator.bit_length() for row in rows.values()
                for q in row.values() if isinstance(q, Fraction)), default=0)


# -- lattice classes of the A2 building ---------------------------------------------


def _vp(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _minors2(c):
    return [c[r0][c0] * c[r1][c1] - c[r0][c1] * c[r1][c0]
            for r0, r1 in ((0, 1), (0, 2), (1, 2)) for c0, c1 in ((0, 1), (0, 2), (1, 2))]


def _det(c) -> int:
    (a, b, e), (d, f, g), (h, i, j) = c
    return a * (f * j - g * i) - b * (d * j - g * h) + e * (d * i - f * h)


def _adj(c):
    (a, b, e), (d, f, g), (h, i, j) = c
    return ((f * j - g * i, e * i - b * j, b * g - e * f),
            (g * h - d * j, a * j - e * h, e * d - a * g),
            (d * i - f * h, b * h - a * i, a * f - b * d))


def sigma(x, y, p: int):
    """Vector distance of two lattice classes from the elementary divisors
    p^e1 | p^e2 | p^e3 of y adj(x): (e3 - e2, e2 - e1)."""
    if x is None:
        c = y
    else:
        a = _adj(x)
        c = [[sum(y[i][k] * a[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    e1 = min(_vp(v, p) for row in c for v in row if v)
    e12 = min(_vp(v, p) for v in _minors2(c) if v)
    e123 = _vp(_det(c), p)
    return (e123 - e12) - (e12 - e1), (e12 - e1) - e1


def lattice_type(x, p: int) -> int:
    return _vp(_det(x), p) % 3


def class_size(lam, p: int) -> int:
    """Vertices at vector distance lam from a vertex (Cartwright-Woess)."""
    a, b = lam
    if a == 0 and b == 0:
        return 1
    if a == 0 or b == 0:
        return (p * p + p + 1) * p ** (2 * (max(a, b) - 1))
    return (p * p + p + 1) * (p * p + p) * p ** (2 * (a + b - 2))


_INT = r"\s*(-?\d+)\s*"
_EDGE = re.compile(r"\[" + _INT + "," + _INT + r"\]")
_ROW = r"\[" + _INT + "," + _INT + "," + _INT + r"\]"
_VERTEX = re.compile(r"\[\s*" + _ROW + r"\s*,\s*" + _ROW + r"\s*,\s*" + _ROW + r"\s*\]")


def _section(text: str, key: str) -> tuple:
    """Span of the JSON array stored under a top-level key of ball.json."""
    found = re.search('"' + key + r'"\s*:\s*\[', text)
    require(found is not None, f"ball.json has no {key}")
    depth, i = 1, found.end()
    while depth:
        depth += {"[": 1, "]": -1}.get(text[i], 0)
        i += 1
    return found.end(), i - 1


def check_ball_doc(text: str, p: int, radius: int, sample) -> int:
    """Class counts, degrees, types and a sample of edges of ball.json.

    Returns the vertex count.  The file is scanned, not loaded, so the
    check holds a few integers per vertex: peak memory stays the program's.
    ``sample(n, k)`` picks k of n edge indices for the sigma test.
    """
    named = {key: re.search('"' + key + r'"\s*:\s*(\d+)', text) for key in ("p", "radius")}
    require(all(named.values()) and int(named["p"][1]) == p
            and int(named["radius"][1]) == radius, "ball.json names another ball")
    types = json.loads(text[slice(*_section(text, "types"))].join("[]"))
    lo, hi = _section(text, "edges")
    edges = array("l")
    for m in _EDGE.finditer(text, lo, hi):
        edges.extend((int(m[1]), int(m[2])))
    n_edges = len(edges) // 2
    picked = {e: None for e in sample(n_edges, min(n_edges, 300))}
    wanted = {edges[2 * e + k] for e in picked for k in (0, 1)}
    lo, hi = _section(text, "vertices")
    counts: dict = {}
    inner = bytearray()
    kept: dict = {}
    n = 0
    for m in _VERTEX.finditer(text, lo, hi):
        v = tuple(tuple(int(m[3 * r + c + 1]) for c in range(3)) for r in range(3))
        lam = sigma(None, v, p)
        counts[lam] = counts.get(lam, 0) + 1
        inner.append(max(lam) <= radius - 1)
        require(types[n] == lattice_type(v, p), f"vertex {n} has the wrong type")
        if n in wanted:
            kept[n] = v
        n += 1
    require(n == len(types), "ball.json lists types and vertices of different lengths")
    for a in range(radius + 1):
        for b in range(radius + 1):
            require(counts.get((a, b), 0) == class_size((a, b), p),
                    f"class {(a, b)} holds {counts.get((a, b), 0)} vertices, "
                    f"not {class_size((a, b), p)}")
    total = sum(class_size((a, b), p) for a in range(radius + 1) for b in range(radius + 1))
    require(n == total, f"ball holds {n} vertices, not {total}")
    degree = array("l", bytes(8 * n))
    last = (-1, -1)
    for e in range(n_edges):
        i, j = edges[2 * e], edges[2 * e + 1]
        require(i < j and (i, j) > last, f"edge {(i, j)} repeated or out of order")
        last = (i, j)
        degree[i] += 1
        degree[j] += 1
        require(types[i] != types[j], f"edge {(i, j)} joins equal types")
    full = 2 * (p * p + p + 1)
    for i in range(n):
        if inner[i]:
            require(degree[i] == full, f"inner vertex {i} has degree {degree[i]}, not {full}")
    for e in picked:
        i, j = edges[2 * e], edges[2 * e + 1]
        require(_adjacent(kept[i], kept[j], p), f"edge {(i, j)} joins classes that are not adjacent")
    return n


def check_ball_report(report: dict, p: int, radius: int, vertices: int) -> None:
    require(report["command"] == "ball" and report["vertices"] == vertices,
            "ball report disagrees with ball.json")
    for entry in report["partition"]:
        lam = tuple(entry["lambda"])
        if max(lam) <= radius:
            require(entry["count"] == class_size(lam, p), f"report class {lam} miscounted")
            if lam != (0, 0):
                require(entry["n_lambda"] == class_size(lam, p) and entry["complete"],
                        f"report N_lambda at {lam} is wrong")


def check_a2_verify(report: dict, p: int, radius: int) -> None:
    (suite,) = report["suites"]
    checks = suite["checks"]
    require(suite["suite"] == "a2-nlambda" and checks, "a2-nlambda ran no checks")
    total = sum(class_size((a, b), p) for a in range(radius + 1) for b in range(radius + 1))
    classes = 0
    for c in checks:
        require(c["verdict"] is True, f"{c['name']} failed")
        if "lambda" in c:
            want = class_size(tuple(c["lambda"]), p)
            require(c["formula"] == want and c["enumerated"] == want,
                    f"{c['name']} is not {want}")
            classes += 1
        else:
            require(c["total"] == total and c["vertices"] == total, "partition total is wrong")
    require(classes == (radius + 1) ** 2 - 1, "a2-nlambda skipped a class")
    require(report["verdict"] is True, "a2-nlambda verdict is false")


def check_symmetric(vertices, neighbors) -> None:
    adj = {v: set(neighbors(v)) for v in vertices}
    for v, nbrs in adj.items():
        for u in nbrs:
            require(v in adj.get(u, ()), f"adjacency not symmetric at {v!r}")


def _adjacent(u, v, p: int) -> bool:
    return sigma(u, v, p) in ((1, 0), (0, 1))


def check_chambers(o, chambers, p: int) -> None:
    """The link of a vertex has (p^2+p+1)(p+1) chambers: the flags of PG(2, p)."""
    want = (p * p + p + 1) * (p + 1)
    require(len(set(chambers)) == len(chambers) == want,
            f"{len(chambers)} chambers in a link, not {want}")
    for u, v in chambers:
        require(sigma(o, u, p) == (1, 0) and sigma(o, v, p) == (0, 1) and _adjacent(u, v, p),
                "a link chamber is not a flag at o")


def check_first_chamber(o, z, chamber, p: int) -> None:
    """The first chamber toward z is a flag at o on sigma-geodesics to z."""
    u, v = chamber
    total = sigma(o, z, p)
    require(sigma(o, u, p) == (1, 0) and sigma(o, v, p) == (0, 1) and _adjacent(u, v, p),
            "first chamber is not a flag at o")
    for w in (u, v):
        a, b = sigma(o, w, p), sigma(w, z, p)
        require((a[0] + b[0], a[1] + b[1]) == total, "first chamber is off the geodesic")


def check_opposition(c1, c2, answer: bool, p: int) -> None:
    """Two flags are opposite when neither point lies on the other's line."""
    (u1, v1), (u2, v2) = c1, c2
    want = not _adjacent(u1, v2, p) and not _adjacent(u2, v1, p)
    require(answer == want, f"opposition answered {answer}, not {want}")


# -- Monte Carlo tallies ---------------------------------------------------------------


def chisquare_p(counts, probs) -> float:
    """p-value of Pearson's statistic against probs (normalised here);
    a count on a zero-probability cell gives 0."""
    total = sum(counts)
    mass = sum(probs)
    require(total > 0, "empty tally")
    stat, cells = 0.0, 0
    for c, q in zip(counts, probs):
        if q == 0:
            if c:
                return 0.0
            continue
        expected = float(q / mass) * total
        stat += (c - expected) ** 2 / expected
        cells += 1
    return 1.0 if cells <= 1 else float(chi2.sf(stat, cells - 1))


def tree_sphere(q: int, level: int) -> list:
    """Reduced words of length level over q+1 letters (no letter repeated)."""
    words = [()]
    for _ in range(level):
        words = [w + (a,) for w in words for a in range(q + 1) if not w or a != w[-1]]
    return words


def check_tree_exits(stats, q: int, level: int, samples: int) -> None:
    """Exits fall on the (q+1)q^(l-1) vertices at distance l, uniformly."""
    sphere = tree_sphere(q, level)
    require(len(sphere) == (q + 1) * q ** (level - 1), "benchmark sphere miscounted")
    tally = dict(stats.counts)
    require(set(tally) <= set(sphere), "an exit lies off the sphere")
    require(stats.unresolved == 0, f"{stats.unresolved} walks unresolved")
    require(sum(tally.values()) == samples, "exit tally does not add up to the samples")
    pval = chisquare_p([tally.get(w, 0) for w in sphere], [1] * len(sphere))
    require(pval > SIGNIFICANCE, f"tree exits not uniform at level {level}: p = {pval:.3g}")


def check_a2_exits(stats, classes: dict, level: int, samples: int) -> None:
    """Exits lie at max sigma = level and are uniform within each class.

    ``classes`` maps each lambda with max(lambda) = level to its vertices.
    """
    tally = dict(stats.counts)
    where = {v: lam for lam, verts in classes.items() for v in verts}
    require(all(v in where for v in tally), "an exit lies off the exit level")
    require(stats.unresolved == 0, f"{stats.unresolved} walks unresolved")
    require(sum(tally.values()) == samples, "exit tally does not add up to the samples")
    stat, dof = 0.0, 0
    for lam, verts in sorted(classes.items()):
        counts = [tally.get(v, 0) for v in verts]
        n = sum(counts)
        if n == 0:
            continue
        expected = n / len(verts)
        stat += sum((c - expected) ** 2 / expected for c in counts)
        dof += len(verts) - 1
    pval = float(chi2.sf(stat, dof)) if dof else 1.0
    require(pval > SIGNIFICANCE, f"ball exits not uniform within classes: p = {pval:.3g}")


def cyclic_law(d: int, start: int, steps: int) -> dict:
    """Exact law after steps of the +-1 walk on Z/d, by Fraction matrix powers.

    This is the quotient of the line or of a cycle by translations of
    period d: each class has conductance 1 to each of its two neighbours.
    """
    half = Fraction(1, 2)
    p = [[Fraction(0)] * d for _ in range(d)]
    for x in range(d):
        p[x][(x + 1) % d] += half
        p[x][(x - 1) % d] += half
    law = [Fraction(int(x == start % d)) for x in range(d)]
    for _ in range(steps):
        law = [sum((law[x] * p[x][y] for x in range(d)), Fraction(0)) for y in range(d)]
    return {x: q for x, q in enumerate(law) if q}


def check_quotient_law(report, law: dict, samples: int) -> None:
    require({k: v for k, v in report.expected.items() if v} == law,
            "quotient law differs from the exact n-step law")
    require(sum(report.counts.values()) == samples, "law tally does not add up")
    keys = sorted(set(report.counts) | set(law))
    pval = chisquare_p([report.counts.get(k, 0) for k in keys], [law.get(k, 0) for k in keys])
    require(pval > SIGNIFICANCE, f"projected walk does not follow the law: p = {pval:.3g}")


def check_return_times(stats, kac: Fraction) -> None:
    """Mean return time within KAC_SIGMAS standard errors of Kac's value."""
    require(stats.unresolved == 0, f"{stats.unresolved} return walks unresolved")
    require(stats.exact_mean == kac, f"exact mean {stats.exact_mean} is not {kac}")
    require(abs(stats.mean - float(kac)) <= KAC_SIGMAS * stats.std_error,
            f"mean return time {stats.mean} is off Kac's {kac}")


def check_stochastic_verify(code: int, text: str, suites, other_text: str) -> None:
    """Report bytes equal at both worker counts; p-values above SIGNIFICANCE.

    The suites judge themselves at 1 %, so a verdict of false with exit 1
    is an expected outcome on some seeds, not a wrong answer.
    """
    require(text == other_text, "verify report bytes differ between worker counts")
    report = json.loads(text)
    require([s["suite"] for s in report["suites"]] == list(suites), "suites missing")
    for s in report["suites"]:
        require(s["checks"], f"suite {s['suite']} ran no checks")
        require(s["verdict"] == all(c["verdict"] for c in s["checks"]),
                f"suite {s['suite']} verdict disagrees with its checks")
        for c in s["checks"]:
            if "p_value" in c:
                require(c["p_value"] > SIGNIFICANCE, f"{c['name']} p = {c['p_value']:.3g}")
            if "std_error" in c:
                exact = float(Fraction(c["exact_mean"]))
                require(abs(c["mean"] - exact) <= KAC_SIGMAS * c["std_error"],
                        f"{c['name']} mean {c['mean']} is off {exact}")
    require(report["verdict"] == all(s["verdict"] for s in report["suites"]),
            "verify verdict disagrees with its suites")
    require(code == (0 if report["verdict"] else 1), f"exit code {code} disagrees")

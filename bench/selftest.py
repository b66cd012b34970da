"""Self-test of the benchmark's checkers.

    python3 bench/selftest.py

For every checker in checks.py, feed it one sound answer from chamberwalk
(small inputs), then the same answer with one corruption, and show that it
accepts the first and rejects the second.  Exits 1 if any checker does not.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import chamberwalk.cli  # noqa: E402,F401  (run_cli calls it)
from chamberwalk.action import (FiniteAction, quotient_law_check,  # noqa: E402
                                quotient_network, return_time_stats)
from chamberwalk.boundary import IsotropicKernel, boundary_hitting_mc  # noqa: E402
from chamberwalk.buildings import A2Ball, TreeBuilding  # noqa: E402
from chamberwalk.discretize import induced_kernel_exact  # noqa: E402
from chamberwalk.netwalk import (FiniteNetwork, RngStream, cycle_network,  # noqa: E402
                                 hitting_matrix, kernel_from_network)
from workloads import random_network, run_cli  # noqa: E402

TINY = Fraction(1, 10**30)
RESULTS = []


def expect(name: str, good, bad) -> None:
    """good() must pass, bad() must raise CheckError."""
    try:
        good()
    except checks.CheckError as exc:
        RESULTS.append((False, f"{name}: rejects a sound answer: {exc}"))
        return
    try:
        bad()
    except checks.CheckError as exc:
        RESULTS.append((True, f"{name}: rejects it ({exc})"))
        return
    RESULTS.append((False, f"{name}: accepts a corrupted answer"))


def nudge(rows: dict, x, y, delta=TINY) -> dict:
    out = {a: dict(row) for a, row in rows.items()}
    out[x][y] += delta
    return out


def exact_chains() -> None:
    rand = random.Random(7)
    net = random_network(rand, 10)
    kernel = kernel_from_network(FiniteNetwork(net.nodes, net.to_json()["edges"]))
    p = net.p()
    pair = [0, 9]
    alpha = hitting_matrix(kernel, pair)
    expect("absorption, one alpha off by 1e-30",
           lambda: checks.check_absorption(p, pair, alpha),
           lambda: checks.check_absorption(p, pair, nudge(alpha, 4, 9)))
    subset = [1, 3, 5, 7]
    induced = induced_kernel_exact(kernel, subset)
    rows = {x: dict(induced.row(x)) for x in subset}
    y = next(iter(rows[1]))
    expect("induced kernel, one entry off by 1e-30",
           lambda: checks.check_induced(net, subset, rows),
           lambda: checks.check_induced(net, subset, nudge(rows, 1, y)))
    approx = checks.float_induced(p, subset)
    expect("float agreement, one entry off by 1e-6",
           lambda: checks.check_close(rows, approx, "q"),
           lambda: checks.check_close(nudge(rows, 1, y, Fraction(1, 10**6)), approx, "q"))
    cond = [3, 1, 4, 1, 5, 9, 2, 6]
    path = FiniteNetwork(range(9), [(i, i + 1, c) for i, c in enumerate(cond)])
    palpha = hitting_matrix(kernel_from_network(path), [0, 8])
    expect("path resistance ratio, one value off by 1e-30",
           lambda: checks.check_path_hitting(cond, palpha),
           lambda: checks.check_path_hitting(cond, nudge(palpha, 3, 8)))
    calpha = hitting_matrix(kernel_from_network(cycle_network(12)), [0, 5])
    expect("gambler's ruin, one value off by 1e-30",
           lambda: checks.check_cycle_hitting(12, 5, calpha),
           lambda: checks.check_cycle_hitting(12, 5, nudge(calpha, 7, 5)))
    report = json.loads(run_cli(["discretize", "--family", "cycle:12",
                                 "--action", "rotation:3"]).stdout)
    bad = json.loads(json.dumps(report))
    bad["measure"][0]["prob"] = str(Fraction(bad["measure"][0]["prob"]) + TINY)
    expect("rotation law, one weight off by 1e-30",
           lambda: checks.check_rotation_law(12, 3, report),
           lambda: checks.check_rotation_law(12, 3, bad))


def ball_build(workdir: Path) -> None:
    rand = random.Random(7)
    res = run_cli(["ball", "--p", 2, "--radius", 2, "--out", workdir], workdir)
    text = res.file("ball.json")
    report = json.loads(res.file("report.json"))
    doc = json.loads(text)
    dropped = dict(doc, vertices=doc["vertices"][:-1], types=doc["types"][:-1],
                   edges=[e for e in doc["edges"] if len(doc["vertices"]) - 1 not in e])

    def sample(n, k):
        return rand.sample(range(n), k)

    expect("ball.json, one vertex dropped",
           lambda: checks.check_ball_doc(text, 2, 2, sample),
           lambda: checks.check_ball_doc(json.dumps(dropped, sort_keys=True), 2, 2, sample))
    cut = dict(doc, edges=doc["edges"][1:])
    expect("ball.json, one edge dropped",
           lambda: checks.check_ball_doc(text, 2, 2, sample),
           lambda: checks.check_ball_doc(json.dumps(cut, sort_keys=True), 2, 2, sample))
    miscount = json.loads(json.dumps(report))
    miscount["partition"][1]["count"] += 1
    expect("ball report, one class miscounted",
           lambda: checks.check_ball_report(report, 2, 2, len(doc["vertices"])),
           lambda: checks.check_ball_report(miscount, 2, 2, len(doc["vertices"])))
    verify = json.loads(run_cli(["verify", "--suite", "a2-nlambda", "--p", 2,
                                 "--radius", 2]).stdout)
    wrong = json.loads(json.dumps(verify))
    wrong["suites"][0]["checks"][-1]["enumerated"] -= 1
    expect("a2-nlambda report, one class count off",
           lambda: checks.check_a2_verify(verify, 2, 2),
           lambda: checks.check_a2_verify(wrong, 2, 2))
    ball = A2Ball(2, 2)
    o = ball.vertices[5]
    chambers = ball.chambers_at(o)
    expect("link chambers, one chamber dropped",
           lambda: checks.check_chambers(o, chambers, 2),
           lambda: checks.check_chambers(o, chambers[1:], 2))
    o = ball.origin
    regular = [z for z in ball.vertices if min(checks.sigma(o, z, 2)) >= 1]
    z, zp = regular[0], regular[-1]
    c1, c2 = ball.first_chamber(o, z), ball.first_chamber(o, zp)
    other = next(u for u, _ in chambers if u != c1[0])
    expect("first chamber, point replaced",
           lambda: checks.check_first_chamber(o, z, c1, 2),
           lambda: checks.check_first_chamber(o, z, (other, c1[1]), 2))
    answer = ball.link_opposition_check(o, z, zp)
    expect("link opposition, answer flipped",
           lambda: checks.check_opposition(c1, c2, answer, 2),
           lambda: checks.check_opposition(c1, c2, not answer, 2))
    victim = ball.vertices[3]

    def lossy(v):
        nbrs = ball.neighbors(v)
        return nbrs[1:] if v == victim else nbrs

    expect("adjacency, one neighbour dropped on one side",
           lambda: checks.check_symmetric(ball.vertices, ball.neighbors),
           lambda: checks.check_symmetric(ball.vertices, lossy))


def biased(stats, shift: int):
    """Move shift exits from the least to the most visited cell."""
    counts = sorted(stats.counts, key=lambda t: t[1])
    (lo, nlo), (hi, nhi) = counts[0], counts[-1]
    moved = dict(stats.counts)
    moved[lo], moved[hi] = nlo - min(shift, nlo), nhi + min(shift, nlo)
    return dataclasses.replace(stats, counts=tuple(moved.items()))


def boundary_walks() -> None:
    tree = IsotropicKernel(TreeBuilding(2))
    stats = boundary_hitting_mc(tree, (), 2, 6000, RngStream(7, (0,)), workers=2)
    expect("tree exits, one cell biased by 150",
           lambda: checks.check_tree_exits(stats, 2, 2, 6000),
           lambda: checks.check_tree_exits(biased(stats, 150), 2, 2, 6000))
    off = dataclasses.replace(stats, counts=stats.counts[:-1] + (((0, 1, 0), stats.counts[-1][1]),))
    expect("tree exits, one exit off the sphere",
           lambda: checks.check_tree_exits(stats, 2, 2, 6000),
           lambda: checks.check_tree_exits(off, 2, 2, 6000))
    ball = A2Ball(2, 3)
    ik = IsotropicKernel(ball)
    a2 = boundary_hitting_mc(ik, ball.origin, 2, 3000, RngStream(7, (1,)), workers=2)
    classes: dict = {}
    for v in ball.vertices:
        lam = checks.sigma(None, v, 2)
        if max(lam) == 2:
            classes.setdefault(lam, []).append(v)
    tally = dict(a2.counts)
    busiest = max(classes, key=lambda lam: sum(tally.get(v, 0) for v in classes[lam]))
    target, *donors = classes[busiest]
    moved = dict(tally)
    for v in donors:
        give = min(3, moved.get(v, 0))
        moved[v] = moved.get(v, 0) - give
        moved[target] = moved.get(target, 0) + give
    expect("ball exits, one cell of the busiest class biased",
           lambda: checks.check_a2_exits(a2, classes, 2, 3000),
           lambda: checks.check_a2_exits(
               dataclasses.replace(a2, counts=tuple(moved.items())), classes, 2, 3000))
    qnet = quotient_network(cycle_network(6), FiniteAction(range(6), [(3, 4, 5, 0, 1, 2)]))
    law = quotient_law_check(qnet, 0, 4, 6000, RngStream(7, (2,)))
    exact = checks.cyclic_law(3, 0, 4)
    skewed = dict(law.counts)
    skewed[0] += 300
    skewed[1] -= 300
    expect("quotient law, tally biased by 300",
           lambda: checks.check_quotient_law(law, exact, 6000),
           lambda: checks.check_quotient_law(dataclasses.replace(law, counts=skewed), exact,
                                             6000))
    rts = return_time_stats(quotient_network(cycle_network(6), FiniteAction(
        range(6), [(3, 4, 5, 0, 1, 2)])), 0, 4000, RngStream(7, (3,)))
    expect("return times, mean shifted by 5 standard errors",
           lambda: checks.check_return_times(rts, Fraction(3)),
           lambda: checks.check_return_times(
               dataclasses.replace(rts, mean=rts.mean + 5 * rts.std_error), Fraction(3)))
    argv = ["verify", "--suite", "quotient-law", "--seed", 7, "--samples", 1000]
    w2 = run_cli(argv + ["--workers", 2])
    w1 = run_cli(argv + ["--workers", 1])
    flipped = w1.stdout[:-2] + chr(ord(w1.stdout[-2]) ^ 1) + w1.stdout[-1]
    expect("verify reports, one byte changed",
           lambda: checks.check_stochastic_verify(w1.code, w1.stdout, ["quotient-law"],
                                                  w2.stdout),
           lambda: checks.check_stochastic_verify(w1.code, flipped, ["quotient-law"],
                                                  w2.stdout))


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        exact_chains()
        ball_build(Path(tmp))
        boundary_walks()
    for ok, line in RESULTS:
        print(("ok    " if ok else "FAIL  ") + line)
    return 0 if all(ok for ok, _ in RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())

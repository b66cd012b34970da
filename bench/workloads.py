"""The benchmark's workloads: inputs from the seed, models, requests, checks.

A workload builds its models once (set-up), then yields one round of
requests per call of ``requests()``.  A request is one CLI command or one
public-API battery on one model; its ``call`` holds only calls into
chamberwalk, and its ``check`` judges the answer with the independent
checks of ``checks.py``.  ``requests()`` also builds the cheap per-round
objects the requests query (kernels), so that no round reads what an
earlier round left in their caches.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path


@dataclass
class Request:
    name: str
    call: object          # () -> answer; timed
    check: object         # answer -> None; raises checks.CheckError
    ok_codes: tuple = (0,)


@dataclass
class CliResult:
    code: int
    stdout: str
    out_dir: Path | None = None

    def report_bytes(self) -> int:
        size = len(self.stdout.encode())
        if self.out_dir is not None and self.out_dir.is_dir():
            size += sum(f.stat().st_size for f in self.out_dir.iterdir())
        return size

    def file(self, name: str) -> str:
        return (self.out_dir / name).read_text()


def run_cli(argv, out_dir: Path | None = None) -> CliResult:
    """chamberwalk.cli.main on argv, with its output captured.

    The module is looked up on every call, so a reloaded CLI is used.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = sys.modules["chamberwalk.cli"].main([str(a) for a in argv])
    return CliResult(code, buf.getvalue(), out_dir)


def interleave(main: list, extra: list) -> list:
    """The items of main in order, with those of extra spread evenly among
    them, so that similar requests sit apart in the round and the median
    request time samples the whole round, not one stretch of it."""
    gap = len(main) / (len(extra) + 1)
    keyed = list(enumerate(main)) + [((i + 1) * gap - 0.5, r) for i, r in enumerate(extra)]
    return [r for _, r in sorted(keyed, key=lambda t: t[0])]


class Workload:
    """Seeded inputs and a work directory; subclasses add models and requests."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.rand = random.Random(seed)
        self.workdir = workdir
        self.input_seconds = 0.0
        self.profile: dict = {}

    @contextlib.contextmanager
    def generating_inputs(self):
        """Time spent here is the benchmark's own and leaves set-up time."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.input_seconds += time.perf_counter() - t0

    def setup(self) -> None:
        raise NotImplementedError

    def requests(self) -> list:
        raise NotImplementedError

    def sample(self, n: int, k: int) -> list:
        return self.rand.sample(range(n), k)


# -- exact-chains -----------------------------------------------------------------------

# A round is kept near 1 s and no request above 0.15 s, so that a run
# repeats each request often enough for its fastest repetition to be a
# steady figure on a shared host.  Besides one network of each size, eight
# of 14 nodes sit spread through the round: the median request is one of
# them, so it rests on eight draws, not on the shape of the one network
# that happens to sit in the middle.
NETWORK_SIZES = tuple(interleave(list(range(8, 21, 2)), [14] * 8))
PATH_NODES = (40,)
CYCLE_NODES = (44,)
ROTATIONS = ((24, 3), (60, 4), (90, 6))     # (cycle size, gcd with the rotation step)
INDUCE_NODES = 24
# Fault K1: 202 unknowns is past the exact solve limit; the run falls back to
# floats, still says "exact", and main raises on a numpy bool.
K1_ARGV = ("discretize", "--family", "cycle:404", "--action", "rotation:2")


def random_network(rand: random.Random, size: int):
    """A connected network: a random spanning tree plus size more edges,
    conductances 1..5."""
    from checks import Net

    edges = {}
    for i in range(1, size):
        edges[(rand.randrange(i), i)] = rand.randint(1, 5)
    target = len(edges) + size
    while len(edges) < target:
        u, v = sorted(rand.sample(range(size), 2))
        edges.setdefault((u, v), rand.randint(1, 5))
    return Net(range(size), edges)


class ExactChains(Workload):
    """Exact absorption solves: dense random networks, long paths and cycles,
    the induce and discretize commands, and the K1 request."""

    name = "exact-chains"

    def setup(self) -> None:
        with self.generating_inputs():
            self._make_inputs()

    def _kernels(self) -> None:
        from chamberwalk.netwalk import FiniteNetwork, cycle_network, kernel_from_network

        def kernel(net):
            return kernel_from_network(FiniteNetwork(net.nodes, net.to_json()["edges"]))

        self.kernels = [kernel(net) for net, *_ in self.batteries]
        self.path_kernels = [kernel(net) for net, _ in self.paths]
        self.cycle_kernels = [kernel_from_network(cycle_network(n)) for n, _ in self.cycles]

    def _make_inputs(self) -> None:
        from checks import Net

        rand = self.rand
        self.batteries = []
        for size in NETWORK_SIZES:
            net = random_network(rand, size)
            nodes = list(range(size))
            rand.shuffle(nodes)
            k = max(2, size // 6)
            subset = sorted(nodes[:k])
            pair = sorted(nodes[k:k + 2])
            f = {x: Fraction(rand.randint(-5, 5)) for x in subset}
            self.batteries.append((net, subset, pair, f))
        self.paths = []
        for n in PATH_NODES:
            # distinct conductances from 1..99 in random order: the Fractions
            # grow alike on every seed, so the solve's cost does not swing
            cond = rand.sample(range(1, 100), n - 1)
            self.paths.append((Net(range(n), {(i, i + 1): c for i, c in enumerate(cond)}), cond))
        # the second absorbing node stays near the antipode: the solve's cost
        # grows with the longer arc, and should not swing with the seed
        self.cycles = [(n, n // 2 + rand.randint(-2, 2)) for n in CYCLE_NODES]
        self.rotations = []
        for n, d in ROTATIONS:
            steps = [r for r in range(1, n) if gcd(n, r) == d]
            self.rotations.append((n, rand.choice(steps)))
        net = random_network(rand, INDUCE_NODES)
        self.induce_net = net
        self.induce_subset = sorted(rand.sample(range(INDUCE_NODES), 6))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.induce_file = self.workdir / "network.json"
        self.induce_file.write_text(json.dumps(net.to_json()))
        self.profile = {
            "network_nodes": list(NETWORK_SIZES),
            "path_unknowns": [n - 2 for n in PATH_NODES],
            "cycle_unknowns": [n - 2 for n in CYCLE_NODES],
            "rotations": self.rotations,
            "max_denominator_bits": 0,
        }

    def _bits(self, rows: dict) -> None:
        from checks import denominator_bits

        self.profile["max_denominator_bits"] = max(
            self.profile["max_denominator_bits"], denominator_bits(rows))

    def requests(self) -> list:
        self._kernels()
        networks = [Request(f"network-{battery[0].nodes[-1] + 1}-{i}",
                            self._battery_call(kernel, battery), self._battery_check(battery))
                    for i, (battery, kernel) in enumerate(zip(self.batteries, self.kernels))]
        out = []
        for (net, cond), kernel in zip(self.paths, self.path_kernels):
            out.append(Request(f"path-{len(net.nodes)}",
                               _hitting_call(kernel, [0, len(net.nodes) - 1]),
                               self._path_check(net, cond)))
        for (n, k), kernel in zip(self.cycles, self.cycle_kernels):
            out.append(Request(f"cycle-{n}", _hitting_call(kernel, [0, k]),
                               self._cycle_check(n, k)))
        out.append(Request("induce", lambda: run_cli(
            ["induce", "--network", self.induce_file,
             "--subset", json.dumps(self.induce_subset)]), self._induce_check))
        for n, r in self.rotations:
            out.append(Request(f"discretize-cycle-{n}", lambda n=n, r=r: run_cli(
                ["discretize", "--family", f"cycle:{n}", "--action", f"rotation:{r}"]),
                lambda res, n=n, r=r: _rotation_check(res, n, r)))
        out.append(Request("discretize-cycle-404-K1", lambda: run_cli(K1_ARGV),
                           lambda res: _rotation_check(res, 404, 2)))
        return interleave(networks, out)

    @staticmethod
    def _battery_call(kernel, battery):
        from chamberwalk.discretize import harmonic_transfer_check, induced_kernel_exact
        from chamberwalk.netwalk import hitting_distribution, hitting_matrix

        _, subset, pair, f = battery
        inner = subset[: max(1, len(subset) // 2)]

        def call():
            induced = induced_kernel_exact(kernel, subset)
            return {
                "induced": induced,
                "transfer": harmonic_transfer_check(kernel, subset, f),
                "towered": induced_kernel_exact(induced, inner),
                "direct": induced_kernel_exact(kernel, inner),
                "alpha": hitting_matrix(kernel, pair),
                "dists": {s: hitting_distribution(kernel, pair, s) for s in subset},
            }

        return call

    def _battery_check(self, battery):
        import checks

        net, subset, pair, _ = battery

        def check(out):
            p = net.p()
            alpha = out["alpha"]
            checks.check_absorption(p, pair, alpha)
            for s, dist in out["dists"].items():
                checks.require(dist == alpha[s], f"hitting distribution from {s} disagrees")
            rows = _rows(out["induced"])
            checks.check_induced(net, subset, rows)
            checks.check_close(rows, checks.float_induced(p, subset), "q")
            checks.check_close(alpha, checks.float_hitting(p, pair), "alpha")
            report = out["transfer"]
            checks.require(report.verdict and report.restriction_defect == 0
                           and report.interior_defect == 0, "harmonic transfer failed")
            checks.require(_rows(out["towered"]) == _rows(out["direct"]),
                           "inducing twice differs from inducing once")
            self._bits(rows)
            self._bits(alpha)

        return check

    def _path_check(self, net, cond):
        import checks

        def check(alpha):
            checks.check_path_hitting(cond, alpha)
            checks.check_absorption(net.p(), [0, len(net.nodes) - 1], alpha)
            self._bits(alpha)

        return check

    def _cycle_check(self, n, k):
        import checks

        def check(alpha):
            checks.check_cycle_hitting(n, k, alpha)
            self._bits(alpha)

        return check

    def _induce_check(self, res: CliResult) -> None:
        import checks

        report = json.loads(res.stdout)
        rows = {int(r["from"]): {int(e["to"]): Fraction(e["prob"]) for e in r["row"]}
                for r in report["rows"]}
        net = self.induce_net
        checks.check_induced(net, self.induce_subset, rows)
        checks.check_close(rows, checks.float_induced(net.p(), self.induce_subset), "q")
        checks.require(report["verdict"] is True and report["reversibility_defect"] == 0,
                       "induce verdict is false")


def _hitting_call(kernel, absorbing):
    from chamberwalk.netwalk import hitting_matrix

    return lambda: hitting_matrix(kernel, absorbing)


def _rows(kernel) -> dict:
    return {x: dict(kernel.row(x)) for x in kernel.nodes}


def _rotation_check(res: CliResult, n: int, r: int) -> None:
    import checks

    checks.check_rotation_law(n, r, json.loads(res.stdout))


# -- ball-build -----------------------------------------------------------------------

# Balls that build in under 0.4 s each: (5, 1) takes 1.2 s, and (2, 3) and
# (3, 2) take 8-12 s, too long for a request to repeat often in one run.
BALLS = ((2, 1), (2, 2), (3, 1))
VERIFY_BALL = (2, 2)
LINK_BALLS = ((2, 2), (3, 1))
LINK_QUERIES = 8


class BallBuild(Workload):
    """Construction of A2 balls through the ball command, a suite that reuses
    one of them, and link queries on balls built at set-up."""

    name = "ball-build"

    def setup(self) -> None:
        from chamberwalk.buildings import A2Ball

        self.link_models = [A2Ball(p, r) for p, r in LINK_BALLS]
        with self.generating_inputs():
            self.queries = [self._pick_queries(m) for m in self.link_models]
            self.workdir.mkdir(parents=True, exist_ok=True)
        self._symmetric_checked = []
        self.profile = {"balls": [list(b) for b in BALLS], "vertices": {},
                        "link_ball_vertices": [len(m.vertices) for m in self.link_models]}

    def _pick_queries(self, model) -> list:
        """(o, z, z') with both z and z' at regular distance from o."""
        from checks import sigma

        p = model.p
        verts = list(model.vertices)
        out = []
        while len(out) < LINK_QUERIES:
            o = self.rand.choice(verts)
            regular = [z for z in verts if min(sigma(o, z, p)) >= 1]
            if len(regular) >= 2:
                z, zp = self.rand.sample(regular, 2)
                out.append((o, z, zp))
        return out

    def requests(self) -> list:
        out = []
        for p, r in BALLS:
            directory = self.workdir / f"ball-{p}-{r}"
            out.append(Request(f"ball-{p}-{r}", lambda p=p, r=r, d=directory: run_cli(
                ["ball", "--p", p, "--radius", r, "--out", d], d),
                lambda res, p=p, r=r: self._ball_check(res, p, r)))
        p, r = VERIFY_BALL
        out.insert(BALLS.index(VERIFY_BALL) + 1, Request(
            f"verify-a2-nlambda-{p}-{r}",
            lambda: run_cli(["verify", "--suite", "a2-nlambda", "--p", p, "--radius", r]),
            lambda res: _verify_a2_check(res, p, r)))
        # one request per queried vertex, alternating balls, spread between
        # the builds: the median request is one of these many similar ones
        links = [Request(f"link-{model.p}-{model.radius}-{i}", _link_call(model, query),
                         self._link_check(model, query))
                 for i in range(LINK_QUERIES)
                 for model, queries in zip(self.link_models, self.queries)
                 for query in [queries[i]]]
        return interleave(links, out)

    def _ball_check(self, res: CliResult, p: int, r: int) -> None:
        import checks

        vertices = checks.check_ball_doc(res.file("ball.json"), p, r, self.sample)
        checks.check_ball_report(json.loads(res.file("report.json")), p, r, vertices)
        self.profile["vertices"][f"{p},{r}"] = vertices

    def _link_check(self, model, query):
        import checks

        o, z, zp = query

        def check(answer):
            if model not in self._symmetric_checked:
                checks.check_symmetric(model.vertices, model.neighbors)
                self._symmetric_checked.append(model)
            chambers, c1, c2, opposite = answer
            checks.check_chambers(o, chambers, model.p)
            checks.check_first_chamber(o, z, c1, model.p)
            checks.check_first_chamber(o, zp, c2, model.p)
            checks.check_opposition(c1, c2, opposite, model.p)

        return check


def _link_call(model, query):
    o, z, zp = query
    return lambda: (model.chambers_at(o), model.first_chamber(o, z),
                    model.first_chamber(o, zp), model.link_opposition_check(o, z, zp))


def _verify_a2_check(res: CliResult, p: int, r: int) -> None:
    import checks

    checks.check_a2_verify(json.loads(res.stdout), p, r)


# -- boundary-walks -------------------------------------------------------------------

# The exit walks run in one thread.  At workers=2 the program's two threads
# share the GIL, and the fastest repetition of a walk request moved by 12 %
# from one 10-s window to the next on a 2-vCPU host, against 2 % in one
# thread; the workers=2 path is still timed by the verify request below.
WALK_WORKERS = 1
VERIFY_WORKERS = 2
TREE_EXITS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))     # (q, level)
TREE_SAMPLES = 3000
A2_BALL = (2, 3)
A2_LEVEL = 2
A2_SAMPLES = 2000
# (family, period d, start, steps): quotients of the line and of cycle-6 by
# translations of period d, each the +-1 walk on Z/d.
LAWS = (("integer-line", 3, 0, 5), ("cycle-6", 3, 0, 4), ("cycle-6", 2, 1, 5))
LAW_SAMPLES = 3000
RETURNS = (("integer-line", 4, 0), ("cycle-6", 3, 0))
RETURN_SAMPLES = 2000
VERIFY_SUITES = ("hitting-tree", "quotient-law", "return-times")
VERIFY_SAMPLES = 1000


class BoundaryWalks(Workload):
    """Monte Carlo exit walks on trees and a built ball, projected-law and
    return-time walks on quotients, and one stochastic verify at two worker
    counts."""

    name = "boundary-walks"

    def setup(self) -> None:
        from chamberwalk.action import FiniteAction, IntegerTranslationAction, quotient_network
        from chamberwalk.buildings import A2Ball, TreeBuilding
        from chamberwalk.netwalk import cycle_network, integer_line_network

        self.trees = {q: TreeBuilding(q) for q in sorted({q for q, _ in TREE_EXITS})}
        self.ball = A2Ball(*A2_BALL)
        self.ball.sigma_partition(self.ball.origin)
        self.quotients = {}
        for family, d, *_ in LAWS + RETURNS:
            if family == "integer-line":
                net, action = integer_line_network(), IntegerTranslationAction(d)
            else:
                size = int(family.split("-")[1])
                net = cycle_network(size)
                action = FiniteAction(range(size), [tuple((i + d) % size for i in range(size))])
            self.quotients[(family, d)] = quotient_network(net, action)
        with self.generating_inputs():
            self.verify_seed = self.rand.randrange(1, 2**31)
        self._ball_classes = None
        self.profile = {"tree_samples": TREE_SAMPLES, "a2_samples": A2_SAMPLES,
                        "ball_vertices": len(self.ball.vertices)}

    def _stream(self, j: int):
        from chamberwalk.netwalk import RngStream

        return RngStream(self.seed, (j,))

    def requests(self) -> list:
        from chamberwalk.action import quotient_law_check, return_time_stats
        from chamberwalk.boundary import IsotropicKernel, boundary_hitting_mc

        # fresh kernels: their row caches start empty in every round
        trees = {q: IsotropicKernel(tree) for q, tree in self.trees.items()}
        ball_kernel = IsotropicKernel(self.ball)
        out = []
        for j, (q, level) in enumerate(TREE_EXITS):
            out.append(Request(
                f"tree-{q}-exit-{level}",
                lambda kernel=trees[q], level=level, rng=self._stream(j): boundary_hitting_mc(
                    kernel, (), level, TREE_SAMPLES, rng, workers=WALK_WORKERS),
                lambda st, q=q, level=level: _tree_check(st, q, level)))
        out.append(Request(
            f"a2-{A2_BALL[0]}-{A2_BALL[1]}-exit-{A2_LEVEL}",
            lambda rng=self._stream(len(TREE_EXITS)): boundary_hitting_mc(
                ball_kernel, self.ball.origin, A2_LEVEL, A2_SAMPLES, rng,
                workers=WALK_WORKERS),
            self._a2_check))
        for j, (family, d, start, steps) in enumerate(LAWS):
            qnet = self.quotients[(family, d)]
            out.append(Request(
                f"law-{family}-mod-{d}",
                lambda qnet=qnet, start=start, steps=steps, rng=self._stream(100 + j):
                    quotient_law_check(qnet, start, steps, LAW_SAMPLES, rng),
                lambda rep, d=d, start=start, steps=steps: _law_check(rep, d, start, steps)))
        for j, (family, d, start) in enumerate(RETURNS):
            qnet = self.quotients[(family, d)]
            out.append(Request(
                f"return-{family}-mod-{d}",
                lambda qnet=qnet, start=start, rng=self._stream(200 + j):
                    return_time_stats(qnet, start, RETURN_SAMPLES, rng),
                lambda st, d=d: _return_check(st, d)))
        argv = ["verify", "--seed", self.verify_seed, "--samples", VERIFY_SAMPLES]
        for suite in VERIFY_SUITES:
            argv += ["--suite", suite]
        first = {}
        out.append(Request(f"verify-workers-{VERIFY_WORKERS}",
                           lambda: run_cli(argv + ["--workers", VERIFY_WORKERS]),
                           lambda res: _verify_check(res, first), ok_codes=(0, 1)))
        out.append(Request("verify-workers-1", lambda: run_cli(argv + ["--workers", 1]),
                           lambda res: _verify_check(res, first), ok_codes=(0, 1)))
        return out

    def _a2_check(self, stats) -> None:
        import checks

        if self._ball_classes is None:
            classes: dict = {}
            for v in self.ball.vertices:
                lam = checks.sigma(None, v, self.ball.p)
                if max(lam) == A2_LEVEL:
                    classes.setdefault(lam, []).append(v)
            self._ball_classes = classes
        checks.check_a2_exits(stats, self._ball_classes, A2_LEVEL, A2_SAMPLES)


def _tree_check(stats, q: int, level: int) -> None:
    import checks

    checks.check_tree_exits(stats, q, level, TREE_SAMPLES)


def _law_check(report, d: int, start: int, steps: int) -> None:
    import checks

    checks.check_quotient_law(report, checks.cyclic_law(d, start, steps), LAW_SAMPLES)


def _return_check(stats, d: int) -> None:
    import checks

    # every class of the +-1 walk on Z/d has m' = 2, so Kac's mean is d
    checks.check_return_times(stats, Fraction(d))


def _verify_check(res: CliResult, first: dict) -> None:
    """The workers-2 report is kept; the workers-1 one must equal it."""
    import checks

    reference = first.setdefault("text", res.stdout)
    checks.check_stochastic_verify(res.code, res.stdout, VERIFY_SUITES, reference)
    if reference is not res.stdout:
        first.clear()


WORKLOADS = {w.name: w for w in (ExactChains, BallBuild, BoundaryWalks)}

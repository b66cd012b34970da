"""Group actions on networks, quotient networks and return-time checks.

An action is used through a small interface: canonical orbit representative,
stabilizer order, fundamental domain, and translation by group elements
identified by canonical keys.  Finite permutation actions materialise the
whole group; the lazy built-ins (integer translations, and word trees for
free groups and free products of involutions) know their answers directly.

For a network invariant under the action, the quotient network on the
fundamental domain is

    a'(x, y) = (1/|G_x|) sum over the fibre of y of a(x', .),
    m'(pi(x)) = m(x)/|G_x|,

and the projected walk has the same law as the walk of the quotient kernel
q(pi(x), pi(y)) = sum over the orbit of y of p(x, y').
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import SchemaError, SizeGuardError
from .netwalk import (
    FiniteNetwork,
    LazyNetwork,
    MarkovKernel,
    RngStream,
    first_passages,
    kernel_from_network,
    passage_counts,
)
from .stats import ChiSquareResult, chisquare_expected

if TYPE_CHECKING:
    import numpy as np

GROUP_CLOSURE_LIMIT = 2_000_000     # point images a closure may hold: elements x points


# -- finite permutation actions -------------------------------------------------

class FiniteAction:
    """A permutation group acting on an explicit node list."""

    def __init__(self, nodes, generators) -> None:
        self.nodes = tuple(nodes)
        self._index = {x: i for i, x in enumerate(self.nodes)}
        n = len(self.nodes)
        gens = [tuple(g) for g in generators]
        for g in gens:
            if sorted(g) != list(range(n)):
                raise SchemaError(f"not a permutation of 0..{n - 1}: {g}")
        identity = tuple(range(n))
        seen = {identity}
        frontier = [identity] if n > 1 else []  # on 0 or 1 points it is the group
        while frontier:
            new = []
            for g in frontier:
                compose = itemgetter(*g)    # h -> (h[g[0]], h[g[1]], ...)
                for h in gens:
                    comp = compose(h)
                    if comp not in seen:
                        if (len(seen) + 1) * n > GROUP_CLOSURE_LIMIT:
                            raise SizeGuardError("permutation group closure too large")
                        seen.add(comp)
                        new.append(comp)
            frontier = new
        self.elements = tuple(sorted(seen))
        self.generators = gens
        # orbits from generator moves
        self._orbit_rep: dict = {}
        for i in range(n):
            if self.nodes[i] in self._orbit_rep:
                continue
            orbit = {i}
            stack = [i]
            while stack:
                j = stack.pop()
                for g in gens:
                    if g[j] not in orbit:
                        orbit.add(g[j])
                        stack.append(g[j])
            rep = self.nodes[min(orbit)]
            for j in orbit:
                self._orbit_rep[self.nodes[j]] = rep

    def canonicalize(self, x):
        return self._orbit_rep[x]

    def stabilizer_order(self, x) -> int:
        i = self._index[x]
        return sum(1 for g in self.elements if g[i] == i)

    def fundamental_domain(self):
        seen = []
        for x in self.nodes:
            if self._orbit_rep[x] == x and x not in seen:
                seen.append(x)
        return seen

    def orbit(self, x):
        rep = self._orbit_rep[x]
        return [y for y in self.nodes if self._orbit_rep[y] == rep]

    def translate(self, key, x):
        return self.nodes[key[self._index[x]]]

    def element_keys(self):
        return self.elements

    def inverse_key(self, key):
        return tuple(sorted(range(len(key)), key=lambda i: key[i]))


# -- lazy built-in actions --------------------------------------------------------

class IntegerTranslationAction:
    """The subgroup kZ of translations acting on the integer line."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def canonicalize(self, x: int) -> int:
        return x % self.k

    def stabilizer_order(self, x: int) -> int:
        return 1

    def fundamental_domain(self):
        return list(range(self.k))

    def translate(self, key: int, x: int) -> int:
        return x + key

    def element_for(self, o: int, x: int) -> int:
        d = x - o
        if d % self.k:
            raise ValueError(f"{x} is not in the orbit of {o}")
        return d

    def inverse_key(self, key: int) -> int:
        return -key

    def key_distance(self, key: int) -> int:
        return abs(key)

    def random_key(self, gen: np.random.Generator) -> int:
        return self.k * int(gen.integers(-8, 9))


class WordTreeAction:
    """A free product of cyclic groups on its Cayley tree, by left translation.

    Nodes are reduced words over the int ``letters``: no letter is followed
    by its inverse under the ``inverse`` map.  The tree is len(letters)
    regular and the action is simply transitive.
    """

    def __init__(self, letters, inverse) -> None:
        self.letters = tuple(letters)
        self.inverse = dict(inverse)

    def contains(self, w) -> bool:
        """Whether w is a node: a reduced word over the letters."""
        return (isinstance(w, tuple) and all(type(a) is int and a in self.inverse for a in w)
                and all(self.inverse[a] != b for a, b in zip(w, w[1:])))

    def reduce_concat(self, a, b) -> tuple:
        out = list(a)
        i = 0
        while out and i < len(b) and self.inverse.get(out[-1]) == b[i]:
            out.pop()
            i += 1
        out.extend(b[i:])
        return tuple(out)

    def right_step(self, w, letter: int) -> tuple:
        return self.reduce_concat(w, (letter,))

    def canonicalize(self, w) -> tuple:
        return ()

    def stabilizer_order(self, w) -> int:
        return 1

    def fundamental_domain(self):
        return [()]

    def translate(self, key, w) -> tuple:
        return self.reduce_concat(key, w)

    def element_for(self, o, x) -> tuple:
        return self.reduce_concat(x, self.inverse_key(o))

    def inverse_key(self, key) -> tuple:
        return tuple(self.inverse[g] for g in reversed(key))

    def key_distance(self, key) -> int:
        return len(key)

    def random_key(self, gen: np.random.Generator) -> tuple:
        n = int(gen.integers(0, 7))
        w: tuple = ()
        for _ in range(n):
            w = self.right_step(w, self.letters[int(gen.integers(len(self.letters)))])
        return w

    def network(self) -> LazyNetwork:
        return LazyNetwork(lambda w: [(self.right_step(w, g), 1) for g in self.letters])


def FreeGroupTreeAction(rank: int) -> WordTreeAction:
    """F_rank on its 2*rank regular Cayley tree, letters +-1 .. +-rank."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    letters = tuple(s * i for i in range(1, rank + 1) for s in (1, -1))
    return WordTreeAction(letters, {g: -g for g in letters})


def InvolutionTreeAction(m: int) -> WordTreeAction:
    """The free product of m copies of Z/2Z on its m-regular Cayley tree,
    letters 0..m-1."""
    if m < 3:
        raise ValueError("need at least 3 involutions for a tree")
    return WordTreeAction(range(m), {g: g for g in range(m)})


# -- covolume ----------------------------------------------------------------------

@dataclass(frozen=True)
class CovolumeResult:
    value: object
    verdict: str      # "finite" or "unknown"
    terms: int


def covolume(net, action, budget: int = 100000) -> CovolumeResult:
    """sum over the fundamental domain of m(x)/|G_x|, with an iteration budget."""
    total = Fraction(0)
    count = 0
    for x in action.fundamental_domain():
        if count >= budget:
            return CovolumeResult(total, "unknown", count)
        total += Fraction(net.m(x)) / action.stabilizer_order(x)
        count += 1
    return CovolumeResult(total, "finite", count)


# -- quotient networks ---------------------------------------------------------------

class QuotientNetwork:
    """The quotient of an invariant network by a group action."""

    def __init__(self, ambient, action) -> None:
        self.ambient = ambient
        self.action = action
        reps = list(action.fundamental_domain())
        edges = {}
        weights = {}
        for x in reps:
            stab = action.stabilizer_order(x)
            bucket: dict = {}
            for y, a in ambient.neighbors(x):
                ybar = action.canonicalize(y)
                bucket[ybar] = bucket.get(ybar, Fraction(0)) + Fraction(a)
            for ybar, a in bucket.items():
                edges[(x, ybar)] = a / stab
            weights[x] = Fraction(ambient.m(x)) / stab
        for (x, y), a in edges.items():
            if (y, x) not in edges or edges[(y, x)] != a:
                raise AssertionError(f"quotient conductance not symmetric at {(x, y)}")
        edge_list = [
            (x, y, a)
            for (x, y), a in sorted(edges.items(), key=lambda t: repr(t[0]))
            if repr(x) <= repr(y)
        ]
        self.network = FiniteNetwork(reps, edge_list)
        self.m_prime = weights

    def project(self, x):
        return self.action.canonicalize(x)

    def kernel(self) -> MarkovKernel:
        return kernel_from_network(self.network)


def quotient_network(net, action) -> QuotientNetwork:
    return QuotientNetwork(net, action)


def exact_distribution_after(kernel: MarkovKernel, start, steps: int) -> dict:
    """The exact law of Z_steps for a finite kernel, as Fractions."""
    dist = {start: Fraction(1)}
    for _ in range(steps):
        new: dict = {}
        for x, px in dist.items():
            for y, p in kernel.row(x):
                if p > 0:
                    new[y] = new.get(y, Fraction(0)) + px * p
        dist = new
    return dist


@dataclass(frozen=True)
class QuotientLawReport:
    counts: dict
    expected: dict
    chi_square: ChiSquareResult
    samples: int

    def passes(self) -> bool:
        return self.chi_square.passes()


def quotient_law_check(qnet: QuotientNetwork, start, steps: int, samples: int,
                       rng: RngStream) -> QuotientLawReport:
    """Project an ambient walk and compare with the exact quotient law.

    The ambient walk starts at ``start`` and runs for ``steps`` transitions;
    the projected endpoint is tallied against the ``steps``-step law of the
    quotient kernel started at pi(start).
    """
    ambient_kernel = kernel_from_network(qnet.ambient)
    qkernel = qnet.kernel()
    expected = exact_distribution_after(qkernel, qnet.project(start), steps)
    support = sorted(expected, key=repr)
    counts = {y: 0 for y in support}
    states, ids, _ = first_passages(ambient_kernel, start, lambda x: False, rng, samples,
                                    steps)
    # each end's class, in the order the walks first reach it
    for x, n in passage_counts(states, ids):
        xbar = qnet.project(x)
        counts[xbar] = counts.get(xbar, 0) + n
    keys = sorted(counts, key=repr)
    res = chisquare_expected(
        [counts[k] for k in keys],
        [float(expected.get(k, Fraction(0))) for k in keys],
    )
    return QuotientLawReport(counts=counts, expected=expected, chi_square=res,
                             samples=samples)


# -- return times ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReturnTimeStats:
    samples: int
    unresolved: int
    mean: float
    std_error: float
    exact_mean: Fraction
    tail_slope: float
    exp_moment: float | None
    exp_rate: float | None

    def mean_within_sigmas(self, k: float = 3.0) -> bool:
        return abs(self.mean - float(self.exact_mean)) <= k * self.std_error


def return_time_samples(kernel: MarkovKernel, x, samples: int, rng: RngStream,
                        horizon: int = 10**6):
    """First return times to x, as an int array in walk order, and the
    number of walks censored at the horizon."""
    _, _, times = first_passages(kernel, x, lambda y: y == x, rng, samples, horizon)
    times = times[times >= 0]
    return times, samples - len(times)


def return_time_stats(qnet: QuotientNetwork, x, samples: int, rng: RngStream,
                      exp_rate: float | None = None,
                      horizon: int = 10**6) -> ReturnTimeStats:
    """Monte Carlo return-time statistics plus the exact stationary mean.

    For the quotient of a recurrent network the mean return time to x is
    (sum of m') / m'(x); the tail is geometric, so the fitted log-slope of
    the empirical survival function must come out negative.
    """
    import numpy as np

    kernel = qnet.kernel()
    xbar = qnet.project(x)
    times, unresolved = return_time_samples(kernel, xbar, samples, rng, horizon)
    arr = times.astype(float)
    mean = float(arr.mean())
    std_error = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    total = sum(qnet.m_prime.values())
    exact_mean = total / qnet.m_prime[xbar]
    # empirical survival log-slope over well-populated tail points
    tmax = int(arr.max())
    slope = 0.0
    ts, logs = [], []
    for t in range(1, tmax + 1):
        c = int((arr >= t).sum())
        if c >= 20:
            ts.append(t)
            logs.append(np.log(c / len(arr)))
    if len(ts) >= 2:
        slope = float(np.polyfit(ts, logs, 1)[0])
    exp_moment = None
    if exp_rate is not None:
        exp_moment = float(np.exp(exp_rate * arr).mean())
    return ReturnTimeStats(samples=samples, unresolved=unresolved, mean=mean,
                           std_error=std_error, exact_mean=exact_mean,
                           tail_slope=slope, exp_moment=exp_moment,
                           exp_rate=exp_rate)


# -- invariance spot checks ---------------------------------------------------------------

@dataclass(frozen=True)
class InvarianceReport:
    checked: int
    defect: object
    mode: str    # "exact" for finite exhaustive, "sampled" otherwise

    @property
    def verdict(self) -> bool:
        return self.defect == 0


def action_invariance_check(net, action, rng: RngStream | None = None,
                            samples: int = 10000) -> InvarianceReport:
    """Check a(gx, gy) = a(x, y), exhaustively when the action is finite."""
    if isinstance(action, FiniteAction):
        worst = Fraction(0)
        checked = 0
        for g in action.element_keys():
            for x in action.nodes:
                for y, a in net.neighbors(x):
                    gx, gy = action.translate(g, x), action.translate(g, y)
                    worst = max(worst, abs(Fraction(net.conductance(gx, gy)) - Fraction(a)))
                    checked += 1
        return InvarianceReport(checked=checked, defect=worst, mode="exact")
    if rng is None:
        raise ValueError("sampled invariance check needs an RngStream")
    gen = rng.generator()
    worst = Fraction(0)
    checked = 0
    reps = action.fundamental_domain()
    while checked < samples:
        x = reps[int(gen.integers(len(reps)))]
        # short random walk to spread the checked edges around
        for _ in range(int(gen.integers(0, 5))):
            nbrs = net.neighbors(x)
            x = nbrs[int(gen.integers(len(nbrs)))][0]
        g = action.random_key(gen)
        for y, a in net.neighbors(x):
            gx, gy = action.translate(g, x), action.translate(g, y)
            worst = max(worst, abs(Fraction(net.conductance(gx, gy)) - Fraction(a)))
            checked += 1
    return InvarianceReport(checked=checked, defect=worst, mode="sampled")

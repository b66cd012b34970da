"""Networks, Markov kernels, simulation and exact linear-algebra checks.

A network is a symmetric conductance function a on pairs of nodes together
with the vertex weights m(x) = sum_y a(x, y); the associated kernel
p(x, y) = a(x, y)/m(x) is reversible with respect to m.  Two backends are
provided: a finite explicit one, and a lazy one driven by a neighbour oracle
for infinite graphs, whose nodes are keyed by a canonical byte encoding.

Conductances and probabilities stay in ``fractions.Fraction`` whenever the
input data is rational, so the structural checks (row sums, detailed
balance, stationarity, absorption solves) are exact; float data degrades the
same code paths to tolerance checks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
import json
from math import gcd, isfinite, lcm
import heapq

from .errors import SchemaError

EXACT_SOLVE_LIMIT = 600
FIRST_BLOCK, MAX_BLOCK = 4, 1024    # uniforms per draw in the walk loops


# -- rng ---------------------------------------------------------------------

_CHUNK = 4096   # walks stepped together per numpy pass
_TAIL = 64      # walks of a chunk left to finish one by one

np = None   # numpy, bound by _numpy() on first use: exact solves never need it


def _numpy():
    """numpy, imported on first use.  Walks, streams and float solves call
    this once on entry; no per-step code calls it."""
    global np
    if np is None:
        import numpy
        np = numpy
    return np


@dataclass(frozen=True)
class RngStream:
    """A named, splittable randomness source.

    Streams are identified by (seed, key); equal identifiers give equal
    generators, and children obtained through :meth:`child` are independent
    of each other in the usual SeedSequence sense.  Anything stochastic in
    the package takes one of these, so runs are reproducible end to end.
    """

    seed: int
    key: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        np = _numpy()
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.key + tuple(indices))


# -- conductance values -------------------------------------------------------

def parse_conductance(value):
    """Accept int, finite float, Fraction or 'p/q' strings; ints stay exact."""
    if isinstance(value, bool):
        raise SchemaError("conductance must be a number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if not isfinite(value):
            raise SchemaError(f"conductance must be finite, got {value!r}")
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ValueError as exc:
            raise SchemaError(f"bad conductance string {value!r}") from exc
    raise SchemaError(f"bad conductance {value!r}")


def conductance_to_json(value):
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    return value


def encode_node(x) -> bytes:
    """Canonical byte key for a node; tuples, ints and strings all work."""
    return repr(x).encode()


# -- networks ------------------------------------------------------------------

class FiniteNetwork:
    """Explicit symmetric network on a finite node set."""

    def __init__(self, nodes, edges) -> None:
        self.nodes = tuple(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise SchemaError("duplicate nodes")
        node_set = set(self.nodes)
        self._adj: dict = {x: {} for x in self.nodes}
        for u, v, a in edges:
            if u not in node_set or v not in node_set:
                raise SchemaError(f"edge endpoint not a node: {(u, v)}")
            a = parse_conductance(a)
            if (isinstance(a, Fraction) and a < 0) or (isinstance(a, float) and a < 0):
                raise SchemaError("conductances must be nonnegative")
            if v in self._adj[u]:
                raise SchemaError(f"duplicate edge {(u, v)}")
            self._adj[u][v] = a
            if u != v:
                self._adj[v][u] = a
        self.is_exact = all(
            isinstance(a, Fraction) for nbrs in self._adj.values() for a in nbrs.values()
        )

    def neighbors(self, x):
        return sorted(self._adj[x].items(), key=lambda t: encode_node(t[0]))

    def conductance(self, u, v):
        return self._adj[u].get(v, Fraction(0) if self.is_exact else 0.0)

    def m(self, x):
        zero = Fraction(0) if self.is_exact else 0.0
        return sum((a for a in self._adj[x].values()), zero)

    def to_json(self) -> dict:
        edges = []
        seen = set()
        for u in self.nodes:
            for v, a in self.neighbors(u):
                k = (min(encode_node(u), encode_node(v)), max(encode_node(u), encode_node(v)))
                if k in seen:
                    continue
                seen.add(k)
                edges.append([u, v, conductance_to_json(a)])
        return {"nodes": list(self.nodes), "edges": edges}


class LazyNetwork:
    """Network given by a neighbour oracle, for infinite graphs.

    ``neighbors_fn(x)`` must return the full finite list of (neighbour,
    conductance) pairs of x, consistently in both directions.
    """

    def __init__(self, neighbors_fn) -> None:
        self._neighbors_fn = neighbors_fn

    def neighbors(self, x):
        out = [(y, parse_conductance(a)) for y, a in self._neighbors_fn(x)]
        return sorted(out, key=lambda t: encode_node(t[0]))

    def m(self, x):
        return sum((a for _, a in self.neighbors(x)), Fraction(0))

    def conductance(self, u, v):
        for y, a in self.neighbors(u):
            if y == v:
                return a
        return Fraction(0)


def _node_from_json(x):
    """A node of a network document: a scalar, or a list read as a tuple."""
    if isinstance(x, list):
        return tuple(_node_from_json(v) for v in x)
    if isinstance(x, dict):
        raise SchemaError(f"node must be a scalar or a list, got {x!r}")
    return x


def network_from_json(doc) -> FiniteNetwork:
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise SchemaError("network document needs 'nodes' and 'edges'")
    if not isinstance(doc["nodes"], list) or not isinstance(doc["edges"], list):
        raise SchemaError("network 'nodes' and 'edges' must be lists")
    try:
        nodes = [_node_from_json(x) for x in doc["nodes"]]
        edges = []
        for e in doc["edges"]:
            if not isinstance(e, list) or len(e) != 3:
                raise SchemaError(f"edge must be [u, v, a]: {e}")
            u, v, a = e
            edges.append((_node_from_json(u), _node_from_json(v), a))
    except RecursionError as exc:
        raise SchemaError("network nodes nest lists too deeply") from exc
    return FiniteNetwork(nodes, edges)


def integer_line_network() -> LazyNetwork:
    """Simple random walk network on the integers, unit conductances."""
    return LazyNetwork(lambda n: [(n - 1, 1), (n + 1, 1)])


def cycle_network(n: int) -> FiniteNetwork:
    return FiniteNetwork(range(n), [(i, (i + 1) % n, 1) for i in range(n)])


def path_network(n: int) -> FiniteNetwork:
    return FiniteNetwork(range(n), [(i, i + 1, 1) for i in range(n - 1)])


# -- kernels -------------------------------------------------------------------

def _is_exact_number(p) -> bool:
    return isinstance(p, (Fraction, int))


def _cumulative(row):
    """(targets, running float sums) of a kernel row; the last sum is +inf,
    so a uniform that rounding leaves past the total takes the last target.
    The walk step for a uniform u is ``targets[bisect_right(sums, u)]``."""
    acc, cum = 0.0, []
    for _, p in row:
        acc += float(p)
        cum.append(acc)
    cum[-1] = float("inf")
    return tuple(y for y, _ in row), cum


class MarkovKernel:
    """Transition kernel with finite rows, over a finite or lazy state space."""

    def __init__(self, row_fn, nodes=None, is_exact=True) -> None:
        self._row_fn = row_fn
        self.nodes = tuple(nodes) if nodes is not None else None
        self.is_exact = is_exact
        self._cache: dict = {}
        self._hitting: dict = {}    # absorbing tuple -> (zero, sparse rows), see _hitting_rows

    @classmethod
    def finite(cls, rows: dict) -> "MarkovKernel":
        """A kernel on the keys of rows; each row is sorted by ``encode_node``
        (one call per distinct target) here, once, kept as the row cache and
        validated."""
        rows = {x: [(y, p) for y, p in row] for x, row in rows.items()}
        enc = {y: encode_node(y) for y in {y for row in rows.values() for y, _ in row}}
        rows = {x: tuple(sorted(row, key=lambda t: enc[t[0]])) for x, row in rows.items()}
        exact = all(_is_exact_number(p) for row in rows.values() for _, p in row)
        kernel = cls(rows.__getitem__, nodes=tuple(rows), is_exact=exact)
        kernel._cache = rows
        for x, row in rows.items():
            kernel._validate_row(x, row)
        return kernel

    def _validate_row(self, x, row) -> None:
        """Refuse a row that does not sum to 1 (within 1e-12 for float kernels)
        or has a negative entry.  An exact row is read once, in integers: its
        numerators over the lcm of its denominators are summed and signed."""
        if self.is_exact:
            try:
                den = lcm(*(p.denominator for _, p in row))
            except AttributeError:  # a float in a lazy kernel, which calls itself exact
                raise ValueError(f"inexact probability in exact row of {x!r}") from None
            nums = [p.numerator * (den // p.denominator) for _, p in row]
            if sum(nums) != den:
                raise ValueError(f"row of {x!r} sums to {Fraction(sum(nums), den)}, not 1")
            negative = min(nums) < 0
        else:
            total = sum(p for _, p in row)
            if not abs(float(total) - 1.0) <= 1e-12:    # a NaN fails this too
                raise ValueError(f"row of {x!r} sums to {total}, not 1")
            negative = any(p < 0 for _, p in row)
        if negative:
            raise ValueError(f"negative probability in row of {x!r}")

    def row(self, x):
        if x not in self._cache:
            row = tuple(sorted(self._row_fn(x), key=lambda t: encode_node(t[0])))
            self._validate_row(x, row)
            self._cache[x] = row
        return self._cache[x]

    def prob(self, x, y):
        for z, p in self.row(x):
            if z == y:
                return p
        return Fraction(0) if self.is_exact else 0.0

    def sample_next(self, x, gen: np.random.Generator):
        """The state after x for one uniform of gen: the walk step of
        ``_cumulative``, with nothing kept between calls."""
        targets, cum = _cumulative(self.row(x))
        return targets[bisect_right(cum, gen.random())]


def kernel_from_network(net) -> MarkovKernel:
    """p(x, y) = a(x, y) / m(x); fails on isolated nodes.

    On an exact finite network each node's conductances are read as integer
    numerators n_y over the lcm of their denominators, so that with
    M = sum n_y, p(x, y) = n_y/M: one Fraction per entry, made from two
    integers.
    """

    def row(x, mx, nbrs):
        if mx == 0:
            raise ValueError(f"node {x!r} has m = 0, no kernel row")
        return [(y, a / mx) for y, a in nbrs]

    if isinstance(net, FiniteNetwork) and net.is_exact:
        rows = {}
        for x in net.nodes:
            nbrs = net._adj[x]
            den = lcm(*(a.denominator for a in nbrs.values()))
            nums = [(y, a.numerator * (den // a.denominator)) for y, a in nbrs.items()]
            total = sum(v for _, v in nums)
            if total == 0:
                raise ValueError(f"node {x!r} has m = 0, no kernel row")
            rows[x] = [(y, Fraction(v, total)) for y, v in nums]
        return MarkovKernel.finite(rows)
    if isinstance(net, FiniteNetwork):
        # rows in adjacency order, the order net.m sums in; finite sorts them
        return MarkovKernel.finite({x: row(x, net.m(x), net._adj[x].items())
                                    for x in net.nodes})

    def row_fn(x):
        nbrs = net.neighbors(x)     # LazyNetwork.m's sum, over the same sorted list
        return row(x, sum((a for _, a in nbrs), Fraction(0)), nbrs)

    return MarkovKernel(row_fn)


def reversibility_defect(kernel: MarkovKernel, m: dict):
    """max |m(x) p(x,y) - m(y) p(y,x)| over enumerated edges (finite kernels)."""
    worst = Fraction(0) if kernel.is_exact else 0.0
    for x in kernel.nodes:
        for y, p in kernel.row(x):
            d = abs(m[x] * p - m[y] * kernel.prob(y, x))
            worst = max(worst, d)
    return worst


# -- trajectories --------------------------------------------------------------

def _distinct(ids) -> list:
    """The distinct values of an int array, ascending, from one bincount: a
    dict over ``ids.tolist()`` costs ten times as much for thousands of walks."""
    return np.flatnonzero(np.bincount(ids)).tolist()


class _RowTables:
    """The states a kernel's walks reach, interned, with their rows as
    padded numpy tables, so that many walks step in one numpy pass.

    State i is ``states[i]``.  Once a walk stands at it, ``rows[i]`` holds
    the target ids and running float sums of ``_cumulative``, and the table
    rows ``cum[i]`` (padded with +inf) and ``nxt[i]`` hold the same.  The
    tables are W wide, W a power of two, and a lockstep step is a
    branch-free binary search over them (Khuong and Morin, ACM JEA 22,
    2017): from ``at = cur * W``, for h = W/2, W/4, ..., 1,
    ``at += h * (cum.take(at + h - 1) <= u)``, then ``nxt.take(at)``.
    A row's sums never decrease and its last is +inf, so the probes count
    its sums <= u: ``bisect_right`` on the same floats, with log2(W)
    one-dimensional takes in place of a W-wide gather per walk.  The count
    stays below the row's length, so ``nxt`` is not padded: past a row's
    length it is never read.

    ``stop`` is called once per state, for states a walk reached only;
    ``stops`` keeps its answers, and ``stopped_at`` copies them for the
    lockstep test.  The Python lists serve the one-walk loops (``finish``,
    and ``simulate``, which records every state); the numpy tables are
    filled from them when a lockstep step first needs a state.
    """

    def __init__(self, kernel: MarkovKernel, start, stop=None) -> None:
        np = _numpy()
        self.kernel, self.stop = kernel, stop
        self.ids: dict = {}
        self.states: list = []
        self.rows: list = []
        self.stops: list = []
        self.cum = np.full((0, 1), np.inf)
        self.nxt = np.zeros((0, 1), np.intp)
        self.ready = np.zeros(0, bool)           # table row filled
        self.stopped_at = np.zeros(0, np.int8)  # stops as 0/1, -1 not yet known
        self._intern(start)
        self._grow(1, 1)

    def _intern(self, x) -> int:
        i = self.ids.get(x)
        if i is None:
            i = self.ids[x] = len(self.states)
            self.states.append(x)
            self.rows.append(None)
            self.stops.append(None)
        return i

    def row(self, i: int):
        if self.rows[i] is None:
            targets, cum = _cumulative(self.kernel.row(self.states[i]))
            self.rows[i] = (tuple(self._intern(y) for y in targets), cum)
        return self.rows[i]

    def test(self, i: int) -> bool:
        if self.stops[i] is None:
            self.stops[i] = bool(self.stop(self.states[i]))
        return self.stops[i]

    def step(self, cur, u):
        """The ids after ids ``cur`` for uniforms ``u``, one per walk."""
        ready = self.ready[cur]
        if not ready.all():
            missing = _distinct(cur[~ready])
            rows = [self.row(i) for i in missing]
            width = max(self.cum.shape[1], *(len(cum) for _, cum in rows))
            self._grow(len(self.states), width)
            for i, (targets, cum) in zip(missing, rows):
                self.cum[i, :len(cum)] = cum
                self.nxt[i, :len(targets)] = targets
            self.ready[missing] = True
        width = self.cum.shape[1]
        at, h = cur * width, width // 2     # flat indices: take() reads the tables flat
        while h:
            at += h * (self.cum.take(at + (h - 1)) <= u)
            h //= 2
        return self.nxt.take(at)

    def stopped(self, cur):
        """Whether stop holds at each id of ``cur``."""
        known = self.stopped_at[cur]
        unknown = known < 0
        if unknown.any():
            new = _distinct(cur[unknown])
            self.stopped_at[new] = [self.test(i) for i in new]
            known = self.stopped_at[cur]
        return known == 1

    def _grow(self, size: int, width: int) -> None:
        """Make room for ``size`` states and rows of ``width`` targets, the
        width rounded up to a power of two."""
        width = 1 << (width - 1).bit_length()
        rows, cols = self.cum.shape
        if size <= rows and width <= cols:
            return
        size = max(size, 2 * rows) if size > rows else rows
        cum = np.full((size, width), np.inf)
        cum[:rows, :cols] = self.cum
        nxt = np.zeros((size, width), np.intp)
        nxt[:rows, :cols] = self.nxt
        self.cum, self.nxt = cum, nxt
        self.ready = np.concatenate([self.ready, np.zeros(size - rows, bool)])
        self.stopped_at = np.concatenate([self.stopped_at, np.full(size - rows, -1, np.int8)])

    def finish(self, gen: np.random.Generator, i: int, t: int, horizon: int):
        """One walk from id i at time t, drawn from gen in blocks of 4, 16,
        ... up to ``MAX_BLOCK``: (id, t) at its first stop, or at the
        horizon.  A block takes min(block, horizon - t) uniforms, so a walk
        that reaches the horizon has drawn exactly horizon - t of them."""
        rows, stops, block = self.rows, self.stops, FIRST_BLOCK
        while t < horizon:
            for u in gen.random(min(block, horizon - t)).tolist():
                t += 1
                targets, cum = rows[i] or self.row(i)
                i = targets[bisect_right(cum, u)]
                if stops[i] or (stops[i] is None and self.test(i)):
                    return i, t
            block = min(4 * block, MAX_BLOCK)
        return i, t


def simulate(kernel: MarkovKernel, start, steps: int, rng: RngStream) -> tuple:
    """The ``steps + 1`` states of a walk of ``steps`` transitions from
    ``start`` using the given stream, its uniforms drawn in blocks of
    ``MAX_BLOCK``."""
    tables = _RowTables(kernel, start)
    gen, rows, i, ids = rng.generator(), tables.rows, 0, [0]
    for lo in range(0, steps, MAX_BLOCK):
        for u in gen.random(min(MAX_BLOCK, steps - lo)).tolist():
            targets, cum = rows[i] or tables.row(i)
            i = targets[bisect_right(cum, u)]
            ids.append(i)
    states = tables.states
    return tuple(states[i] for i in ids)


def first_passages(kernel: MarkovKernel, start, stop, rng: RngStream, samples: int,
                   horizon: int) -> tuple:
    """First passages of ``samples`` independent walks from ``start``.

    Returns (states, ids, times): walk i ends at ``states[ids[i]]``, its
    first stop or its state at the horizon, and ``times[i]`` is the first t
    in 1..horizon with stop(Z_t), or -1 where the horizon ran out.
    ``states`` lists every state the walks reached, each once, so callers
    tally ends by id.  The start itself is never tested, and stop is called
    once per state reached.

    Every draw comes from one ``rng.generator()``.  The walks run in chunks
    of ``_CHUNK``; at each time step the live walks of a chunk take one
    uniform each, in walk order, and step together, until at most ``_TAIL``
    of them are left.  Those finish one after another through
    ``_RowTables.finish``, drawing from the same generator.
    """
    np = _numpy()
    gen = rng.generator()
    tables = _RowTables(kernel, start, stop)
    ids = np.zeros(samples, np.intp)
    times = np.full(samples, -1, np.intp)
    for lo in range(0, samples, _CHUNK):
        walk = np.arange(lo, min(lo + _CHUNK, samples))
        cur = np.zeros(len(walk), np.intp)
        t = 0
        while t < horizon and len(walk) > _TAIL:
            t += 1
            cur = tables.step(cur, gen.random(len(walk)))
            hit = tables.stopped(cur)
            if hit.any():
                done = walk[hit]
                ids[done], times[done] = cur[hit], t
                keep = ~hit
                walk, cur = walk[keep], cur[keep]
        ids[walk] = cur
        if t < horizon:
            for w, i in zip(walk.tolist(), cur.tolist()):
                i, end = tables.finish(gen, i, t, horizon)
                ids[w] = i
                if tables.stops[i]:
                    times[w] = end
    return tables.states, ids, times


def passage_counts(states, ids) -> list:
    """(state, walks) for each state among ``states[ids]``, in the order of
    the first walk that ends there.  Callers pass the ``ids`` of
    ``first_passages`` that they count, as ``ids[times >= 0]``."""
    np = _numpy()
    hit, first, walks = np.unique(ids, return_index=True, return_counts=True)
    order = np.argsort(first)
    return [(states[i], n) for i, n in zip(hit[order].tolist(), walks[order].tolist())]


# -- structural checks ----------------------------------------------------------

def harmonic_defect(kernel: MarkovKernel, f: dict, nodes=None):
    """max over nodes of |sum_y p(x,y) f(y) - f(x)|."""
    if nodes is None:
        nodes = kernel.nodes
    worst = Fraction(0) if kernel.is_exact else 0.0
    for x in nodes:
        px = sum(p * f[y] for y, p in kernel.row(x))
        worst = max(worst, abs(px - f[x]))
    return worst


def check_stationary(kernel: MarkovKernel, nu: dict):
    """max over y of |sum_x nu(x) p(x,y) - nu(y)| on a finite kernel."""
    flow: dict = {y: Fraction(0) if kernel.is_exact else 0.0 for y in kernel.nodes}
    for x in kernel.nodes:
        for y, p in kernel.row(x):
            flow[y] += nu[x] * p
    worst = Fraction(0) if kernel.is_exact else 0.0
    for y in kernel.nodes:
        worst = max(worst, abs(flow[y] - nu[y]))
    return worst


# -- linear solves ---------------------------------------------------------------

def _primitive(row: dict) -> dict:
    """An integer row divided by the gcd of its entries, zeros dropped."""
    row = {c: v for c, v in row.items() if v}
    g = gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _eliminate(aug: list, k: int) -> list[dict]:
    """The exact solver, on n integer rows {column: int}: unknowns in
    columns 0..n-1, right-hand side j in column n + j.  Returns the k
    columns x as {unknown: Fraction}, nonzero entries only, in increasing
    order of the unknown.  The rows are consumed.

    Fraction-free elimination (after E. H. Bareiss, Math. Comp. 22, 1968,
    with each row's content gcd in place of his exact division) touches
    nonzero entries only and pivots on the diagonal, sparsest row first,
    taking another row only where no diagonal pivot is left; a singular
    system raises ValueError.  The back substitution divides once per
    nonzero of the solution.
    """
    n = len(aug)
    holders: list = [set() for _ in range(n)]   # rows with a nonzero in a column
    heap: list = []                             # (row length, row) diagonal pivots

    def store(r, row):
        aug[r] = _primitive(row)
        for c in aug[r]:
            if c < n:
                holders[c].add(r)
        heapq.heappush(heap, (len(aug[r]), r))

    def clear(r, p, col):
        a, b = aug[p][col], aug[r][col]
        g = gcd(a, b)
        row = {c: a // g * v for c, v in aug[r].items()}
        for c, v in aug[p].items():
            row[c] = row.get(c, 0) - b // g * v
        store(r, row)

    for i in range(n):
        store(i, aug[i])
    free, order = set(range(n)), {}             # order: column -> its pivot row
    while len(order) < n:
        while heap:
            size, p = heapq.heappop(heap)
            if p in free and p in aug[p] and size == len(aug[p]):
                col = p
                break
        else:   # no diagonal pivot left: any free row holding the first column left
            col = min(set(range(n)) - set(order))
            p = min((r for r in holders[col] if r in free and col in aug[r]), default=None)
            if p is None:
                raise ValueError("singular system")
        free.discard(p)
        order[col] = p
        for r in holders[col] & free:
            if col in aug[r]:
                clear(r, p, col)
    for col, p in reversed(order.items()):
        for r in holders[col]:
            if r != p and col in aug[r]:
                clear(r, p, col)
    cols: list = [{} for _ in range(k)]
    for c in range(n):      # each pivot row is now {c: d} plus its right-hand sides
        row = aug[order[c]]
        d = row[c]
        for j, v in row.items():
            if j >= n:
                cols[j - n][c] = Fraction(v, d)
    return cols


def solve_float(rows, rhs_cols) -> list:
    """Float solve of _solve_hitting's sparse systems, rows {column: value}
    and right-hand sides {row: value}, refined once; returns the columns x."""
    np = _numpy()
    a = np.zeros((len(rows), len(rows)))
    b = np.zeros((len(rows), len(rhs_cols)))
    for i, row in enumerate(rows):
        for c, v in row.items():
            a[i, c] = float(v)
    for j, col in enumerate(rhs_cols):
        for i, v in col.items():
            b[i, j] = float(v)
    x = np.linalg.solve(a, b)
    x = x + np.linalg.solve(a, b - a @ x)
    return x.T.tolist()


def hitting_matrix(kernel: MarkovKernel, absorbing) -> dict:
    """Absorption probabilities alpha(x, y) = P_x(hit y first among absorbing).

    Returns {x: {y: prob}} for every node x of a finite kernel, with
    alpha(y, .) a point mass for y absorbing.  States that cannot reach the
    absorbing set get sub-stochastic (possibly zero) rows.  Exact kernels
    get ``Fraction`` values up to ``EXACT_SOLVE_LIMIT`` unknowns and floats
    past it.  The kernel keeps each absorbing tuple's answer for its own
    lifetime; every call returns fresh dicts.
    """
    key = tuple(absorbing)
    zero, rows = _hitting_rows(kernel, key)
    return {x: {y: row.get(y, zero) for y in key} for x, row in rows.items()}


def _hitting_rows(kernel: MarkovKernel, absorbing) -> tuple:
    """(zero, {x: row}): hitting_matrix's answer as the kernel keeps it.

    A row holds, in absorbing order, the entries that may be nonzero: {x: 1}
    for x absorbing, {} where the absorbing set is out of reach, the nonzero
    solution entries of an exact solve and every entry of a float one.  The
    rows are shared with the kernel's memo; callers must not change them.
    """
    key = tuple(absorbing)
    if key not in kernel._hitting:
        kernel._hitting[key] = _solve_hitting(kernel, key)
    return kernel._hitting[key]


def _solve_hitting(kernel: MarkovKernel, absorbing: tuple) -> tuple:
    nodes = kernel.nodes
    col_of = {y: j for j, y in enumerate(absorbing)}
    transient = [x for x in nodes if x not in col_of]
    # restrict to transient states that can reach the absorbing set
    into: dict = {}
    for x in transient:
        for y, p in kernel.row(x):
            if p:   # rows are checked nonnegative
                into.setdefault(y, []).append(x)
    reach_a, stack = set(absorbing), list(absorbing)
    while stack:
        for x in into.get(stack.pop(), ()):
            if x not in reach_a:
                reach_a.add(x)
                stack.append(x)
    solvable = [x for x in transient if x in reach_a]
    idx = {x: i for i, x in enumerate(solvable)}
    n = len(solvable)
    exact = kernel.is_exact and n <= EXACT_SOLVE_LIMIT
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    # (I - P) x = P 1_y on the solvable states; transitions into unreachable
    # states lose their mass
    if exact:   # row i times the lcm den of its denominators, in integers
        rhs_col = {y: n + j for y, j in col_of.items()}
        aug: list = []
        for i, x in enumerate(solvable):
            row = kernel.row(x)
            den = lcm(*(p.denominator for _, p in row))
            eq = {i: den}
            for y, p in row:
                if y in idx:
                    c, v = idx[y], -p.numerator
                elif y in rhs_col:
                    c, v = rhs_col[y], p.numerator
                else:
                    continue
                eq[c] = eq.get(c, 0) + v * (den // p.denominator)
            aug.append(eq)
        solved: list = [{} for _ in solvable]
        for y, col in zip(absorbing, _eliminate(aug, len(absorbing))):
            for i, v in col.items():
                solved[i][y] = v
    else:   # every float entry, so that 0.0 and -0.0 keep their sign
        rows = [{i: 1} for i in range(n)]
        rhs: list = [{} for _ in absorbing]
        for i, x in enumerate(solvable):
            for y, p in kernel.row(x):
                if y in idx:
                    rows[i][idx[y]] = rows[i].get(idx[y], 0) - p
                elif y in col_of:
                    rhs[col_of[y]][i] = rhs[col_of[y]].get(i, 0) + p
        cols = solve_float(rows, rhs)
        solved = [{y: cols[j][i] for j, y in enumerate(absorbing)} for i in range(n)]

    out: dict = {}
    for x in nodes:
        if x in col_of:
            out[x] = {x: one}
        elif x in idx:
            out[x] = solved[idx[x]]
        else:
            out[x] = {}
    return zero, out


def hitting_distribution(kernel: MarkovKernel, absorbing, start) -> dict:
    """Distribution over the absorbing set of the first absorption from start:
    ``hitting_matrix(kernel, absorbing)[start]``, with start's row alone
    expanded (KeyError for a start that is not a node)."""
    key = tuple(absorbing)
    zero, rows = _hitting_rows(kernel, key)
    row = rows[start]
    return {y: row.get(y, zero) for y in key}

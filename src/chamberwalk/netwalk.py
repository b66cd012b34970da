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

_POOL = 4
_SEED_CHUNK = 4096      # child streams hashed, and walks stepped, per numpy pass
_CHUNK_DRAWS = 1024 * 1024  # uniforms drawn at once for the walks of fixed_length_ends
_TAIL = 32              # walks of a chunk left to finish one by one
_LOCKSTEP_MIN = 128     # fewer fixed-length walks than this step one by one

np = None   # numpy, bound by _numpy() on first use: exact solves never need it


def _numpy():
    """numpy, imported on first use, and with it the RNG constants.

    Every constant is a numpy scalar, so the uint arithmetic below keeps
    its width under any promotion rules.  Walks, streams and float solves
    call this once on entry; no per-step code calls it.
    """
    global np, _INIT_A, _MULT_A, _INIT_B, _MULT_B, _MIX_L, _MIX_R, _SHIFT
    global _U1, _U11, _U32, _U58, _U63, _U64, _LOW32, _M_HI, _M_LO, _M_LO1, _M_LO0
    if np is None:
        import numpy
        # numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
        _INIT_A, _MULT_A = numpy.uint32(0x43B0D7E5), numpy.uint32(0x931E8875)
        _INIT_B, _MULT_B = numpy.uint32(0x8B51F9DD), numpy.uint32(0x58F38DED)
        _MIX_L, _MIX_R = numpy.uint32(0xCA01F9DD), numpy.uint32(0x4973F715)
        _SHIFT = numpy.uint32(16)
        # PCG64 (M. E. O'Neill, HMC-CS-2014-0905) in uint64 halves: the
        # 128-bit multiplier, and the 32-bit halves of its low word for the
        # high product
        _U1, _U11, _U32, _U58, _U63, _U64 = (numpy.uint64(n) for n in (1, 11, 32, 58, 63, 64))
        _LOW32 = numpy.uint64(0xFFFFFFFF)
        _M_HI, _M_LO = numpy.uint64(0x2360ED051FC65DA4), numpy.uint64(0x4385DF649FCCF645)
        _M_LO1, _M_LO0 = _M_LO >> _U32, _M_LO & _LOW32
        np = numpy
    return np


def _hashmix(value, hc, mult):
    """SeedSequence's hashmix of a uint32 array; advances the one-element
    uint32 array ``hc`` of the hash constant in place."""
    value = value ^ hc
    hc *= mult
    value = value * hc
    return value ^ (value >> _SHIFT)


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


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

    def _pool(self):
        """(pool, hc): this stream's SeedSequence pool as a column of four
        uint32 words, and the hash constant in a one-element uint32 array at
        the point where a child's index would be mixed in.

        A child's entropy is this stream's, padded to the pool of four
        words, then i; so SeedSequence mixes i into this pool with hash
        constants that depend only on the number of words before it.  A bad
        seed or key is refused with numpy's own error, here.
        """
        np = _numpy()
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        # hashmix calls so far: one per pool word, 12 to mix the pool, and
        # four per entropy word past the pool
        words = [max(1, (int(n).bit_length() + 31) // 32) for n in (self.seed, *self.key)]
        calls = 4 * (max(_POOL, words[0]) + sum(words[1:]))
        hc = int(_INIT_A) * pow(int(_MULT_A), calls, 1 << 32) % (1 << 32)
        return ss.pool.reshape(_POOL, 1), np.array([hc], np.uint32)


def _pcg64_state(stream) -> dict:
    """The ``bit_generator.state`` dict of one column of a streams array."""
    s_hi, s_lo, i_hi, i_lo = stream
    return {"bit_generator": "PCG64",
            "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
            "has_uint32": 0, "uinteger": 0}


def _pcg64_streams(pool, hc, lo: int, hi: int):
    """PCG64 states of children lo..hi-1 of the stream with pool and hash
    constant ``hc`` (see RngStream._pool), as a (4, hi - lo) uint64 array
    of rows state high, state low, increment high, increment low."""
    np = _numpy()
    child = np.arange(lo, hi, dtype=np.uint32)
    hci = hc.copy()
    mixed = [_mix(pool[dst], _hashmix(child, hci, _MULT_A)) for dst in range(_POOL)]
    # generate_state(4, uint64): eight hashed uint32 words, paired low first
    hco = np.array([_INIT_B], np.uint32)
    out = [_hashmix(mixed[j % _POOL], hco, _MULT_B).astype(np.uint64)
           for j in range(2 * _POOL)]
    s_hi, s_lo, i_hi, i_lo = (out[2 * j] | (out[2 * j + 1] << _U32) for j in range(_POOL))
    # PCG64's set_seed: inc = 2 initseq + 1, then two LCG steps from 0 with
    # the seed added in between, i.e. state = inc + seed and one step
    streams = np.stack([s_hi, s_lo, (i_hi << _U1) | (i_lo >> _U63), (i_lo << _U1) | _U1])
    low = streams[1] + streams[3]
    streams[0] += streams[2] + (low < streams[1])
    streams[1] = low
    _pcg64_step(streams)
    return streams


def _pcg64_step(streams) -> None:
    """One LCG step, state = state * mult + inc mod 2**128, in place."""
    s_hi, s_lo = streams[0], streams[1]
    # the high word of s_lo * _M_LO, from 32-bit halves
    a1, a0 = s_lo >> _U32, s_lo & _LOW32
    p01, p10 = a0 * _M_LO1, a1 * _M_LO0
    mid = (a0 * _M_LO0 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry_hi = a1 * _M_LO1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    low = s_lo * _M_LO
    new_lo = low + streams[3]
    s_hi *= _M_LO
    s_hi += carry_hi + s_lo * _M_HI + streams[2] + (new_lo < low)
    streams[1] = new_lo


def _pcg64_random(streams):
    """The next ``Generator.random()`` of every stream: one step, PCG64's
    XSL-RR output, and its top 53 bits scaled to [0, 1)."""
    if np is None:      # streams made outside this module; per step only this test runs
        _numpy()
    _pcg64_step(streams)
    s_hi = streams[0]
    x = s_hi ^ streams[1]
    rot = s_hi >> _U58
    x = (x >> rot) | (x << ((_U64 - rot) & _U63))     # rotate right; rot 0 keeps x
    return (x >> _U11) * 2.0**-53


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

    def __init__(self, row_fn, nodes=None, reversible_with=None, is_exact=True) -> None:
        self._row_fn = row_fn
        self.nodes = tuple(nodes) if nodes is not None else None
        self.reversible_with = reversible_with
        self.is_exact = is_exact
        self._cache: dict = {}
        self._hitting: dict = {}    # absorbing tuple -> (zero, sparse rows), see _hitting_rows

    @classmethod
    def finite(cls, rows: dict, reversible_with=None) -> "MarkovKernel":
        """A kernel on the keys of rows; each row is sorted by ``encode_node``
        (one call per distinct target) here, once, kept as the row cache and
        validated."""
        rows = {x: [(y, p) for y, p in row] for x, row in rows.items()}
        enc = {y: encode_node(y) for y in {y for row in rows.values() for y, _ in row}}
        rows = {x: tuple(sorted(row, key=lambda t: enc[t[0]])) for x, row in rows.items()}
        exact = all(_is_exact_number(p) for row in rows.values() for _, p in row)
        kernel = cls(rows.__getitem__, nodes=tuple(rows), reversible_with=reversible_with,
                     is_exact=exact)
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
    numerators n_y over the lcm den of their denominators, so that with
    M = sum n_y, m(x) = M/den and p(x, y) = n_y/M: one Fraction per entry,
    made from two integers.
    """

    def row(x, mx, nbrs):
        if mx == 0:
            raise ValueError(f"node {x!r} has m = 0, no kernel row")
        return [(y, a / mx) for y, a in nbrs]

    if isinstance(net, FiniteNetwork) and net.is_exact:
        m, rows = {}, {}
        for x in net.nodes:
            nbrs = net._adj[x]
            den = lcm(*(a.denominator for a in nbrs.values()))
            nums = [(y, a.numerator * (den // a.denominator)) for y, a in nbrs.items()]
            total = sum(v for _, v in nums)
            if total == 0:
                raise ValueError(f"node {x!r} has m = 0, no kernel row")
            m[x] = Fraction(total, den)
            rows[x] = [(y, Fraction(v, total)) for y, v in nums]
        return MarkovKernel.finite(rows, reversible_with=m)
    if isinstance(net, FiniteNetwork):
        # rows in adjacency order, the order net.m sums in; finite sorts them
        m = {x: net.m(x) for x in net.nodes}
        rows = {x: row(x, m[x], net._adj[x].items()) for x in net.nodes}
        return MarkovKernel.finite(rows, reversible_with=m)

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

@dataclass(frozen=True)
class Trajectory:
    start: object
    nodes: tuple
    stream: RngStream

    def __len__(self) -> int:
        return len(self.nodes) - 1


def _distinct(ids) -> list:
    """The distinct values of an int array, ascending, from one bincount: a
    dict over ``ids.tolist()`` costs ten times as much for thousands of walks."""
    return np.flatnonzero(np.bincount(ids)).tolist()


class _RowTables:
    """The states a kernel's walks reach, interned, with their rows as
    padded numpy tables, so that many walks step in one numpy pass.

    State i is ``states[i]``.  Once a walk stands at it, ``rows[i]`` holds
    the target ids and running float sums of ``_cumulative``, and the table
    rows ``cum[i]`` (padded with +inf) and ``nxt[i]`` (padded with the last
    target) hold the same; ``(cum[cur] <= u).sum(1)`` is then
    ``bisect_right`` on those floats.  ``stop`` is called once per state, for
    states a walk reached only; ``stops`` keeps its answers, and
    ``stopped_at`` copies them for the lockstep test.  The Python lists
    serve the one-walk loops (``finish``, and ``simulate``, which records
    every state); the numpy tables are filled from them when a lockstep
    step first needs a state.
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
                self.nxt[i] = targets[-1]
                self.nxt[i, :len(targets)] = targets
            self.ready[missing] = True
        return self.nxt[cur, (self.cum[cur] <= u[:, None]).sum(1)]

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
        """Make room for ``size`` states and rows of ``width`` targets."""
        rows, cols = self.cum.shape
        if size <= rows and width <= cols:
            return
        size = max(size, 2 * rows) if size > rows else rows
        cum = np.full((size, width), np.inf)
        cum[:rows, :cols] = self.cum
        nxt = np.zeros((size, width), np.intp)
        nxt[:rows, :cols] = self.nxt
        nxt[:rows, cols:] = self.nxt[:, -1:]
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


def simulate(kernel: MarkovKernel, start, steps: int, rng: RngStream) -> Trajectory:
    """Run ``steps`` transitions from ``start`` using the given stream, its
    uniforms drawn in blocks of ``MAX_BLOCK``."""
    tables = _RowTables(kernel, start)
    gen, rows, i, ids = rng.generator(), tables.rows, 0, [0]
    for lo in range(0, steps, MAX_BLOCK):
        for u in gen.random(min(MAX_BLOCK, steps - lo)).tolist():
            targets, cum = rows[i] or tables.row(i)
            i = targets[bisect_right(cum, u)]
            ids.append(i)
    states = tables.states
    return Trajectory(start=start, nodes=tuple(states[i] for i in ids), stream=rng)


def first_passages(kernel: MarkovKernel, start, stop, rng: RngStream, samples: int,
                   horizon: int) -> tuple:
    """First passages of ``samples`` independent walks from ``start``.

    Returns (states, ids, times): walk i first met stop at ``states[ids[i]]``
    at time ``times[i]``, the first t in 1..horizon with stop(Z_t); both
    arrays hold -1 where the horizon ran out.  ``states`` lists every state
    the walks reached, each once, so callers tally exits by id.  The start
    itself is never tested, and stop is called once per state reached.
    Walk i draws from the child stream (i).  The walks run in chunks of
    ``_SEED_CHUNK``; the walks of a chunk take their states from
    ``_pcg64_streams`` and step together, one ``_pcg64_random`` draw and
    one table step per time step, until at most ``_TAIL`` of them are left.
    Those finish one by one from their own PCG64 states, in block draws
    (``_RowTables.finish``): each stream is the walk's own, so every walk
    takes the same draws as alone, whatever the chunk size.
    """
    np = _numpy()
    tables = _RowTables(kernel, start, stop)
    pool, hc = rng._pool()
    gen = np.random.Generator(np.random.PCG64(0))
    ids = np.full(samples, -1, np.intp)
    times = np.full(samples, -1, np.intp)
    for lo in range(0, samples, _SEED_CHUNK):
        streams = _pcg64_streams(pool, hc, lo, min(lo + _SEED_CHUNK, samples))
        walk = np.arange(lo, lo + streams.shape[1])
        cur = np.zeros(len(walk), np.intp)
        t = 0
        while t < horizon and len(walk) > _TAIL:
            t += 1
            cur = tables.step(cur, _pcg64_random(streams))
            hit = tables.stopped(cur)
            if hit.any():
                done = walk[hit]
                ids[done], times[done] = cur[hit], t
                keep = ~hit
                walk, cur, streams = walk[keep], cur[keep], streams[:, keep]
        if t < horizon:
            for w, i, stream in zip(walk.tolist(), cur.tolist(), streams.T.tolist()):
                gen.bit_generator.state = _pcg64_state(stream)
                i, end = tables.finish(gen, i, t, horizon)
                if tables.stops[i]:
                    ids[w], times[w] = i, end
    return tables.states, ids, times


def passage_counts(states, ids) -> list:
    """(state, walks) for each state that ``first_passages`` walks stopped
    at, in id order, from its ``states`` and ``ids``."""
    np = _numpy()
    per_state = np.bincount(ids[ids >= 0])
    hit = np.flatnonzero(per_state)
    return [(states[i], n) for i, n in zip(hit.tolist(), per_state[hit].tolist())]


def fixed_length_ends(kernel: MarkovKernel, start, steps: int, samples: int,
                      gen: np.random.Generator) -> list:
    """The states of ``samples`` walks from ``start`` after ``steps`` steps
    each, in walk order; walk i takes draws i*steps .. i*steps + steps - 1
    of gen.

    Chunks of at most ``_SEED_CHUNK`` walks and ``_CHUNK_DRAWS`` draws step
    together, one table step per time step.  Walks that would make a chunk
    of fewer than ``_LOCKSTEP_MIN`` (long walks, or the last few) run one
    after another through ``_RowTables.finish`` with a stop that never
    holds, where a numpy pass would cost more than their scalar steps.
    """
    np = _numpy()
    tables = _RowTables(kernel, start, lambda x: False)
    chunk = min(_SEED_CHUNK, _CHUNK_DRAWS // max(steps, 1))
    ends: list = []
    while chunk >= _LOCKSTEP_MIN and samples - len(ends) >= _LOCKSTEP_MIN:
        n = min(chunk, samples - len(ends))
        uniforms = gen.random(n * steps).reshape(n, steps)
        cur = np.zeros(n, np.intp)
        for j in range(steps):
            cur = tables.step(cur, uniforms[:, j])
        ends += [tables.states[i] for i in cur.tolist()]
    while len(ends) < samples:
        ends.append(tables.states[tables.finish(gen, 0, 0, steps)[0]])
    return ends


def occupation_counts(trajectory: Trajectory) -> dict:
    counts: dict = {}
    for x in trajectory.nodes:
        counts[x] = counts.get(x, 0) + 1
    return counts


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

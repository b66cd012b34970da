"""Concrete building models with sigma-distances, sectors and cylinders.

Three families:

* ``TreeBuilding(q)``: the (q+1)-regular tree, vertices encoded as words with
  no immediate backtrack.  Rank-1 model; sigma is graph distance in units of
  the fundamental coweight.
* ``A2Ball(p, radius)``: the ball of the rank-2 p-adic affine building.
  Vertices are homothety classes of rank-3 lattices, canonicalized as
  Hermite-form integer matrices; adjacency is index-p inclusion; sigma comes
  from elementary divisors.
* ``SphericalA2(q)``: flags of the projective plane of order q with
  Weyl-distance, residues, projections, and the opposite-chamber search.

Sector germs are handled through finite data: deep vertices inside the
truncation for A2Ball, ray words for trees.  Every germ-dependent operation
states its depth requirement and raises when the available data is too
shallow, rather than extrapolating.

The tree and the ball offer one interface to the cylinder measures, kernels
and exit statistics of ``boundary``: an ``origin``; the Weyl data ``weyl``,
``root_system`` and ``thickness``; ``sigma`` and ``v_lambda``;
``check_steps`` and ``step_sphere`` for isotropic kernel rows; and
``exit_classes``, ``exit_cell`` and ``truncation_limited`` for exit walks.
The ball refuses what it cannot hold: steps other than the two neighbour
types, spheres that leave the ball, and exit levels without a ring of slack.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .coxeter import RootSystem, WeylElement, WeylGroup, weyl_group
from .errors import SizeGuardError


# -- cylinders -------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderId:
    """The set of chambers at infinity whose sector from base passes through target."""

    base: object
    target: object


def is_between(model, x, y, z) -> bool:
    """y on a sigma-geodesic from x to z: sigma(x,y) + sigma(y,z) = sigma(x,z)."""
    a, b, c = model.sigma(x, y), model.sigma(y, z), model.sigma(x, z)
    return tuple(u + v for u, v in zip(a, b)) == c


def refines(model, fine: CylinderId, coarse: CylinderId) -> bool:
    if fine.base != coarse.base:
        raise ValueError("refinement compares cylinders at a common base")
    return is_between(model, fine.base, coarse.target, fine.target)


# -- trees -----------------------------------------------------------------------

class TreeBuilding:
    """The (q+1)-regular tree with words over q+1 letters, no immediate repeat."""

    truncation_limited = False  # spheres are exact at every radius

    def __init__(self, q: int) -> None:
        if q < 2:
            raise ValueError("thick trees need branching q >= 2")
        self.q = q
        self.degree = q + 1
        self.origin: tuple = ()

    @property
    def weyl(self) -> WeylGroup:
        return weyl_group("A1")

    @property
    def root_system(self) -> RootSystem:
        return weyl_group("A1").root_system

    @property
    def thickness(self) -> int:
        return self.q

    def neighbors(self, w):
        out = [w[:-1]] if w else []
        out.extend(w + (a,) for a in range(self.degree) if not w or a != w[-1])
        return out

    def distance(self, u, v) -> int:
        return len(u) + len(v) - 2 * self._branch_depth(u, v)

    def sigma(self, x, y):
        return (self.distance(x, y),)

    SPHERE_LIMIT = 100000   # vertices one sphere may list

    def guard_sphere(self, k: int) -> None:
        """Refuse a sphere of radius k past SPHERE_LIMIT vertices, counted as
        (q+1) q^(k-1) before any is listed."""
        if k > 0 and (self.q + 1) * self.q ** (k - 1) > self.SPHERE_LIMIT:
            raise SizeGuardError(f"a radius-{k} sphere has more than "
                                 f"{self.SPHERE_LIMIT} vertices")

    def sphere(self, x, k: int):
        """All vertices at graph distance exactly k from x."""
        self.guard_sphere(k)
        if k == 0:
            return [x]
        prev, cur = {x}, {x}
        for _ in range(k):
            nxt = {n for w in cur for n in self.neighbors(w)} - prev
            prev |= nxt
            cur = nxt
        return sorted(cur)

    def v_lambda(self, x, lam):
        return self.sphere(x, lam[0])

    def check_steps(self, steps) -> None:
        """Any dominant step works: every sphere of the tree is exact."""

    step_sphere = v_lambda

    def exit_classes(self, o, level: int):
        return {(level,): self.sphere(o, level)}

    def exit_cell(self, o, z, level: int):
        """The vertex of V_level(o) that the direction from o to z passes."""
        return self.geodesic(o, z)[level]

    def geodesic(self, u, v):
        """Vertex path from u to v through their last common ancestor."""
        c = self._branch_depth(u, v)
        down = [u[:k] for k in range(len(u), c, -1)]
        up = [v[:k] for k in range(c, len(v) + 1)]
        return down + up

    # -- ends: rays from the origin, given as finite deep words ------------------

    def same_end(self, e1, e2) -> bool:
        """Two ray words represent the same end iff one extends the other."""
        k = min(len(e1), len(e2))
        return e1[:k] == e2[:k]

    def _branch_depth(self, u, v) -> int:
        """Length of the common prefix of two words (or ray words)."""
        c = 0
        for a, b in zip(u, v):
            if a != b:
                break
            c += 1
        return c

    def busemann_h(self, x, y, end):
        """h(x,y; end) = sigma(x,z) - sigma(y,z) for z deep on the ray.

        Needs the ray word at least two letters past both branch points;
        the value is checked to be stable over the available tail.
        """
        need = max(self._branch_depth(x, end), self._branch_depth(y, end)) + 2
        if len(end) < need:
            raise ValueError(f"ray too shallow: need depth {need}, have {len(end)}")
        tail = [end[:k] for k in range(need, len(end) + 1)]
        vals = {self.distance(x, z) - self.distance(y, z) for z in tail}
        if len(vals) != 1:
            raise AssertionError("Busemann value did not stabilize")
        return (vals.pop(),)

    def beta(self, x, e1, e2):
        """beta_x(end1, end2) = h(x,z;end1) + h(x,z;end2), z on their line."""
        if self.same_end(e1, e2):
            raise ValueError("beta needs two distinct ends")
        z = e1[:self._branch_depth(e1, e2)]  # the branch vertex lies on the line
        h1 = self.busemann_h(x, z, e1)
        h2 = self.busemann_h(x, z, e2)
        return (h1[0] + h2[0],)

    @staticmethod
    def relabel(w, perm):
        """Apply a letter permutation; an origin-fixing tree automorphism."""
        return tuple(perm[a] for a in w)


# -- p-adic lattice classes --------------------------------------------------------

def _vp(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("singular basis: 0 has no p-adic valuation")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _hnf_rows(rows):
    """Row Hermite form of a full-rank integer row span: upper triangular,
    positive pivots, entries above each pivot reduced into [0, pivot)."""
    work = [list(r) for r in rows]
    basis = []
    for col in range(3):
        pool = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not pool:
            raise ValueError("rank-deficient lattice matrix")
        while len(pool) > 1:
            pool.sort(key=lambda r: abs(r[col]))
            a = pool[0]
            reduced = []
            for r in pool[1:]:
                k = r[col] // a[col]
                nr = [r[j] - k * a[j] for j in range(3)]
                if nr[col]:
                    reduced.append(nr)
                elif any(nr):
                    rest.append(nr)
            pool = [a] + reduced
        piv = pool[0]
        if piv[col] < 0:
            piv = [-v for v in piv]
        basis.append(piv)
        work = rest
    for i in range(3):
        for j in range(i + 1, 3):
            k = basis[i][j] // basis[j][j]
            if k:
                basis[i] = [basis[i][t] - k * basis[j][t] for t in range(3)]
    return tuple(tuple(r) for r in basis)


def _triangular(m):
    """m itself when upper triangular, else its Hermite form."""
    return _hnf_rows(m) if m[1][0] or m[2][0] or m[2][1] else m


def ball_size(p: int, radius: int) -> int:
    """Vertices of the sigma-box max(sigma(o, y)) <= radius, counted by N_lambda:
    1 at the origin, (p^2+p+1) p^(2(a-1)) on each wall class (a, 0) and (0, a),
    and (p^2+p+1)(p^2+p) p^(2(a+b-2)) on each inner class (a, b)."""
    q = p * p + p + 1
    levels = range(1, radius + 1)
    wall = sum(q * p ** (2 * (a - 1)) for a in levels)
    inner = sum(q * (p * p + p) * p ** (2 * (a + b - 2)) for a in levels for b in levels)
    return 1 + 2 * wall + inner


# (i, j) move-index pairs of the link's flags, per p; see A2Ball._flags.
_LINK_FLAGS: dict[int, tuple[tuple[int, int], ...]] = {}

# Candidates (frontier vertices x moves) one block of the shell build holds.
_CANDIDATE_BLOCK = 1 << 13
_INT64_MAX = 2 ** 63 - 1
_INT32_MAX = 2 ** 31 - 1


class A2Ball:
    """Ball of the rank-2 p-adic affine building around the standard class.

    Vertices are canonical Hermite forms of rank-3 lattice classes with
    sigma-box at most ``radius`` from the identity class; adjacency is
    index-p or index-p^2 inclusion up to homothety.

    The ball is stored as arrays (see _build); ``size`` and ``class_sizes``
    are read from them, and ``to_json`` lists them. The vertex tuples, each
    vertex's neighbour tuple and the sigma partitions are built on first use.
    """

    MAX_RADIUS = 4
    MAX_VERTICES = 300000
    truncation_limited = True   # exit statistics stop inside the stored ball

    def __init__(self, p: int, radius: int, max_vertices: int | None = None) -> None:
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"p must be prime, got {p}")
        if radius < 1:
            raise ValueError(f"radius must be at least 1, got {radius}")
        if radius > self.MAX_RADIUS:
            raise SizeGuardError(f"radius must be in 1..{self.MAX_RADIUS}")
        cap = self.MAX_VERTICES if max_vertices is None else max_vertices
        if ball_size(p, radius) > cap:
            raise SizeGuardError(f"ball exceeds {cap} vertices")
        # Moves have entries at most p and in-ball classes at most p^(2R), so
        # the build's products and 2x2 minors stay below 4 p^(4R+2). A vertex
        # key packs three diagonal valuations (at most 2R) and three
        # off-diagonal entries (below p^(2R)); see _build.
        if (4 * p ** (4 * radius + 2) > _INT64_MAX
                or (2 * radius + 1) ** 3 * p ** (6 * radius) > _INT64_MAX):
            raise SizeGuardError(f"ball entries at p = {p}, radius {radius} exceed int64")
        # the neighbour table's int32 indptr counts up to ball x moves entries
        if ball_size(p, radius) * 2 * (p * p + p + 1) > _INT32_MAX:
            raise SizeGuardError(f"ball neighbour table at p = {p}, radius {radius} "
                                 "exceeds int32")
        self.p = p
        self.radius = radius
        self.origin = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        # Upper-triangular moves s, rows (s0, s1, s2), (0, s3, s4), (0, 0, s5),
        # with s x a basis of a neighbour of the class x: the p^2+p+1 index-p
        # sublattices, then pL + Z vx for v = (1,a,b), (0,1,c), (0,0,1).
        self._moves = tuple(
            [(p, 0, 0, 1, 0, 1)]
            + [(1, a, 0, p, 0, 1) for a in range(p)]
            + [(1, 0, b, 1, c, p) for b in range(p) for c in range(p)]
            + [(1, a, b, p, 0, p) for a in range(p) for b in range(p)]
            + [(p, 0, 0, 1, c, p) for c in range(p)]
            + [(p, 0, 0, p, 0, 1)]
        )
        self._neighbor_rows: dict = {}
        self._partition_cache: dict = {}
        self._build()

    def _digits(self, keys):
        """The digits (v(a), b, c, v(d), e, v(f)) of vertex keys, for rows
        (a, b, c), (0, d, e), (0, 0, f); see _build."""
        import numpy as np

        off, val = self.p ** (2 * self.radius), 2 * self.radius + 1
        keys, vf = np.divmod(keys, val)
        keys, e = np.divmod(keys, off)
        keys, vd = np.divmod(keys, val)
        va, keys = np.divmod(keys, off * off)
        b, c = np.divmod(keys, off)
        return va, b, c, vd, e, vf

    def _build(self) -> None:
        """Grow the ball a shell at a time on int64 arrays, and keep it as
        arrays.

        Every move is applied to a block of frontier vertices at once; each
        vertex's neighbours are computed once, and the in-ball ones are both
        its adjacency (in move order) and the next shell's candidates. A
        vertex is one key with digits (v(a), b, c, v(d), e, v(f)) for rows
        (a, b, c), (0, d, e), (0, 0, f): the diagonal is powers of p, so keys
        sort as the vertex tuples do. The ball is stored as the sorted keys,
        each vertex's sigma code l1 (R+1) + l2 from the origin, and a CSR
        table of neighbours in move order (int32 indptr and indices into
        sorted order); the Python views are built from these on first use."""
        import numpy as np

        p, radius = self.p, self.radius
        moves = np.array(self._moves, dtype=np.int64)
        per_block = max(1, _CANDIDATE_BLOCK // len(moves))
        powers = np.array([p ** k for k in range(4 * radius + 3)], dtype=np.int64)
        off, val = p ** (2 * radius), 2 * radius + 1

        def step(keys):
            """In-ball neighbours of a block of vertices, vertex by vertex in
            move order: their keys, sigma codes l1 (R+1) + l2, and counts."""
            va, b, c, vd, e, vf = self._digits(keys)
            a, d, f = powers[va], powers[vd], powers[vf]
            a, b, c, d, e, f = (x[:, None] for x in (a, b, c, d, e, f))
            s0, s1, s2, s3, s4, s5 = moves.T
            # the reductions of neighbor_classes, on every candidate at once
            u, v, w = s0 * a, s0 * b + s1 * d, s0 * c + s1 * e + s2 * f
            y, z, t = s3 * d, s3 * e + s4 * f, s5 * f
            k = v // y
            v -= k * y
            w = (w - k * z) % t
            z %= t
            # the diagonal and the gcds are powers of p: valuations by lookup
            g = np.gcd(np.gcd(np.minimum(np.minimum(u, y), t), v), np.gcd(w, z))
            minors = np.gcd(np.gcd(np.minimum(np.minimum(u * y, u * t), y * t), u * z),
                            np.gcd(v * z - w * y, v * t))
            g1, g2 = np.searchsorted(powers, g), np.searchsorted(powers, minors)
            vu, vy, vt = (np.searchsorted(powers, x) for x in (u, y, t))
            l1, l2 = vu + vy + vt - 2 * g2 + g1, g2 - 2 * g1
            inside = (l1 <= radius) & (l2 <= radius)
            g, g1 = g[inside], g1[inside]
            kept = ((((((vu[inside] - g1) * off + v[inside] // g) * off + w[inside] // g)
                      * val + vy[inside] - g1) * off + z[inside] // g) * val + vt[inside] - g1)
            return kept, l1[inside] * (radius + 1) + l2[inside], inside.sum(axis=1)

        size = ball_size(p, radius)
        shell = np.zeros(1, dtype=np.int64)     # the origin: every digit 0
        shell_sigma = np.zeros(1, dtype=np.int64)
        before = shell[:0]
        done, sigmas, nbrs, counts = [], [], [], []
        found = 0
        while len(shell):
            found += len(shell)
            if found > size:
                raise AssertionError(f"shell build passed the {size} vertices N_lambda counts")
            parts = [step(shell[lo:lo + per_block]) for lo in range(0, len(shell), per_block)]
            kept = np.concatenate([k for k, _, _ in parts])
            kept_sigma = np.concatenate([s for _, s, _ in parts])
            done.append(shell)
            sigmas.append(shell_sigma)
            nbrs.append(kept)
            counts.extend(n for _, _, n in parts)
            # the next shell: in-ball neighbours in neither this shell nor the last
            order = np.argsort(kept)
            kept, kept_sigma = kept[order], kept_sigma[order]
            first = np.ones(len(kept), dtype=bool)
            first[1:] = kept[1:] != kept[:-1]
            kept, kept_sigma = kept[first], kept_sigma[first]
            known = np.sort(np.concatenate([before, shell]))
            fresh = known[np.searchsorted(known, kept).clip(max=len(known) - 1)] != kept
            before, shell, shell_sigma = shell, kept[fresh], kept_sigma[fresh]

        if found != size:
            raise AssertionError(f"shell build found {found} vertices, N_lambda counts {size}")
        keys, counts = np.concatenate(done), np.concatenate(counts)
        order = np.argsort(keys)
        self._keys = keys[order]
        self._codes = np.concatenate(sigmas)[order]
        self.size = len(keys)
        # row k of the table is the neighbour run of vertex order[k]
        starts = np.cumsum(counts) - counts
        counts = counts[order]
        indptr = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        runs = np.repeat(starts[order] - indptr[:-1], counts) + np.arange(indptr[-1])
        self._indptr = indptr.astype(np.int32)
        self._indices = np.searchsorted(
            self._keys, np.concatenate(nbrs)[runs]).astype(np.int32)

    @cached_property
    def vertices(self) -> tuple:
        """The ball's vertices in sorted order, as tuples of rows; built on
        first use."""
        va, b, c, vd, e, vf = self._digits(self._keys)
        p = self.p
        return tuple(((a, b, c), (0, d, e), (0, 0, f)) for a, b, c, d, e, f in zip(
            *(x.tolist() for x in (p ** va, b, c, p ** vd, e, p ** vf))))

    @cached_property
    def class_sizes(self) -> dict:
        """{lambda: |V_lambda(origin)|} over the nonempty classes, in lambda
        order, from one count of the sigma codes."""
        import numpy as np

        r = self.radius + 1
        counts = np.bincount(self._codes, minlength=r * r).tolist()
        return {divmod(code, r): n for code, n in enumerate(counts) if n}

    @property
    def weyl(self) -> WeylGroup:
        return weyl_group("A2")

    @property
    def root_system(self) -> RootSystem:
        return weyl_group("A2").root_system

    @property
    def thickness(self) -> int:
        return self.p

    # -- local structure ---------------------------------------------------------

    def neighbor_classes(self, x):
        """All 2(p^2+p+1) adjacent lattice classes, ball membership ignored.
        A canonical x and every move s are upper triangular, so s x is too:
        three reductions give its Hermite form, and the gcd of its entries
        is the power of p that the homothety class drops."""
        (a, b, c), (_, d, e), (_, _, f) = x
        out = []
        for s0, s1, s2, s3, s4, s5 in self._moves:
            u, v, w = s0 * a, s0 * b + s1 * d, s0 * c + s1 * e + s2 * f
            y, z, t = s3 * d, s3 * e + s4 * f, s5 * f
            k = v // y
            v -= k * y
            w = (w - k * z) % t
            z %= t
            g = gcd(u, v, w, y, z, t)
            if g > 1:
                u, v, w, y, z, t = u // g, v // g, w // g, y // g, z // g, t // g
            out.append(((u, v, w), (0, y, z), (0, 0, t)))
        return out

    def neighbors(self, x):
        """Adjacent vertices inside the ball, in move order, as the stored
        vertex objects; a vertex's tuple is built the first time it is asked
        for, from its run of the neighbour table."""
        row = self._neighbor_rows.get(x)
        if row is None:
            verts = self.vertices
            try:
                i = bisect_left(verts, x)
            except TypeError:   # not a tuple of rows: no vertex of the ball
                raise KeyError(x) from None
            if i == len(verts) or verts[i] != x:
                raise KeyError(x)
            run = self._indices[self._indptr[i]:self._indptr[i + 1]].tolist()
            row = self._neighbor_rows[x] = tuple(verts[j] for j in run)
        return row

    def _sigma_from_origin(self, y):
        """sigma(origin, y) for y upper triangular with rows (a, b, c),
        (0, d, e), (0, 0, f): elementary divisors from the p-adic valuations
        of the gcds of its entries and of its 2x2 minors (only ad, ae,
        be - cd, af, bf and df can be nonzero), and of det = adf."""
        (a, b, c), (_, d, e), (_, _, f) = y
        p = self.p
        g1 = _vp(gcd(a, b, c, d, e, f), p)
        g2 = _vp(gcd(a * d, a * e, b * e - c * d, a * f, b * f, d * f), p)
        g3 = _vp(a * d * f, p)
        return (g3 - 2 * g2 + g1, g2 - 2 * g1)

    def sigma(self, x, y):
        """Dominant coweight distance via elementary divisors; works for any
        two lattice classes, in or out of the ball.  A basis that is not
        upper triangular is put in Hermite form; then y adj(x) is too."""
        y = _triangular(y)
        if x == self.origin:
            return self._sigma_from_origin(y)
        (a, b, c), (_, d, e), (_, _, f) = _triangular(x)
        (u, v, w), (_, s, t), (_, _, z) = y
        # adj(x) has rows (df, -bf, be - cd), (0, af, -ae), (0, 0, ad)
        return self._sigma_from_origin((
            (u * d * f, (v * a - u * b) * f, u * (b * e - c * d) - v * a * e + w * a * d),
            (0, s * a * f, (t * d - s * e) * a),
            (0, 0, z * a * d)))

    def sigma_partition(self, o):
        """{lambda: sorted vertex list} over the whole ball, cached per base;
        at the origin it is read from the build's sigma codes."""
        if o not in self._partition_cache:
            part: dict = {}
            if o == self.origin:
                r = self.radius + 1
                for y, code in zip(self.vertices, self._codes.tolist()):
                    part.setdefault(divmod(code, r), []).append(y)
            else:
                for y in self.vertices:
                    part.setdefault(self.sigma(o, y), []).append(y)
            self._partition_cache[o] = part
        return self._partition_cache[o]

    def v_lambda(self, o, lam):
        """V_lambda(o), refusing bases/levels whose sphere may leave the ball."""
        nu = self.sigma(self.origin, o)
        if nu == (0, 0):
            if max(lam) > self.radius:
                raise ValueError("lambda-sphere exceeds the ball radius")
        else:
            a, b = nu[0] + lam[0], nu[1] + lam[1]
            if max(a + b // 2, b + a // 2) > self.radius:
                raise ValueError("lambda-sphere may exceed the ball radius")
        return list(self.sigma_partition(o).get(lam, []))

    def check_steps(self, steps) -> None:
        bad = set(steps) - {(1, 0), (0, 1)}
        if bad:
            raise ValueError(f"ball kernels support only neighbor steps, got {sorted(bad)}")

    def step_sphere(self, x, lam):
        """V_lambda(x) for a neighbour step lambda, in move order: the classes
        s_i x of the p^2+p+1 determinant-p moves for (1, 0), of the
        determinant-p^2 moves for (0, 1) (see _flags); check_steps admits
        no other lambda. Refused unless the whole sphere lies in the ball; it
        is then the first or last p^2+p+1 of x's in-ball neighbours, which
        keep move order. A move's class lies in the ball when its sigma from
        the origin does."""
        nbrs = self.neighbors(x)
        full = len(self._moves) // 2
        first = lam == (1, 0)
        if len(nbrs) < 2 * full:
            moves = self.neighbor_classes(x)
            if any(max(self._sigma_from_origin(y)) > self.radius
                   for y in (moves[:full] if first else moves[full:])):
                raise ValueError(f"lambda-sphere {lam} truncated at {x}")
        return nbrs[:full] if first else nbrs[-full:]

    def exit_classes(self, o, level: int):
        """{lambda: V_lambda(o)} over the classes with max(lambda) = level, in
        lambda order; the level needs a ring of slack inside the ball."""
        if level > self.radius - 1:
            raise ValueError("exit level needs a ring of slack inside the ball")
        return {lam: self.v_lambda(o, lam)
                for lam in sorted(self.sigma_partition(o)) if max(lam) == level}

    def exit_cell(self, o, z, level: int):
        """z itself, once the walk stopped on the box of the exit level."""
        if max(self.sigma(o, z)) != level:
            raise AssertionError("walk skipped the exit level")
        return z

    def _flags(self):
        """The link's flags as (i, j) move-index pairs, i over the p^2+p+1
        determinant-p moves and j over the determinant-p^2 ones, in that
        order. Move i takes any class x to s_i x, which stands to x as s_i
        does to the origin; so sigma(x, s_i x) is (1, 0) or (0, 1) by the
        move's half, and whether s_i x and s_j x are adjacent does not
        depend on x. Both are read off the origin's neighbours once per p,
        with the generic sigma."""
        flags = _LINK_FLAGS.get(self.p)
        if flags is None:
            nbrs = self.neighbor_classes(self.origin)
            half = len(nbrs) // 2
            if any(self.sigma(self.origin, u) != ((1, 0) if i < half else (0, 1))
                   for i, u in enumerate(nbrs)):
                raise AssertionError("a move's sigma does not match its determinant")
            flags = _LINK_FLAGS[self.p] = tuple(
                (i, j) for i in range(half) for j in range(half, len(nbrs))
                if self.sigma(nbrs[i], nbrs[j]) in ((1, 0), (0, 1)))
        return flags

    def chambers_at(self, o):
        """Chambers of the link of o: adjacent pairs (u, v) with
        sigma(o,u) = lambda_1 and sigma(o,v) = lambda_2."""
        nbrs = self.neighbor_classes(o)
        return [(nbrs[i], nbrs[j]) for i, j in self._flags()]

    def to_json(self) -> dict:
        """The ball as lists, read from the stored arrays: each vertex's
        rows, its type v(adf) mod 3, and the edges as sorted index pairs."""
        import numpy as np

        n = self.size
        va, b, c, vd, e, vf = self._digits(self._keys)
        zero = np.zeros(n, dtype=np.int64)
        rows = np.stack([self.p ** va, b, c, zero, self.p ** vd, e, zero, zero, self.p ** vf],
                        axis=1).reshape(n, 3, 3)
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))
        dst = self._indices
        # vertices are sorted, so x < y is i < j: each edge once, sorted by i n + j
        keys = np.sort((src * n + dst)[src < dst])
        return {
            "family": "a2ball",
            "p": self.p,
            "radius": self.radius,
            "vertices": rows.tolist(),
            "types": ((va + vd + vf) % 3).tolist(),
            "edges": np.stack(np.divmod(keys, n), axis=1).tolist(),
        }

    # -- sector germs at a vertex --------------------------------------------------

    def first_chamber(self, o, z):
        """The initial link chamber of the sector from o toward a regular z.

        Needs sigma(o,z) with both coordinates >= 1; the two direction
        vertices are the unique neighbors of each type lying on a
        sigma-geodesic from o to z. A neighbour by a determinant-p move has
        sigma(o,u) = (1, 0), so it lies on one when sigma(u,z) is
        sigma(o,z) - (1, 0); one by a determinant-p^2 move, when sigma(v,z)
        is sigma(o,z) - (0, 1).
        """
        m = self.sigma(o, z)
        if m[0] < 1 or m[1] < 1:
            raise ValueError(f"sector target must be regular, got sigma={m}")
        nbrs = self.neighbor_classes(o)
        half = len(nbrs) // 2
        us = [u for u in nbrs[:half] if self.sigma(u, z) == (m[0] - 1, m[1])]
        vs = [v for v in nbrs[half:] if self.sigma(v, z) == (m[0], m[1] - 1)]
        if len(us) != 1 or len(vs) != 1:
            raise AssertionError(f"sector direction not unique: {len(us)}, {len(vs)}")
        return us[0], vs[0]

    def link_opposite(self, c1, c2) -> bool:
        """Opposition of two link chambers: neither flag's line lies in the
        other's plane (no cross-incidence)."""
        (u1, v1), (u2, v2) = c1, c2
        cross1 = self.sigma(u1, v2) in ((1, 0), (0, 1))
        cross2 = self.sigma(u2, v1) in ((1, 0), (0, 1))
        return not cross1 and not cross2

    def link_opposition_check(self, o, z, zp) -> bool:
        """Whether the sector germs at o toward z and zp point into a common
        apartment through o, decided inside the link of o."""
        return self.link_opposite(self.first_chamber(o, z), self.first_chamber(o, zp))


# -- spherical A2 buildings from projective planes ---------------------------------

class SphericalA2:
    """Flags of the projective plane of order q (q prime), with W-distance."""

    def __init__(self, q: int) -> None:
        if q < 2 or any(q % d == 0 for d in range(2, int(q ** 0.5) + 1)):
            raise ValueError(f"q must be prime, got {q}")
        self.q = q
        self.weyl = weyl_group("A2")
        self.root_system = self.weyl.root_system
        self.points = (
            [(1, a, b) for a in range(q) for b in range(q)]
            + [(0, 1, c) for c in range(q)]
            + [(0, 0, 1)]
        )
        self.lines = list(self.points)
        self.chambers = tuple(
            (pt, ln) for pt in self.points for ln in self.lines
            if self.incident(pt, ln)
        )
        self._on_line = {ln: tuple(pt for pt in self.points if self.incident(pt, ln))
                         for ln in self.lines}
        self._through_point = {pt: tuple(ln for ln in self.lines if self.incident(pt, ln))
                               for pt in self.points}

    def incident(self, pt, ln) -> bool:
        return sum(a * b for a, b in zip(pt, ln)) % self.q == 0

    def weyl_distance(self, c1, c2) -> WeylElement:
        """delta(c1, c2): e / s1 (line shared) / s2 (point shared) / s1s2 /
        s2s1 / w0 by the incidence pattern."""
        (pt1, ln1), (pt2, ln2) = c1, c2
        if c1 == c2:
            return self.weyl.identity
        if ln1 == ln2:
            return self.weyl.from_word((1,))
        if pt1 == pt2:
            return self.weyl.from_word((2,))
        if self.incident(pt2, ln1):
            return self.weyl.from_word((1, 2))
        if self.incident(pt1, ln2):
            return self.weyl.from_word((2, 1))
        return self.weyl.from_word((1, 2, 1))

    def residue(self, c, subset):
        """All chambers at W-distance inside the standard parabolic of subset."""
        allowed = set(subset)
        if not allowed:
            return [c]
        if allowed == {1}:
            pt, ln = c
            return [(p2, ln) for p2 in self._on_line[ln]]
        if allowed == {2}:
            pt, ln = c
            return [(pt, l2) for l2 in self._through_point[pt]]
        return list(self.chambers)

    def proj_residue(self, residue_chambers, c):
        """The gate: unique gallery-distance minimizer to c in the residue."""
        best = min(self.weyl_distance(d, c).length for d in residue_chambers)
        gates = [d for d in residue_chambers
                 if self.weyl_distance(d, c).length == best]
        if len(gates) != 1:
            raise AssertionError("projection is not unique; not a residue?")
        return gates[0]

    def opposite_to_both_verbose(self, c1, c2):
        """A chamber opposite to both inputs, plus the improvement-step count.

        Start from any chamber opposite c1; while delta(c0, c2) = w is not
        w0, take s with l(sw) = l(w)+1: every other chamber of the s-panel
        of c0 moves delta(., c2) up to sw, and all but the gate toward c1
        stay opposite c1.  Thickness leaves at least one choice.
        """
        w0 = self.weyl.longest_element()
        c0 = next(d for d in self.chambers if self.weyl_distance(d, c1) == w0)
        steps = 0
        while True:
            w = self.weyl_distance(c0, c2)
            if w == w0:
                return c0, steps
            steps += 1
            if steps > w0.length:
                raise AssertionError("opposite-chamber search failed to terminate")
            s = next(i for i in (1, 2)
                     if self.weyl.mult(self.weyl.generator(i), w).length == w.length + 1)
            panel = self.residue(c0, {s})
            gate1 = self.proj_residue(panel, c1)
            c0 = next(d for d in panel if d != c0 and d != gate1)


"""Finite root systems, Weyl groups and thickness vectors, in exact arithmetic.

A root system of rank n is stored through its Cartan matrix together with a
Gram matrix for the simple roots, normalised so that short roots have squared
length 2.  Vectors live in one of two coordinate systems:

* root coordinates: coefficients with respect to the simple roots;
* coweight coordinates: coefficients with respect to the fundamental
  coweights lambda_1 .. lambda_n, which satisfy <lambda_i, alpha_j> = delta_ij.

With this split the pairing of a coweight against a root is the plain dot
product of the two coordinate tuples, the simple reflection s_i acts on
coweight coordinates by c -> c - c_i * (row i of the Cartan matrix), and all
of chi, Poincare sums and N_lambda stay in ``fractions.Fraction``.

Generators are labelled 1..n; the index 0 in a thickness vector is the extra
node of the affine diagram, whose parameter must agree with the one attached
to the highest root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product

Vec = tuple[Fraction, ...]
IVec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]

# Cartan matrices (rows A[i][j] = <alpha_i^vee, alpha_j>) and symmetrizers
# d_i = <alpha_i, alpha_i>/2 with short roots of squared length 2.
_CARTAN_TABLE: dict[str, tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = {
    "A1": (((2,),), (1,)),
    "A2": (((2, -1), (-1, 2)), (1, 1)),
    "B2": (((2, -1), (-2, 2)), (2, 1)),
    "C2": (((2, -2), (-1, 2)), (1, 2)),
    "G2": (((2, -3), (-1, 2)), (1, 3)),
}


def _identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a: Mat, b: Mat) -> Mat:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _mat_vec(a: Mat, v: IVec) -> IVec:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


class RootSystem:
    """Finite irreducible root system of rank 1 or 2 with exact Gram data."""

    def __init__(self, cartan: tuple[tuple[int, ...], ...], symmetrizer: tuple[int, ...],
                 cartan_type: str = "custom") -> None:
        n = len(cartan)
        if any(len(row) != n for row in cartan):
            raise ValueError("cartan matrix must be square")
        if len(symmetrizer) != n:
            raise ValueError("symmetrizer length must match rank")
        self.cartan_type = cartan_type
        self.rank = n
        self.cartan: Mat = tuple(tuple(row) for row in cartan)
        self.symmetrizer: tuple[int, ...] = tuple(symmetrizer)
        # gram[i][j] = <alpha_i, alpha_j> = d_i * A[i][j]
        self.gram: tuple[Vec, ...] = tuple(
            tuple(Fraction(symmetrizer[i] * cartan[i][j]) for j in range(n))
            for i in range(n)
        )
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("cartan/symmetrizer pair is not symmetrizable")
        self.simple_roots: tuple[IVec, ...] = tuple(
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        )
        self.positive_roots: tuple[IVec, ...] = self._close_positive_roots()
        self.highest_root: IVec = max(self.positive_roots, key=lambda m: (sum(m), m))
        # squared lengths, summed once: q_alpha and validate only compare them
        self.simple_norms: tuple[Fraction, ...] = tuple(
            self.inner(a, a) for a in self.simple_roots)
        self.root_norms: dict[IVec, Fraction] = {a: self.inner(a, a)
                                                 for a in self.positive_roots}

    # -- basic linear data -------------------------------------------------

    def inner(self, u, v) -> Fraction:
        """Gram inner product of two vectors in root coordinates."""
        n = self.rank
        return sum(
            Fraction(u[i]) * self.gram[i][j] * Fraction(v[j])
            for i in range(n) for j in range(n)
        )

    @staticmethod
    def pairing(cw: IVec, root: IVec) -> int:
        """<lambda, alpha> for lambda in coweight and alpha in root coordinates."""
        return sum(c * m for c, m in zip(cw, root))

    def reflect_root(self, i: int, m: IVec) -> IVec:
        """s_i acting on root coordinates, i in 1..rank."""
        a = self.cartan[i - 1]
        c = sum(a[j] * m[j] for j in range(self.rank))
        return tuple(m[j] - (c if j == i - 1 else 0) for j in range(self.rank))

    def reflect_coweight(self, i: int, cw: IVec) -> IVec:
        """s_i acting on coweight coordinates, i in 1..rank."""
        a = self.cartan[i - 1]
        ci = cw[i - 1]
        return tuple(cw[j] - ci * a[j] for j in range(self.rank))

    def _close_positive_roots(self) -> tuple[IVec, ...]:
        roots = set(self.simple_roots)
        frontier = set(self.simple_roots)
        while frontier:
            new = set()
            for m in frontier:
                for i in range(1, self.rank + 1):
                    r = self.reflect_root(i, m)
                    if r not in roots and all(x >= 0 for x in r):
                        new.add(r)
            roots |= new
            frontier = new
        return tuple(sorted(roots, key=lambda m: (sum(m), m)))

    # -- coweight lattice, dominance, types --------------------------------

    def is_dominant(self, cw: IVec) -> bool:
        return all(c >= 0 for c in cw)

    def dominant_rep(self, cw: IVec) -> IVec:
        """The dominant representative of the Weyl orbit of a coweight."""
        c = tuple(cw)
        while True:
            for i in range(1, self.rank + 1):
                if c[i - 1] < 0:
                    c = self.reflect_coweight(i, c)
                    break
            else:
                return c

    def iota(self, cw: IVec) -> IVec:
        """The involution -w_0 on dominant coweights."""
        if not self.is_dominant(cw):
            raise ValueError("iota expects a dominant coweight")
        return self.dominant_rep(tuple(-c for c in cw))

    def in_coroot_lattice(self, cw: IVec) -> bool:
        """Whether a coweight lies in the lattice spanned by the coroots.

        In coweight coordinates the coroot alpha_i^vee is row i of the Cartan
        matrix A, so cw is in it iff z A = cw has an integer solution
        z = cw adj(A) / det(A); A is 1x1 or 2x2.
        """
        if self.rank == 1:
            return cw[0] % self.cartan[0][0] == 0
        (a, b), (c, d) = self.cartan
        det = a * d - b * c
        return (cw[0] * d - cw[1] * c) % det == 0 and (cw[1] * a - cw[0] * b) % det == 0


def root_system(cartan_type: str) -> RootSystem:
    """Construct one of the built-in root systems A1, A2, B2, C2, G2."""
    if cartan_type not in _CARTAN_TABLE:
        raise ValueError(f"unknown cartan type {cartan_type!r}")
    cartan, sym = _CARTAN_TABLE[cartan_type]
    return RootSystem(cartan, sym, cartan_type)


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element with its action in both coordinate systems.

    ``root_mat`` acts on root coordinates, ``cw_mat`` on coweight
    coordinates; both are integer matrices in the simple root respectively
    fundamental coweight bases.  ``word`` is a fixed reduced word, built by
    stripping right descents, with letters in 1..rank.
    """

    root_mat: Mat
    cw_mat: Mat
    length: int
    word: tuple[int, ...]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.root_mat == other.root_mat

    def __hash__(self) -> int:
        return hash(self.root_mat)

    def apply_root(self, m: IVec) -> IVec:
        return _mat_vec(self.root_mat, m)

    def apply_coweight(self, cw: IVec) -> IVec:
        return _mat_vec(self.cw_mat, cw)

    def __repr__(self) -> str:
        if not self.word:
            return "W(e)"
        return "W(" + "*".join(f"s{i}" for i in self.word) + ")"


class WeylGroup:
    """The finite Weyl group of a root system, fully enumerated.

    Products come from a Cayley table over the at most 12 elements, and
    words from a memo; both are filled on first use, so a group that never
    multiplies does not pay for them."""

    def __init__(self, rs: RootSystem) -> None:
        self.root_system = rs
        n = rs.rank
        gen_root = []
        gen_cw = []
        for i in range(1, n + 1):
            gen_root.append(tuple(zip(*[rs.reflect_root(i, e) for e in _identity(n)])))
            gen_cw.append(tuple(zip(*[rs.reflect_coweight(i, e) for e in _identity(n)])))
        self._gen_root: list[Mat] = [tuple(map(tuple, g)) for g in gen_root]
        self._gen_cw: list[Mat] = [tuple(map(tuple, g)) for g in gen_cw]
        self.elements: tuple[WeylElement, ...] = self._enumerate()
        self._by_mat = {w.root_mat: w for w in self.elements}
        self.identity = self._by_mat[_identity(n)]
        self.w0 = max(self.elements, key=lambda w: w.length)
        assert sum(1 for w in self.elements if w.length == self.w0.length) == 1
        self._products: dict | None = None
        self._words: dict[tuple[int, ...], WeylElement] = {}

    def _length_of(self, root_mat: Mat) -> int:
        rs = self.root_system
        inv = 0
        for alpha in rs.positive_roots:
            img = _mat_vec(root_mat, alpha)
            if all(x <= 0 for x in img):
                inv += 1
        return inv

    def _enumerate(self) -> tuple[WeylElement, ...]:
        n = self.root_system.rank
        seen: dict[Mat, Mat] = {_identity(n): _identity(n)}   # root_mat -> cw_mat
        frontier = [_identity(n)]
        while frontier:
            new = []
            for rm in frontier:
                cm = seen[rm]
                for gi in range(n):
                    nrm = _mat_mul(self._gen_root[gi], rm)
                    if nrm not in seen:
                        seen[nrm] = _mat_mul(self._gen_cw[gi], cm)
                        new.append(nrm)
            frontier = new
        lengths = {rm: self._length_of(rm) for rm in seen}
        words: dict[Mat, tuple[int, ...]] = {_identity(n): ()}
        for rm in sorted(seen, key=lambda m: (lengths[m], m)):
            if rm in words:
                continue
            # right descent: w(alpha_i) < 0 means l(w s_i) = l(w) - 1
            for i in range(1, n + 1):
                col = tuple(rm[r][i - 1] for r in range(n))
                if all(x <= 0 for x in col):
                    shorter = _mat_mul(rm, self._gen_root[i - 1])
                    words[rm] = words[shorter] + (i,)
                    break
            else:
                raise AssertionError("non-identity element without a descent")
        elems = [
            WeylElement(rm, seen[rm], lengths[rm], words[rm])
            for rm in sorted(seen, key=lambda m: (lengths[m], words[m]))
        ]
        return tuple(elems)

    def generator(self, i: int) -> WeylElement:
        return self._by_mat[self._gen_root[i - 1]]

    def mult(self, a: WeylElement, b: WeylElement) -> WeylElement:
        products = self._products
        if products is None:
            products = self._products = {
                (x, y): self._by_mat[_mat_mul(x.root_mat, y.root_mat)]
                for x in self.elements for y in self.elements}
        return products[a, b]

    def inverse(self, a: WeylElement) -> WeylElement:
        w = self.identity
        for i in reversed(a.word):
            w = self.mult(w, self.generator(i))
        return w

    def from_word(self, word) -> WeylElement:
        word = tuple(word)
        w = self._words.get(word)
        if w is None:
            w = self.identity
            for i in word:
                w = self.mult(w, self.generator(i))
            self._words[word] = w
        return w

    def parabolic(self, subset) -> tuple[WeylElement, ...]:
        """The standard parabolic subgroup W_J, J a set of letters in 1..rank."""
        J = sorted(set(subset))
        if any(i < 1 or i > self.root_system.rank for i in J):
            raise ValueError("parabolic subset out of range")
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            new = []
            for w in frontier:
                for i in J:
                    nxt = self.mult(self.generator(i), w)
                    if nxt not in seen:
                        seen.add(nxt)
                        new.append(nxt)
            frontier = new
        return tuple(sorted(seen, key=lambda w: (w.length, w.word)))

    def longest_element(self, subset=None) -> WeylElement:
        """The longest element of W_J (of the whole group when J is omitted)."""
        if subset is None:
            return self.w0
        elems = self.parabolic(subset)
        top = max(elems, key=lambda w: w.length)
        assert sum(1 for w in elems if w.length == top.length) == 1
        return top

    def orbit(self, cw: IVec) -> set[IVec]:
        cw = tuple(cw)
        return {w.apply_coweight(cw) for w in self.elements}

    def stabilizer(self, cw: IVec) -> tuple[WeylElement, ...]:
        cw = tuple(cw)
        return tuple(w for w in self.elements if w.apply_coweight(cw) == cw)


@cache
def weyl_group(cartan_type: str) -> WeylGroup:
    """The Weyl group of a built-in root system, built once per type."""
    return WeylGroup(root_system(cartan_type))


@dataclass(frozen=True)
class ThicknessVector:
    """Thickness parameters q_0 .. q_n indexed by the affine diagram nodes.

    q_i + 1 is the number of chambers on a panel of the corresponding type.
    The parameters must be constant on conjugacy classes of reflections,
    which for the systems handled here means constant on root lengths, with
    the affine node tied to the class of the highest root.
    """

    q: tuple[int, ...]

    def __post_init__(self) -> None:
        if any((not isinstance(x, int)) or x < 1 for x in self.q):
            raise ValueError("thickness parameters must be integers >= 1")

    def validate(self, rs: RootSystem) -> None:
        if len(self.q) != rs.rank + 1:
            raise ValueError("thickness vector length must be rank + 1")
        norms = rs.simple_norms
        for i in range(rs.rank):
            for j in range(rs.rank):
                if norms[i] == norms[j] and self.q[i + 1] != self.q[j + 1]:
                    raise ValueError("thickness must be constant on root length classes")
        i = norms.index(rs.root_norms[rs.highest_root])
        if self.q[0] != self.q[i + 1]:
            raise ValueError("affine node thickness must match the highest root class")

    def q_alpha(self, rs: RootSystem, alpha: IVec) -> int:
        """The parameter attached to a root, through its length class."""
        norm = rs.root_norms.get(tuple(alpha))
        if norm is None:
            norm = rs.inner(alpha, alpha)
        for i, simple in enumerate(rs.simple_norms):
            if simple == norm:
                return self.q[i + 1]
        raise ValueError("root does not match any simple root length class")

    def q_w(self, word) -> int:
        """q_w = q_{i_1} ... q_{i_k} over a reduced word, letters in 1..rank."""
        out = 1
        for i in word:
            out *= self.q[i]
        return out


def uniform_thickness(rs: RootSystem, q: int) -> ThicknessVector:
    return ThicknessVector(tuple(q for _ in range(rs.rank + 1)))


def poincare_sum(tv: ThicknessVector, elements) -> Fraction:
    """U(q^{-1}) = sum over U of 1/q_w, exact."""
    return sum((Fraction(1, tv.q_w(w.word)) for w in elements), Fraction(0))


def chi(rs: RootSystem, tv: ThicknessVector, cw: IVec) -> Fraction:
    """The multiplicative character chi(lambda) = prod q_alpha^<lambda, alpha>."""
    out = Fraction(1)
    for alpha in rs.positive_roots:
        out *= Fraction(tv.q_alpha(rs, alpha)) ** RootSystem.pairing(cw, alpha)
    return out


def n_lambda(weyl: WeylGroup, tv: ThicknessVector, cw: IVec) -> int:
    """The cardinality N_lambda = W_0(q^{-1}) / W_lambda(q^{-1}) * chi(lambda).

    ``cw`` must be dominant; the result is checked to be a positive integer.
    """
    rs = weyl.root_system
    cw = tuple(cw)
    if not rs.is_dominant(cw):
        raise ValueError("n_lambda expects a dominant coweight")
    total = poincare_sum(tv, weyl.elements)
    stab = poincare_sum(tv, weyl.stabilizer(cw))
    value = total / stab * chi(rs, tv, cw)
    if value.denominator != 1 or value <= 0:
        raise AssertionError(f"N_lambda is not a positive integer: {value}")
    return int(value)


def dominant_coweights(rs: RootSystem, box: int):
    """All dominant coweights with coordinates in 0..box, ordered."""
    return [cw for cw in product(range(box + 1), repeat=rs.rank)]

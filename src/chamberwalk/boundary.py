"""Harmonic measures on chambers at infinity, handled on the cylinder algebra.

The measure nu_x assigns 1/N_lambda to the cylinder of directions whose
sector at x passes through a fixed vertex of V_lambda(x).  Everything here
stays on that algebra: partition and refinement identities, the chi(h)
change-of-basepoint ratio, the basepoint-free product measure on pairs of
opposite directions, isotropic step kernels, and Monte Carlo exit statistics
that compare walk hitting frequencies against nu.  A separate detector
recovers the parabolic W_J from a chamber colouring of a spherical building.

Every model offers the building interface described in ``buildings``, so
kernels and exit statistics take one path on trees and lattice-class balls.
Trees admit exact ends (deep words), so the ratio and product-measure checks
are exact there and refuse other models; lattice-class balls only support the
truncation-level statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .buildings import SphericalA2, TreeBuilding, is_between
from .coxeter import chi, n_lambda, uniform_thickness
from .netwalk import MarkovKernel, RngStream, encode_node, first_passages, passage_counts
from .stats import ChiSquareResult, chisquare_uniform, combine_chisquares


def _weyl_data(model):
    """Weyl group and uniform thickness vector attached to a building model."""
    return model.weyl, uniform_thickness(model.root_system, model.thickness)


class CylinderMeasure:
    """nu_x on the cylinder algebra: nu_x(Omega_x(y)) = 1/N_{sigma(x,y)}."""

    def __init__(self, model) -> None:
        self.model = model
        self.weyl, self.tv = _weyl_data(model)

    def n_lambda(self, lam) -> int:
        return n_lambda(self.weyl, self.tv, lam)

    def nu(self, x, y) -> Fraction:
        return Fraction(1, self.n_lambda(self.model.sigma(x, y)))

    def chi(self, cw) -> Fraction:
        return chi(self.model.root_system, self.tv, cw)


def partition_defect(m: CylinderMeasure, x, lam) -> Fraction:
    """|1 - sum of nu over V_lambda(x)|, exact."""
    total = sum((m.nu(x, y) for y in m.model.v_lambda(x, lam)), Fraction(0))
    return abs(Fraction(1) - total)


def refinement_check(m: CylinderMeasure, x, levels) -> Fraction:
    """Worst defect |nu(Omega_x(y)) - sum of nu over one-step refinements|.

    ``levels`` lists pairs (lam, lam_fine) with lam_fine - lam a nonzero
    dominant coweight; for y in V_lam(x) the refining vertices are the
    y' in V_lam_fine(x) with y on a sigma-geodesic from x to y'.
    """
    model = m.model
    rs = model.root_system
    worst = Fraction(0)
    for lam, fine in levels:
        step = tuple(b - a for a, b in zip(lam, fine))
        if not rs.is_dominant(step) or all(s == 0 for s in step):
            raise ValueError(f"level pair {lam} -> {fine} is not a deepening")
        deeper = model.v_lambda(x, fine)
        piece = Fraction(1, m.n_lambda(fine))
        coarse = Fraction(1, m.n_lambda(lam))
        for y in model.v_lambda(x, lam):
            cnt = sum(1 for yp in deeper if is_between(model, x, y, yp))
            worst = max(worst, abs(coarse - cnt * piece))
    return worst


@dataclass(frozen=True)
class ExactCheckReport:
    """Outcome of an exact measure identity over a batch of cylinders."""

    check: str
    checked: int
    defect: Fraction

    @property
    def verdict(self) -> bool:
        return self.checked > 0 and self.defect == 0


def _deep_ends(model: TreeBuilding, z, depth: int):
    """Two ray words through the subtree below z, diverging right after z."""
    last = z[-1] if z else None
    firsts = [a for a in range(model.degree) if a != last][:2]
    out = []
    for f in firsts:
        w = list(z) + [f]
        while len(w) < depth:
            w.append(0 if w[-1] != 0 else 1)
        out.append(tuple(w))
    return out


def _require_outside(z, base, role: str) -> None:
    if z == base[: len(z)]:
        raise ValueError(f"{role} lies inside the shadow of {z}")


def radon_nikodym_check(m: CylinderMeasure, x, y, targets) -> ExactCheckReport:
    """Exact test of nu_y(C)/nu_x(C) = chi(h(x,y;.)) on deep tree cylinders.

    Each target z names the cylinder of ends through the subtree below z;
    both basepoints must lie outside that subtree, which makes the cylinder
    the same set seen from x and from y and makes h constant on it.
    """
    model = m.model
    if not isinstance(model, TreeBuilding):
        raise TypeError("exact Radon-Nikodym ratios need tree ends")
    checked, defect = 0, Fraction(0)
    for z in targets:
        if not z:
            raise ValueError("target must be a vertex other than the origin")
        _require_outside(z, x, "basepoint x")
        _require_outside(z, y, "basepoint y")
        depth = len(z) + max(len(x), len(y)) + 2
        end = _deep_ends(model, z, depth)[0]
        ratio = m.nu(y, z) / m.nu(x, z)
        checked += 1
        defect = max(defect, abs(ratio - m.chi(model.busemann_h(x, y, end))))
    return ExactCheckReport("radon-nikodym", checked, defect)


def m_product_value(m: CylinderMeasure, base, z1, z2) -> Fraction:
    """chi(beta) nu(C) nu(C') for the product of the cylinders below z1, z2.

    The subtrees below z1 and z2 must be disjoint and must not contain the
    basepoint; beta is then constant on the product, which is double-checked
    by evaluating it on split ray pairs.  The density exponent +beta is
    what cancels against the two chi(h) ratios under a change of basepoint:
    moving base multiplies nu(C) nu(C') by chi(h + h') = chi(beta_new -
    beta_old) exactly.
    """
    model = m.model
    if not isinstance(model, TreeBuilding):
        raise TypeError("product-measure values need tree ends")
    k = min(len(z1), len(z2))
    if z1[:k] == z2[:k]:
        raise ValueError("overlapping shadows: one cylinder refines the other")
    _require_outside(z1, base, "basepoint")
    _require_outside(z2, base, "basepoint")
    depth = max(len(z1), len(z2), len(base)) + 4
    vals = {
        model.beta(base, e1, e2)[0]
        for e1 in _deep_ends(model, z1, depth)
        for e2 in _deep_ends(model, z2, depth)
    }
    if len(vals) != 1:
        raise ValueError("beta is not constant on the product cylinder")
    return m.chi((vals.pop(),)) * m.nu(base, z1) * m.nu(base, z2)


def m_measure_checks(b: TreeBuilding, x, y, cylinder_pairs) -> ExactCheckReport:
    """Basepoint independence of chi(beta) dnu dnu over product cylinders."""
    m = CylinderMeasure(b)
    checked, defect = 0, Fraction(0)
    for z1, z2 in cylinder_pairs:
        vx = m_product_value(m, x, z1, z2)
        vy = m_product_value(m, y, z1, z2)
        checked += 1
        defect = max(defect, abs(vx - vy))
    return ExactCheckReport("m-measure", checked, defect)


# -- isotropic kernels ---------------------------------------------------------------

class IsotropicKernel:
    """p(x,y) = c_{sigma(x,y)} / N_{sigma(x,y)} for a finite step law c.

    The default law puts 1/rank on each fundamental coweight.  The model
    decides which steps it supports (``check_steps``) and lists each row's
    lambda-spheres (``step_sphere``): on trees any support {(k,)} works since
    spheres are exact everywhere; on lattice-class balls the support must sit
    inside {(1,0), (0,1)} and rows exist only where the ball still holds the
    full spheres.
    """

    def __init__(self, model, c=None) -> None:
        self.model = model
        self.weyl, self.tv = _weyl_data(model)
        rs = model.root_system
        if c is None:
            c = {tuple(int(i == j) for j in range(rs.rank)): Fraction(1, rs.rank)
                 for i in range(rs.rank)}
        law = {}
        for lam, pr in c.items():
            if isinstance(pr, float):
                raise ValueError("step law must use exact rationals")
            pr = Fraction(pr)
            lam = tuple(lam)
            if len(lam) != rs.rank or not rs.is_dominant(lam):
                raise ValueError(f"step {lam} is not a dominant coweight")
            if all(v == 0 for v in lam):
                raise ValueError("step law must not charge lambda = 0")
            if pr < 0:
                raise ValueError("step law must be nonnegative")
            if pr > 0:
                law[lam] = pr
        if sum(law.values()) != 1:
            raise ValueError(f"step law sums to {sum(law.values())}, not 1")
        model.check_steps(law)
        self.c = law

    @property
    def symmetric(self) -> bool:
        rs = self.model.root_system
        return all(self.c.get(rs.iota(lam)) == pr for lam, pr in self.c.items())

    def row(self, x):
        out = []
        for lam, pr in sorted(self.c.items()):
            ys = self.model.step_sphere(x, lam)
            p = pr / len(ys)
            out.extend((y, p) for y in ys)
        return out

    def kernel(self) -> MarkovKernel:
        return MarkovKernel(self.row)


# -- boundary hitting statistics -----------------------------------------------------

@dataclass(frozen=True)
class HittingStats:
    """Exit counts of a walk over the cylinders at a fixed lambda-level."""

    counts: tuple
    samples: int
    unresolved: int
    chi: ChiSquareResult
    truncation_limited: bool

    @property
    def p_value(self) -> float:
        return self.chi.p_value

    @property
    def flagged(self) -> bool:
        return self.unresolved * 100 > self.samples

    def passes(self) -> bool:
        return not self.flagged and self.chi.passes()


def boundary_hitting_mc(ik: IsotropicKernel, o, level: int, samples: int,
                        rng: RngStream, horizon: int = 100000,
                        workers: int = 1) -> HittingStats:
    """Chi-square comparison of walk exit frequencies against nu_o.

    Each walk stops once max(sigma(o, z)) >= level, and its exit is recorded
    as the model's ``exit_cell``: on trees the vertex of V_level(o) the exit
    direction passes through, on lattice-class balls the exit vertex on the
    sigma-box.  nu_o is uniform on each class of ``exit_classes``, so
    uniformity is tested within each class that was hit and the class
    statistics are summed.  ``truncation_limited`` comes from the model.
    Walks run in one thread; ``workers`` is accepted and ignored.  Exits
    are tallied by state id, so ``exit_cell`` runs once per exit state.
    """
    if level < 1:
        raise ValueError("exit level must be at least 1")
    if samples < 1:
        raise ValueError("need at least one sample")
    model = ik.model
    classes = model.exit_classes(o, level)
    states, ids, _ = first_passages(ik.kernel(), o, lambda z: max(model.sigma(o, z)) >= level,
                                    rng, samples, horizon)
    tally: dict = {}
    for z, n in passage_counts(states, ids):
        cell = model.exit_cell(o, z, level)
        tally[cell] = tally.get(cell, 0) + n
    parts = []
    for cells in classes.values():
        counts = [tally.get(v, 0) for v in cells]
        if sum(counts) > 0:
            parts.append(chisquare_uniform(counts))
    stat = combine_chisquares(parts) if parts else ChiSquareResult(float("inf"), 0, 0.0)
    counts = tuple(sorted(tally.items(), key=lambda t: encode_node(t[0])))
    return HittingStats(counts=counts, samples=samples, unresolved=int((ids < 0).sum()),
                        chi=stat, truncation_limited=model.truncation_limited)


# -- colourings of spherical buildings -----------------------------------------------

def special_subgroup_detect(s: SphericalA2, pi):
    """The W-distances a chamber colouring cannot separate, as a parabolic.

    Returns (E, J, verdict): E = {w : delta(c,d) = w forces pi(c) = pi(d)}
    from an exhaustive pair scan, J = the letters appearing in reduced words
    of E, and whether pi is constant on every J-residue.  E is checked to be
    closed under splitting off a first or last letter, which is what makes
    it the standard parabolic W_J.
    """
    weyl = s.weyl
    separated = {w: False for w in weyl.elements}
    colours = {c: pi(c) for c in s.chambers}
    for c in s.chambers:
        pc = colours[c]
        for d in s.chambers:
            if pc != colours[d]:
                separated[s.weyl_distance(c, d)] = True
    E = tuple(w for w in weyl.elements if not separated[w])
    eset = set(E)
    for w in E:
        if w.length == 0:
            continue
        first, last = w.word[0], w.word[-1]
        head = weyl.generator(first)
        tail = weyl.generator(last)
        if head not in eset or weyl.mult(head, w) not in eset:
            raise AssertionError(f"E not closed under left splitting at {w}")
        if tail not in eset or weyl.mult(w, tail) not in eset:
            raise AssertionError(f"E not closed under right splitting at {w}")
    J = frozenset(i for w in E for i in w.word)
    verdict = all(
        len({colours[d] for d in s.residue(c, J)}) == 1 for c in s.chambers
    )
    return E, J, verdict

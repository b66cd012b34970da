"""Induced walks on subsets and discretization of walks to lattice measures.

For a walk (Z_j) and a subset Y of the state space, the visit times are
tau_-1 = -1, tau_{k+1} = inf{j > tau_k : Z_j in Y}, and the induced chain
S_k = Z_{tau_k} has kernel q(x, y) = P_x(Z_{tau_1} = y).  Harmonic functions
transfer both ways across the induction, hitting distributions on subsets of
Y are preserved, and inducing is transitive in Y.

For a group G acting on the network with orbit Y = G.o, pulling the induced
kernel back to the group gives the step law

    mu(g) = q(o, g.o) / |G_o|,

a probability measure on G whose convolution walk projects back to the
induced walk.  Exact values come from absorption solves; a Monte Carlo
estimator with an explicit unresolved bucket covers the cases with no
finite enclosure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .action import FiniteAction, IntegerTranslationAction
from .errors import SizeGuardError
from .netwalk import (
    FiniteNetwork,
    MarkovKernel,
    RngStream,
    _hitting_rows,
    first_passages,
    harmonic_defect,
    kernel_from_network,
    passage_counts,
)


def mass_is_one(total) -> bool:
    """total == 1 exactly, or within 1e-12 for floats past EXACT_SOLVE_LIMIT."""
    return abs(total - 1) <= (0 if isinstance(total, Fraction) else 1e-12)


def induced_kernel_exact(kernel: MarkovKernel, subset) -> MarkovKernel:
    """The kernel of the induced chain on a subset of a finite chain.

    q(x, y) = sum_z p(x, z) alpha(z, y) with alpha the absorption matrix of
    the subset; fails loudly if the subset is not almost surely revisited.
    Past ``EXACT_SOLVE_LIMIT`` unknowns alpha, and so q, is float and the
    returned kernel has ``is_exact`` False.
    """
    subset = list(subset)
    alpha = _hitting_rows(kernel, subset)[1]
    return MarkovKernel.finite({x: _induced_row(kernel, alpha, x) for x in subset})


def _induced_row(kernel: MarkovKernel, alpha: dict, x) -> tuple:
    """q(x, .) = sum_z p(x, z) alpha(z, .) for absorption rows alpha (as
    ``_hitting_rows`` keeps them), sorted by repr: the row of x in
    ``induced_kernel_exact``.  Fails loudly unless the row has mass one."""
    row: dict = {}
    for z, p in kernel.row(x):
        for y, a in alpha[z].items():
            if a != 0:
                row[y] = row.get(y, Fraction(0)) + p * a
    total = sum(row.values())
    if not mass_is_one(total):
        raise ValueError(f"induced row at {x!r} sums to {total}; subset not a.s. revisited")
    return tuple(sorted(row.items(), key=lambda t: repr(t[0])))


@dataclass(frozen=True)
class HarmonicTransferReport:
    restriction_defect: object
    interior_defect: object
    q_harmonic_input: bool
    global_defect: object | None

    @property
    def verdict(self) -> bool:
        ok = self.restriction_defect == 0 and self.interior_defect == 0
        if self.q_harmonic_input:
            ok = ok and self.global_defect == 0
        return ok


def harmonic_extension(kernel: MarkovKernel, subset, f: dict) -> dict:
    """h(x) = E_x f(S_0): the harmonic extension of f from the subset."""
    alpha = _hitting_rows(kernel, subset)[1]
    return {
        x: sum((a * f[y] for y, a in alpha[x].items() if a != 0), Fraction(0))
        for x in kernel.nodes
    }


def harmonic_transfer_check(kernel: MarkovKernel, subset, f: dict) -> HarmonicTransferReport:
    """Verify the harmonic correspondence between a chain and its induced chain.

    The extension h(x) = E_x f(S_0) restricts to f on the subset and is
    P-harmonic off it; when f is additionally harmonic for the induced
    kernel, h is P-harmonic everywhere.
    """
    subset = list(subset)
    subset_set = set(subset)
    h = harmonic_extension(kernel, subset, f)
    restriction = max(abs(h[y] - f[y]) for y in subset)
    interior = harmonic_defect(kernel, h, [x for x in kernel.nodes if x not in subset_set])
    qf_defect = harmonic_defect(induced_kernel_exact(kernel, subset), f, subset)
    return HarmonicTransferReport(
        restriction_defect=restriction,
        interior_defect=interior,
        q_harmonic_input=qf_defect == 0,
        global_defect=harmonic_defect(kernel, h) if qf_defect == 0 else None,
    )


# -- lattice discretization -----------------------------------------------------------

@dataclass(frozen=True)
class LatticeMeasure:
    """A step law on group elements, mu(g) = q(o, g.o)/|G_o|."""

    base: object
    entries: tuple          # ((key, prob), ...) sorted by repr(key)
    provenance: str         # "exact", "float" (past the exact solve limit) or "mc"
    symmetric: bool
    unresolved: float
    stabilizer_order: int

    def prob(self, key):
        for k, p in self.entries:
            if k == key:
                return p
        return Fraction(0) if self.provenance == "exact" else 0.0

    def total(self):
        return sum(p for _, p in self.entries)

    def first_moment(self, action):
        return sum(p * action.key_distance(k) for k, p in self.entries)

    def to_json(self) -> dict:
        from .netwalk import conductance_to_json

        return {
            "base": repr(self.base),
            "provenance": self.provenance,
            "symmetric": self.symmetric,
            "stabilizer_order": self.stabilizer_order,
            "unresolved": self.unresolved,
            "measure": [
                {"element": repr(k), "prob": conductance_to_json(p)
                 if isinstance(p, Fraction) else p}
                for k, p in self.entries
            ],
        }


def _group_elements_mapping(action, o, y):
    """All group keys g with g.o = y (finite actions), or the unique one."""
    if isinstance(action, FiniteAction):
        return [g for g in action.element_keys() if action.translate(g, o) == y]
    return [action.element_for(o, y)]


def _is_transitive(action) -> bool:
    return len(action.fundamental_domain()) == 1


def _measure_from_row(action, o, row_items, provenance, unresolved=0.0) -> LatticeMeasure:
    stab = action.stabilizer_order(o)
    entries = []
    for y, qprob in row_items:
        if qprob == 0:
            continue
        for g in _group_elements_mapping(action, o, y):
            entries.append((g, qprob / stab))
    entries.sort(key=lambda t: repr(t[0]))
    if provenance == "exact" and any(isinstance(p, float) for _, p in entries):
        provenance = "float"    # a solve past EXACT_SOLVE_LIMIT, or float conductances
    mu = dict(entries)
    tol = 1e-12 if provenance == "float" else 0
    symmetric = all(abs(mu.get(action.inverse_key(g), 0) - p) <= tol for g, p in entries)
    return LatticeMeasure(
        base=o,
        entries=tuple(entries),
        provenance=provenance,
        symmetric=symmetric,
        unresolved=unresolved,
        stabilizer_order=stab,
    )


def discretize_lattice(net, action, o, rng: RngStream | None = None,
                       samples: int = 100000, horizon: int = 10**6,
                       method: str = "auto") -> LatticeMeasure:
    """The step law of the walk induced on the orbit of o, pulled to the group.

    Exact routes: transitive actions read the kernel row at o directly (on
    finite networks this is cross-checked against the full induced-kernel
    computation); integer translation subgroups on the nearest-neighbour
    line get an absorption solve on one period window; finite ambient
    networks get the induced kernel on the orbit.  Everything else falls
    back to Monte Carlo with an explicit unresolved bucket; method="mc"
    forces that path.  method="exact" refuses to sample, and refuses with
    SizeGuardError a float law from an exact network past
    ``EXACT_SOLVE_LIMIT``.
    """
    if method not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown method {method!r}")
    kernel = kernel_from_network(net)
    mu = None if method == "mc" else _exact_measure(net, action, o, kernel)
    if method == "exact":
        if mu is None:
            raise ValueError("no exact route for this network/action pair")
        if mu.provenance == "float" and kernel.is_exact:
            raise SizeGuardError("the exact route is past the exact solve limit; "
                                 "method 'exact' reports exact laws only")
    if mu is not None:
        return mu
    if rng is None:
        raise ValueError("Monte Carlo discretization needs an RngStream")
    return _lattice_measure_mc(kernel, action, o, rng, samples, horizon)


def _exact_measure(net, action, o, kernel: MarkovKernel) -> LatticeMeasure | None:
    """The step law by the first exact route that applies, or None."""
    if _is_transitive(action):
        row = kernel.row(o)
        if isinstance(net, FiniteNetwork):
            induced = induced_kernel_exact(kernel, action.orbit(o)
                                           if isinstance(action, FiniteAction)
                                           else list(net.nodes))
            if dict(induced.row(o)) != dict(row):
                raise AssertionError("transitive fast path disagrees with induced kernel")
        return _measure_from_row(action, o, row, "exact")
    if isinstance(action, IntegerTranslationAction):
        try:
            return _integer_line_exact(net, action, o, kernel)
        except ValueError:
            pass
    if isinstance(net, FiniteNetwork) and isinstance(action, FiniteAction):
        alpha = _hitting_rows(kernel, action.orbit(o))[1]
        return _measure_from_row(action, o, _induced_row(kernel, alpha, o), "exact")
    return None


def _integer_line_exact(net, action: IntegerTranslationAction, o: int,
                        kernel: MarkovKernel) -> LatticeMeasure:
    k = action.k
    for probe in (o, o + 1, o - 1):
        nbrs = sorted(y for y, _ in net.neighbors(probe))
        if nbrs != [probe - 1, probe + 1]:
            raise ValueError("exact window solve needs the nearest-neighbour line")
    window = list(range(o - k, o + k + 1))
    absorbing = [o - k, o, o + k]
    rows = {}
    for x in window:
        if x in absorbing:
            rows[x] = [(x, Fraction(1))]
        else:
            rows[x] = [(y, p) for y, p in kernel.row(x)]
    restricted = MarkovKernel.finite(rows)
    alpha = _hitting_rows(restricted, absorbing)[1]
    return _measure_from_row(action, o, _induced_row(kernel, alpha, o), "exact")


def _lattice_measure_mc(kernel: MarkovKernel, action, o, rng: RngStream,
                        samples: int, horizon: int) -> LatticeMeasure:
    home = action.canonicalize(o)
    states, ids, _ = first_passages(kernel, o, lambda z: action.canonicalize(z) == home, rng,
                                    samples, horizon)
    counts = sorted(passage_counts(states, ids), key=lambda t: repr(t[0]))
    row = [(y, c / samples) for y, c in counts]
    unresolved = int((ids < 0).sum()) / samples
    return _measure_from_row(action, o, row, "mc", unresolved=unresolved)

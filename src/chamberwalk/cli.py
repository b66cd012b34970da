"""Batch command line: build models, run walks, verify invariants.

Every subcommand reads an optional JSON config file (flags win on
conflict), runs, and emits one versioned JSON report, plus CSV tables
with --format csv.  Reports carry no timestamps, and each Monte Carlo
check draws in a fixed order from its own child stream of the seed, so a
fixed --seed reproduces byte-identical output.  Walks run in one thread:
--workers is validated and otherwise ignored.

Exit codes: 0 every requested check passed, 1 a check failed, 2 the
config or arguments were malformed, 3 a size guard refused the build.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .action import (
    FiniteAction,
    FreeGroupTreeAction,
    IntegerTranslationAction,
    InvolutionTreeAction,
    action_invariance_check,
    covolume,
    quotient_law_check,
    quotient_network,
    return_time_samples,
    return_time_stats,
)
from .boundary import (
    CylinderMeasure,
    IsotropicKernel,
    boundary_hitting_mc,
    m_measure_checks,
    partition_defect,
    radon_nikodym_check,
    refinement_check,
    special_subgroup_detect,
)
from .buildings import A2Ball, SphericalA2, TreeBuilding, ball_size
from .coxeter import (
    ThicknessVector,
    chi,
    dominant_coweights,
    n_lambda,
    poincare_sum,
    uniform_thickness,
    weyl_group,
)
from .discretize import (
    discretize_lattice,
    harmonic_transfer_check,
    induced_kernel_exact,
    mass_is_one,
)
from .errors import CheckFailure, SchemaError, SizeGuardError
from .netwalk import (
    FiniteNetwork,
    RngStream,
    check_stationary,
    conductance_to_json,
    cycle_network,
    encode_node,
    integer_line_network,
    kernel_from_network,
    network_from_json,
    path_network,
    reversibility_defect,
    simulate,
    _node_from_json,
)

SCHEMA = "chamberwalk/1"


# -- configuration ---------------------------------------------------------------

def _integer(value, what: str) -> int:
    """An int, or a string that spells one; a bool, a float or anything else
    is a bad request."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except ValueError as exc:
        raise SchemaError(f"{what} must be an integer, got {value!r}") from exc


@dataclass
class RunConfig:
    """Merged view of the config file and the command line flags."""

    command: str
    params: dict
    seed: int | None
    samples: int | None
    out: str | None
    fmt: str

    def param(self, name, default=None):
        return self.params.get(name, default)

    def int_param(self, name, default: int) -> int:
        return _integer(self.params.get(name, default), name)

    def sample_count(self, default: int) -> int:
        return default if self.samples is None else self.samples

    def require_stream(self) -> RngStream:
        if self.seed is None:
            raise SchemaError(f"{self.command} is stochastic; provide --seed")
        return RngStream(int(self.seed))


def _read_json(path, what: str):
    try:
        return json.loads(Path(str(path)).read_text())
    except OSError as exc:
        raise SchemaError(f"cannot read {what} file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{what} file nests too deeply") from exc


def _read_flag(value, what: str):
    """A flag's JSON text, or the value a config file gave it, with lists
    read as tuples so they can name tree words and lattice rows."""
    try:
        return _node_from_json(json.loads(value) if isinstance(value, str) else value)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} must be JSON, got {value!r}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{what} nests lists too deeply") from exc


def _load_config(args: argparse.Namespace) -> RunConfig:
    params: dict = {}
    path = getattr(args, "config", None)
    if path:
        doc = _read_json(path, "config")
        if not isinstance(doc, dict):
            raise SchemaError("config file must hold a JSON object")
        params.update(doc)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        params[key] = value
    seed = params.pop("seed", None)
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise SchemaError(f"seed must be an integer, got {seed!r}")
    samples = params.pop("samples", None)
    if samples is not None:     # read whether or not the command samples
        samples = _positive_int(samples, "samples")
    workers = params.pop("workers", 1)
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise SchemaError(f"workers must be a positive integer, got {workers!r}")
    out = params.pop("out", None)
    fmt = params.pop("format", "json")
    if fmt not in ("json", "csv"):
        raise SchemaError(f"format must be json or csv, got {fmt!r}")
    return RunConfig(command=args.command, params=params, seed=seed,
                     samples=samples, out=out, fmt=fmt)


# -- report output ---------------------------------------------------------------

def report_text(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _emit(cfg: RunConfig, report: dict, csv_header=None, csv_rows=None,
          extra_files: dict | None = None) -> None:
    text = report_text(report)
    if cfg.out:
        directory = Path(cfg.out)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "report.json").write_text(text)
        if cfg.fmt == "csv" and csv_rows is not None:
            with open(directory / f"{cfg.command}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(csv_header)
                writer.writerows(csv_rows)
        if extra_files:
            for name, doc in extra_files.items():
                # documents built here are never cyclic: skip the check
                (directory / name).write_text(
                    json.dumps(doc, sort_keys=True, check_circular=False) + "\n")
    elif cfg.fmt == "csv" and csv_rows is not None:
        writer = csv.writer(sys.stdout)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
    else:
        sys.stdout.write(text)


# -- model registries ------------------------------------------------------------

def _positive_int(text, what: str) -> int:
    n = _integer(text, what)
    if n < 1:
        raise SchemaError(f"{what} must be positive, got {n}")
    return n


@lru_cache(maxsize=None)
def _ball(p: int, radius: int) -> A2Ball:
    return A2Ball(p, radius)


@lru_cache(maxsize=None)
def _flag_complex(q: int) -> SphericalA2:
    return SphericalA2(q)


def _rotation_action(size: int, r: int) -> FiniteAction:
    return FiniteAction(range(size), [tuple((i + r) % size for i in range(size))])


def _cycle(n: int):
    if n < 3:   # cycle_network(2) has two parallel edges, cycle_network(1) a loop
        raise SchemaError(f"cycle size must be at least 3, got {n}")
    return cycle_network(n), 0, None, lambda x: _is_int(x) and 0 <= x < n


def _word_tree(action):
    return action.network(), (), action, action.contains


def _is_int(x) -> bool:
    return type(x) is int


# family name -> (argument label, or None where the argument is ignored; the
# commands that take it: "network" for simulate, quotient and induce,
# "lattice" for discretize; the --action kinds that act on it; builder of
# (network, base node, built-in action or None, node test)).  Cycles take
# their lattice action from --action.
FAMILIES = {
    "cycle": ("cycle size", ("network", "lattice"), ("rotation",), _cycle),
    "path": ("path size", ("network",), (),
             lambda n: (path_network(n), 0, None, lambda x: _is_int(x) and 0 <= x < n)),
    "integer-line": (None, ("network",), ("translation",),
                     lambda _: (integer_line_network(), 0, None, _is_int)),
    "integer-sublattice": ("sublattice index", ("lattice",), ("translation",), lambda k: (
        integer_line_network(), 0, IntegerTranslationAction(k), _is_int)),
    "tree": ("tree thickness", ("network",), ("involution",),
             lambda q: _word_tree(InvolutionTreeAction(q + 1))),
    "free2-tree": (None, ("network", "lattice"), ("free",),
                   lambda _: _word_tree(FreeGroupTreeAction(2))),
    "free-tree": ("free rank", ("network", "lattice"), ("free",),
                  lambda r: _word_tree(FreeGroupTreeAction(r))),
    "involution-tree": ("generator count", ("network", "lattice"), ("involution",),
                        lambda m: _word_tree(InvolutionTreeAction(m))),
}


def family_setup(spec, kind: str):
    """(network, base node, built-in action or None, node test) for a family
    name such as cycle:6 or tree:2, taken as a "network" or "lattice" family."""
    name, _, arg = str(spec).partition(":")
    if name not in FAMILIES or kind not in FAMILIES[name][1]:
        raise SchemaError(f"unknown {kind} family {spec!r}")
    label, _, _, build = FAMILIES[name]
    return build(_positive_int(arg, label) if label else None)


def family_action(family: str, spec: str, net):
    """An invariant action on the family's network, from a name like
    rotation:2, refused unless the family's FAMILIES entry lists that kind."""
    name, _, arg = str(spec).partition(":")
    kinds = FAMILIES[str(family).partition(":")[0]][2]
    if name not in kinds:
        raise SchemaError(f"{family} takes {' or '.join(kinds) or 'no'} actions, "
                          f"not {spec!r}")
    if name == "translation":
        return IntegerTranslationAction(_positive_int(arg, "translation step"))
    if name == "rotation":
        r = _positive_int(arg, "rotation step") % len(net.nodes)
        if r == 0:
            raise SchemaError("rotation step must not be a multiple of the cycle size")
        return _rotation_action(len(net.nodes), r)
    if name == "free":
        return FreeGroupTreeAction(_positive_int(arg, "free rank"))
    return InvolutionTreeAction(_positive_int(arg, "generator count"))


def _finite_network(cfg: RunConfig):
    doc_path = cfg.param("network")
    if doc_path is not None:
        return network_from_json(_read_json(doc_path, "network"))
    family = cfg.param("family")
    if family is None:
        raise SchemaError(f"{cfg.command} needs --family or --network")
    net = family_setup(family, "network")[0]
    if not isinstance(net, FiniteNetwork):
        raise SchemaError(f"{cfg.command} needs a finite network, not {family!r}")
    return net


# -- subcommands -----------------------------------------------------------------

def cmd_coxeter_tables(cfg: RunConfig) -> int:
    type_name = str(cfg.param("type", "A2"))
    weyl = weyl_group(type_name)
    rs = weyl.root_system
    q_value = cfg.param("q", 2)
    if isinstance(q_value, (list, tuple)):
        tv = ThicknessVector(tuple(_integer(v, "thickness q") for v in q_value))
    else:
        tv = uniform_thickness(rs, _positive_int(q_value, "thickness q"))
    tv.validate(rs)
    box = cfg.int_param("box", 3)
    if box < 0:
        raise SchemaError(f"box must be nonnegative, got {box}")
    table = []
    for cw in dominant_coweights(rs, box):
        table.append({
            "lambda": list(cw),
            "chi": conductance_to_json(chi(rs, tv, cw)),
            "n_lambda": n_lambda(weyl, tv, cw),
        })
    letters = list(range(1, rs.rank + 1))
    parabolics = []
    for mask in range(1 << rs.rank):
        subset = [letters[i] for i in range(rs.rank) if mask >> i & 1]
        elems = weyl.parabolic(subset)
        parabolics.append({
            "subset": subset,
            "order": len(elems),
            "poincare": conductance_to_json(poincare_sum(tv, elems)),
            "longest_length": weyl.longest_element(subset).length,
        })
    report = {
        "schema": SCHEMA,
        "command": "coxeter-tables",
        "type": type_name,
        "rank": rs.rank,
        "q": list(tv.q),
        "weyl_order": len(weyl.elements),
        "n_lambda_table": table,
        "parabolics": parabolics,
    }
    rows = [[" ".join(map(str, r["lambda"])), r["chi"], r["n_lambda"]] for r in table]
    _emit(cfg, report, ["lambda", "chi", "n_lambda"], rows)
    return 0


def cmd_ball(cfg: RunConfig) -> int:
    p = _positive_int(cfg.param("p", 2), "prime p")
    radius = _positive_int(cfg.param("radius", 2), "radius")
    model = _ball(p, radius)
    measure = CylinderMeasure(model)
    partition = []
    for lam, count in model.class_sizes.items():
        entry = {"lambda": list(lam), "count": count}
        if lam != (0, 0):
            expected = measure.n_lambda(lam)
            entry["n_lambda"] = expected
            entry["complete"] = count == expected
        partition.append(entry)
    doc = model.to_json()
    report = {
        "schema": SCHEMA,
        "command": "ball",
        "p": p,
        "radius": radius,
        "vertices": len(doc["vertices"]),
        "edges": len(doc["edges"]),
        "partition": partition,
    }
    rows = [[" ".join(map(str, e["lambda"])), e["count"]] for e in partition]
    _emit(cfg, report, ["lambda", "count"], rows, extra_files={"ball.json": doc})
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    rng = cfg.require_stream()
    family = str(cfg.param("family", "cycle:6"))
    net, start, _, is_node = family_setup(family, "network")
    raw_start = cfg.param("start")
    if raw_start is not None:
        start = _read_flag(raw_start, "node")
    if not is_node(start):
        raise SchemaError(f"start node {start!r} is not in the network")
    steps = _positive_int(cfg.param("steps", 1000), "steps")
    states = simulate(kernel_from_network(net), start, steps, rng)
    counts = Counter(states)
    occupation = [
        {"node": repr(x), "visits": counts[x]}
        for x in sorted(counts, key=encode_node)
    ]
    report = {
        "schema": SCHEMA,
        "command": "simulate",
        "family": family,
        "seed": cfg.seed,
        "steps": steps,
        "start": repr(start),
        "end": repr(states[-1]),
        "distinct_nodes": len(counts),
        "returns_to_start": counts[start] - 1,
        "occupation": occupation,
    }
    rows = [[e["node"], e["visits"]] for e in occupation]
    _emit(cfg, report, ["node", "visits"], rows)
    return 0


def cmd_induce(cfg: RunConfig) -> int:
    net = _finite_network(cfg)
    raw = cfg.param("subset")
    if raw is None:
        raise SchemaError("induce needs --subset as a JSON list of nodes")
    subset = _read_flag(raw, "subset")
    if not isinstance(subset, tuple) or not subset:
        raise SchemaError("subset must be a nonempty JSON list")
    nodes = {encode_node(x) for x in net.nodes}
    missing = [x for x in subset if encode_node(x) not in nodes]
    if missing:
        raise SchemaError(f"subset nodes not in the network: {missing!r}")
    if len({encode_node(x) for x in subset}) < len(subset):
        raise SchemaError(f"subset names a node twice: {list(subset)!r}")
    kernel = kernel_from_network(net)
    try:
        induced = induced_kernel_exact(kernel, subset)
    except ValueError as exc:
        raise CheckFailure(str(exc)) from exc
    if not induced.is_exact and kernel.is_exact:
        raise SizeGuardError("the induced chain is past the exact solve limit; "
                             "induce reports exact kernels only")
    m_restricted = {x: net.m(x) for x in subset}
    defect = reversibility_defect(induced, m_restricted)
    rows_json = []
    csv_rows = []
    for x in induced.nodes:
        row = [{"to": repr(y), "prob": conductance_to_json(p)}
               for y, p in induced.row(x)]
        rows_json.append({"from": repr(x), "row": row})
        csv_rows.extend([repr(x), e["to"], e["prob"]] for e in row)
    # float conductances leave rounding in the defect: within 1e-12, as discretize
    ok = defect <= (0 if induced.is_exact else 1e-12)
    report = {
        "schema": SCHEMA,
        "command": "induce",
        "subset": [repr(x) for x in subset],
        "rows": rows_json,
        "reversibility_defect": conductance_to_json(defect),
        "verdict": ok,
    }
    _emit(cfg, report, ["from", "to", "prob"], csv_rows)
    return 0 if ok else 1


def cmd_quotient(cfg: RunConfig) -> int:
    family = str(cfg.param("family", "cycle:6"))
    spec = cfg.param("action")
    if spec is None:
        raise SchemaError("quotient needs --action")
    steps = _positive_int(cfg.param("steps", 5), "steps")
    net = family_setup(family, "network")[0]
    action = family_action(family, str(spec), net)
    finite = isinstance(action, FiniteAction)
    if not finite and cfg.seed is None:
        raise SchemaError(f"the invariance of the infinite action {spec} is checked "
                          "by sampling; provide --seed")
    qnet = quotient_network(net, action)
    stationarity = check_stationary(qnet.kernel(), qnet.m_prime)
    if finite:
        invariance = action_invariance_check(net, action)
    else:
        invariance = action_invariance_check(
            net, action, rng=RngStream(int(cfg.seed)).child(0),
            samples=cfg.sample_count(2000))
    cov = covolume(net, action)
    law = None
    if cfg.seed is not None:
        base = qnet.network.nodes[0]
        law_report = quotient_law_check(qnet, base, steps, cfg.sample_count(20000),
                                        RngStream(int(cfg.seed)).child(1))
        law = {
            "start": repr(base),
            "steps": steps,
            "samples": law_report.samples,
            "p_value": law_report.chi_square.p_value,
            "verdict": law_report.passes(),
        }
    ok = stationarity == 0 and invariance.verdict
    if law is not None:
        ok = ok and law["verdict"]
    doc = qnet.network.to_json()
    report = {
        "schema": SCHEMA,
        "command": "quotient",
        "family": family,
        "action": str(spec),
        "classes": [repr(x) for x in qnet.network.nodes],
        "edges": [[repr(u), repr(v), conductance_to_json(Fraction(a))]
                  for u, v, a in doc["edges"]],
        "m_prime": {repr(x): conductance_to_json(w)
                    for x, w in sorted(qnet.m_prime.items(), key=lambda t: repr(t[0]))},
        "stationarity_defect": conductance_to_json(stationarity),
        "invariance": {
            "mode": invariance.mode,
            "checked": invariance.checked,
            "defect": conductance_to_json(invariance.defect),
        },
        "covolume": {
            "value": conductance_to_json(cov.value),
            "verdict": cov.verdict,
            "terms": cov.terms,
        },
        "law": law,
        "verdict": ok,
    }
    rows = [[repr(x), conductance_to_json(w)]
            for x, w in sorted(qnet.m_prime.items(), key=lambda t: repr(t[0]))]
    _emit(cfg, report, ["class", "m_prime"], rows)
    return 0 if ok else 1


def cmd_discretize(cfg: RunConfig) -> int:
    family = cfg.param("family")
    if family is None:
        raise SchemaError("discretize needs --family")
    net, base, action, _ = family_setup(family, "lattice")
    spec = cfg.param("action")
    if action is None:
        if spec is None:
            raise SchemaError("cycle discretization needs --action rotation:r")
        action = family_action(family, str(spec), net)
    elif spec is not None and vars(family_action(family, str(spec), net)) != vars(action):
        # vars() holds an action's defining data: letters and inverses, or k
        raise SchemaError(f"--action {spec} is not the built-in action of {family}")
    method = str(cfg.param("method", "auto"))
    rng = RngStream(int(cfg.seed)) if cfg.seed is not None else None
    mu = discretize_lattice(net, action, base, rng=rng,
                            samples=cfg.sample_count(100000), method=method)
    doc = mu.to_json()
    ok = mu.unresolved <= 0.01 if mu.provenance == "mc" else mass_is_one(mu.total())
    report = {
        "schema": SCHEMA,
        "command": "discretize",
        "family": str(cfg.param("family")),
        "method": method,
        "seed": cfg.seed,
        "verdict": ok,
        **doc,
    }
    rows = [[e["element"], e["prob"]] for e in doc["measure"]]
    _emit(cfg, report, ["element", "prob"], rows)
    return 0 if ok else 1


# -- verify suites ---------------------------------------------------------------

def suite_tree_nlambda(cfg: RunConfig, rng) -> list:
    q = cfg.int_param("q", 2)
    depth = cfg.int_param("k", 8)
    tree = TreeBuilding(q)
    tree.guard_sphere(depth)    # the largest sphere, refused before any is listed
    measure = CylinderMeasure(tree)
    checks = []
    for k in range(1, depth + 1):
        formula = measure.n_lambda((k,))
        enumerated = len(tree.sphere((), k))
        checks.append({
            "name": f"sphere-size-{k}",
            "lambda": [k],
            "formula": formula,
            "enumerated": enumerated,
            "verdict": formula == enumerated,
        })
    return checks


def suite_a2_nlambda(cfg: RunConfig, rng) -> list:
    p = cfg.int_param("p", 2)
    radius = cfg.int_param("radius", 2)
    model = _ball(p, radius)
    measure = CylinderMeasure(model)
    sizes = model.class_sizes
    total, vertices = sum(sizes.values()), ball_size(p, radius)    # N_lambda closed form
    checks = [{
        "name": "partition-total",
        "total": total,
        "vertices": vertices,
        "verdict": total == vertices,
    }]
    for lam, count in sizes.items():
        # around the origin every class with max(lam) <= radius lies in the ball
        if lam == (0, 0) or max(lam) > radius:
            continue
        a, b = lam
        formula = measure.n_lambda(lam)
        checks.append({
            "name": f"class-size-{a}{b}",
            "lambda": [a, b],
            "formula": formula,
            "enumerated": count,
            "verdict": formula == count,
        })
    return checks


def suite_quotient_exact(cfg: RunConfig, rng) -> list:
    checks = []
    cases = [
        ("integer-mod-2", integer_line_network(), IntegerTranslationAction(2)),
        ("cycle6-rot2", cycle_network(6), _rotation_action(6, 2)),
        ("cycle6-rot3", cycle_network(6), _rotation_action(6, 3)),
    ]
    for name, net, action in cases:
        qnet = quotient_network(net, action)
        stationarity = check_stationary(qnet.kernel(), qnet.m_prime)
        weights_ok = all(
            qnet.m_prime[x] == Fraction(net.m(x)) / action.stabilizer_order(x)
            for x in qnet.network.nodes
        )
        cov = covolume(net, action)
        cov_ok = cov.verdict == "finite" and cov.value == sum(qnet.m_prime.values())
        checks.append({
            "name": f"{name}-stationarity",
            "defect": conductance_to_json(stationarity),
            "verdict": stationarity == 0,
        })
        checks.append({"name": f"{name}-weights", "verdict": weights_ok})
        checks.append({
            "name": f"{name}-covolume",
            "value": conductance_to_json(cov.value),
            "verdict": cov_ok,
        })
        if isinstance(action, FiniteAction):
            inv = action_invariance_check(net, action)
            checks.append({
                "name": f"{name}-invariance",
                "checked": inv.checked,
                "defect": conductance_to_json(inv.defect),
                "verdict": inv.verdict,
            })
    return checks


def suite_quotient_law(cfg: RunConfig, rng) -> list:
    samples = cfg.sample_count(20000)
    cases = [
        ("integer-mod-3", integer_line_network(), IntegerTranslationAction(3), 0, 5),
        ("cycle6-rot3", cycle_network(6), _rotation_action(6, 3), 0, 4),
        ("cycle6-rot2", cycle_network(6), _rotation_action(6, 2), 1, 5),
    ]
    checks = []
    for j, (name, net, action, start, steps) in enumerate(cases):
        qnet = quotient_network(net, action)
        report = quotient_law_check(qnet, start, steps, samples, rng.child(j))
        checks.append({
            "name": f"{name}-law",
            "steps": steps,
            "samples": samples,
            "p_value": report.chi_square.p_value,
            "verdict": report.passes(),
        })
    return checks


def suite_return_times(cfg: RunConfig, rng) -> list:
    checks = []
    qnet = quotient_network(integer_line_network(), IntegerTranslationAction(2))
    n_const = min(cfg.sample_count(2000), 5000)
    times, unresolved = return_time_samples(qnet.kernel(), qnet.project(0),
                                            n_const, rng.child(0))
    checks.append({
        "name": "integer-mod-2-constant",
        "samples": n_const,
        "verdict": unresolved == 0 and set(times.tolist()) == {2},
    })
    qnet6 = quotient_network(cycle_network(6), _rotation_action(6, 3))
    stats = return_time_stats(qnet6, 0, cfg.sample_count(20000), rng.child(1),
                              exp_rate=0.05)
    checks.append({
        "name": "cycle6-rot3-mean",
        "mean": stats.mean,
        "exact_mean": conductance_to_json(stats.exact_mean),
        "std_error": stats.std_error,
        "verdict": stats.unresolved == 0 and stats.mean_within_sigmas(3.0),
    })
    checks.append({
        "name": "cycle6-rot3-tail",
        "tail_slope": stats.tail_slope,
        "exp_moment": stats.exp_moment,
        "verdict": stats.tail_slope < 0,
    })
    return checks


def _random_reversible_network(gen, size: int) -> FiniteNetwork:
    """A connected network with random rational conductances."""
    edges = {}
    for i in range(1, size):
        j = int(gen.integers(i))
        edges[(j, i)] = Fraction(int(gen.integers(1, 6)))
    for _ in range(size):
        u = int(gen.integers(size))
        v = int(gen.integers(size))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in edges:
            edges[key] = Fraction(int(gen.integers(1, 6)))
    return FiniteNetwork(range(size), [(u, v, a) for (u, v), a in sorted(edges.items())])


def suite_induced_shadow(cfg: RunConfig, rng) -> list:
    chains = cfg.int_param("chains", 8)
    reversible_ok = harmonic_ok = tower_ok = chains > 0    # 0 chains check nothing
    for t in range(chains):
        gen = rng.child(t).generator()
        size = int(gen.integers(5, 13))
        net = _random_reversible_network(gen, size)
        kernel = kernel_from_network(net)
        k = int(gen.integers(2, size))
        subset = sorted(int(x) for x in gen.choice(size, size=k, replace=False))
        induced = induced_kernel_exact(kernel, subset)
        defect = reversibility_defect(induced, {x: net.m(x) for x in subset})
        reversible_ok &= defect == 0
        f = {x: Fraction(int(gen.integers(-5, 6))) for x in subset}
        harmonic_ok &= harmonic_transfer_check(kernel, subset, f).verdict
        inner = subset[: max(1, k // 2)]
        towered = induced_kernel_exact(induced, inner)
        direct = induced_kernel_exact(kernel, inner)
        tower_ok &= all(dict(towered.row(x)) == dict(direct.row(x)) for x in inner)
    return [
        {"name": "induced-reversible", "chains": chains, "verdict": reversible_ok},
        {"name": "harmonic-transfer", "chains": chains, "verdict": harmonic_ok},
        {"name": "induction-tower", "chains": chains, "verdict": tower_ok},
    ]


def suite_discretize(cfg: RunConfig, rng) -> list:
    free = FreeGroupTreeAction(2)
    mu = discretize_lattice(free.network(), free, ())
    uniform = (
        mu.provenance == "exact"
        and mu.symmetric
        and len(mu.entries) == 4
        and all(p == Fraction(1, 4) for _, p in mu.entries)
    )
    moment = mu.first_moment(free)
    line = discretize_lattice(integer_line_network(), IntegerTranslationAction(2), 0)
    line_ok = (
        line.provenance == "exact"
        and line.prob(0) == Fraction(1, 2)
        and line.prob(2) == Fraction(1, 4)
        and line.prob(-2) == Fraction(1, 4)
        and line.symmetric
    )
    return [
        {"name": "free2-uniform", "verdict": uniform},
        {"name": "free2-first-moment", "value": conductance_to_json(moment),
         "verdict": moment == 1},
        {"name": "integer-mod-2-law", "verdict": line_ok},
    ]


def suite_harmonic_tree(cfg: RunConfig, rng) -> list:
    q = cfg.int_param("q", 2)
    tree = TreeBuilding(q)
    measure = CylinderMeasure(tree)
    partition_worst = max(
        partition_defect(measure, base, (k,))
        for base in ((), (0, 1)) for k in range(1, 5)
    )
    refinement_worst = max(
        refinement_check(measure, base, [((1,), (2,)), ((2,), (3,))])
        for base in ((), (0, 1))
    )
    rn = radon_nikodym_check(measure, (0,), (1, 0),
                             [(2,), (2, 0), (2, 1, 0)])
    mm = m_measure_checks(tree, (), (0,),
                          [((1,), (2,)), ((1, 0), (2, 0)), ((1, 0, 1), (2, 1))])
    return [
        {"name": "partition", "defect": conductance_to_json(partition_worst),
         "verdict": partition_worst == 0},
        {"name": "refinement", "defect": conductance_to_json(refinement_worst),
         "verdict": refinement_worst == 0},
        {"name": "radon-nikodym", "checked": rn.checked,
         "defect": conductance_to_json(rn.defect), "verdict": rn.verdict},
        {"name": "m-measure", "checked": mm.checked,
         "defect": conductance_to_json(mm.defect), "verdict": mm.verdict},
    ]


def suite_hitting_tree(cfg: RunConfig, rng) -> list:
    q = cfg.int_param("q", 2)
    kernel = IsotropicKernel(TreeBuilding(q))
    samples = cfg.sample_count(20000)
    level = cfg.params.get("level")
    levels = [_integer(level, "level")] if level is not None else [1, 2, 3]
    checks = []
    for j, lam in enumerate(levels):
        stats = boundary_hitting_mc(kernel, (), lam, samples, rng.child(j))
        checks.append({
            "name": f"exit-level-{lam}",
            "samples": samples,
            "unresolved": stats.unresolved,
            "dof": stats.chi.dof,
            "p_value": stats.p_value,
            "verdict": stats.passes(),
        })
    return checks


def suite_hitting_a2(cfg: RunConfig, rng) -> list:
    p = cfg.int_param("p", 2)
    radius = cfg.int_param("radius", 3)
    level = cfg.int_param("level", 2)
    model = _ball(p, radius)
    kernel = IsotropicKernel(model)
    samples = cfg.sample_count(20000)
    stats = boundary_hitting_mc(kernel, model.origin, level, samples, rng.child(0))
    return [{
        "name": f"exit-box-{level}",
        "samples": samples,
        "unresolved": stats.unresolved,
        "dof": stats.chi.dof,
        "p_value": stats.p_value,
        "truncation_limited": stats.truncation_limited,
        "verdict": stats.passes(),
    }]


def _opposition_scan(flags: SphericalA2, pairs) -> dict:
    w0 = flags.weyl.longest_element()
    worst, ok, scanned = 0, True, 0
    for scanned, (c1, c2) in enumerate(pairs, 1):
        found, steps = flags.opposite_to_both_verbose(c1, c2)
        worst = max(worst, steps)
        ok &= (flags.weyl_distance(found, c1) == w0
               and flags.weyl_distance(found, c2) == w0
               and steps <= 3)
    return {"max_steps": worst, "verdict": ok and scanned > 0}    # no pair checks nothing


def suite_opposite_chambers(cfg: RunConfig, rng) -> list:
    small = _flag_complex(2)
    exhaustive = _opposition_scan(
        small, ((c1, c2) for c1 in small.chambers for c2 in small.chambers))
    larger = _flag_complex(3)
    n_pairs = cfg.int_param("pairs", 300)
    gen = rng.generator()
    sampled = _opposition_scan(
        larger,
        ((larger.chambers[int(gen.integers(len(larger.chambers)))],
          larger.chambers[int(gen.integers(len(larger.chambers)))])
         for _ in range(n_pairs)),
    )
    return [
        {"name": "order2-exhaustive", "pairs": len(small.chambers) ** 2, **exhaustive},
        {"name": "order3-sampled", "pairs": n_pairs, **sampled},
    ]


def generic_residue_colouring(flags: SphericalA2, subset, gen) -> dict:
    """A random 2-colouring constant on subset-residues and, for every
    generator outside the subset, non-constant on some residue of that type."""
    J = frozenset(subset)
    rep = {c: min(flags.residue(c, J), key=repr) for c in flags.chambers}
    classes = sorted(set(rep.values()), key=repr)
    outside = [i for i in (1, 2) if i not in J]
    while True:
        bits = {r: int(gen.integers(2)) for r in classes}
        table = {c: bits[rep[c]] for c in flags.chambers}
        if all(
            any(len({table[d] for d in flags.residue(c, {i})}) > 1
                for c in flags.chambers)
            for i in outside
        ):
            return table


def suite_special_subgroups(cfg: RunConfig, rng) -> list:
    flags = _flag_complex(2)
    trials = cfg.int_param("trials", 25)
    gen = rng.generator()
    checks = []
    for subset in ((), (1,), (2,), (1, 2)):
        expected = set(flags.weyl.parabolic(subset))
        ok = trials > 0
        for _ in range(trials):
            table = generic_residue_colouring(flags, subset, gen)
            E, letters, verdict = special_subgroup_detect(flags, table.get)
            ok &= set(E) == expected and letters == frozenset(subset) and verdict
        checks.append({
            "name": "detect-J-" + ("".join(map(str, subset)) or "empty"),
            "trials": trials,
            "verdict": ok,
        })
    return checks


SUITES = (
    ("tree-nlambda", False, suite_tree_nlambda),
    ("a2-nlambda", False, suite_a2_nlambda),
    ("quotient-exact", False, suite_quotient_exact),
    ("quotient-law", True, suite_quotient_law),
    ("return-times", True, suite_return_times),
    ("induced-shadow", True, suite_induced_shadow),
    ("discretize", False, suite_discretize),
    ("harmonic-tree", False, suite_harmonic_tree),
    ("hitting-tree", True, suite_hitting_tree),
    ("hitting-a2", True, suite_hitting_a2),
    ("opposite-chambers", True, suite_opposite_chambers),
    ("special-subgroups", True, suite_special_subgroups),
)
SUITE_INDEX = {name: (i, stochastic, fn)
               for i, (name, stochastic, fn) in enumerate(SUITES)}


def _suite_selection(cfg: RunConfig) -> list:
    raw = cfg.param("suite", cfg.param("suites"))
    if raw is None:
        return []
    names = [raw] if isinstance(raw, str) else list(raw)
    if "all" in names:
        return [name for name, _, _ in SUITES]
    unknown = [n for n in names if n not in SUITE_INDEX]
    if unknown:
        known = ", ".join(name for name, _, _ in SUITES)
        raise SchemaError(f"unknown suites {unknown!r}; available: {known}")
    return names


def cmd_verify(cfg: RunConfig) -> int:
    names = _suite_selection(cfg)
    rng = None
    if any(SUITE_INDEX[n][1] for n in names):
        rng = cfg.require_stream()
    elif cfg.seed is not None:
        rng = RngStream(int(cfg.seed))
    suites_out = []
    all_ok = True
    for name in names:
        ordinal, _, fn = SUITE_INDEX[name]
        checks = fn(cfg, rng.child(ordinal) if rng is not None else None)
        ok = bool(checks) and all(c["verdict"] for c in checks)
        all_ok &= ok
        suites_out.append({"suite": name, "checks": checks, "verdict": ok})
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "seed": cfg.seed,
        "suites": suites_out,
        "verdict": all_ok,
    }
    rows = [[s["suite"], c["name"], c["verdict"]]
            for s in suites_out for c in s["checks"]]
    _emit(cfg, report, ["suite", "check", "verdict"], rows)
    return 0 if all_ok else 1


COMMANDS = {
    "coxeter-tables": cmd_coxeter_tables,
    "ball": cmd_ball,
    "simulate": cmd_simulate,
    "induce": cmd_induce,
    "quotient": cmd_quotient,
    "discretize": cmd_discretize,
    "verify": cmd_verify,
}


# -- argument parsing ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chamberwalk",
        description="random walks, quotients and boundary checks on buildings",
    )
    sub = parser.add_subparsers(dest="command")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--seed", type=int, help="master seed for anything stochastic")
    common.add_argument("--samples", type=int, help="Monte Carlo sample count")
    common.add_argument("--workers", type=int,
                        help="accepted for compatibility; walks run in one thread")
    common.add_argument("--out", help="directory for report.json and extra files")
    common.add_argument("--format", choices=("json", "csv"), help="output format")

    p = sub.add_parser("coxeter-tables", parents=[common],
                       help="chi / N_lambda tables and parabolic Poincare sums")
    p.add_argument("--type", help="root system type (default A2)")
    p.add_argument("--q", type=int, help="uniform thickness (default 2)")
    p.add_argument("--box", type=int, help="coordinate bound for the table")

    p = sub.add_parser("ball", parents=[common],
                       help="build a rank-2 affine building ball")
    p.add_argument("--p", type=int, help="residue prime (default 2)")
    p.add_argument("--radius", type=int, help="sigma-box radius (default 2)")

    p = sub.add_parser("simulate", parents=[common],
                       help="run a network random walk and tally occupation")
    p.add_argument("--family", help="network family (default cycle:6)")
    p.add_argument("--start", help="start node as JSON")
    p.add_argument("--steps", type=int, help="transition count (default 1000)")

    p = sub.add_parser("induce", parents=[common],
                       help="exact induced chain on a subset")
    p.add_argument("--family", help="finite network family")
    p.add_argument("--network", help="network JSON file")
    p.add_argument("--subset", help="subset of nodes as JSON")

    p = sub.add_parser("quotient", parents=[common],
                       help="quotient network under a group action")
    p.add_argument("--family", help="network family (default cycle:6)")
    p.add_argument("--action", help="action such as rotation:2 or translation:2")
    p.add_argument("--steps", type=int, help="steps for the projected-law check")

    p = sub.add_parser("discretize", parents=[common],
                       help="step law of the walk induced on a lattice orbit")
    p.add_argument("--family", help="lattice family such as free2-tree")
    p.add_argument("--action", help="action for families that need one")
    p.add_argument("--method", choices=("auto", "exact", "mc"),
                   help="route selection (default auto)")

    p = sub.add_parser("verify", parents=[common],
                       help="run named invariant suites")
    p.add_argument("--suite", action="append",
                   help="suite name, repeatable; 'all' selects every suite")
    p.add_argument("--q", type=int, help="tree thickness for tree suites")
    p.add_argument("--p", type=int, help="residue prime for ball suites")
    p.add_argument("--radius", type=int, help="ball radius")
    p.add_argument("--level", type=int, help="exit level for hitting suites")
    p.add_argument("--k", type=int, help="depth bound for tree-nlambda")
    p.add_argument("--chains", type=int, help="random chains for induced-shadow")
    p.add_argument("--pairs", type=int, help="sampled pairs for opposite-chambers")
    p.add_argument("--trials", type=int, help="colourings per subset for detection")
    return parser


_PARSER = build_parser()    # parse_args keeps nothing between calls


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command is None:
        _PARSER.print_help(sys.stderr)
        return 2
    try:
        cfg = _load_config(args)
        return COMMANDS[args.command](cfg)
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 3
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (SchemaError, ValueError) as exc:
        print(f"bad request: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

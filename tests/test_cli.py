"""Command line behaviour: report contracts, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chamberwalk import cli, netwalk
from chamberwalk.buildings import A2Ball, TreeBuilding
from chamberwalk.cli import FAMILIES, main


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_raw(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# -- contract examples -----------------------------------------------------------


def test_verify_tree_nlambda_reports_eight_exact_matches(capsys):
    code, report = run_json(capsys, "verify", "--suite", "tree-nlambda", "--q", "2")
    assert code == 0
    assert report["schema"] == "chamberwalk/1"
    assert report["verdict"] is True
    (suite,) = report["suites"]
    assert suite["suite"] == "tree-nlambda"
    assert len(suite["checks"]) == 8
    for check in suite["checks"]:
        assert check["verdict"] is True
        assert check["formula"] == check["enumerated"]


def test_discretize_free2_tree_uniform_quarter(capsys):
    code, report = run_json(capsys, "discretize", "--family", "free2-tree",
                            "--seed", "7")
    assert code == 0
    assert report["provenance"] == "exact"
    assert report["symmetric"] is True
    assert [e["prob"] for e in report["measure"]] == ["1/4"] * 4
    assert report["verdict"] is True


def test_verify_without_suites_is_trivially_green(capsys):
    code, report = run_json(capsys, "verify")
    assert code == 0
    assert report["suites"] == []
    assert report["verdict"] is True


def test_named_suite_without_checks_is_not_green(capsys):
    code, report = run_json(capsys, "verify", "--suite", "tree-nlambda", "--k", "0")
    assert code == 1
    assert report["suites"] == [{"suite": "tree-nlambda", "checks": [], "verdict": False}]
    assert report["verdict"] is False
    # a count of 0 (or less) runs the suite's loop on nothing
    for argv in (["induced-shadow", "--chains", "0"],
                 ["induced-shadow", "--chains", "-2"],
                 ["special-subgroups", "--trials", "0"],
                 ["opposite-chambers", "--pairs", "0"]):
        code, report = run_json(capsys, "verify", "--seed", "1", "--suite", *argv)
        assert code == 1, argv
        assert report["suites"][0]["verdict"] is False and report["verdict"] is False


def _rotation_law(report):
    """{image of 0: prob} of a cycle rotation law."""
    return {json.loads(e["element"].replace("(", "[").replace(")", "]"))[0]: e["prob"]
            for e in report["measure"]}


def test_discretize_past_the_old_solve_limit_is_exact(capsys):
    # 202 unknowns: above the former limit of 200
    code, report = run_json(capsys, "discretize", "--family", "cycle:404",
                            "--action", "rotation:2")
    assert code == 0
    assert report["provenance"] == "exact"
    assert report["symmetric"] is True and report["verdict"] is True
    assert {k: Fraction(v) for k, v in _rotation_law(report).items()} == {
        0: Fraction(1, 2), 2: Fraction(1, 4), 402: Fraction(1, 4)}


# rotation of each pinned cycle whose gcd with the length is not 2
_PINNED_ROTATION = {"cycle:24": "rotation:3", "cycle:60": "rotation:4", "cycle:90": "rotation:6",
                    "cycle:7": "rotation:1", "cycle:12": "rotation:5"}


@pytest.mark.parametrize("family, digest", [
    # 202 unknowns and 202 absorbing nodes: an exact law
    ("cycle:404", "1b213f0669b7ca9a6afa32606b1e1ac69a750d3c219f88cd4b6a65bad99daf13"),
    # 605 unknowns, past EXACT_SOLVE_LIMIT: a float law
    ("cycle:1210", "45ed354802776c21a7c598372f02f8d8309113d68a42f5e61d314ab632178833"),
    # orbits of 8, 15 and 15 nodes: the finite non-transitive route
    ("cycle:24", "2167fc9846dbd60abe67e217dd48f998af9a54effc23fc63f202c69e22af5774"),
    ("cycle:60", "bee23d86b5787d2785975a4649aec05dab2e229a73573819a7ea02eae8c70df8"),
    ("cycle:90", "6da14a8c723d694e5faca79f7f2a48f50117f92caf7f4c998ee883683d455a07"),
    # transitive rotations: the orbit is every node
    ("cycle:7", "d9206cf2acaa85487db57e73d116476ccdcadfbd1d6f1e049f602b53e911a34d"),
    ("cycle:12", "02ba91cf1a3195388df7a03556890b3e51822c266fff2b740f4dec06fa2e2a79"),
])
def test_discretize_rotation_report_bytes_are_pinned(family, digest, capsys):
    action = _PINNED_ROTATION.get(family, "rotation:2")
    code, out = run_raw(capsys, "discretize", "--family", family, "--action", action)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    ("simulate --family cycle:6 --steps 20000 --seed 3",
     "2fdd1746b79750d967e983d9d7e0c72b002954db52a2c80e5a2c5bb9030cfc91"),
    ("simulate --family tree:2 --steps 2000 --seed 11",
     "6109c22cc61232cd58fe3cc65a7980af230a8be9162436c31a1bdb1f01afebd8"),
    # more than _TAIL walks: all of them step in lockstep to the horizon
    ("quotient --family cycle:6 --action rotation:3 --seed 1 --samples 100 --steps 5",
     "cb8010c2f9c5c75ab977b0de773b831e77d6c16cca3c4bbf8715c36498ecd844"),
    # at most _TAIL walks: each runs alone, in block draws
    ("quotient --family cycle:6 --action rotation:2 --seed 2 --samples 50 --steps 9000",
     "37dd08026dc08953f7a803ac5288fbb8974ed100507207a3e246a6f652d2b438"),
], ids=["simulate-cycle", "simulate-tree", "quotient-scalar-rest", "quotient-scalar-only"])
def test_walk_report_bytes_are_pinned(argv, digest, capsys):
    code, out = run_raw(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, q, digest", [
    ("--type A1 --q 3 --box 4", None,
     "f0d4046ad123c50171d442cf6a25f3485687d70a8237d5f70cc4beb9e58d91c4"),
    ("--type A2 --q 3 --box 4", None,
     "f49ed94c351ee2d6b26f15ee62e6bd4d21d8d94a71bb14e7a506dd473ba7518b"),
    ("--type G2 --box 0", None,
     "429ff8b807ca1eac1f24d3b5fc621a824cceb779a619d932ee1eff4042118ff8"),
    # thickness differing across root lengths: q_w reads each word's letters
    ("--type B2 --box 4", [3, 3, 2],
     "cc2cbfe8d93265a07305443fdbd088d14fdea9589bd4378cccebc073b060b07e"),
    ("--type C2 --box 4", [2, 3, 2],
     "8c9fdf1adc57b77a4d843632ad031c65896d120f57c0cc5e08458b3a25c0b2df"),
    ("--type G2 --box 4", [3, 2, 3],
     "aab9aa91ec5da0412b8bc0758985dc05072128ed09be70af5c1e3f8de8f3d27a"),
])
def test_coxeter_tables_report_bytes_are_pinned(argv, q, digest, tmp_path, capsys):
    conf = tmp_path / "q.json"
    conf.write_text(json.dumps({} if q is None else {"q": q}))
    code, out = run_raw(capsys, "coxeter-tables", *argv.split(), "--config", str(conf))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_float_fallback_is_labelled(monkeypatch, capsys):
    monkeypatch.setattr(netwalk, "EXACT_SOLVE_LIMIT", 4)
    code, report = run_json(capsys, "discretize", "--family", "cycle:24",
                            "--action", "rotation:2")
    assert code == 0
    assert report["provenance"] == "float"
    assert report["symmetric"] is True and report["verdict"] is True
    law = _rotation_law(report)
    assert all(isinstance(p, float) for p in law.values())
    assert abs(law[0] - 0.5) + abs(law[2] - 0.25) + abs(law[22] - 0.25) < 1e-12
    # the window solve of the integer line: float rounding breaks neither the
    # mass check nor the symmetry of the law
    code, report = run_json(capsys, "discretize", "--family", "integer-sublattice:5")
    assert code == 0
    assert report["provenance"] == "float"
    assert report["symmetric"] is True and report["verdict"] is True
    # induce refuses a float kernel instead of printing it as exact
    assert main(["induce", "--family", "cycle:24", "--subset", "[0, 2, 4]"]) == 3
    assert capsys.readouterr().out == ""


def test_discretize_exact_method_refuses_a_float_law(monkeypatch, capsys):
    monkeypatch.setattr(netwalk, "EXACT_SOLVE_LIMIT", 4)
    assert main(["discretize", "--family", "cycle:24", "--action", "rotation:2",
                 "--method", "exact"]) == 3
    assert capsys.readouterr().out == ""


# -- exit codes --------------------------------------------------------------------


# a node of each network family, and a value outside it
START_NODES = {
    "cycle:6": ("5", "6"),
    "path:4": ("3", "-1"),
    "integer-line": ("-7", "1.5"),
    "tree:2": ("[2, 0, 1]", "[5]"),
    "free2-tree": ("[2, -1, -1]", "[1, -1]"),
    "free-tree:3": ("[-3, 2]", "[4]"),
    "involution-tree:3": ("[0, 2, 0]", "[1, 1]"),
}


def test_start_nodes_cover_every_network_family():
    assert {f.partition(":")[0] for f in START_NODES} == {
        name for name, (_, kinds, _, _) in FAMILIES.items() if "network" in kinds}


@pytest.mark.parametrize("family", sorted(START_NODES))
def test_simulate_refuses_a_start_outside_the_model(family, capsys):
    inside, outside = START_NODES[family]
    argv = ["simulate", "--family", family, "--seed", "1", "--steps", "5", "--start"]
    assert main(argv + [inside]) == 0
    assert main(argv + [outside]) == 2
    assert "not in the network" in capsys.readouterr().err


# one spelling of each family, and one action of each kind
FAMILY_NAMES = ["cycle:6", "path:4", "integer-line", "integer-sublattice:3", "tree:2",
                "free2-tree", "free-tree:2", "involution-tree:3"]
ACTION_NAMES = ["rotation:2", "translation:2", "free:2", "involution:3"]
ACTION_CASES = [(command, family, action)
                for command, kind in (("quotient", "network"), ("discretize", "lattice"))
                for family in FAMILY_NAMES
                if kind in FAMILIES[family.partition(":")[0]][1]
                for action in ACTION_NAMES]


def test_action_cases_cover_every_family_and_kind():
    assert {f.partition(":")[0] for f in FAMILY_NAMES} == set(FAMILIES)
    assert {a.partition(":")[0] for a in ACTION_NAMES} == {
        k for _, _, kinds, _ in FAMILIES.values() for k in kinds}


@pytest.mark.parametrize("command,family,action", ACTION_CASES)
def test_family_action_pairs_exit_cleanly(command, family, action, capsys):
    allowed = action.partition(":")[0] in FAMILIES[family.partition(":")[0]][2]
    code = main([command, "--family", family, "--action", action])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if allowed:
        assert code in (0, 1, 2, 3)
    else:
        assert code == 2
        assert "actions, not" in err


def test_tree_nlambda_guard_fires_before_any_sphere(monkeypatch, capsys):
    def unguarded(self, x, k):
        raise AssertionError("sphere listed past the guard")

    monkeypatch.setattr(TreeBuilding, "sphere", unguarded)
    assert main(["verify", "--suite", "tree-nlambda", "--k", "60"]) == 3
    assert capsys.readouterr().out == ""



def test_unknown_suite_exits_2(capsys):
    assert main(["verify", "--suite", "no-such-suite"]) == 2


def test_stochastic_suite_without_seed_exits_2(capsys):
    assert main(["verify", "--suite", "quotient-law"]) == 2


def test_simulate_without_seed_exits_2(capsys):
    assert main(["simulate", "--family", "cycle:6"]) == 2


def run_python(*argv):
    """A fresh interpreter on this package, killed after 60 s so that a
    request which hangs fails its test instead of stalling the suite."""
    src = str(Path(netwalk.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("suite", ["hitting-tree", "return-times"])
def test_negative_seed_exits_2_before_any_walk(suite):
    done = run_python("-m", "chamberwalk.cli", "verify", "--suite", suite,
                      "--seed", "-1", "--samples", "10")
    assert done.returncode == 2
    assert done.stderr == "bad request: expected non-negative integer\n"
    assert done.stdout == ""


def test_boundary_hitting_refuses_a_negative_seed():
    done = run_python("-c", (
        "from chamberwalk.boundary import IsotropicKernel, boundary_hitting_mc\n"
        "from chamberwalk.buildings import TreeBuilding\n"
        "from chamberwalk.netwalk import RngStream\n"
        "try:\n"
        "    boundary_hitting_mc(IsotropicKernel(TreeBuilding(2)), (), 2, 10, RngStream(-1))\n"
        "except ValueError as exc:\n"
        "    print('ValueError:', exc)\n"))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ValueError: expected non-negative integer\n"


def test_exact_commands_start_without_numpy_or_scipy():
    # the exact routes never load numpy or scipy; a walk run after them in
    # the same process loads numpy late and draws the pinned numbers
    done = run_python("-c", (
        "import contextlib, hashlib, io, sys\n"
        "import chamberwalk.cli as cli\n"
        "for argv in (['induce', '--family', 'cycle:12', '--subset', '[0,3,6,9]'],\n"
        "             ['discretize', '--family', 'cycle:24', '--action', 'rotation:3'],\n"
        "             ['coxeter-tables', '--type', 'A2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print([m for m in ('numpy', 'scipy') if m in sys.modules])\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = cli.main('simulate --family cycle:6 --steps 20000 --seed 3'.split())\n"
        "print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())\n"))
    assert done.returncode == 0, done.stderr
    # the digest pinned for simulate-cycle in test_walk_report_bytes_are_pinned
    assert done.stdout.splitlines() == [
        "[]", "0 2fdd1746b79750d967e983d9d7e0c72b002954db52a2c80e5a2c5bb9030cfc91"]


def test_parser_keeps_no_state_between_calls(capsys):
    import importlib

    import chamberwalk.cli

    calls = [
        ("coxeter-tables", "--type", "A2", "--q", "3"),
        ("induce", "--family", "cycle:12", "--subset", "[0,3,6,9]"),
        ("verify", "--suite", "tree-nlambda", "--suite", "quotient-exact"),
        ("verify", "--suite", "discretize"),
    ]
    # back to back through one parser
    in_turn = [run_raw(capsys, *argv) for argv in calls]
    # each call the first after a fresh module load
    alone = []
    for argv in calls:
        importlib.reload(chamberwalk.cli)
        alone.append(run_raw(capsys, *argv))
    assert in_turn == alone
    assert [code for code, _ in alone] == [0, 0, 0, 0]
    assert [len(json.loads(out)["suites"]) for _, out in alone[2:]] == [2, 1]


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_conductance_is_a_bad_request(value, tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text('{"nodes": [0, 1, 2], "edges": [[0, 1, %s], [1, 2, 1]]}' % value)
    assert main(["induce", "--network", str(path), "--subset", "[0, 2]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bad request: conductance must be finite")


@pytest.mark.parametrize("doc", [
    '{"nodes": [0, 1], "edges": [5]}',
    '{"nodes": 7, "edges": []}',
    '{"nodes": [0, {"a": 1}], "edges": [[0, 1, 1]]}',
    '{"nodes": [0, 1], "edges": ["abc"]}',
    '{"nodes": [0, 1], "edges": [[0, {"b": 1}, 1]]}',
    '{"nodes": [0, %s%s], "edges": []}' % ("[" * 900, "]" * 900),
    '{"nodes": [0, %s%s], "edges": []}' % ("[" * 50000, "]" * 50000),
], ids=["edge-not-a-list", "nodes-not-a-list", "node-object", "edge-string",
        "endpoint-object", "node-nests-900", "file-nests-50000"])
def test_malformed_network_file_is_a_bad_request(doc, tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(doc)
    assert main(["induce", "--network", str(path), "--subset", "[0]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bad request: ")
    assert "Traceback" not in captured.err


def test_oversized_ball_exits_3(capsys):
    assert main(["ball", "--p", "2", "--radius", "9"]) == 3


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "a2-nlambda", "--radius", "0"],
    ["verify", "--suite", "a2-nlambda", "--radius", "-2"],
    ["verify", "--suite", "hitting-a2", "--radius", "0", "--seed", "1"],
    ["ball", "--radius", "0"],
])
def test_ball_radius_below_one_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bad request: ")


def test_a2_nlambda_partition_total_fails_on_a_lost_vertex(monkeypatch, capsys):
    # a ball that lost one vertex and counts itself consistently: its class
    # sizes and its size are both one short, so only N_lambda can tell
    ball = A2Ball(2, 2)
    sizes = dict(ball.class_sizes)
    sizes[(0, 0)] -= 1      # the origin, which no class-size check reads
    monkeypatch.setitem(ball.__dict__, "class_sizes", sizes)
    monkeypatch.setattr(ball, "size", ball.size - 1)
    monkeypatch.setattr(cli, "_ball", lambda p, radius: ball)
    code, report = run_json(capsys, "verify", "--suite", "a2-nlambda", "--p", "2",
                            "--radius", "2")
    assert code == 1 and report["verdict"] is False
    total, *classes = report["suites"][0]["checks"]
    assert total["name"] == "partition-total" and total["verdict"] is False
    assert total["vertices"] == 1 + 2 * (7 + 28) + 42 * (1 + 4 + 4 + 16)    # N_lambda at p = 2
    assert total["total"] == total["vertices"] - 1
    assert classes and all(check["verdict"] for check in classes)


def test_ball_and_a2_nlambda_build_no_vertex_tuples(tmp_path, capsys):
    # a later edit must not bring back the per-vertex tuples on this path
    cli._ball.cache_clear()
    try:
        assert main(["ball", "--p", "2", "--radius", "2", "--out", str(tmp_path)]) == 0
        assert main(["verify", "--suite", "a2-nlambda", "--p", "2", "--radius", "2"]) == 0
        capsys.readouterr()
        assert cli._ball.cache_info().currsize == 1
        ball = cli._ball(2, 2)
        assert "vertices" not in ball.__dict__
        assert ball._neighbor_rows == {} and ball._partition_cache == {}
    finally:
        cli._ball.cache_clear()


def test_composite_residue_prime_exits_2(capsys):
    assert main(["ball", "--p", "4", "--radius", "2"]) == 2


def test_quotient_without_action_exits_2(capsys):
    assert main(["quotient", "--family", "cycle:6"]) == 2


@pytest.mark.parametrize("family,action", [("tree:2", "involution:4"),
                                           ("integer-line", "translation:2"),
                                           ("free2-tree", "free:2")])
def test_quotient_by_an_infinite_action_needs_a_seed(family, action, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("quotient built before the seed was checked")

    monkeypatch.setattr("chamberwalk.cli.quotient_network", no_work)
    assert main(["quotient", "--family", family, "--action", action]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err


@pytest.mark.parametrize("family,action", [
    ("free2-tree", "free:7"), ("free2-tree", "free:abc"), ("free-tree:3", "free:2"),
    ("involution-tree:4", "involution:3"), ("involution-tree:4", "involution:x"),
    ("integer-sublattice:3", "translation:4"), ("integer-sublattice:3", "translation:")])
def test_discretize_refuses_an_action_other_than_the_built_in(family, action, capsys):
    assert main(["discretize", "--family", family, "--action", action]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert action.partition(":")[2] in captured.err


# the built-in actions: free2-tree is rank 2, the others take the family's argument
@pytest.mark.parametrize("family,action", [
    ("free2-tree", "free:2"), ("free-tree:3", "free:3"),
    ("involution-tree:4", "involution:4"), ("integer-sublattice:3", "translation:3")])
def test_discretize_accepts_the_built_in_action(family, action, capsys):
    code, report = run_json(capsys, "discretize", "--family", family, "--action", action)
    assert code == 0
    assert run_json(capsys, "discretize", "--family", family) == (code, report)


def test_induce_subset_outside_network_exits_2(capsys):
    assert main(["induce", "--family", "cycle:6", "--subset", "[0, 19]"]) == 2


def test_no_command_exits_2(capsys):
    assert main([]) == 2


def test_failing_statistical_check_exits_1(capsys):
    # this seed and sample count land a chi-square miss (p = 0.0012 < 0.01)
    # in the cycle6-rot3 law check, reproducibly
    code, report = run_json(capsys, "verify", "--suite", "quotient-law",
                            "--seed", "20260902", "--samples", "4000")
    assert code == 1
    assert report["verdict"] is False
    failed = [c for s in report["suites"] for c in s["checks"]
              if not c["verdict"]]
    assert failed and all(c["p_value"] <= 0.01 for c in failed)


# -- determinism -------------------------------------------------------------------


def test_verify_reports_identical_across_workers(capsys):
    outputs = []
    for workers in ("1", "3", "8"):
        code, out = run_raw(capsys, "verify", "--suite", "hitting-tree",
                            "--seed", "99", "--samples", "1500",
                            "--workers", workers)
        outputs.append((code, out))
    assert outputs[0] == outputs[1] == outputs[2]


def test_simulate_same_seed_same_report(capsys):
    first = run_raw(capsys, "simulate", "--family", "tree:2", "--steps", "300",
                    "--seed", "11")
    second = run_raw(capsys, "simulate", "--family", "tree:2", "--steps", "300",
                     "--seed", "11")
    assert first == second
    assert first[0] == 0


# -- config handling ---------------------------------------------------------------


def test_config_file_merges_under_flags(tmp_path, capsys):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"family": "cycle:8", "steps": 50, "seed": 3}))
    code, report = run_json(capsys, "simulate", "--config", str(conf),
                            "--steps", "10")
    assert code == 0
    assert report["family"] == "cycle:8"
    assert report["seed"] == 3
    assert report["steps"] == 10  # flag wins over the config value


def test_malformed_config_exits_2(tmp_path, capsys):
    conf = tmp_path / "bad.json"
    # integer options from a config refuse a bool or a float
    for text, argv in [
        ("{not json", ["simulate", "--seed", "1"]),
        ('{"p": 2.9}', ["ball"]),
        ('{"radius": true}', ["ball"]),
        ('{"level": 1.5}', ["verify", "--suite", "hitting-tree", "--seed", "1"]),
        ('{"samples": 2.5}', ["verify", "--suite", "quotient-law", "--seed", "1"]),
        ('{"q": [2.5, 2, 2]}', ["coxeter-tables"]),
    ]:
        conf.write_text(text)
        assert main([*argv, "--config", str(conf)]) == 2, text
    # node flags: JSON nesting 5,000 lists deep, a dict node, a bool or a
    # float standing for an int node, and a node named twice; fewer than one
    # quotient step, with or without the law check
    deep = "[" * 5000 + "]" * 5000
    quotient = ["quotient", "--family", "cycle:6", "--action", "rotation:3", "--seed", "1"]
    for argv in (["simulate", "--seed", "1", "--family", "tree:2", "--start", deep],
                 ["induce", "--family", "cycle:6", "--subset", deep],
                 ["simulate", "--seed", "1", "--family", "cycle:6", "--start", '{"a": 1}'],
                 ["induce", "--family", "cycle:6", "--subset", '[0, {"a": 1}]'],
                 ["induce", "--family", "cycle:6", "--subset", "[true, 3]"],
                 ["simulate", "--seed", "1", "--family", "cycle:6", "--start", "2.0"],
                 ["simulate", "--seed", "1", "--family", "path:4", "--start", "true"],
                 ["induce", "--family", "cycle:6", "--subset", "[0, 0, 3]"],
                 [*quotient, "--samples", "100", "--steps", "-1"],
                 [*quotient, "--steps", "-1"],
                 [*quotient, "--steps", "0"],
                 [*quotient[:5], "--steps", "-1"]):
        capsys.readouterr()
        assert main(argv) == 2, argv[-1][:20]
        err = capsys.readouterr().err
        assert err.startswith("bad request: ") and "Traceback" not in err
    # fewer than one sample, also where the command draws no sample
    rotation2 = ["--family", "cycle:6", "--action", "rotation:2"]
    for n, argv in (("-5", ["quotient", *rotation2]),
                    ("0", ["quotient", *rotation2]),
                    ("-5", ["quotient", *rotation2, "--seed", "1"]),
                    ("-5", ["verify", "--suite", "tree-nlambda"]),
                    ("-5", ["discretize", "--family", "cycle:24", "--action", "rotation:3"])):
        capsys.readouterr()
        assert main([*argv, "--samples", n]) == 2, (argv, n)
        assert capsys.readouterr().err == f"bad request: samples must be positive, got {n}\n"
    conf.write_text('{"samples": 0}')
    assert main(["verify", "--suite", "tree-nlambda", "--config", str(conf)]) == 2
    assert capsys.readouterr().err == "bad request: samples must be positive, got 0\n"
    # cycles of one or two nodes (a loop, two parallel edges), and a negative box
    cycle = "cycle size must be at least 3, got"
    for argv, err in ((["simulate", "--seed", "1", "--family", "cycle:2"], f"{cycle} 2"),
                      (["simulate", "--seed", "1", "--family", "cycle:1"], f"{cycle} 1"),
                      (["induce", "--family", "cycle:1", "--subset", "[0]"], f"{cycle} 1"),
                      (["quotient", "--family", "cycle:2", "--action", "rotation:1"], f"{cycle} 2"),
                      (["discretize", "--family", "cycle:2", "--action", "rotation:1"],
                       f"{cycle} 2"),
                      (["coxeter-tables", "--box", "-1"], "box must be nonnegative, got -1")):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"bad request: {err}\n"


# -- report content ----------------------------------------------------------------


def test_coxeter_tables_values(capsys):
    code, report = run_json(capsys, "coxeter-tables", "--box", "2")
    assert code == 0
    assert report["weyl_order"] == 6
    row = next(r for r in report["n_lambda_table"] if r["lambda"] == [1, 1])
    assert row["chi"] == 16 and row["n_lambda"] == 42
    full = next(p for p in report["parabolics"] if p["subset"] == [1, 2])
    assert full["order"] == 6
    assert full["poincare"] == "21/8"
    assert full["longest_length"] == 3
    trivial = next(p for p in report["parabolics"] if p["subset"] == [])
    assert trivial["order"] == 1 and trivial["poincare"] == 1


def test_ball_report_partition(capsys):
    code, report = run_json(capsys, "ball", "--p", "2", "--radius", "2")
    assert code == 0
    assert report["vertices"] == 1121
    counts = {tuple(e["lambda"]): e["count"] for e in report["partition"]}
    assert counts[(0, 1)] == 7
    assert counts[(1, 1)] == 42
    assert counts[(2, 2)] == 672
    assert all(e["complete"] for e in report["partition"] if e["lambda"] != [0, 0])


def test_induce_exact_rows(capsys):
    code, report = run_json(capsys, "induce", "--family", "cycle:6",
                            "--subset", "[0, 2, 4]")
    assert code == 0
    assert report["reversibility_defect"] == 0
    for row in report["rows"]:
        probs = {e["to"]: e["prob"] for e in row["row"]}
        assert probs[row["from"]] == "1/2"
        others = [v for k, v in probs.items() if k != row["from"]]
        assert others == ["1/4", "1/4"]


_FLOAT_NET7 = {
    "nodes": [10, 9, 2, "a", [0, 1], 5, 3],
    "edges": [[10, 9, 0.1], [10, 2, 0.7], [9, 2, 0.3], [2, "a", 1.1], ["a", [0, 1], 0.2],
              [[0, 1], 5, 0.9], [5, 3, 0.6], [3, 10, 1.3], [9, 5, 0.4], ["a", 3, 2.5]],
}


def test_induce_on_float_conductances_passes_within_rounding(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(_FLOAT_NET7))
    code, report = run_json(capsys, "induce", "--network", str(path),
                            "--subset", '[10, 2, "a", [0, 1]]')
    # rounding leaves a defect above 0; floats are judged within 1e-12
    assert 0 < report["reversibility_defect"] <= 1e-12
    assert (code, report["verdict"]) == (0, True)
    assert report["subset"] == ["10", "2", "'a'", "(0, 1)"]
    # the same network in exact rationals still needs a zero defect, and has it
    exact = dict(_FLOAT_NET7, edges=[[u, v, str(Fraction(str(a)))]
                                     for u, v, a in _FLOAT_NET7["edges"]])
    path.write_text(json.dumps(exact))
    code, report = run_json(capsys, "induce", "--network", str(path),
                            "--subset", '[10, 2, "a", [0, 1]]')
    assert (code, report["verdict"], report["reversibility_defect"]) == (0, True, 0)


def test_quotient_rotation_exact(capsys):
    code, report = run_json(capsys, "quotient", "--family", "cycle:6",
                            "--action", "rotation:2")
    assert code == 0
    assert report["classes"] == ["0", "1"]
    assert report["m_prime"] == {"0": 2, "1": 2}
    assert report["stationarity_defect"] == 0
    assert report["invariance"]["mode"] == "exact"
    assert report["invariance"]["defect"] == 0
    assert report["covolume"] == {"value": 4, "verdict": "finite", "terms": 2}
    assert report["law"] is None


def test_quotient_translation_with_law(capsys):
    code, report = run_json(capsys, "quotient", "--family", "integer-line",
                            "--action", "translation:3", "--seed", "12",
                            "--samples", "4000")
    assert code == 0
    assert report["m_prime"] == {"0": 2, "1": 2, "2": 2}
    assert report["invariance"]["mode"] == "sampled"
    assert report["law"]["verdict"] is True


# -- output formats ----------------------------------------------------------------


def test_csv_format_on_stdout(capsys):
    code, out = run_raw(capsys, "coxeter-tables", "--box", "1",
                        "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,chi,n_lambda"
    assert "1 1,16,42" in lines


def test_out_directory_receives_files(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(["ball", "--p", "2", "--radius", "1", "--out", str(out_dir),
                 "--format", "csv"])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["schema"] == "chamberwalk/1"
    assert report["vertices"] == 57
    ball_doc = json.loads((out_dir / "ball.json").read_text())
    assert len(ball_doc["vertices"]) == 57
    csv_text = (out_dir / "ball.csv").read_text().splitlines()
    assert csv_text[0] == "lambda,count"


# -- the full battery ---------------------------------------------------------------


ALL_SUITES_DIGEST = "886c35f2d7b9bc390fef646258faefcc570ae1bf2690f055e611e32e887d9ae0"


def test_all_suites_pass(capsys):
    code, out = run_raw(capsys, "verify", "--suite", "all",
                        "--seed", "20260825", "--samples", "3000")
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_SUITES_DIGEST
    report = json.loads(out)
    assert code == 0
    assert report["verdict"] is True
    assert len(report["suites"]) == 12
    assert all(s["verdict"] for s in report["suites"])

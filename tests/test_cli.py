import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

import ordolab
from ordolab import CertificateError, CoverageFunction, GraphicMatroid, VectorMatroid, cli, mlvc, sfm, solve
from ordolab.core import format_graph
from ordolab.gomoryhu import GH_UPPER_BOUND_CAP, GomoryHuTree
from ordolab.instances import random_connected_graph

K3_TEXT = "3 3\n1 2\n2 3\n1 3\n"
TB_TEXT = "4 4\n1 2\n2 3\n1 3\n3 4\n"
K2_TEXT = "2 1\n1 2\n"
MATRIX_TEXT = "2 3\n1 0 1\n0 1 1\n"
HYPER_TEXT = "3 1\n1 2 3\n"
# a loop beside the triangle with a bridge
MIXED_TEXT = "4 5\n1 1\n1 2\n2 3\n1 3\n3 4\n"
# a loop, a 21-cycle and a bridge: 23 edges, beyond the exact cap
LARGE_TEXT = "22 23\n1 1\n" + "".join(f"{i} {i % 21 + 1}\n" for i in range(1, 22)) + "21 22\n"
# 22 columns of rank 3, a zero column first: beyond the exact cap
LARGE_MATRIX_TEXT = "3 22\n" + "".join(
    " ".join(str(0 if j == 0 else c(j)) for j in range(22)) + "\n"
    for c in (lambda j: 1, lambda j: j % 3 - 1, lambda j: j * j % 5 - 2)
)


def run_cli(argv):
    report, code = cli.run(argv)
    return report, code


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_dp_k3(tmp_path):
    path = write(tmp_path, "k3.graph", K3_TEXT)
    report, code = run_cli(["solve", "--input", path, "--exact", "dp"])
    assert code == 0
    assert report["schema"] == 1
    assert report["results"]["value"] == 5
    assert sorted(report["results"]["ordering"]) == [1, 2, 3]


def test_solve_fixed_basis_matrix(tmp_path):
    path = write(tmp_path, "m.matrix", MATRIX_TEXT)
    report, code = run_cli(
        ["solve", "--input", path, "--kind", "matrix", "--exact", "fixed-basis"]
    )
    assert code == 0
    assert report["results"]["value"] == 5


def test_solve_cactus(tmp_path):
    path = write(tmp_path, "tb.graph", TB_TEXT)
    report, code = run_cli(["solve", "--input", path, "--exact", "cactus"])
    assert code == 0
    assert report["results"]["value"] == 8


def test_solve_weighted_graph(tmp_path):
    path = write(tmp_path, "w.graph", "2 1\n1 2 3\n")
    report, code = run_cli(["solve", "--input", path, "--exact", "dp"])
    assert code == 0
    assert report["results"]["value"] == 3


def test_solve_beyond_the_exact_cap_exits_2(tmp_path):
    path = write(tmp_path, "large.graph", LARGE_TEXT)
    report, code = run_cli(["solve", "--input", path])
    assert code == 2
    assert "exceeds the exact cap (20)" in report["error"]


def test_approx_report(tmp_path):
    path = write(tmp_path, "tb.graph", TB_TEXT)
    report, code = run_cli(["approx", "--input", path])
    assert code == 0
    results = report["results"]
    assert results["value"] == 8
    assert results["lower"] == 7 and results["upper"] == 8
    assert results["guarantee"] == "6/5"


def test_partition_report(tmp_path):
    path = write(tmp_path, "tb.graph", TB_TEXT)
    report, code = run_cli(["partition", "--input", path])
    assert code == 0
    results = report["results"]
    assert results["chain"] == [[], [1, 2, 3], [1, 2, 3, 4]]
    assert results["critical_values"] == ["2/3", 1]


def test_approx_report_on_a_mixed_zero_set(tmp_path):
    path = write(tmp_path, "mixed.graph", MIXED_TEXT)
    report, code = run_cli(["approx", "--input", path])
    assert code == 0
    assert report["results"] == {
        "value": 8, "ordering": [1, 2, 3, 4, 5], "lower": 7, "upper": 8,
        "guarantee": "4/3", "trivial": False,
    }


def test_partition_report_on_a_mixed_zero_set(tmp_path):
    path = write(tmp_path, "mixed.graph", MIXED_TEXT)
    report, code = run_cli(["partition", "--input", path])
    assert code == 0
    assert report["results"] == {
        "zero_set": [1], "chain": [[], [2, 3, 4], [2, 3, 4, 5]],
        "critical_values": ["2/3", 1], "trivial": False,
    }


@pytest.mark.parametrize("command", ["approx", "partition"])
@pytest.mark.parametrize(
    "kind, text, path",
    [
        ("matrix", MATRIX_TEXT, "_table_base"),
        ("matrix", LARGE_MATRIX_TEXT, "_wolfe_base"),
        ("graph", MIXED_TEXT, "_decomposed_base"),
        ("graph", LARGE_TEXT, "_decomposed_base"),
    ],
    ids=["enumerate", "wolfe", "decomposition", "decomposition-large"],
)
def test_one_min_norm_base_per_call(tmp_path, monkeypatch, command, kind, text, path):
    bases = []

    def counted(name, base):
        return lambda *args: bases.append(name) or base(*args)

    for name in ("_table_base", "_wolfe_base"):
        monkeypatch.setattr(sfm, name, counted(name, getattr(sfm, name)))
    monkeypatch.setattr(
        GraphicMatroid, "_decomposed_base", counted("_decomposed_base", GraphicMatroid._decomposed_base)
    )
    report, code = run_cli([command, "--kind", kind, "--input", write(tmp_path, "g." + kind, text)])
    assert code == 0
    assert bases == [path]


@pytest.mark.parametrize("command", ["approx", "partition"])
def test_a_matrix_base_beyond_the_cap_uses_no_floating_point(tmp_path, monkeypatch, command):
    # with numpy's least-squares solver gone, the Wolfe path gives the same report
    argv = [command, "--kind", "matrix", "--input", write(tmp_path, "large.matrix", LARGE_MATRIX_TEXT)]
    expected, _ = run_cli(argv)

    def no_lstsq(*args, **kwargs):
        raise AssertionError("floating-point least squares on a base path")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    report, code = run_cli(argv)
    assert code == 0
    assert report["results"] == expected["results"]


def test_a_matrix_partition_beyond_the_cap_reads_f_empty_twice(tmp_path, monkeypatch):
    # the incidence matrix of a (12, 24) graph, whose chain has 3 level
    # sets: f(empty) for the normalization check and once for the Wolfe
    # point, the 2m = 48 singleton and co-singleton bounds, and the 3 level
    # sets, with each greedy vertex ranked by elimination, no evaluate call
    G = random_connected_graph(12, 24, random.Random(24))
    rows = [" ".join(str((u == i) - (v == i)) for u, v in G.edges) for i in range(G.n)]
    path = write(tmp_path, "g24.matrix", f"{G.n} {G.m}\n" + "\n".join(rows) + "\n")
    calls = []
    evaluate = VectorMatroid.evaluate
    monkeypatch.setattr(VectorMatroid, "evaluate", lambda f, S: calls.append(S) or evaluate(f, S))
    report, code = run_cli(["partition", "--kind", "matrix", "--input", path])
    assert code == 0
    assert report["results"]["critical_values"] == ["8/19", "1/2", 1]
    assert len(calls) == 53 and calls.count(0) == 2


@pytest.mark.parametrize(
    "argv, text",
    [(argv, text) for argv in (["approx"], ["partition"], ["mlvc", "--lp"]) for text in (MIXED_TEXT, LARGE_TEXT)]
    + [(["verify", "--suite", "acceptance", "--criterion", "10"], None)],
    ids=["approx", "approx-large", "partition", "partition-large", "mlvc-lp", "mlvc-lp-large", "verify-lp"],
)
def test_no_graph_base_reaches_the_table_or_the_wolfe_search(tmp_path, monkeypatch, argv, text):
    # _wolfe_base is the one caller of the exact Wolfe search _exact_min_norm_point
    classes = []
    for name in ("_table_base", "_wolfe_base"):
        base = getattr(sfm, name)
        monkeypatch.setattr(sfm, name, lambda f, _base=base: classes.append(type(f)) or _base(f))
    if text is not None:
        argv = argv + ["--input", write(tmp_path, "g.graph", text)]
    report, code = run_cli(argv)
    assert code == 0
    assert not {GraphicMatroid, CoverageFunction} & set(classes)


@pytest.mark.parametrize(
    "cls, argv",
    [(GraphicMatroid, ["approx"]), (CoverageFunction, ["mlvc", "--lp"])],
    ids=["graphic-approx", "coverage-mlvc-lp"],
)
def test_a_moved_decomposed_base_exits_1(tmp_path, monkeypatch, cls, argv):
    # x* moved by 1/(2L) between two entries: no fallback, exit 1
    decompose = cls._decomposed_base

    def moved(self):
        x = decompose(self)
        L = lcm(*(xe.denominator for xe in x))
        return [x[0] - Fraction(1, 2 * L), x[1] + Fraction(1, 2 * L), *x[2:]]

    monkeypatch.setattr(cls, "_decomposed_base", moved)
    report, code = run_cli(argv + ["--input", write(tmp_path, "g.graph", LARGE_TEXT)])
    assert code == 1
    assert "min-norm base" in report["error"]


@pytest.mark.parametrize(
    "text, zero_set",
    [("2 2\n1 1\n2 2\n", [1, 2]), ("3 0\n", [])],
    ids=["all-loops", "no-edges"],
)
def test_partition_of_an_edge_free_ground_is_trivial(tmp_path, text, zero_set):
    path = write(tmp_path, "g.graph", text)
    report, code = run_cli(["partition", "--input", path])
    assert code == 0
    assert report["results"] == {
        "zero_set": zero_set, "chain": [[]], "critical_values": [], "trivial": True,
    }


def test_reduce_apex(tmp_path):
    path = write(tmp_path, "k2.graph", K2_TEXT)
    out = str(tmp_path / "target.graph")
    report, code = run_cli(
        ["reduce", "--from", "mlvc", "--to", "graphic-mlop", "--input", path, "--out", out]
    )
    assert code == 0
    results = report["results"]
    assert results["cost_on_star_edges"] == 11
    assert results["certificate"]["weighted_optimum"] == 35
    assert results["certificate"]["holds"]
    emitted = open(out).read()
    assert emitted.splitlines()[0] == "3 3"
    assert emitted == results["target_instance"]


def test_reduce_msvc(tmp_path):
    path = write(tmp_path, "k2.graph", K2_TEXT)
    out = str(tmp_path / "target.graph")
    report, code = run_cli(["reduce", "--from", "mlvc", "--to", "msvc", "--input", path, "--out", out])
    assert code == 0
    cert = report["results"]["certificate"]
    assert cert["mlvc"] == 2 and cert["holds"]
    assert open(out).read() == report["results"]["target_instance"]


def test_reduce_weighted_expansion(tmp_path):
    path = write(tmp_path, "w.graph", "2 1\n1 2 2\n")
    out = str(tmp_path / "target.graph")
    report, code = run_cli(
        ["reduce", "--from", "weighted-mlop", "--to", "mlop", "--input", path, "--out", out]
    )
    assert code == 0
    assert report["results"]["target_instance"].splitlines()[0] == "2 2"
    assert open(out).read() == report["results"]["target_instance"]


def test_mlvc_sample_and_lp(tmp_path):
    path = write(tmp_path, "k2.graph", K2_TEXT)
    report, code = run_cli(["mlvc", "--input", path, "--sample", "20", "--lp"])
    assert code == 0
    results = report["results"]
    assert results["value"] == 2
    assert results["lp_value"] == "3/2"


def test_mlvc_emit(tmp_path):
    path = write(tmp_path, "k2.graph", K2_TEXT)
    out = str(tmp_path / "model.lp")
    report, code = run_cli(["mlvc", "--input", path, "--lp", "--emit", out])
    assert code == 0
    assert "Minimize" in open(out).read()


def test_mlvc_emit_needs_lp(tmp_path):
    path = write(tmp_path, "k2.graph", K2_TEXT)
    out = tmp_path / "model.lp"
    report, code = run_cli(["mlvc", "--input", path, "--sample", "5", "--emit", str(out)])
    assert code == 2
    assert "--lp" in report["error"]
    assert not out.exists()


def test_mlvc_lp_never_materializes_the_model(tmp_path, monkeypatch):
    # neither the rows nor any other part of the model is built
    monkeypatch.setattr(mlvc.LpModel, "rows", property(lambda model: pytest.fail("rows read")), raising=False)
    monkeypatch.setattr(mlvc.LpModel, "__getattr__", lambda model, name: pytest.fail(f"{name} built"))
    path = write(tmp_path, "k2.graph", K2_TEXT)
    report, code = run_cli(["mlvc", "--input", path, "--lp"])
    assert code == 0
    assert report["results"] == {"lp_variables": 6, "lp_constraints": 6, "lp_value": "3/2"}


def test_mlvc_balance_hypergraph(tmp_path):
    path = write(tmp_path, "h.hyper", HYPER_TEXT)
    report, code = run_cli(
        ["mlvc", "--input", path, "--kind", "hypergraph", "--balance", "500", "--sample", "1"]
    )
    assert code == 2  # sampling needs a plain graph
    report, code = run_cli(
        ["mlvc", "--input", path, "--kind", "hypergraph", "--balance", "500", "--lp"]
    )
    assert code == 2  # the LP relaxation too
    report, code = run_cli(
        ["mlvc", "--input", path, "--kind", "hypergraph", "--balance", "500"]
    )
    assert code == 0
    assert report["results"]["balance"]["floor"] == "1/4"  # one 3-vertex edge


def test_mlvc_requires_action(tmp_path):
    path = write(tmp_path, "k2.graph", K2_TEXT)
    report, code = run_cli(["mlvc", "--input", path])
    assert code == 2


def test_ghtree_runs(tmp_path):
    path = write(tmp_path, "tb.graph", TB_TEXT)
    report, code = run_cli(["ghtree", "--input", path, "--runs", "4"])
    assert code == 0
    results = report["results"]
    assert results["totals_equal"]
    assert results["lower_bound"] == results["total_weight"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ghtree", "--runs", "0"], "at least one run"),
        (["ghtree", "--runs", "-2"], "at least one run"),
        (["mlvc", "--balance", "10", "--jobs", "0"], "at least one job"),
        (["solve", "--exact", "fixed-basis", "--jobs", "0"], "at least one job"),
    ],
)
def test_run_and_job_counts_below_one_exit_2(tmp_path, argv, message):
    path = write(tmp_path, "tb.graph", TB_TEXT)
    report, code = run_cli([*argv, "--input", path])
    assert code == 2
    assert message in report["error"]
    assert "results" not in report


def cycle_text(n):
    return f"{n} {n}\n" + "".join(f"{i} {i % n + 1}\n" for i in range(1, n + 1))


@pytest.mark.parametrize("n, reported", [(12, True), (13, False)])
def test_ghtree_upper_bound_up_to_the_cap(tmp_path, n, reported):
    path = write(tmp_path, "cycle.graph", cycle_text(n))
    report, code = run_cli(["ghtree", "--input", path])
    assert code == 0
    results = report["results"]
    assert ("upper_bound" in results) == ("upper_ordering" in results) == reported
    if reported:
        assert results["lower_bound"] <= results["upper_bound"]


def test_parse_error_exit_code(tmp_path):
    path = write(tmp_path, "bad.graph", "2 1\n1 9\n")
    report, code = run_cli(["solve", "--input", path])
    assert code == 2
    assert "line 2" in report["error"]


def test_certificate_failure_exit_code(tmp_path, monkeypatch):
    def failing(_matroid):
        raise CertificateError("minimizers do not form a lattice")

    monkeypatch.setattr(cli, "approx_monotone_mlop", failing)
    path = write(tmp_path, "tb.graph", TB_TEXT)
    report, code = run_cli(["approx", "--input", path])
    assert code == 1
    assert "lattice" in report["error"]


def test_upper_bound_below_the_achieved_value_exits_1(tmp_path, monkeypatch):
    # the triangle with a bridge reads lower 7, achieved 8 and upper 8;
    # an upper bound of 15/2 keeps lower <= upper and breaks achieved <= upper
    monkeypatch.setattr(solve, "_upper_bound", lambda m, pp, values, kappa: Fraction(15, 2))
    path = write(tmp_path, "tb.graph", TB_TEXT)
    report, code = run_cli(["approx", "--input", path])
    assert code == 1
    assert "bound chain" in report["error"]


def test_varying_gomory_hu_weight_exits_1(tmp_path, monkeypatch):
    build = cli.build_gh_tree

    def shifted(cut, seed):
        # every re-run's tree reports one more unit of weight per seed
        tree = build(cut, seed=seed)
        edges = tuple((u, v, w + seed) for u, v, w in tree.edges)
        return GomoryHuTree(tree.n, edges)

    monkeypatch.setattr(cli, "build_gh_tree", shifted)
    path = write(tmp_path, "k3.graph", K3_TEXT)
    report, code = run_cli(["ghtree", "--input", path, "--runs", "2"])
    assert code == 1
    assert "varied across runs" in report["error"]


def test_determinism_same_seed(tmp_path):
    path = write(tmp_path, "c5.graph", "5 5\n1 2\n2 3\n3 4\n4 5\n5 1\n")
    a, _ = run_cli(["--seed", "3", "mlvc", "--input", path, "--sample", "50"])
    b, _ = run_cli(["--seed", "3", "mlvc", "--input", path, "--sample", "50"])
    a.pop("elapsed_s")
    b.pop("elapsed_s")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_seed_accepted_after_subcommand(tmp_path):
    path = write(tmp_path, "c5.graph", "5 5\n1 2\n2 3\n3 4\n4 5\n5 1\n")
    a, _ = run_cli(["mlvc", "--input", path, "--sample", "50", "--seed", "3"])
    b, _ = run_cli(["--seed", "3", "mlvc", "--input", path, "--sample", "50"])
    assert a["seed"] == b["seed"] == 3
    assert a["results"] == b["results"]


def test_balance_alone_is_a_valid_action(tmp_path):
    path = write(tmp_path, "k2.graph", K2_TEXT)
    report, code = run_cli(["mlvc", "--input", path, "--balance", "200"])
    assert code == 0
    assert report["results"]["balance"]["floor"] == "1/3"


@pytest.mark.parametrize("text", ["1 0\n", "1 1\n1 1\n"], ids=["single-vertex", "single-loop"])
def test_balance_without_incomparable_pairs(tmp_path, text):
    path = write(tmp_path, "one.graph", text)
    report, code = run_cli(["mlvc", "--input", path, "--balance", "10"])
    assert code == 0
    balance = report["results"]["balance"]
    assert balance["pair_probabilities"] == {} and balance["flagged"] == []
    assert balance["worst_pair"] is None and balance["worst_probability"] is None


def test_verify_single_criterion():
    report, code = run_cli(["verify", "--criterion", "1"])
    assert code == 0
    crit = report["results"]["criteria"][0]
    assert crit["index"] == 1 and crit["passed"]


def test_main_prints_json(tmp_path, capsys):
    path = write(tmp_path, "k3.graph", K3_TEXT)
    code = cli.main(["solve", "--input", path])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["value"] == 5


NUMPY_FREE_CHILD = """
import json, sys
from ordolab import cli
loaded = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    report, code = cli.run(argv)
    assert code == 0, report
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


def test_graph_scale_commands_start_and_run_without_numpy(tmp_path):
    # one fresh interpreter runs the commands in order; numpy must stay out
    # of sys.modules until the control, the subset DP, loads it
    big = write(tmp_path, "g60.graph", format_graph(random_connected_graph(30, 60, random.Random(60))))
    n = GH_UPPER_BOUND_CAP + 1
    cut = write(tmp_path, "gh.graph", format_graph(random_connected_graph(n, 2 * n, random.Random(n))))
    small = write(tmp_path, "k3.graph", K3_TEXT)
    commands = [
        ["approx", "--input", big],
        ["partition", "--input", big],
        ["mlvc", "--lp", "--input", big],
        ["reduce", "--from", "mlvc", "--to", "msvc", "--input", big],
        ["ghtree", "--input", cut],
        ["solve", "--exact", "cactus", "--input", small],
        ["solve", "--input", small],
    ]
    src = os.path.dirname(os.path.dirname(ordolab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_CHILD, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    # after the import and after each command but the last
    assert json.loads(out.stdout) == [False] * len(commands) + [True]

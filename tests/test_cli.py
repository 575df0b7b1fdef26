import json

import pytest

from ordolab import CertificateError, cli

K3_TEXT = "3 3\n1 2\n2 3\n1 3\n"
TB_TEXT = "4 4\n1 2\n2 3\n1 3\n3 4\n"
K2_TEXT = "2 1\n1 2\n"
MATRIX_TEXT = "2 3\n1 0 1\n0 1 1\n"
HYPER_TEXT = "3 1\n1 2 3\n"


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


def test_reduce_msvc(tmp_path):
    path = write(tmp_path, "k2.graph", K2_TEXT)
    report, code = run_cli(["reduce", "--from", "mlvc", "--to", "msvc", "--input", path])
    assert code == 0
    cert = report["results"]["certificate"]
    assert cert["mlvc"] == 2 and cert["holds"]


def test_reduce_weighted_expansion(tmp_path):
    path = write(tmp_path, "w.graph", "2 1\n1 2 2\n")
    report, code = run_cli(
        ["reduce", "--from", "weighted-mlop", "--to", "mlop", "--input", path]
    )
    assert code == 0
    assert report["results"]["target_instance"].splitlines()[0] == "2 2"


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

import json

import numpy as np
import pytest

from presistance import (
    GraphBuildParams,
    knn_gaussian_graph,
    load_distance_matrix,
    load_features,
)
from presistance import resistance
from presistance.cli import main
from presistance.graph import read_edge_list, write_edge_list


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def blob_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for cx, lab in ((0.0, "a"), (4.0, "b")):
        for _ in range(10):
            x, y = rng.normal(cx, 0.3, size=2)
            rows.append(f"{float(x)!r},{float(y)!r},{lab}")
    path = tmp_path / "blobs.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def test_build_graph_and_reproducible(tmp_path, blob_csv):
    out = tmp_path / "g.edges"
    assert run(["build-graph", "--features", blob_csv, "--labels", "last",
                "--mu", "0.5", "--sigma", "0.5", "--out", out]) == 0
    first = out.read_bytes()
    assert b"# config:" in first
    assert run(["build-graph", "--features", blob_csv, "--labels", "last",
                "--mu", "0.5", "--sigma", "0.5", "--out", out]) == 0
    assert out.read_bytes() == first


def test_build_graph_records_kept_rows(tmp_path):
    # two far blobs, 8 rows then 12: the largest component is rows 8..19,
    # and the written graph names them
    rng = np.random.default_rng(3)
    rows = [f"{x!r},{y!r}" for cx, size in ((10.0, 8), (0.0, 12))
            for x, y in rng.normal(cx, 0.3, size=(size, 2)).tolist()]
    features = tmp_path / "two_blobs.csv"
    features.write_text("\n".join(rows) + "\n")
    out = tmp_path / "g.edges"
    assert run(["build-graph", "--features", features, "--mu", "0.2",
                "--sigma", "0.5", "--on-disconnect", "largest_component",
                "--out", out]) == 0
    g = read_edge_list(out)
    assert g.n == 12 and g.kept == tuple(range(8, 20))


def test_cluster_scores_kept_rows_of_restricted_graph(tmp_path):
    # the same 8 + 12 two blobs: the matrix file names rows 8..19, so a
    # label file of all 20 input rows scores the kept 12
    rng = np.random.default_rng(3)
    rows = [f"{x!r},{y!r}" for cx, size in ((10.0, 8), (0.0, 12))
            for x, y in rng.normal(cx, 0.3, size=(size, 2)).tolist()]
    features = tmp_path / "two_blobs.csv"
    features.write_text("\n".join(rows) + "\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("\n".join(["far"] * 8 + ["a"] * 6 + ["b"] * 6) + "\n")
    graph, dist, out = tmp_path / "g.edges", tmp_path / "d.bin", tmp_path / "c.json"
    assert run(["build-graph", "--features", features, "--mu", "0.2",
                "--sigma", "0.5", "--on-disconnect", "largest_component",
                "--out", graph]) == 0
    assert run(["distances", "--graph", graph, "--p", "3", "--out", dist]) == 0
    assert load_distance_matrix(dist).kept == tuple(range(8, 20))
    assert run(["cluster", "--distances", dist, "--k", "2", "--labels", labels,
                "--out", out]) == 0
    result = json.loads(out.read_text())
    assert len(result["assignments"]) == 12
    kept_labels = tmp_path / "kept_labels.txt"
    kept_labels.write_text("\n".join(["a"] * 6 + ["b"] * 6) + "\n")
    assert run(["cluster", "--distances", dist, "--k", "2", "--labels",
                kept_labels, "--out", tmp_path / "c2.json"]) == 0
    assert json.loads((tmp_path / "c2.json").read_text())["error_rate"] == \
        result["error_rate"]
    short = tmp_path / "short_labels.txt"
    short.write_text("\n".join(["a"] * 15) + "\n")
    assert run(["cluster", "--distances", dist, "--k", "2", "--labels", short,
                "--out", out]) == 2


def _singular_iris_graph(tmp_path, iris_csv):
    """Iris at mu = 1, sigma = 100: both pseudoinverse routes fail on it."""
    ds = load_features(iris_csv, has_labels=True)
    path = tmp_path / "g.edges"
    write_edge_list(knn_gaussian_graph(ds, GraphBuildParams(mu=1.0, sigma=100.0)),
                    path)
    return path


def test_distances_exact_on_singular_graph_exit_2(tmp_path, iris_csv, capsys):
    path = _singular_iris_graph(tmp_path, iris_csv)
    assert run(["distances", "--graph", path, "--p", "3", "--mode", "exact",
                "--workers", "1", "--out", tmp_path / "d.bin"]) == 2
    assert "SingularShift" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["bound", "ratio"])
def test_bound_layer_on_singular_graph_exit_2(tmp_path, iris_csv, capsys, subcommand):
    # the flow map is read off the checked L+, so the bound layer fails
    # where the pair queries do instead of writing ceilings near 1e17
    path = _singular_iris_graph(tmp_path, iris_csv)
    out = tmp_path / "out.csv"
    assert run([subcommand, "--graph", path, "--p-grid", "1.5,3",
                "--out", out]) == 2
    assert "SingularShift" in capsys.readouterr().err
    assert not out.exists()


def test_build_graph_missing_file_exit_2(tmp_path):
    assert run(["build-graph", "--features", tmp_path / "nope.csv",
                "--mu", "0.5", "--sigma", "1", "--out", tmp_path / "g"]) == 2


def test_build_graph_invalid_mu_exit_2(tmp_path, blob_csv):
    assert run(["build-graph", "--features", blob_csv, "--labels", "last",
                "--mu", "0", "--sigma", "1", "--out", tmp_path / "g"]) == 2


def test_distances_closed_form_and_p_validation(tmp_path):
    out = tmp_path / "d.bin"
    csv = tmp_path / "d.csv"
    assert run(["distances", "--generate", "path:n=3", "--p", "3",
                "--mode", "approx", "--form", "metric",
                "--out", out, "--csv", csv]) == 0
    dm = load_distance_matrix(out)
    assert np.allclose(dm.matrix, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], atol=1e-9)
    assert json.loads(dm.meta)["subcommand"] == "distances"
    assert run(["distances", "--generate", "path:n=3", "--p", "1",
                "--out", out]) == 2


@pytest.mark.parametrize("argv", [
    ["distances", "--generate", "cycle:n=6", "--p", "nan"],
    ["bound", "--generate", "cycle:n=6", "--p-grid", "nan"],
    ["ratio", "--generate", "cycle:n=6", "--p-grid", "nan", "--pairs", "2"],
], ids=["distances", "bound", "ratio"])
def test_nan_p_exits_2(tmp_path, argv, capsys):
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 2
    assert "InvalidP" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bench", "--features", "x.csv", "--mu-grid", "1.0,x"],
    ["bench", "--features", "x.csv", "--sigma-grid", "1.0,x"],
    ["bench", "--features", "x.csv", "--p-grid", "1.5,x"],
    ["bound", "--generate", "cycle:n=6", "--p-grid", "1.5,x"],
    ["ratio", "--generate", "cycle:n=6", "--p-grid", "1.5,x", "--pairs", "2"],
], ids=["bench_mu", "bench_sigma", "bench_p", "bound", "ratio"])
def test_malformed_grid_value_exits_2(tmp_path, iris_csv, argv, capsys):
    argv = [iris_csv if a == "x.csv" else a for a in argv]
    out = tmp_path / "out"
    flag = "--out-dir" if argv[0] == "bench" else "--out"
    assert run(argv + [flag, out]) == 2
    err = capsys.readouterr().err
    assert "InvalidParams" in err and "'x'" in err
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--pairs", "0"], ["--p-grid", ""]],
                         ids=["no_pairs", "no_p"])
def test_ratio_without_rows_exits_2(tmp_path, extra, capsys):
    out = tmp_path / "r.csv"
    assert run(["ratio", "--generate", "cycle:n=6", *extra, "--out", out]) == 2
    assert "InvalidParams" in capsys.readouterr().err
    assert not out.exists()


def test_bound_without_p_exits_2(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert run(["bound", "--generate", "cycle:n=6", "--p-grid", "",
                "--out", out]) == 2
    assert "InvalidParams" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--mu-grid", ""], ["--sigma-grid", ""], ["--repetitions", "0"],
    ["--methods", "kmed_approx", "--p-grid", ""],
], ids=["no_mu", "no_sigma", "no_repetition", "no_cell"])
def test_bench_without_records_exits_2(tmp_path, iris_csv, extra, capsys):
    out_dir = tmp_path / "bench"
    assert run(["bench", "--features", iris_csv, *extra,
                "--out-dir", out_dir]) == 2
    assert "InvalidParams" in capsys.readouterr().err
    assert not out_dir.exists()


def test_unreadable_input_exits_2(tmp_path, capsys):
    # a directory as the features file: IsADirectoryError, an OSError
    assert run(["build-graph", "--features", tmp_path, "--mu", "1",
                "--sigma", "1", "--out", tmp_path / "g.edges"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "g.edges").exists()


def test_distances_reproducible_bytes(tmp_path):
    out = tmp_path / "a.bin"
    args = ["distances", "--generate", "gnp_connected:n=12,edge_prob=0.4",
            "--p", "2.5", "--seed", "3", "--out", out]
    assert run(args) == 0
    first = out.read_bytes()
    assert run(args) == 0
    assert out.read_bytes() == first


def test_distances_bytes_independent_of_workers(tmp_path, monkeypatch):
    # small blocks put the edge pairs in many strips and the other pairs in
    # many row blocks, which 2 workers run on 2 threads
    monkeypatch.setattr(resistance, "_BLOCK_DROPS", 200)
    out = tmp_path / "d.bin"
    outs = []
    for workers in ("1", "2"):
        assert run(["distances", "--generate", "gnp_connected:n=20,edge_prob=0.4",
                    "--p", "3", "--workers", workers, "--out", out]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert "workers" not in load_distance_matrix(out).meta


def test_distances_exact_mode_completes(tmp_path):
    out = tmp_path / "e.bin"
    code = run(["distances", "--generate", "gnp_connected:n=12,edge_prob=0.4",
                "--p", "2.5", "--mode", "exact", "--grad-tol", "1e-6",
                "--workers", "1", "--out", out])
    assert code in (0, 1)  # 1 only if some pair missed the gradient tol
    dm = load_distance_matrix(out)
    assert dm.n == 12 and np.isfinite(dm.matrix).all()


def test_cluster_with_labels(tmp_path):
    out = tmp_path / "d.bin"
    assert run(["distances", "--generate", "example_g3:eps=0.01", "--p", "1.5",
                "--out", out]) == 0
    labels = tmp_path / "labels.txt"
    labels.write_text("\n".join(["l", "l", "l", "l", "r", "r"]) + "\n")
    res = tmp_path / "c.json"
    assert run(["cluster", "--distances", out, "--k", "2",
                "--labels", labels, "--out", res]) == 0
    doc = json.loads(res.read_text())
    assert doc["error_rate"] == 0.0
    assert doc["config"]["version"]
    assert len(doc["assignments"]) == 6


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_cluster_rejects_overflowed_matrix(tmp_path, capsys):
    out = tmp_path / "d.bin"
    assert run(["distances", "--generate", "gnp_connected:n=9,edge_prob=0.4",
                "--p", "1000", "--form", "resistance", "--out", out]) == 0
    assert np.isinf(load_distance_matrix(out).matrix).any()
    for method in ("kmedoids", "farthest-first"):
        assert run(["cluster", "--distances", out, "--k", "2",
                    "--method", method, "--out", tmp_path / "c.json"]) == 2
        assert "NonFinite" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_cluster_farthest_first(tmp_path):
    out = tmp_path / "d.bin"
    run(["distances", "--generate", "path:n=5", "--p", "3", "--out", out])
    res = tmp_path / "c.json"
    assert run(["cluster", "--distances", out, "--k", "2",
                "--method", "farthest-first", "--start", "0", "--out", res]) == 0
    doc = json.loads(res.read_text())
    assert doc["method"] == "farthest-first"
    assert 4 in doc["centers"]


def test_bound_cycle(tmp_path):
    out = tmp_path / "b.csv"
    assert run(["bound", "--generate", "cycle:n=20",
                "--p-grid", "1.5,2.0,5.0", "--out", out]) == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    # every absolute row sum of the cycle edge projector is 2 - 2/n
    for r in rows:
        assert float(r["projector_one_norm"]) == pytest.approx(1.9, abs=1e-9)
        assert float(r["alpha_estimate"]) <= 4.0 + 1e-9
    est_p2 = [float(r["alpha_estimate"]) for r in rows if float(r["p"]) == 2.0][0]
    assert est_p2 == pytest.approx(1.0, abs=1e-9)


def test_bound_computes_one_pinv(tmp_path, pinv_builds):
    assert run(["bound", "--generate", "cycle:n=20", "--p-grid", "1.5,2.0,5.0",
                "--out", tmp_path / "b.csv"]) == 0
    assert len(pinv_builds) == 1


def test_bound_estimate_at_p2_is_at_most_the_ceiling(tmp_path):
    out = tmp_path / "b.csv"
    assert run(["bound", "--generate", "cycle:n=20", "--p-grid", "2.0",
                "--out", out]) == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["alpha_estimate"]) <= float(row["worst_case"]) == 1.0


def test_ratio_command(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["ratio", "--generate", "gnp_connected:n=9,edge_prob=0.5",
                "--p-grid", "1.5,2.0,3.0", "--pairs", "5", "--out", out]) == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert float(row["ratio"]) >= 1 - 1e-6
        assert float(row["ratio"]) <= float(row["bound_pow_q"]) + 1e-9


def test_bench_command(tmp_path, blob_csv):
    out_dir = tmp_path / "bench"
    args = ["bench", "--features", blob_csv, "--labels", "last",
            "--mu-grid", "1.0", "--sigma-grid", "0.5",
            "--p-grid", "1.5,3.0", "--methods", "kmed_approx,kmed_p2,sc2",
            "--repetitions", "2", "--seed", "0", "--out-dir", out_dir]
    assert run(args) == 0
    results = (out_dir / "results.csv").read_text()
    assert results.startswith("# config:")
    # 2 p-cells for approx + 1 for p2 + 1 for sc2, 2 repetitions each
    rows = [r for r in results.splitlines() if r and not r.startswith(("#", "method"))]
    assert len(rows) == 8
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["best"]["kmed_approx"]["error_mean"] == 0.0
    # byte-for-byte reproducibility of the results view
    first = results
    assert run(args) == 0
    assert (out_dir / "results.csv").read_text() == first
    assert (out_dir / "timing.csv").exists()


@pytest.mark.parametrize("mu, sigma", [("2.0", "1.0"), ("1.0", "-1"),
                                       ("1.0", "nan"), ("1.0", "inf")],
                         ids=["bad_mu", "bad_sigma", "nan_sigma", "inf_sigma"])
def test_bench_bad_grid_exits_2(tmp_path, blob_csv, mu, sigma, capsys):
    out_dir = tmp_path / "bench"
    assert run(["bench", "--features", blob_csv, "--mu-grid", mu,
                "--sigma-grid", sigma, "--p-grid", "3", "--repetitions", "1",
                "--out-dir", out_dir]) == 2
    assert "InvalidParams" in capsys.readouterr().err
    assert not (out_dir / "results.csv").exists()


@pytest.mark.parametrize("argv", [
    ["bench", "--mu-grid", "1,1"],
    ["bench", "--sigma-grid", "1,1.0"],
    ["bench", "--p-grid", "10,10"],
    ["bench", "--methods", "kmed_approx,kmed_approx"],
    ["ratio", "--p-grid", "3,3"],
    ["bound", "--p-grid", "3,3"],
], ids=["bench_mu", "bench_sigma", "bench_p", "bench_method", "ratio_p", "bound_p"])
def test_repeated_grid_value_exits_2(tmp_path, blob_csv, argv, capsys):
    # a repeated value or method would run its work again and repeat its
    # records (or pool them into one cell's repetitions), not add a cell
    out = tmp_path / "out"
    base = {
        "bench": ["--features", blob_csv, "--mu-grid", "1.0", "--sigma-grid",
                  "1.0", "--p-grid", "3", "--repetitions", "1", "--out-dir", out],
        "ratio": ["--generate", "cycle:n=6", "--pairs", "2", "--out", out],
        "bound": ["--generate", "cycle:n=6", "--out", out],
    }[argv[0]]
    assert run([argv[0], *base, *argv[1:]]) == 2
    assert "InvalidParams" in capsys.readouterr().err
    assert not out.exists()


def test_verify_subset_and_fault_injection(tmp_path):
    report = tmp_path / "v.json"
    assert run(["verify", "--suite", "laplacian-identities",
                "--suite", "distance-shape", "--quiet",
                "--report", report]) == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] is True
    assert run(["verify", "--suite", "distance-shape", "--quiet",
                "--inject-fault", "approx-sign"]) == 1
    # the fault never leaks into later runs
    assert run(["verify", "--suite", "distance-shape", "--quiet"]) == 0


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 3.0, "generate": "path:n=3"}))
    out = tmp_path / "d.bin"
    assert run(["--config", cfg, "distances", "--out", out]) == 0
    dm = load_distance_matrix(out)
    assert dm.p == 3.0 and dm.n == 3


def test_config_keys_must_be_options_of_the_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "d.bin"
    base = {"p": 3.0, "generate": "path:n=3"}
    # a removed option, a typo, another subcommand's option, the parser's own
    for extra in ({"max_iter": 5, "typo_key": 1}, {"restarts": 2},
                  {"subcommand": "bench"}, {"func": "x"}):
        cfg.write_text(json.dumps({**base, **extra}))
        assert run(["--config", cfg, "distances", "--out", out]) == 2
        assert "InvalidParams" in capsys.readouterr().err
    for doc in ([1, 2], "p=3", 3):
        cfg.write_text(json.dumps(doc))
        assert run(["--config", cfg, "distances", "--out", out]) == 2
        assert "InvalidParams" in capsys.readouterr().err
    assert not out.exists()


def test_config_values_get_their_flags_checks(tmp_path, blob_csv, capsys):
    cfg = tmp_path / "cfg.json"
    dist = tmp_path / "d.bin"
    assert run(["distances", "--generate", "path:n=5", "--p", "3",
                "--out", dist]) == 0
    cluster = ["cluster", "--distances", dist, "--out", tmp_path / "c.json"]
    build = ["build-graph", "--features", blob_csv, "--mu", "0.5",
             "--sigma", "0.5", "--out", tmp_path / "g.edges"]
    # a k that is no integer, with and without restarts, a label column that
    # is not a choice and a switch that is no boolean exit 2, as their flags
    for doc, argv in (({"k": 2.5, "restarts": 1}, cluster), ({"k": 2.5}, cluster),
                      ({"labels": "middle"}, build), ({"standardize": "yes"}, build)):
        cfg.write_text(json.dumps(doc))
        assert run(["--config", cfg, *argv]) == 2
        assert "InvalidParams" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists() and not (tmp_path / "g.edges").exists()
    # an integer p is read as the float `--p 3` gives: the same bytes
    cfg.write_text(json.dumps({"p": 3}))
    out = tmp_path / "d3.bin"
    assert run(["--config", cfg, "distances", "--generate", "path:n=5",
                "--out", out]) == 0
    assert out.read_bytes() == dist.read_bytes()
    # a repeatable flag takes a list of its values
    cfg.write_text(json.dumps({"suite": ["laplacian-identities"]}))
    assert run(["--config", cfg, "verify", "--quiet"]) == 0
    cfg.write_text(json.dumps({"suite": "laplacian-identities"}))
    assert run(["--config", cfg, "verify", "--quiet"]) == 2


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["distances", "--out", "x"])  # missing required --p
    assert exc.value.code == 2


def test_malformed_generate_spec_exit_2(tmp_path, capsys):
    for spec in ("path:n", "path:n=abc", "path:=4", "gnp_connected:n=12,edge_pro=0.05",
                 "gnp_connected:n=10,seed=3", "random_tree:n=10,weight_range=1"):
        assert run(["distances", "--generate", spec, "--p", "3",
                    "--out", tmp_path / "d.bin"]) == 2
        assert "InvalidParams" in capsys.readouterr().err
    assert not (tmp_path / "d.bin").exists()


def test_cluster_on_malformed_matrix_file_exit_2(tmp_path, capsys):
    good = tmp_path / "d.bin"
    assert run(["distances", "--generate", "path:n=4", "--p", "3",
                "--out", good]) == 0
    blob = good.read_bytes()
    bad = tmp_path / "bad.bin"
    for cut in (blob[:10], b"PDMX" + (3).to_bytes(8, "little") + b"abc",
                blob[:-5]):
        bad.write_bytes(cut)
        assert run(["cluster", "--distances", bad, "--k", "2",
                    "--out", tmp_path / "c.json"]) == 2
        assert "FingerprintMismatch" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_distances_rejects_a_nan_grad_tol(tmp_path, capsys):
    # a NaN tolerance would flag every pair "not converged" and exit 1
    out = tmp_path / "d.bin"
    assert run(["distances", "--generate", "path:n=4", "--p", "3",
                "--mode", "exact", "--grad-tol", "nan", "--workers", "1",
                "--out", out]) == 2
    assert "InvalidP" in capsys.readouterr().err
    assert not out.exists()


def test_distances_rejects_an_infinite_grad_tol(tmp_path, capsys):
    # an infinite tolerance would mark every pair "converged"
    out = tmp_path / "d.bin"
    assert run(["distances", "--generate", "path:n=4", "--p", "3",
                "--mode", "exact", "--grad-tol", "inf", "--workers", "1",
                "--out", out]) == 2
    assert "InvalidP" in capsys.readouterr().err
    assert not out.exists()


def test_distances_takes_no_solver_knobs_but_grad_tol(tmp_path):
    out = tmp_path / "d.bin"
    assert run(["distances", "--generate", "path:n=4", "--p", "3",
                "--mode", "exact", "--grad-tol", "1e-10", "--workers", "1",
                "--out", out]) == 0
    assert load_distance_matrix(out).config_fingerprint == "grad_tol=1e-10"
    for flag, value in (("--rel-energy-tol", "1e-12"), ("--max-iter", "5"),
                        ("--smoothing-eps", "1e-12"), ("--init", "zeros")):
        with pytest.raises(SystemExit) as exc:
            run(["distances", "--generate", "path:n=4", "--p", "3",
                 flag, value, "--out", out])
        assert exc.value.code == 2


def test_bad_workers_env_only_breaks_distances(tmp_path, monkeypatch):
    monkeypatch.setenv("PRESISTANCE_WORKERS", "abc")
    assert run(["verify", "--suite", "laplacian-identities", "--quiet"]) == 0
    assert run(["distances", "--generate", "path:n=4", "--p", "3",
                "--out", tmp_path / "d.bin"]) == 2
    monkeypatch.setenv("PRESISTANCE_WORKERS", "2")
    assert run(["distances", "--generate", "path:n=4", "--p", "3",
                "--out", tmp_path / "d.bin"]) == 0


@pytest.mark.parametrize("mode", ["approx", "exact"])
@pytest.mark.parametrize("count", ["0", "-4"])
def test_worker_count_below_one_exits_2(tmp_path, monkeypatch, capsys, mode,
                                        count):
    # from the flag or the environment, in either mode: nothing is written
    out = tmp_path / "d.bin"
    monkeypatch.delenv("PRESISTANCE_WORKERS", raising=False)
    assert run(["distances", "--generate", "path:n=4", "--p", "3",
                "--mode", mode, "--workers", count, "--out", out]) == 2
    assert "InvalidParams" in capsys.readouterr().err
    monkeypatch.setenv("PRESISTANCE_WORKERS", count)
    assert run(["distances", "--generate", "path:n=4", "--p", "3",
                "--mode", mode, "--out", out]) == 2
    assert "InvalidParams" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["distances", "cluster", "bench", "bound",
                                        "ratio", "verify"])
def test_negative_seed_exits_2(tmp_path, blob_csv, capsys, subcommand):
    # numpy's generators reject a negative seed with a bare ValueError: every
    # subcommand that takes --seed exits 2 with the toolkit's error instead,
    # and writes nothing
    gen = ["--generate", "gnp_connected:n=10,edge_prob=0.5"]
    dist = tmp_path / "d.bin"
    assert run(["distances", *gen, "--p", "3", "--out", dist]) == 0
    out = tmp_path / "out"
    argv = {
        "distances": ["distances", *gen, "--p", "3", "--out", out],
        "cluster": ["cluster", "--distances", dist, "--k", "2", "--out", out],
        "bench": ["bench", "--features", blob_csv, "--mu-grid", "1.0",
                  "--sigma-grid", "1.0", "--p-grid", "3", "--repetitions", "1",
                  "--out-dir", out],
        "bound": ["bound", *gen, "--out", out],
        "ratio": ["ratio", *gen, "--pairs", "2", "--out", out],
        "verify": ["verify", "--suite", "laplacian-identities", "--quiet",
                   "--report", out],
    }[subcommand]
    capsys.readouterr()
    assert run(argv + ["--seed", "-3"]) == 2
    assert "InvalidParams" in capsys.readouterr().err
    assert not out.exists()


def test_artifact_bytes_independent_of_output_path(tmp_path):
    dists = []
    for name in ("a.bin", "b.bin"):
        out = tmp_path / name
        assert run(["distances", "--generate", "path:n=6", "--p", "3",
                    "--csv", tmp_path / f"{name}.csv", "--out", out]) == 0
        dists.append(out.read_bytes())
    assert dists[0] == dists[1]
    clusters = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run(["cluster", "--distances", tmp_path / "a.bin", "--k", "2",
                    "--out", out]) == 0
        clusters.append(out.read_bytes())
    assert clusters[0] == clusters[1]


def test_artifact_bytes_independent_of_input_directory(tmp_path, blob_csv):
    # the same inputs read from two directories give the same bytes at
    # every stage: input paths stay out of the recorded configuration
    outputs = []
    for name in ("one", "two"):
        d = tmp_path / name
        d.mkdir()
        features = d / "blobs.csv"
        features.write_bytes(blob_csv.read_bytes())
        labels = d / "labels.txt"
        labels.write_text("a\n" * 10 + "b\n" * 10)
        assert run(["build-graph", "--features", features, "--labels", "last",
                    "--mu", "0.5", "--sigma", "0.5", "--out", d / "g.edges"]) == 0
        assert run(["distances", "--graph", d / "g.edges", "--p", "3",
                    "--out", d / "d.bin"]) == 0
        assert run(["cluster", "--distances", d / "d.bin", "--k", "2",
                    "--labels", labels, "--out", d / "c.json"]) == 0
        assert run(["bench", "--features", features, "--mu-grid", "1.0",
                    "--sigma-grid", "0.5", "--p-grid", "3.0", "--repetitions", "1",
                    "--out-dir", d / "bench"]) == 0
        outputs.append([(d / f).read_bytes()
                        for f in ("g.edges", "d.bin", "c.json",
                                  "bench/results.csv", "bench/summary.json")])
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0][2])
    assert doc["error_rate"] == 0.0
    assert "distances" not in doc["config"] and "labels" not in doc["config"]


def test_verify_runs_every_suite_and_the_fault_fails_it():
    assert run(["verify", "--quiet"]) == 0
    assert run(["verify", "--quiet", "--inject-fault", "approx-sign"]) == 1

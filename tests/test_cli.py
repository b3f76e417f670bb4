from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from helpers import random_dense_digraph, random_tree
from treecount import cli, counting
from treecount.cli import main
from treecount.graphs import (
    Digraph,
    complete_digraph,
    directed_cycle,
    write_graph_text,
)
from treecount.trees import path_tree, write_tree_text


@pytest.fixture
def k6_file(tmp_path):
    p = tmp_path / "k6.txt"
    p.write_text(write_graph_text(complete_digraph(6)))
    return str(p)


@pytest.fixture
def path5_file(tmp_path):
    p = tmp_path / "p5.txt"
    p.write_text(write_tree_text(path_tree(5)))
    return str(p)


def test_entropy_command(k6_file, tmp_path):
    out = str(tmp_path / "entropy.json")
    assert main(["entropy", k6_file, "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["h_bits"] == pytest.approx(6 * math.log2(5), abs=1e-6)
    assert payload["b_min"] == pytest.approx(6 / 5)


def test_malformed_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("digraph 2 1\n0 0\n")
    assert main(["entropy", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exit_2(tmp_path):
    assert main(["entropy", str(tmp_path / "nope.txt")]) == 2


def test_entropy_reads_a_graph_as_its_double_orientation(tmp_path):
    dropped = {(0, 1), (2, 3)}
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7) if (u, v) not in dropped]
    undirected = tmp_path / "g.txt"
    undirected.write_text("graph 7 19\n" + "".join(f"{u} {v}\n" for u, v in edges))
    directed = tmp_path / "d.txt"
    directed.write_text(write_graph_text(Digraph(7, edges + [(v, u) for u, v in edges])))
    assert directed.read_text().startswith("digraph 7 38\n")
    reports = []
    for path in (undirected, directed):
        out = tmp_path / f"{path.stem}.json"
        assert main(["entropy", str(path), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", [
    ["sample", "--samples", "5"],
    ["count", "--mode", "estimate", "--samples", "5"],
    ["pipeline"],
])
def test_negative_seed_exit_2(tmp_path, k6_file, path5_file, command, capsys):
    out = tmp_path / "out.txt"
    argv = [command[0], k6_file, path5_file, *command[1:], "--seed", "-1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed and worker must be nonnegative\n"
    assert not out.exists()


def test_count_command_brute(tmp_path, path5_file):
    g = tmp_path / "k5.txt"
    g.write_text(write_graph_text(complete_digraph(5)))
    out = str(tmp_path / "count.json")
    assert main(["count", str(g), path5_file, "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["count"]["labelled"] == 120
    assert payload["bound_value"] == pytest.approx(6.9, abs=0.01)
    assert payload["holds"] and payload["note"] == ""


def test_count_and_verify_are_exact_at_13_vertices(tmp_path):
    # a spanning case that the default search budget refuses; the subset DP
    # counts it, so both commands succeed with the same exact count
    rng = np.random.default_rng([7, 13])
    g, t = tmp_path / "g.txt", tmp_path / "t.txt"
    g.write_text(write_graph_text(random_dense_digraph(rng, 13, 7, keep_prob=1.0)))
    t.write_text(write_tree_text(random_tree(rng, 13, max_deg=4)))
    outs = {}
    for command in ("count", "verify"):
        outs[command] = tmp_path / f"{command}.json"
        assert main([command, str(g), str(t), "--out", str(outs[command])]) == 0
    count = json.loads(outs["count"].read_text())["count"]
    verify = json.loads(outs["verify"].read_text())
    assert count["labelled"] == 9_758_272 and verify["aut"] == 1
    assert count["unlabelled"] == verify["count"] == 9_758_272


def test_count_notes_non_spanning_tree(tmp_path):
    # 1680 copies of the 4-vertex path fall below the spanning bound 1933.9
    g, t = tmp_path / "k8.txt", tmp_path / "p4.txt"
    g.write_text(write_graph_text(complete_digraph(8)))
    t.write_text(write_tree_text(path_tree(4)))
    out = str(tmp_path / "count.json")
    assert main(["count", str(g), str(t), "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["count"]["unlabelled"] == 1680 and not payload["holds"]
    assert payload["note"] == "tree is not spanning; bound is informational only"


def test_count_brute_survives_solver_failure(tmp_path):
    # the scaling on this host does not converge within its iteration cap;
    # an exact count needs no matching, so count agrees with verify
    g, t = tmp_path / "g.txt", tmp_path / "p2.txt"
    g.write_text(write_graph_text(
        Digraph(4, [(0, 1), (1, 0), (2, 0), (3, 2), (0, 3), (1, 3), (3, 1)])
    ))
    t.write_text(write_tree_text(path_tree(2)))
    count_out, verify_out = tmp_path / "count.json", tmp_path / "verify.json"
    assert main(["count", str(g), str(t), "--out", str(count_out)]) == 0
    assert main(["verify", str(g), str(t), "--out", str(verify_out)]) == 0
    count, verify = json.loads(count_out.read_text()), json.loads(verify_out.read_text())
    assert "entropy solver failed" in count["note"]
    assert count["note"] == verify["note"]
    assert count["h_bits"] == verify["h_bits"] == 0.0
    assert count["count"]["unlabelled"] == verify["count"] == 7
    assert count["holds"] and verify["holds"]
    # the estimator samples from the matching, so it still fails
    assert main(["count", str(g), str(t), "--mode", "estimate",
                 "--out", str(tmp_path / "est.json")]) == 1


def test_count_estimate_solves_once(tmp_path, path5_file, monkeypatch):
    calls = []

    def solve(*args, **kwargs):
        calls.append(args)
        return solve_matching(*args, **kwargs)

    solve_matching = cli.max_entropy_matching
    monkeypatch.setattr(cli, "max_entropy_matching", solve)
    g = tmp_path / "k6.txt"
    g.write_text(write_graph_text(complete_digraph(6)))
    out = str(tmp_path / "count.json")
    assert main(["count", str(g), path5_file, "--mode", "estimate",
                 "--samples", "100", "--out", out]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["brute", "estimate"])
def test_count_computes_automorphisms_once(tmp_path, path5_file, monkeypatch, mode):
    calls = []

    def aut(*args, **kwargs):
        calls.append(args)
        return automorphism_count(*args, **kwargs)

    automorphism_count = counting.automorphism_count
    for module in (counting, cli):
        monkeypatch.setattr(module, "automorphism_count", aut)
    g = tmp_path / "k6.txt"
    g.write_text(write_graph_text(complete_digraph(6)))
    out = tmp_path / "count.json"
    assert main(["count", str(g), path5_file, "--mode", mode,
                 "--samples", "100", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["aut"] == 1  # a directed path
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["entropy", "g.txt", "--samples", "5"],
    ["decompose", "t.txt", "--format", "csv"],
])
def test_unread_flags_rejected(argv, capsys):
    # a subcommand accepts only the flags it reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample", "count"])
def test_workers_flag_refused(command, capsys):
    # every estimate and sample draws one batch from the stream (seed, 0)
    with pytest.raises(SystemExit) as exc:
        main([command, "g.txt", "t.txt", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_rejected_argv_leaves_the_parser_as_it_was(tmp_path, path5_file, capsys):
    # main builds its parser once per process and reuses it
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    argv = ["decompose", path5_file, "--n0", "7", "--out"]
    assert main(argv + [str(outs[0])]) == 0
    for bad in (["decompose", path5_file, "--n0", "x"], ["decompose"],
                ["decompose", path5_file, "--format", "csv"], ["nosuch"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    assert main(argv + [str(outs[1])]) == 0
    assert outs[0].read_text() == outs[1].read_text()
    assert json.loads(outs[1].read_text())["n0"] == 7
    # a call without --n0 gets the default again, not the last value
    assert main(["decompose", path5_file, "--out", str(outs[1])]) == 0
    assert json.loads(outs[1].read_text())["n0"] == 5
    err = capsys.readouterr().err
    assert err.count("usage: treecount") == 4 and "invalid int value: 'x'" in err


def test_count_oversized_tree_exit_2(tmp_path, path5_file):
    g = tmp_path / "k3.txt"
    g.write_text(write_graph_text(complete_digraph(3)))
    assert main(["count", str(g), path5_file]) == 2


def test_count_estimate_mode(tmp_path, path5_file):
    g = tmp_path / "k6.txt"
    g.write_text(write_graph_text(complete_digraph(6)))
    out = str(tmp_path / "count.json")
    code = main([
        "count", str(g), path5_file, "--mode", "estimate",
        "--samples", "50000", "--seed", "1", "--out", out,
    ])
    assert code == 0
    payload = json.loads(open(out).read())
    low, high = payload["count"]["ci"]["low"], payload["count"]["ci"]["high"]
    assert low <= 720 * 1.05 and high >= 720 * 0.9


def test_sample_command_deterministic(tmp_path, k6_file, path5_file):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["sample", k6_file, path5_file, "--samples", "200", "--seed", "7"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    header = open(out1).readline().strip()
    assert header == "seed,worker,images,log_prob,self_avoiding"


@pytest.mark.parametrize("counts", [["--samples", "-1"], ["--samples", "0"]])
def test_sample_bad_counts_exit_2(tmp_path, k6_file, path5_file, counts, capsys):
    out = tmp_path / "s.csv"
    args = ["sample", k6_file, path5_file, *counts, "--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_mixing_command(tmp_path, k6_file):
    out = str(tmp_path / "mixing.json")
    assert main(["mixing", k6_file, "--t-max", "40", "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["hypothesis_ok"]
    assert all(r["holds"] for r in payload["rows"] if r["admissible"])


def test_mixing_output_pinned(tmp_path):
    # SHA-256 of the whole report on a fixed 12-vertex host; the same with
    # OPENBLAS_CORETYPE unset, Haswell, Sandybridge and Zen, since
    # mixing_check steps by einsum, not by a BLAS gemv
    g = tmp_path / "g12.txt"
    g.write_text(write_graph_text(
        random_dense_digraph(np.random.default_rng(16), 12, 8)
    ))
    out = tmp_path / "mixing.json"
    assert main(["mixing", str(g), "--t-max", "40", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "2c8cbbe027b3ba48a6597bcf3744c0b42e575618301b173c1f61dcaaeb0e3c20"
    )


@pytest.mark.parametrize("command,digest", [
    (["count", "--mode", "estimate", "--samples", "5000"],
     "412c6af052f62dba4b5ae136fafba1f113fbe7587f5932730f306c76583246c3"),
    (["sample", "--samples", "300", "--start", "3"],
     "fa21bb31600baa956144e33ac370a1035cb499aff9035aee72d78a1b025cb697"),
    (["sample", "--samples", "300"],
     "6b4f6330750a7dccea9442bcf668ceb0b184a82451b9138ebea63e1557218d6f"),
], ids=["count-estimate", "sample-start", "sample"])
def test_sampling_output_pinned(tmp_path, command, digest):
    # SHA-256 of the whole artifact on a fixed 40-vertex host and 12-vertex
    # tree, recorded while the CLI still split the samples over worker
    # streams and joined the CSV chunks
    rng = np.random.default_rng(17)
    g, t = tmp_path / "g40.txt", tmp_path / "t12.txt"
    g.write_text(write_graph_text(random_dense_digraph(rng, 40, 30)))
    t.write_text(write_tree_text(random_tree(rng, 12)))
    out = tmp_path / "out"
    name, *flags = command
    argv = [name, str(g), str(t), *flags, "--seed", "11", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_decompose_command(tmp_path):
    tree = tmp_path / "p16.txt"
    tree.write_text(write_tree_text(path_tree(16)))
    out = str(tmp_path / "dec.json")
    assert main(["decompose", str(tree), "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert all(payload["invariants"].values())
    assert sum(p["size"] for p in payload["pieces"]) >= 16


def test_pipeline_command(tmp_path):
    g = tmp_path / "k10.txt"
    g.write_text(write_graph_text(complete_digraph(10)))
    t = tmp_path / "t9.txt"
    t.write_text(write_tree_text(random_tree(np.random.default_rng(5), 9, 3)))
    out = str(tmp_path / "trace.json")
    assert main(["pipeline", str(g), str(t), "--seed", "2", "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["success"]
    assert len(set(payload["mapping"].values())) == 9


def test_pipeline_low_degree_exit_1(tmp_path):
    g = tmp_path / "cycle.txt"
    g.write_text(write_graph_text(directed_cycle(6)))
    t = tmp_path / "p3.txt"
    t.write_text(write_tree_text(path_tree(3)))
    assert main(["pipeline", str(g), str(t)]) == 1


@pytest.mark.parametrize("threshold", ["0", "-1", "7"])
def test_pipeline_bad_threshold_exit_2(tmp_path, k6_file, threshold, capsys):
    t = tmp_path / "p6.txt"
    t.write_text(write_tree_text(path_tree(6)))
    out = tmp_path / "trace.json"
    argv = ["pipeline", k6_file, str(t), "--threshold", threshold, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: threshold must be in 1..6\n"
    assert not out.exists()


def test_verify_command_csv(tmp_path, path5_file):
    g = tmp_path / "k5.txt"
    g.write_text(write_graph_text(complete_digraph(5)))
    out = str(tmp_path / "verify.csv")
    assert main(["verify", str(g), path5_file, "--format", "csv",
                 "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0].startswith("n,m,h_bits")


def test_json_reports_byte_identical(tmp_path, k6_file):
    out1, out2 = str(tmp_path / "e1.json"), str(tmp_path / "e2.json")
    main(["entropy", k6_file, "--out", out1])
    main(["entropy", k6_file, "--out", out2])
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_failure_prints_diagnostics(tmp_path, capsys):
    g = tmp_path / "cycle.txt"
    g.write_text(write_graph_text(directed_cycle(6)))
    t = tmp_path / "p3.txt"
    t.write_text(write_tree_text(path_tree(3)))
    assert main(["pipeline", str(g), str(t)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "failure: host minimum semidegree is not above half the order",
        'diagnostics: {"semidegree_deficit": true}',
    ]


def test_pipeline_isolated_vertex_in_rebuilt_host_exit_1(tmp_path, capsys):
    # embed pool id 51: a valid input whose rebuilt host loses every arc
    # at one vertex is a failed run, not a malformed input
    rng = np.random.default_rng([0xE3BED, 51])
    host = random_dense_digraph(rng, 100, 60)
    tree = random_tree(rng, 100, max_deg=4)
    g, t = tmp_path / "g.txt", tmp_path / "t.txt"
    g.write_text(write_graph_text(host))
    t.write_text(write_tree_text(tree))
    assert main(["pipeline", str(g), str(t), "--seed", "51"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "failure: vertex 0 has no out- or in-neighbors"
    assert json.loads(err[1][len("diagnostics: "):])["stage"] > 0


def test_pipeline_resolve_failure_writes_partial_trace(tmp_path, capsys):
    # the rebalance gives up at some stage and the re-solve of the
    # shrunken host hits its iteration cap
    n = 40
    host = random_dense_digraph(np.random.default_rng(1000 * n + 2), n, 24)
    tree = random_tree(np.random.default_rng(2000 * n + 2), n, max_deg=6)
    g, t = tmp_path / "g.txt", tmp_path / "t.txt"
    g.write_text(write_graph_text(host))
    t.write_text(write_tree_text(tree))
    out = str(tmp_path / "trace.json")
    assert main(["pipeline", str(g), str(t), "--seed", "1", "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "failure: scaling did not converge in 1000 iterations"
    assert err[1].startswith("diagnostics: ")
    diag = json.loads(err[1][len("diagnostics: "):])
    assert diag["iterations"] == 1000 and diag["residual"] > 1e-10
    payload = json.loads(open(out).read())
    assert not payload["success"]
    assert len(payload["stages"]) == diag["stage"] > 0

"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main, spec_from_args
from repro.graph import generators
from repro.graph.io import read_edge_list, read_json, write_edge_list, write_json
from repro.spanners.greedy import greedy_spanner


@pytest.fixture
def graph_file(tmp_path):
    graph = generators.gnm(16, 50, rng=5, connected=True)
    path = tmp_path / "input.json"
    write_json(graph, path)
    return path, graph


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_defaults(self):
        args = build_parser().parse_args(["build", "g.json"])
        assert args.stretch == 3.0
        assert args.faults == 0
        assert args.algorithm == "auto"
        # --fault-model defaults to the algorithm's native model, resolved
        # by the shared spec translator rather than per-subcommand defaults.
        assert args.fault_model is None
        spec = spec_from_args(args)
        assert spec.algorithm == "greedy"
        assert spec.fault_model == "vertex"

    def test_spec_defaults_cannot_drift_between_subcommands(self):
        """build/serve/query share one translator -> identical specs."""
        parser = build_parser()
        specs = [
            spec_from_args(parser.parse_args(["build", "g.json", "-f", "1"])),
            spec_from_args(parser.parse_args(["serve", "g.json", "-f", "1"])),
            spec_from_args(parser.parse_args(
                ["query", "g.json", "-s", "0", "-t", "1", "-f", "1"])),
        ]
        assert specs[0] == specs[1] == specs[2]
        assert specs[0].algorithm == "ft-greedy"

    def test_experiment_arguments(self):
        args = build_parser().parse_args(["experiment", "E3", "--scale", "quick"])
        assert args.ident == "E3"
        assert args.scale == "quick"


class TestBuildCommand:
    def test_build_plain_spanner(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        out = tmp_path / "spanner.json"
        code = main(["build", str(path), "--output", str(out), "--stretch", "3"])
        assert code == 0
        spanner = read_json(out)
        assert spanner.number_of_edges() <= graph.number_of_edges()
        assert "spanner" in capsys.readouterr().out

    def test_build_ft_spanner(self, graph_file, tmp_path):
        path, _ = graph_file
        out = tmp_path / "ft.json"
        code = main(["build", str(path), "-o", str(out), "-k", "3", "-f", "1"])
        assert code == 0
        assert read_json(out).number_of_edges() > 0

    def test_build_edge_list_output(self, graph_file, tmp_path):
        path, _ = graph_file
        out = tmp_path / "spanner.edges"
        assert main(["build", str(path), "-o", str(out)]) == 0
        assert read_edge_list(out).number_of_edges() > 0

    def test_missing_input_is_reported(self, tmp_path):
        assert main(["build", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("algorithm", ["trivial", "sampling-union",
                                           "peeling-union"])
    def test_baselines_buildable_from_cli(self, graph_file, tmp_path,
                                          algorithm, capsys):
        """The three baselines are reachable via --algorithm (CLI bugfix)."""
        path, graph = graph_file
        out = tmp_path / f"{algorithm}.json"
        code = main(["build", str(path), "--algorithm", algorithm,
                     "-f", "1", "--seed", "0", "-o", str(out)])
        assert code == 0
        spanner = read_json(out)
        assert spanner.number_of_edges() > 0
        assert algorithm in capsys.readouterr().out

    def test_build_with_algorithm_param(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        code = main(["build", str(path), "--algorithm", "sampling-union",
                     "-f", "1", "--seed", "3", "-P", "max_samples=10"])
        assert code == 0
        assert "sampling-union" in capsys.readouterr().out

    def test_incompatible_spec_is_reported(self, graph_file):
        path, _ = graph_file
        # greedy cannot take a fault budget; trivial cannot parallelize.
        assert main(["build", str(path), "--algorithm", "greedy",
                     "-f", "2"]) == 2
        assert main(["build", str(path), "--algorithm", "trivial",
                     "--workers", "4"]) == 2

    def test_build_save_snapshot_records_spec(self, graph_file, tmp_path):
        path, _ = graph_file
        snap = tmp_path / "snap.json"
        code = main(["build", str(path), "-f", "1",
                     "--save-snapshot", str(snap)])
        assert code == 0
        from repro.engine.snapshot import SpannerSnapshot
        spec = SpannerSnapshot.load(snap).build_spec
        assert spec is not None
        assert spec.algorithm == "ft-greedy"
        assert spec.max_faults == 1


class TestVerifyCommand:
    def test_verify_valid_spanner(self, graph_file, tmp_path):
        path, graph = graph_file
        spanner = greedy_spanner(graph, 3).spanner
        spanner_path = tmp_path / "spanner.json"
        write_json(spanner, spanner_path)
        assert main(["verify", str(path), str(spanner_path), "-k", "3"]) == 0

    def test_verify_detects_violation(self, graph_file, tmp_path):
        path, graph = graph_file
        sparse = greedy_spanner(graph, 50).spanner
        sparse_path = tmp_path / "sparse.json"
        write_json(sparse, sparse_path)
        assert main(["verify", str(path), str(sparse_path), "-k", "1.1"]) == 1

    def test_verify_ft_mode(self, graph_file, tmp_path):
        path, graph = graph_file
        from repro.spanners.ft_greedy import ft_greedy_spanner
        ft = ft_greedy_spanner(graph, 3, 1).spanner
        ft_path = tmp_path / "ft.json"
        write_json(ft, ft_path)
        code = main(["verify", str(path), str(ft_path), "-k", "3", "-f", "1",
                     "--method", "exhaustive"])
        assert code == 0


class TestOtherCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output and "workloads" in output
        # The algorithm registry is listed with capability tags.
        assert "algorithms:" in output
        for name in ("ft-greedy", "trivial", "sampling-union", "peeling-union"):
            assert name in output
        assert "witnesses" in output and "parallel" in output

    def test_generate_command(self, tmp_path, capsys):
        out = tmp_path / "workload.json"
        assert main(["generate", "tiny-gnm", str(out), "--seed", "3"]) == 0
        assert read_json(out).number_of_nodes() > 0

    def test_lower_bound_command(self, tmp_path, capsys):
        out = tmp_path / "lb.edges"
        assert main(["lower-bound", "-f", "2", "-k", "3", "-o", str(out)]) == 0
        instance = read_edge_list(out)
        assert instance.number_of_edges() > 0
        assert "blowup" in capsys.readouterr().out.lower() or True

    def test_experiment_command(self, tmp_path, capsys):
        code = main(["experiment", "E10", "--scale", "quick",
                     "--csv-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "e10.csv").exists()
        assert "E10" in capsys.readouterr().out

    def test_experiment_markdown_output(self, capsys):
        assert main(["experiment", "E10", "--markdown"]) == 0
        assert "|" in capsys.readouterr().out

    def test_experiment_json_output(self, capsys):
        assert main(["experiment", "E10", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["experiment"] == "E10"
        assert document["columns"]
        assert len(document["rows"]) >= 1
        assert set(document["rows"][0]) == set(document["columns"])


class TestServeAndQueryCommands:
    def test_serve_builds_and_saves_snapshot(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        snap = tmp_path / "snap.json"
        code = main(["serve", str(path), "-k", "3", "-f", "1",
                     "--queries", "200", "--save-snapshot", str(snap)])
        assert code == 0
        output = capsys.readouterr().out
        assert "queries/s" in output and "cache hit rate" in output
        from repro.engine.snapshot import SpannerSnapshot
        assert SpannerSnapshot.is_snapshot_file(snap)
        assert SpannerSnapshot.load(snap).max_faults == 1

    def test_serve_from_snapshot_json_report(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        snap = tmp_path / "snap.json"
        assert main(["serve", str(path), "-f", "1", "--queries", "100",
                     "--save-snapshot", str(snap)]) == 0
        capsys.readouterr()
        for shape in ("uniform", "zipf", "churn"):
            code = main(["serve", str(snap), "--workload", shape,
                         "--queries", "100", "--json"])
            assert code == 0
            report = json.loads(capsys.readouterr().out)
            assert report["queries_served"] == report["workload"]["queries"]
            assert report["snapshot"]["max_faults"] == 1
            assert report["throughput_qps"] > 0

    def test_query_command_with_faults_and_audit(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        snap = tmp_path / "snap.json"
        assert main(["serve", str(path), "-f", "1", "--queries", "10",
                     "--save-snapshot", str(snap)]) == 0
        capsys.readouterr()
        nodes = list(graph.nodes())
        code = main(["query", str(snap), "-s", str(nodes[0]),
                     "-t", str(nodes[-1]), "-F", str(nodes[1]), "--audit"])
        assert code == 0
        output = capsys.readouterr().out
        assert "stretch" in output and "OK" in output

    def test_query_audit_json_self_pair_and_exit_code(self, graph_file, tmp_path,
                                                      capsys):
        path, graph = graph_file
        snap = tmp_path / "snap.json"
        assert main(["serve", str(path), "-f", "1", "--queries", "10",
                     "--save-snapshot", str(snap)]) == 0
        capsys.readouterr()
        node = str(next(iter(graph.nodes())))
        # source == target must not crash the audit (0/0 stretch), and the
        # JSON mode must carry the audit verdict in the exit code.
        code = main(["query", str(snap), "-s", node, "-t", node,
                     "--audit", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["audit"]["ok"] is True
        assert document["audit"]["stretch"] == 1.0

    def test_query_json_output_against_graph_file(self, graph_file, capsys):
        path, graph = graph_file
        nodes = list(graph.nodes())
        code = main(["query", str(path), "-s", str(nodes[0]),
                     "-t", str(nodes[1]), "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["reachable"] is True
        assert document["distance"] is not None


class TestUpdateAndReplayCommands:
    @pytest.fixture
    def journal_file(self, graph_file, tmp_path):
        from repro.dynamic import random_journal
        _, graph = graph_file
        path = tmp_path / "journal.json"
        random_journal(graph, 20, rng=3).save(path)
        return path

    def test_update_from_snapshot_certify_and_save(self, graph_file,
                                                   journal_file, tmp_path,
                                                   capsys):
        path, _ = graph_file
        snap = tmp_path / "snap.json"
        assert main(["build", str(path), "-f", "1",
                     "--save-snapshot", str(snap)]) == 0
        capsys.readouterr()
        out = tmp_path / "maintained.json"
        code = main(["update", str(snap), "-j", str(journal_file),
                     "--certify", "--save-snapshot", str(out)])
        output = capsys.readouterr().out
        assert code == 0
        assert "20 updates" in output and "VERDICT: OK" in output
        # The refreshed snapshot records the spec and the update count, and
        # reflects the replayed graph (not the build-time one).
        from repro.dynamic import UpdateJournal
        from repro.engine.snapshot import SpannerSnapshot
        refreshed = SpannerSnapshot.load(out)
        assert refreshed.metadata["updates_applied"] == 20
        from repro.graph.io import read_json
        final = UpdateJournal.load(journal_file).replay(read_json(path))
        assert refreshed.original.same_structure(final)

    def test_update_from_graph_file_json_report(self, graph_file,
                                                journal_file, capsys):
        path, _ = graph_file
        code = main(["update", str(path), "-f", "1", "-j", str(journal_file),
                     "--certify", "--method", "sampled", "--samples", "20",
                     "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["updates_applied"] == 20
        assert report["certified"]["ok"] is True
        assert report["spec"]["algorithm"] == "ft-greedy"

    def test_update_refuses_non_maintainable_spec(self, graph_file,
                                                  journal_file):
        path, _ = graph_file
        # --faults 0 resolves the auto algorithm to plain greedy, which the
        # maintainer rejects (it cannot establish the FT-greedy invariant).
        assert main(["update", str(path), "-j", str(journal_file)]) == 2

    def test_update_rejects_flags_conflicting_with_recorded_spec(
            self, graph_file, journal_file, tmp_path, capsys):
        path, _ = graph_file
        snap = tmp_path / "snap.json"
        assert main(["build", str(path), "-f", "1",
                     "--save-snapshot", str(snap)]) == 0
        capsys.readouterr()
        # The snapshot was built at f=1/k=3; asking update to certify a
        # different contract must error out, not silently use the recorded
        # one (the user would read an OK verdict for the wrong guarantee).
        assert main(["update", str(snap), "-j", str(journal_file),
                     "-f", "2", "--certify"]) == 2
        assert main(["update", str(snap), "-j", str(journal_file),
                     "-k", "2"]) == 2
        # Even an explicit value equal to the usual argparse default is a
        # conflict when it contradicts the recorded spec (sentinel parsing
        # tells "not given" apart from "given at the default")...
        snap5 = tmp_path / "snap5.json"
        assert main(["build", str(path), "-f", "1", "-k", "5",
                     "--save-snapshot", str(snap5)]) == 0
        capsys.readouterr()
        assert main(["update", str(snap5), "-j", str(journal_file),
                     "-k", "3"]) == 2
        assert main(["update", str(snap5), "-j", str(journal_file),
                     "-f", "0"]) == 2
        # ... and so are algorithm params the recorded spec never carried.
        assert main(["update", str(snap), "-j", str(journal_file),
                     "-P", "progress_every=5"]) == 2
        # Matching (or omitted) construction flags are fine, and execution
        # knobs are never part of the contract.
        assert main(["update", str(snap), "-j", str(journal_file),
                     "-f", "1", "-k", "3", "--workers", "1"]) == 0

    def test_replay_writes_final_graph(self, graph_file, journal_file,
                                       tmp_path, capsys):
        path, graph = graph_file
        out = tmp_path / "final.json"
        code = main(["replay", str(path), "-j", str(journal_file),
                     "-o", str(out)])
        assert code == 0
        assert "replayed" in capsys.readouterr().out
        final = read_json(out)
        from repro.dynamic import UpdateJournal
        expected = UpdateJournal.load(journal_file).replay(graph)
        assert final.same_structure(expected)

    def test_replay_check_compares_maintained_vs_rebuilt(self, graph_file,
                                                         journal_file, capsys):
        path, _ = graph_file
        code = main(["replay", str(path), "-f", "1", "-j", str(journal_file),
                     "--check", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["check"]["maintained_ok"] is True
        assert report["check"]["rebuilt_ok"] is True
        assert report["check"]["size_ratio"] >= 1.0 - 1e-9

    def test_replay_check_certifies_both_sides_on_the_spec_kernel(
            self, graph_file, journal_file, capsys):
        pytest.importorskip("numpy")
        from repro.obs.metrics import get_registry
        path, _ = graph_file
        registry = get_registry()
        before = registry.counters()
        code = main(["replay", str(path), "-f", "1", "-j", str(journal_file),
                     "--check", "--json", "--kernel", "numpy"])
        assert code == 0
        capsys.readouterr()
        delta = registry.counters_delta(before)
        assert delta.get('kernels.dispatch{backend="numpy"}', 0) > 0
        assert delta.get('kernels.dispatch{backend="loop"}', 0) == 0

    def test_replay_journal_mismatch_is_a_clean_error(self, graph_file,
                                                      tmp_path):
        path, graph = graph_file
        from repro.dynamic import EdgeDelete, UpdateJournal
        bogus = tmp_path / "bogus.json"
        missing = ("zz1", "zz2")  # endpoints not in the graph at all
        UpdateJournal([EdgeDelete(*missing)]).save(bogus)
        assert main(["replay", str(path), "-j", str(bogus)]) == 2

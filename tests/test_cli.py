"""CLI smoke tests."""

import json

import pytest

from repro.cli import build_parser, main
from repro.datasets import toy_network


class TestStats:
    def test_toy_stats(self, capsys):
        assert main(["stats", "--dataset", "toy"]) == 0
        out = capsys.readouterr().out
        assert "atomic predicates" in out
        assert "AP Tree avg depth" in out

    def test_unknown_dataset(self, capsys):
        assert main(["stats", "--dataset", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown dataset")
        assert len(err.strip().splitlines()) == 1


class TestQuery:
    def test_delivered_query(self, capsys):
        code = main(
            [
                "query",
                "--dataset",
                "toy",
                "--dst-ip",
                "10.2.0.1",
                "--ingress",
                "b1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "b1 -> b2 -> h2" in out
        assert "atomic predicate" in out

    def test_dropped_query(self, capsys):
        main(
            [
                "query",
                "--dataset",
                "toy",
                "--dst-ip",
                "99.0.0.1",
                "--ingress",
                "b1",
            ]
        )
        out = capsys.readouterr().out
        assert "dropped" in out

    def test_unknown_ingress(self, capsys):
        code = main(
            [
                "query",
                "--dataset",
                "toy",
                "--dst-ip",
                "10.0.0.1",
                "--ingress",
                "nope",
            ]
        )
        assert code == 2
        assert "unknown ingress box" in capsys.readouterr().err


class TestTree:
    def test_tree_stats(self, capsys):
        assert main(["--strategy", "quick_ordering", "tree", "--dataset", "toy"]) == 0
        out = capsys.readouterr().out
        assert "quick_ordering" in out
        assert "average depth" in out


class TestVerify:
    def test_clean_network_exits_zero(self, capsys):
        assert main(["verify", "--dataset", "toy", "--ingress", "b1"]) == 0
        out = capsys.readouterr().out
        assert "looping classes" in out

    def test_loops_exit_nonzero(self, capsys, tmp_path):
        # Build a looped network, snapshot it, verify via the CLI.
        from repro.headerspace.fields import dst_ip_layout, parse_ipv4
        from repro.network.builder import Network
        from repro.network.rules import Match
        from repro.network.serialize import save_network

        network = Network(dst_ip_layout(), name="looped")
        network.add_box("a")
        network.add_box("b")
        network.link("a", "to_b", "b", "from_a")
        network.link("b", "to_a", "a", "from_b")
        match = Match.prefix("dst_ip", parse_ipv4("10.0.0.0"), 8)
        network.add_forwarding_rule("a", match, "to_b", 8)
        network.add_forwarding_rule("b", match, "to_a", 8)
        path = tmp_path / "looped.json"
        save_network(network, path)
        code = main(["verify", "--snapshot", str(path), "--ingress", "a"])
        assert code == 1
        assert "loop witness" in capsys.readouterr().out

    def test_waypoint_flag(self, capsys):
        code = main(
            [
                "verify",
                "--dataset",
                "toy",
                "--ingress",
                "b1",
                "--waypoint",
                "b2",
                "--host",
                "h2",
            ]
        )
        assert code == 0
        assert "waypoint" in capsys.readouterr().out

    def test_unknown_ingress(self, capsys):
        assert main(["verify", "--dataset", "toy", "--ingress", "nope"]) == 2
        assert "unknown ingress box" in capsys.readouterr().err


class TestSnapshot:
    def test_snapshot_then_query(self, capsys, tmp_path):
        path = tmp_path / "toy.json"
        assert main(["snapshot", "--dataset", "toy", "--out", str(path)]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "query",
                    "--snapshot",
                    str(path),
                    "--dst-ip",
                    "10.1.0.1",
                    "--ingress",
                    "b1",
                ]
            )
            == 0
        )
        assert "h1" in capsys.readouterr().out


class TestQueryTrace:
    def test_trace_flag_shows_search(self, capsys):
        assert (
            main(
                [
                    "query",
                    "--dataset",
                    "toy",
                    "--dst-ip",
                    "10.2.0.1",
                    "--ingress",
                    "b1",
                    "--trace",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "AP Tree search" in out
        assert "host h2" in out
        assert "-> true" in out


class TestReachability:
    def test_matrix(self, capsys):
        assert main(["reachability", "--dataset", "toy"]) == 0
        out = capsys.readouterr().out
        assert "reachability matrix" in out
        assert "h1" in out and "h2" in out


class TestDiff:
    def _snapshots(self, tmp_path):
        from repro.headerspace.fields import parse_ipv4
        from repro.network.rules import ForwardingRule, Match
        from repro.network.serialize import load_network, save_network

        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        main(["snapshot", "--dataset", "toy", "--out", str(before)])
        network = load_network(before)
        network.box("b2").table.add(
            ForwardingRule(
                Match.prefix("dst_ip", parse_ipv4("10.2.0.0"), 17), (), 18
            )
        )
        save_network(network, after)
        return before, after

    def test_detects_change(self, capsys, tmp_path):
        before, after = self._snapshots(tmp_path)
        capsys.readouterr()
        code = main(
            ["diff", "--before", str(before), "--after", str(after),
             "--ingress", "b1"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "changed behavior" in out
        assert "witness" in out

    def test_identical_snapshots_exit_zero(self, capsys, tmp_path):
        before, _ = self._snapshots(tmp_path)
        code = main(
            ["diff", "--before", str(before), "--after", str(before),
             "--ingress", "b1"]
        )
        assert code == 0
        assert "no behavior changes" in capsys.readouterr().out

    def test_unknown_ingress(self, tmp_path, capsys):
        before, after = self._snapshots(tmp_path)
        code = main(
            ["diff", "--before", str(before), "--after", str(after),
             "--ingress", "nope"]
        )
        assert code == 2
        assert "unknown ingress box" in capsys.readouterr().err


class TestStatsMemory:
    def test_memory_breakdown(self, capsys):
        assert main(["stats", "--dataset", "toy", "--memory"]) == 0
        out = capsys.readouterr().out
        assert "memory breakdown" in out
        assert "atom BDD nodes" in out


class TestErrorSurfaces:
    """Operational failures exit non-zero with one line, no traceback."""

    def test_missing_snapshot_path(self, capsys):
        code = main(
            ["query", "--snapshot", "/no/such/file.json",
             "--dst-ip", "10.0.0.1", "--ingress", "b1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read snapshot")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_malformed_snapshot_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("this is not a snapshot")
        assert main(["stats", "--snapshot", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed snapshot")
        assert "Traceback" not in err

    def test_missing_diff_snapshot(self, capsys, tmp_path):
        missing = tmp_path / "absent.json"
        code = main(
            ["diff", "--before", str(missing), "--after", str(missing),
             "--ingress", "b1"]
        )
        assert code == 2
        assert "cannot read snapshot" in capsys.readouterr().err


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--dataset", "toy"])
        assert args.func.__name__ == "_cmd_serve"
        assert args.overflow == "wait"
        assert args.port == 0

    def test_bad_overflow_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--overflow", "bogus"])

    def test_negative_delay_rejected(self, capsys):
        assert main(["serve", "--dataset", "toy", "--max-delay-ms", "-1"]) == 2
        assert "max-delay-ms" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_strategy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--strategy", "bogus", "stats"])


class TestSaveLoad:
    def test_save_artifact_then_query_via_artifact_flag(self, capsys, tmp_path):
        out = tmp_path / "toy.apc"
        assert main(["save", "--dataset", "toy", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "wrote artifact classifier" in stdout
        assert out.stat().st_size > 0
        code = main(
            [
                "query",
                "--artifact",
                str(out),
                "--dst-ip",
                "10.2.0.1",
                "--ingress",
                "b1",
            ]
        )
        assert code == 0
        assert "b1 -> b2 -> h2" in capsys.readouterr().out

    def test_old_json_classifier_refused(self, capsys, tmp_path):
        """Classifiers persist only as artifacts: a classifier JSON
        snapshot from an older build fails with one line, and the
        `save --format json` choice is gone."""
        from repro.network.serialize import network_to_json

        old = tmp_path / "toy.json"
        old.write_text(json.dumps({
            "version": 2,
            "strategy": "oapt",
            "network": json.loads(network_to_json(toy_network())),
            "predicates": [],
            "atom_ids": [],
            "image": [0, [], []],
            "tree": [],
        }))
        for argv in (
            ["load", str(old)],
            ["load", str(old), "--deep-verify"],
            ["query", "--artifact", str(old), "--dst-ip", "10.2.0.1",
             "--ingress", "b1"],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "not a repro artifact" in err
            assert "Traceback" not in err
        with pytest.raises(SystemExit):
            main(["save", "--dataset", "toy", "--format", "json",
                  "--out", str(tmp_path / "x.json")])

    def test_load_artifact_summary_and_deep_verify(self, capsys, tmp_path):
        out = tmp_path / "toy.apc"
        main(["save", "--dataset", "toy", "--out", str(out)])
        capsys.readouterr()
        assert main(["load", str(out)]) == 0
        assert "persisted classifier" in capsys.readouterr().out
        assert main(["load", str(out), "--deep-verify"]) == 0
        assert "deep" in capsys.readouterr().out

    def test_save_network_format_round_trips(self, capsys, tmp_path):
        out = tmp_path / "toy.net.json"
        assert main(["save", "--dataset", "toy", "--format", "network",
                     "--out", str(out)]) == 0
        assert "snapshot" in capsys.readouterr().out
        assert main(["stats", "--snapshot", str(out)]) == 0

    def test_snapshot_alias_still_works(self, capsys, tmp_path):
        out = tmp_path / "toy.net.json"
        assert main(["snapshot", "--dataset", "toy", "--out", str(out)]) == 0
        assert "wrote toy snapshot" in capsys.readouterr().out

    def test_corrupt_artifact_one_line_error(self, capsys, tmp_path):
        out = tmp_path / "toy.apc"
        main(["save", "--dataset", "toy", "--out", str(out)])
        capsys.readouterr()
        blob = out.read_bytes()
        bad = tmp_path / "bad.apc"
        bad.write_bytes(blob[: len(blob) - 16])
        assert main(["load", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        # The same contract holds when the artifact feeds a query.
        assert main(["query", "--artifact", str(bad), "--dst-ip", "10.2.0.1",
                     "--ingress", "b1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_missing_artifact_path(self, capsys):
        assert main(["stats", "--artifact", "/nonexistent/x.apc"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read")

    def test_serve_workers_flag_parses(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--serve-workers", "4"])
        assert args.serve_workers == 4
        args = parser.parse_args(["serve"])
        assert args.serve_workers is None

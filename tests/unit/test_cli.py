"""Unit tests for the command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import _build_config, _scenario, build_parser, main
from repro.config import MigrationPolicy
from repro.scenario import build_cell

#: Every flag of every subcommand as the parser declared it before the
#: knob flags were generated from the scenario schema.
SNAPSHOT = Path(__file__).parent.parent / "data" / "cli_parser_snapshot.json"


def _flags(parser) -> dict:
    rows = {}
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction,
                               argparse._SubParsersAction)):
            continue
        rows["/".join(action.option_strings) or action.dest] = {
            "type": getattr(action.type, "__name__", action.type),
            "choices": (None if action.choices is None
                        else list(action.choices)),
            "metavar": action.metavar, "nargs": action.nargs}
    return rows


def parser_snapshot(parser, prefix="") -> dict:
    """``{subcommand: {flag: spec}}`` over every (nested) subcommand."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                path = f"{prefix} {name}".strip()
                out[path] = _flags(sub)
                out.update(parser_snapshot(sub, path))
    return out


class TestParser:
    def test_run_defaults(self):
        """Unpassed knob flags leave their keys unset, so the run takes
        the config defaults: adaptive policy at 125%."""
        args = build_parser().parse_args(["run", "ra"])
        assert args.workload == "ra"
        assert _build_config(args).policy.policy is MigrationPolicy.ADAPTIVE
        assert build_cell(_scenario(args)).oversubscription == 1.25

    def test_generated_flags_match_snapshot(self):
        """Each flag keeps its option strings, type, choices, metavar and
        nargs."""
        expected = json.loads(SNAPSHOT.read_text())
        assert parser_snapshot(build_parser()) == expected

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nosuch"])

    def test_figure_ids(self):
        args = build_parser().parse_args(["figure", "fig6"])
        assert args.id == "fig6"

    def test_trace_subcommands(self):
        args = build_parser().parse_args(
            ["trace", "record", "ra", "-o", "out.npz"])
        assert args.trace_cmd == "record"
        args = build_parser().parse_args(
            ["trace", "replay", "-i", "in.npz", "--policy", "always"])
        assert args.policy == "always"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "backprop" in out and "adaptive" in out and "fig6" in out

    def test_run_tiny(self, capsys):
        rc = main(["run", "ra", "--scale", "tiny", "--oversub", "1.25",
                   "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "thrash_migrations" in out
        assert "cycle breakdown" in out

    def test_run_with_histogram(self, capsys):
        rc = main(["run", "fdtd", "--scale", "tiny", "--oversub", "0.8",
                   "--histogram"])
        assert rc == 0
        assert "access histogram" in capsys.readouterr().out

    def test_run_with_options(self, capsys):
        rc = main(["run", "ra", "--scale", "tiny", "--policy", "always",
                   "--evict", "64kb", "--prefetcher", "sequential",
                   "--prefetch-degree", "2", "--ts", "16"])
        assert rc == 0

    def test_compare(self, capsys):
        rc = main(["compare", "ra", "--scale", "tiny"])
        assert rc == 0
        out = capsys.readouterr().out
        for policy in ("disabled", "always", "oversub", "adaptive"):
            assert policy in out

    def test_compare_honours_sim_flags(self, capsys):
        """Every policy's run takes the prefetcher flag, not just the
        policy knobs."""
        def fault_counts(argv):
            main(["compare", "ra", "--scale", "tiny"] + argv)
            rows = capsys.readouterr().out.splitlines()[3:]
            return {r.split()[0]: int(r.split()[3]) for r in rows}

        tree = fault_counts([])
        unprefetched = fault_counts(["--prefetcher", "none"])
        assert tree.keys() == unprefetched.keys()
        assert all(unprefetched[p] != tree[p] for p in tree)

    def test_figure_table1(self, capsys, tmp_path):
        out_file = tmp_path / "t1.txt"
        rc = main(["figure", "table1", "--out", str(out_file)])
        assert rc == 0
        assert "Tree-based" in out_file.read_text()

    def test_trace_roundtrip(self, capsys, tmp_path):
        trace_file = tmp_path / "ra.npz"
        rc = main(["trace", "record", "ra", "--scale", "tiny",
                   "-o", str(trace_file)])
        assert rc == 0
        assert trace_file.exists()
        rc = main(["trace", "replay", "-i", str(trace_file),
                   "--policy", "adaptive"])
        assert rc == 0
        assert "cycle breakdown" in capsys.readouterr().out

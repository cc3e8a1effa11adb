"""The command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "differential_pair" in out
    assert "ota" in out


def test_optimize_command(capsys):
    assert main(["optimize", "current_source", "--fins", "48",
                 "--bins", "2", "--max-wires", "3"]) == 0
    out = capsys.readouterr().out
    assert "simulations" in out
    assert "cost" in out


def test_flow_command(capsys):
    assert main(["flow", "csamp", "--flavor", "conventional"]) == 0
    out = capsys.readouterr().out
    assert "gain_db" in out


def test_render_command(tmp_path, capsys):
    assert main(
        ["render", "diode_load", "--fins", "48", "--outdir", str(tmp_path)]
    ) == 0
    svgs = list(tmp_path.glob("*.svg"))
    sps = list(tmp_path.glob("*.sp"))
    assert len(svgs) == 1
    assert len(sps) == 1
    assert svgs[0].read_text().startswith("<svg")


def test_unknown_circuit_rejected():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["flow", "nonexistent"])


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_cache_stats_reports_disk_tier(tmp_path, capsys):
    cache_dir = tmp_path / "evalcache"
    assert main(["optimize", "current_source", "--fins", "48",
                 "--bins", "2", "--max-wires", "3", "--jobs", "1",
                 "--cache-dir", str(cache_dir)]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    payload = json.loads(capsys.readouterr().out)
    entries = sorted(cache_dir.glob("*.json"))
    assert entries
    assert payload == {
        "evalcache": {
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "dir": str(cache_dir),
        }
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["cache", "export"],
        ["cache", "stats", "--corpus", "corpus.jsonl"],
        ["optimize", "differential_pair", "--surrogate"],
        ["optimize", "differential_pair", "--no-surrogate"],
        ["optimize", "differential_pair", "--surrogate-topk", "4"],
        ["flow", "ota", "--explore", "2"],
        ["profile", "ota", "--surrogate-corpus", "corpus.jsonl"],
    ],
    ids=" ".join,
)
def test_removed_pruning_options_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2
    assert "error:" in capsys.readouterr().err

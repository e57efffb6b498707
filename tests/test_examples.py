"""Smoke runs of the scripts under ``examples/``."""

from __future__ import annotations

import pathlib
import runpy
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def test_trace_and_encodings_replays_on_both_cores(
    tmp_path, monkeypatch, capsys
):
    """The example picks each core per replay call and reproduces the
    recorded per-link BT ledger on both."""
    out = tmp_path / "run.trace.gz"
    script = EXAMPLES / "trace_and_encodings.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--out", str(out)])
    runpy.run_path(str(script), run_name="__main__")
    text = capsys.readouterr().out
    assert out.exists()
    assert "reloaded intact: True" in text
    for core in ("event", "stepped"):
        assert (
            f"through the {core} core: per-link BT ledger reproduced "
            "bit-exactly: True"
        ) in text

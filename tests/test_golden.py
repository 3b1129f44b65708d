"""Report bytes and exit codes pinned by committed golden files.

Each case in ``golden/manifest.json`` is one CLI command; ``OUT`` in its
argv is replaced by a temporary path whose contents must equal the golden
file byte for byte.  The goldens were written before the prime-sum pass was
unified, so any refactor of the numeric paths must keep every byte.  Floats
go through the platform libm, so the files pin binary64 behaviour of the
machine they were made on (x86-64 Linux, CPython 3.11).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from psiverify.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["golden"] for c in CASES])
def test_golden_bytes(case, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("PSIVERIFY_CACHE_DIR", raising=False)
    monkeypatch.delenv("PSIVERIFY_CONFIG", raising=False)
    out = tmp_path / case["golden"]
    code = main([str(out) if a == "OUT" else a for a in case["argv"]])
    capsys.readouterr()
    assert code == case["exit"]
    assert out.read_bytes() == (GOLDEN / case["golden"]).read_bytes()

"""Report bytes and exit codes pinned by committed golden files.

Each case in ``golden/manifest.json`` is one CLI command; ``OUT`` in its
argv is replaced by a temporary path whose contents must equal the golden
file byte for byte.  ``CACHE`` is replaced by an empty per-case cache
directory, and such a case runs twice: cold, when the command sieves and
writes the cache, then warm, when it loads it.  Both runs must produce the
golden bytes, which were written without a cache.  A case's ``id`` names it
when its golden file is shared with another case.  Floats go through the
platform libm, so the files pin binary64 behaviour of the machine they were
made on (x86-64 Linux, CPython 3.11).

The goldens were first written before the prime-sum pass was unified, and
refactors of the numeric paths kept every byte.  They were regenerated once
since, in a commit that touches only ``golden/``, when the prefix sums
became exact integer sums: the radii shrank by the dropped accumulator
factor 1/(1 + 2^-20), and the bound reports gained ``escalated_at``.  Every
value, verdict and exit code stayed the same.  The two ``verify`` goldens
were regenerated once more when ``upper`` (c) lost its monotone steps: they
lost exactly ``config.escalate`` and ``upper.details.c.monotone_checked_at``;
no other value moved, and every other golden kept its bytes.  To
regenerate, run

    PYTHONPATH=src python tests/test_golden.py --regenerate

which reruns each case without an ``id`` through ``cli.main``, uncached,
and rewrites its golden file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from psiverify.cli import main
from psiverify.primes import CACHE_FILENAME

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c.get("id", c["golden"]) for c in CASES])
def test_golden_bytes(case, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("PSIVERIFY_CACHE_DIR", raising=False)
    monkeypatch.delenv("PSIVERIFY_CONFIG", raising=False)
    out = tmp_path / case["golden"]
    cache = tmp_path / "cache"
    places = {"OUT": str(out), "CACHE": str(cache)}
    argv = [places.get(a, a) for a in case["argv"]]
    for run in ("cold", "warm") if "CACHE" in case["argv"] else ("uncached",):
        if run == "warm":
            assert (cache / CACHE_FILENAME).is_file()
        out.unlink(missing_ok=True)
        code = main(argv)
        capsys.readouterr()
        assert code == case["exit"], run
        assert out.read_bytes() == (GOLDEN / case["golden"]).read_bytes(), run


def regenerate() -> None:
    """Rewrite each golden file from an uncached run of its case."""
    os.environ.pop("PSIVERIFY_CACHE_DIR", None)
    os.environ.pop("PSIVERIFY_CONFIG", None)
    for case in CASES:
        if "id" in case:  # shares its golden with a case that writes it
            continue
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / case["golden"]
            code = main([str(out) if a == "OUT" else a for a in case["argv"]])
            if code != case["exit"]:
                raise SystemExit(f"{case['golden']}: exit code {code}, the manifest says {case['exit']}")
            shutil.copyfile(out, GOLDEN / case["golden"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: python tests/test_golden.py --regenerate")
    regenerate()

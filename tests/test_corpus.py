"""Byte-identity on the determinism corpus: every command and library route
listed in ``data/rebuild_corpus.py`` still gives the outputs stored in
``data/corpus.jsonl`` (``wall_time_ms`` dropped).  A change that moves an
output on purpose rebuilds the file with that script in the same commit."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).parent / "data"


def _load_rebuild_script():
    spec = importlib.util.spec_from_file_location(
        "rebuild_corpus", DATA / "rebuild_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_replays_byte_identical(tmp_path, monkeypatch):
    stored = (DATA / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    monkeypatch.chdir(tmp_path)
    replayed = _load_rebuild_script().replay()
    assert len(replayed) == len(stored)
    for want, got in zip(stored, replayed):
        entry = json.loads(want)
        assert got == want, entry.get("argv") or [entry["call"], entry["graph"], entry["k"]]

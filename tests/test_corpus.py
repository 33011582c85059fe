"""Byte-identity on the two committed replays in ``data/``.

* The determinism corpus: every command and library route listed in
  ``data/rebuild_corpus.py`` still gives the outputs stored in
  ``data/corpus.jsonl`` (``wall_time_ms`` dropped).
* The quality ledger: every (graph, k) listed in ``data/rebuild_quality.py``
  still gives the optimum and per-algorithm edge counts stored in
  ``data/quality.jsonl``.

A change that moves an output on purpose rebuilds the file with its script
in the same commit."""

from __future__ import annotations

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

from densek.graph import gnp_graph
from helpers import best_edges_by_size

DATA = Path(__file__).parent / "data"


def _load_rebuild_script(file_name: str):
    spec = importlib.util.spec_from_file_location(file_name[:-3], DATA / file_name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_replays_byte_identical(tmp_path, monkeypatch):
    stored = (DATA / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    monkeypatch.chdir(tmp_path)
    replayed = _load_rebuild_script("rebuild_corpus.py").replay()
    assert len(replayed) == len(stored)
    for want, got in zip(stored, replayed):
        entry = json.loads(want)
        assert got == want, entry.get("argv") or [entry["call"], entry["graph"], entry["k"]]


def test_oracle_envelope_regression():
    # The ledger replays byte for byte.  On its five envelope graphs
    # G(12, p) the combined suite's worst ratio to the optimum is exactly
    # 4/5 (seed 1, k=7), and no ratio falls below 1/12.  The first 50 graphs
    # of the same family bottom out at that same 4/5, so the minimum over
    # these five is sharp.
    script = _load_rebuild_script("rebuild_quality.py")
    stored = (DATA / "quality.jsonl").read_text(encoding="utf-8").splitlines()
    replayed = script.replay()
    assert replayed == stored

    ledger = [json.loads(line) for line in replayed]
    envelope = [entry for entry in ledger if entry["n"] == 12]
    assert len(envelope) == 12 * script.ENVELOPE_GRAPHS
    profiles = {}
    worst = Fraction(2)
    for entry in envelope:
        key = (entry["n"], entry["p"], entry["seed"])
        if key not in profiles:
            profiles[key] = best_edges_by_size(gnp_graph(*key))
        assert entry["opt"] == profiles[key][entry["k"]]
        if entry["opt"] == 0:
            continue
        ratio = Fraction(entry["best"], entry["opt"])
        assert ratio >= Fraction(1, 12)
        worst = min(worst, ratio)
    assert worst == Fraction(4, 5)

"""Every pinned CSV keeps its bytes (see rewrite_digests)."""

import json
import os

from graphamp import engine

from rewrite_digests import (ROOT, RUNS, all_digests, digest_key, moved, pinned,
                             run_digests, run_outputs)


def test_pinned_outputs_keep_their_bytes():
    key = digest_key()
    table = pinned().get(key)
    assert table, (f"tests/digests.json has no digests for {key!r}; write them "
                   "with `PYTHONPATH=src python tests/rewrite_digests.py`")
    assert moved(table, all_digests()) == []


def test_moved_names_every_added_changed_and_removed_digest():
    old = {"a/x.csv": "1", "b/x.csv": "2", "c/x.csv": "3"}
    new = {"a/x.csv": "1", "b/x.csv": "9", "d/x.csv": "4"}
    assert moved(old, new) == ["changed: b/x.csv", "removed: c/x.csv", "added: d/x.csv"]


def test_one_changed_seed_changes_a_digest():
    command, path = RUNS["spiked_small"]
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        cfg = json.load(fh)
    before = run_outputs("spiked_small", command, cfg)
    cfg["amp_seeds"][1] += 1
    after = run_outputs("spiked_small", command, cfg)
    name = "spiked_small/trajectory.csv"
    # the config hash on the first line changes too; so do the rows
    assert after[name].split(b"\n")[1:] != before[name].split(b"\n")[1:]
    assert run_digests("spiked_small", command, cfg)[name] != pinned()[digest_key()][name]


def test_a_rounding_change_in_the_onsager_term_changes_a_digest(monkeypatch):
    onsager = engine.onsager
    monkeypatch.setattr(engine, "onsager",
                        lambda *args: onsager(*args) * (1.0 + 1e-12))
    name = "spiked_small/trajectory.csv"
    got = run_digests("spiked_small", *RUNS["spiked_small"])
    assert got[name] != pinned()[digest_key()][name]

"""The energy ledger (``ledger.py``): the pinned results still hold,
and a moved one fails by name."""

import copy
import json

import ledger


def test_ledger_holds():
    pinned = json.loads(ledger.LEDGER.read_text())
    lines, ok = ledger.compare(pinned, ledger.measure())
    assert ok, "before -> after per configuration:\n" + "\n".join(lines)


def test_ledger_names_what_moved():
    pinned = json.loads(ledger.LEDGER.read_text())
    assert ledger.compare(pinned, copy.deepcopy(pinned)) == (
        [f"{name}: ok" for name in sorted(pinned)], True)
    for config, field, move in (
            ("burgers_shock", "energy", lambda e: e * (1 + 1e-10)),
            ("test_02_wall_64x64", "L_star", lambda L: L * (1 - 1e-10)),
            ("micromag_wall", "iterations", lambda n: n + 1)):
        moved = copy.deepcopy(pinned)
        before = pinned[config][0][field]
        after = moved[config][0][field] = move(before)
        lines, ok = ledger.compare(pinned, moved)
        assert not ok
        assert [line for line in lines if not line.endswith(": ok")] == [
            f"{config}: [0] {field} {before!r} -> {after!r}"]

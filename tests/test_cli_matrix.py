import json

import cli_matrix


def test_cli_matrix_matches_golden(monkeypatch):
    """Every run of ``cli_matrix.py`` keeps its exit code, stderr and stdout
    digest from ``golden/cli_matrix.json``; the failure names each run that
    moved. After a deliberate change, ``python tests/cli_matrix.py --update``
    rewrites the golden, and CHANGES.md says which runs moved and why."""
    monkeypatch.delenv("CURVLAB_SEED", raising=False)
    golden = json.loads(cli_matrix.MATRIX_GOLDEN.read_text(encoding="utf-8"))
    now = [cli_matrix.digest(r) for r in cli_matrix.runs()]
    moved = [" ".join(n["argv"]) + f" (exit {g['exit']} -> {n['exit']})"
             for g, n in zip(golden, now) if g != n]
    assert [g["argv"] for g in golden] == [n["argv"] for n in now], "the matrix's runs changed"
    assert not moved, f"{len(moved)} runs differ from the golden:\n" + "\n".join(moved)

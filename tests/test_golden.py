"""Golden digests: one small config per experiment kind must pass its checks and reproduce stored results.csv bytes.

tests/golden/digests.json holds the SHA-256 of results.csv of every
golden config, tests/golden/<name>.yaml, run with --check.
tests/golden/list.json holds `bergman-zeros list --json`: the config
keys, types and defaults live in the driver signatures, so editing one
changes it.  A change that moves a digest or a listing line changes
program output: it is declared as such and re-baselined in the same
change, never silently.  CHANGES.md records every re-baseline and the
cells it moved.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bergman_zeros.cli import main

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_results_csv_digest(name, tmp_path, capsys):
    out = tmp_path / name
    code = main(["run", str(GOLDEN / f"{name}.yaml"), "--out", str(out), "--check"])
    assert code == 0, f"golden config '{name}' exited {code}"
    capsys.readouterr()
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == DIGESTS[name], f"results.csv of golden config '{name}' changed"


def test_listing_bytes(capsys):
    assert main(["list", "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "list.json").read_text(encoding="utf-8")

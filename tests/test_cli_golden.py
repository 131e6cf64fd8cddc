"""Golden CLI outputs: the `outputs` block of the report document, and the CSV
text where the command writes one, must match tests/golden/cli_outputs.json
byte for byte.

Regenerate the file (only when an output change is intended) with
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from planepart import cli

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"

CASES = [
    ["exact", "750"],
    ["estimate", "50", "--with-exact"],
    ["estimate", "107", "--with-exact"],
    ["estimate", "300", "--kappa2", "0"],
    ["phi", "500", "1"],
    ["phi", "500", "2"],
    ["phi", "500", "3"],
    ["dedekind", "7", "100"],
    ["dedekind", "0", "1"],
    ["dedekind", "1", "2"],
    ["--digits", "120", "dedekind", "1", "2"],
    ["--digits", "30", "dedekind", "13", "97"],
    ["--digits", "30", "constants"],
    ["--digits", "400", "constants"],
    ["scan-bmin", "--k-list", "p:2-60"],
]


def run_case(argv: list[str], workdir: Path) -> dict:
    """The outputs block and the CSV text (None without one) of one command."""
    doc_path, csv_path = workdir / "doc.json", workdir / "rows.csv"
    csv_path.unlink(missing_ok=True)
    code = cli.main(["--quiet", "--json", str(doc_path), "--csv", str(csv_path),
                     *argv])
    assert code == 0, argv
    outputs = json.loads(doc_path.read_text())["outputs"]
    csv_text = csv_path.read_text() if csv_path.exists() else None
    return {"outputs": outputs, "csv": csv_text}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(c) for c in CASES])
def test_matches_golden(argv, golden, tmp_path):
    expected = golden[" ".join(argv)]
    got = run_case(argv, tmp_path)
    assert json.dumps(got["outputs"], sort_keys=True) == \
        json.dumps(expected["outputs"], sort_keys=True)
    assert got["csv"] == expected["csv"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {" ".join(c): run_case(c, Path(tmp)) for c in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.exit(0)

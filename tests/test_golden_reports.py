"""Golden reports: small CLI runs whose every written file must match the
checked-in copy under ``tests/golden/<case>/expected/`` byte for byte.

Each case directory holds the run's ``config.json`` (the demo needs none)
and the files the run is expected to write.  The expected files are
regenerated only on purpose, when a report format changes:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import filecmp
import shutil
from pathlib import Path

import pytest

from ifmkit.cli import EXIT_OK, EXIT_VIOLATIONS, main

GOLDEN = Path(__file__).parent / "golden"

# case -> (CLI argv before --out, expected exit code)
CASES = {
    "audit_pass": (["audit", "--config"], EXIT_OK),
    "audit_crisp_fail": (["audit", "--config"], EXIT_VIOLATIONS),
    "contract_psi_phi_identity": (["contract", "--config"], EXIT_VIOLATIONS),
    "contract_k_halving": (["contract", "--config"], EXIT_VIOLATIONS),
    "contract_line12_table": (["contract", "--config"], EXIT_VIOLATIONS),
    "solve_halving": (["solve", "--config"], EXIT_OK),
    "demo": (["demo", "--seed", "0"], EXIT_OK),
}


def _run(case: str, out: Path) -> int:
    argv, _ = CASES[case]
    if argv[-1] == "--config":
        argv = argv + [str(GOLDEN / case / "config.json")]
    return main(argv + ["--out", str(out)])


def _files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


@pytest.mark.parametrize("case", sorted(CASES))
def test_reports_match_golden(case, tmp_path, capsys):
    assert _run(case, tmp_path) == CASES[case][1]
    expected = GOLDEN / case / "expected"
    written = _files(tmp_path)
    assert written == _files(expected)
    for name in written:
        assert filecmp.cmp(tmp_path / name, expected / name, shallow=False), name


def regenerate() -> None:
    for case in CASES:
        expected = GOLDEN / case / "expected"
        shutil.rmtree(expected, ignore_errors=True)
        print(case, _run(case, expected))


if __name__ == "__main__":
    regenerate()

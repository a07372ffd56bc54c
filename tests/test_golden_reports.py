"""Golden reports: small CLI runs whose every written file must match the
checked-in copy under ``tests/golden/<case>/expected/`` byte for byte.

Each case directory holds the run's ``config.json`` (the demo needs none)
and the files the run is expected to write.  ``tests/golden/norm_reports.json``
pins the norm-axiom and control-pair probes the same way: the JSON of
`check_norm_axioms` for the built-in norms and failing custom ones at
several sample counts, and of `check_admissible` for k-derived and custom
pairs at several grid sizes.  The expected files are regenerated only on
purpose, when a report format changes:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import filecmp
import json
import math
import shutil
from pathlib import Path

import pytest

from ifmkit import PsiPhiPair, TConorm, TNorm, check_admissible, check_norm_axioms, pair_from_k
from ifmkit.cli import EXIT_NOT_UNIQUE, EXIT_OK, EXIT_VIOLATIONS, main

GOLDEN = Path(__file__).parent / "golden"

# case -> (CLI argv before --out, expected exit code)
CASES = {
    "audit_pass": (["audit", "--config"], EXIT_OK),
    "audit_crisp_fail": (["audit", "--config"], EXIT_VIOLATIONS),
    "contract_psi_phi_identity": (["contract", "--config"], EXIT_VIOLATIONS),
    "contract_k_halving": (["contract", "--config"], EXIT_VIOLATIONS),
    "contract_line12_table": (["contract", "--config"], EXIT_VIOLATIONS),
    # a user-given metric on five labelled points, irregular distances: the
    # table map's witnesses shrink through the standard space's scalar grades
    "contract_finite5_table": (["contract", "--config"], EXIT_VIOLATIONS),
    "solve_halving": (["solve", "--config"], EXIT_OK),
    # table map with fixed points 0, 5 and 11, solved from every point:
    # 66 limit pairs, 39 of them beyond point_tol, so the ten-witness cap applies
    "solve_line12_all_seeds": (["solve", "--config"], EXIT_NOT_UNIQUE),
    # the same map and metric from every point: fixed points e and b, 0.6 apart
    "solve_finite5_all_seeds": (["solve", "--config"], EXIT_NOT_UNIQUE),
    # line(30) of diameter 1e5, whose metric rounds past the triangle
    # tolerance: floor-half from every point reaches 0
    "solve_line30_wide": (["solve", "--config"], EXIT_OK),
    # scale(-0.5) on [-1000, 1000]: alternating signs, x_n >= 10 with a
    # fraction (the "." after digit E >= 1) and e-XX fields in the traces
    "solve_wide_interval": (["solve", "--config"], EXIT_OK),
    # scale(0.8) on [0, 1]: seed 1.0 stops at step 95, in the third Picard
    # block (steps 49-112); the subnormal and zero seeds stop at step 1
    "solve_scale_blocks": (["solve", "--config"], EXIT_OK),
    # affine_clamped(0.9, 0.05) on [0, 1] with cauchy_window 8: the seeds stop
    # at steps 191, 191 and 185, in the fourth Picard block (steps 113-240),
    # so the stopping window crosses a block edge
    "solve_affine_window8": (["solve", "--config"], EXIT_OK),
    # the crisp contract grades dead antecedents (the masked control calls),
    # and the finite scenario runs the orbit engine; CI diffs `ifmkit demo` too
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


def test_every_report_is_json_dumps_indent_2():
    reports = sorted(GOLDEN.glob("*/expected/**/*.json"))
    assert len(reports) > len(CASES)
    for path in reports:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", path


# Custom operations, each failing the axioms noted beside it
CUSTOM_OPS = {
    "sum": TConorm.custom(lambda a, b: a + b),                            # range
    "nan": TNorm.custom(lambda a, b: math.nan),                           # NaN results
    "mean": TNorm.custom(lambda a, b: (a + b) / 2),                       # identity
    "skewed": TNorm.custom(lambda a, b: a * b * b),                       # commutativity
    "anti": TNorm.custom(lambda a, b: 1.0 - a * b),                       # monotonicity
    "step": TConorm.custom(lambda a, b: 1.0 if a + b > 1.0 else 0.0),    # continuity
}

CUSTOM_PAIRS = {
    # psi is the identity outside a notch around 0.5, so its nearest
    # failing points lie on both sides of 0.5; phi is not strict up to 0.4
    # and jumps there
    "notch-jump": PsiPhiPair(lambda s: s / 2 if abs(s - 0.5) < 0.05 else s,
                             lambda s: 0.5 + s / 2 if s > 0.4 else s),
    # out of range at both ends, NaN at the midpoint
    "shifted-nan": PsiPhiPair(lambda s: math.nan if s == 0.5 else s - 0.2,
                              lambda s: s + 0.5),
}


def probe_reports() -> str:
    """The JSON of the norm-axiom and admissibility probes pinned in
    ``norm_reports.json``."""
    ops = {op.kind: op for op in (*map(TNorm, TNorm.BUILTINS), *map(TConorm, TConorm.BUILTINS))}
    ops.update(CUSTOM_OPS)
    norms = [{"op": name, "sample_count": n, "seed": seed,
              "report": check_norm_axioms(op, n, seed).to_dict()}
             for name, op in ops.items()
             for seed, n in enumerate((1, 5, 9, 200, 2000))]
    pairs = {"from_k(0.01)": pair_from_k(0.01), "from_k(0.5)": pair_from_k(0.5), **CUSTOM_PAIRS}
    admissibility = [{"pair": name, "grid_size": g, "report": check_admissible(pair, g).to_dict()}
                     for name, pair in pairs.items() for g in (2, 11, 101)]
    return json.dumps({"norms": norms, "admissibility": admissibility}, indent=1) + "\n"


def test_probe_reports_match_golden():
    assert probe_reports() == (GOLDEN / "norm_reports.json").read_text()


def regenerate() -> None:
    for case in CASES:
        expected = GOLDEN / case / "expected"
        shutil.rmtree(expected, ignore_errors=True)
        print(case, _run(case, expected))
    (GOLDEN / "norm_reports.json").write_text(probe_reports())


if __name__ == "__main__":
    regenerate()

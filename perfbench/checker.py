"""Report checker: analytic verdicts per command and report digests across
repetitions.

A command fails when it raises, exits outside the documented codes
{0, 3, 4, 5}, writes reports that differ byte for byte from its reports in
the first repetition, or reaches a verdict that contradicts the table below.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DOCUMENTED_EXIT_CODES = frozenset({0, 3, 4, 5})
FIXED_POINT_TOL = 1e-6


def _report(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text())


def _audit_passes(na_status: str) -> Callable[[Path], str | None]:
    def check(out_dir):
        report = _report(out_dir, "audit.json")
        if not report["passed"]:
            return f"audit failed axioms {report['failing_axioms']}"
        na = {c["axiom"]: c["status"] for c in report["checks"]
              if c["axiom"] in ("na-mu", "na-nu")}
        if set(na.values()) != {na_status}:
            return f"expected na rows {na_status}, got {na}"
        return None
    return check


def _contract(passed: bool, witnesses: int | None = None) -> Callable[[Path], str | None]:
    def check(out_dir):
        report = _report(out_dir, "contract.json")
        if report["passed"] != passed:
            return f"contract passed={report['passed']}, expected {passed}"
        if witnesses is not None and len(report["witnesses"]) != witnesses:
            return f"{len(report['witnesses'])} witnesses, expected {witnesses}"
        return None
    return check


def _fixed_point_near(target: float) -> Callable[[Path], str | None]:
    def check(out_dir):
        fp = _report(out_dir, "solve.json")["fixed_point"]
        if fp is None or abs(fp - target) > FIXED_POINT_TOL:
            return f"fixed point {fp!r}, expected within {FIXED_POINT_TOL} of {target}"
        return None
    return check


def _fixed_point_label(label: str) -> Callable[[Path], str | None]:
    def check(out_dir):
        fp = _report(out_dir, "solve.json")["fixed_point"]
        return None if fp == label else f"fixed point {fp!r}, expected {label!r}"
    return check


def _demo_complete(out_dir: Path) -> str | None:
    for scenario in ("standard_halving", "crisp_space", "finite_edelstein"):
        if not (out_dir / scenario).is_dir():
            return f"demo scenario {scenario} wrote nothing"
    return None


def _determinism_only(out_dir: Path) -> str | None:
    return None


@dataclass(frozen=True)
class Verdict:
    exit_codes: frozenset
    check: Callable[[Path], str | None]
    note: str = ""


EXPECTED = {
    "audit-product": Verdict(frozenset({0}), _audit_passes("PASS"),
                             "non-Archimedean, na rows run"),
    "audit-lukasiewicz": Verdict(frozenset({0}), _audit_passes("SKIPPED"),
                                 "Archimedean, na rows skipped"),
    "contract-halving": Verdict(frozenset({0}), _contract(True), "pure scan"),
    "contract-identity": Verdict(frozenset({3}), _contract(False, witnesses=10),
                                 "10 witnesses through the shrinker"),
    "contract-k": Verdict(frozenset({3}), _contract(False),
                          "reciprocal-gap mu side fails for k=0.4 < 1/2"),
    "solve-scale": Verdict(frozenset({0}), _fixed_point_near(0.0), "|x*| <= 1e-6"),
    # The unique fixed point is 0.5, so the analytic exit code is 0.  The seed
    # code exits 5 ("limits disagree"): all three limits are within 5e-8 of
    # 0.5, but the window-Cauchy stopping rule stops before point_tol = 1e-8
    # is met.  Both codes are accepted and the observed one is reported.
    "solve-affine": Verdict(frozenset({0, 5}), _fixed_point_near(0.5),
                            "exit 5 is the known early-stop defect, not a failure"),
    "line-audit": Verdict(frozenset({0}), _audit_passes("PASS"), "exhaustive"),
    "line-contract": Verdict(frozenset({0, 3}), _determinism_only,
                             "verdict checked for determinism only"),
    "line-solve": Verdict(frozenset({0}), _fixed_point_label("0"), "chain map to 0"),
    "demo": Verdict(frozenset({0}), _demo_complete),
}


def digest(out_dir: Path) -> str:
    """SHA-256 over every file under ``out_dir``: relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


class Checker:
    """Judges each command run; the first repetition fixes the reference
    digests that later repetitions must reproduce."""

    def __init__(self):
        self.reference: dict[str, str] = {}
        self.observed_exits: dict[str, set] = {}
        self.attempted = 0
        self.failures: list[str] = []  # failed commands
        self.errors: list[str] = []    # run-level problems, such as unrepeatable counts

    def judge(self, command, exit_code, error) -> str | None:
        self.attempted += 1
        reason = self._reason(command, exit_code, error)
        if reason is not None:
            self.failures.append(f"{command.name}: {reason}")
        return reason

    def _reason(self, command, exit_code, error) -> str | None:
        if error is not None:
            return f"raised {error!r}"
        self.observed_exits.setdefault(command.name, set()).add(exit_code)
        if exit_code not in DOCUMENTED_EXIT_CODES:
            return f"exit code {exit_code} outside {sorted(DOCUMENTED_EXIT_CODES)}"
        verdict = EXPECTED[command.name]
        if exit_code not in verdict.exit_codes:
            return f"exit code {exit_code}, expected {sorted(verdict.exit_codes)}"
        found = digest(command.out_dir)
        expected = self.reference.setdefault(command.name, found)
        if found != expected:
            return "reports differ from the first repetition"
        try:
            return verdict.check(command.out_dir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc!r}"

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.failures and not self.errors

"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import filecmp
import itertools
import json
import time

import numpy as np

from ifmkit import (
    EXHAUSTIVE,
    RANDOM,
    FiniteDomain,
    IntervalDomain,
    SamplerConfig,
    SelfMap,
    SolverConfig,
    TConorm,
    TNorm,
    audit_space,
    check_k_contractive,
    check_norm_axioms,
    check_joint_continuity,
    check_psi_phi_contractive,
    crisp_threshold_space,
    detect_m_cauchy,
    dual_of,
    edelstein_solve,
    eval_mu,
    eval_nu,
    pair_from_k,
    phi_from_k,
    psi_from_k,
    solve_fixed_point,
    standard_space,
)
from ifmkit.auditor import violation_margin
from ifmkit.cli import EXIT_NO_CONVERGENCE, main
from ifmkit.spaces import IFSpace, NON_ARCHIMEDEAN

TOL = 1e-12


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def _unit_space():
    return standard_space(IntervalDomain(0.0, 1.0), TNorm.product(),
                          TConorm.probabilistic_sum())


def test_criterion_1_norm_algebra():
    """Built-in norm/conorm axioms on 10^4 seeded samples, exact duality."""
    pairs = [
        (TNorm.product(), TConorm.probabilistic_sum()),
        (TNorm.minimum(), TConorm.maximum()),
        (TNorm.lukasiewicz(), TConorm.bounded_sum()),
    ]
    t0 = time.perf_counter()
    ok = True
    for norm, conorm in pairs:
        for op in (norm, conorm):
            report = check_norm_axioms(op, 10_000, seed=2026)
            ok &= report.passed
        dual = dual_of(norm)
        ok &= dual.kind == conorm.kind
        rng = np.random.default_rng(2026)
        for a, b in rng.random((10_000, 2)).tolist():
            if abs(dual.fn(a, b) - (1.0 - norm.fn(1.0 - a, 1.0 - b))) > TOL:
                ok = False
                break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(1, ok, f"3 builtin pairs, 10^4 samples each, duality within 1e-12, "
                   f"{elapsed:.2f}s < 1s")


def test_criterion_2_standard_space_audit():
    """Zero violations of all eleven axioms plus both strong-triangle
    bounds on the standard space over [0,1]."""
    space = _unit_space()
    sampler = SamplerConfig(RANDOM, 10_000, (0.1, 1.0, 10.0), seed=2026)
    t0 = time.perf_counter()
    report = audit_space(space, sampler)
    elapsed = time.perf_counter() - t0
    violations = sum(c.violation_count for c in report.checks)
    statuses = {c.axiom: c.status for c in report.checks}
    ok = (
        violations == 0
        and report.passed
        and statuses["na-mu"] == "PASS"
        and statuses["na-nu"] == "PASS"
        and elapsed < 2.0
    )
    _report(2, ok, f"10^4 samples, t grid (0.1, 1, 10): {violations} violations, "
                   f"strong-triangle rows PASS, {elapsed:.2f}s < 2s")


def test_criterion_3_crisp_space_fidelity():
    """The crisp threshold space fails exactly strict positivity of mu at
    t <= 1, and every sampled table map is psi-phi contractive on it."""
    domain = FiniteDomain.line(5)
    crisp = crisp_threshold_space(domain, TNorm.minimum(), TConorm.maximum())
    audit = audit_space(crisp, SamplerConfig(EXHAUSTIVE, 1, (0.5, 2.0), seed=0))
    witness = audit.check("ii").witnesses[0] if audit.check("ii").witnesses else None
    ok = audit.failing_axioms == ["ii"] and witness is not None and witness.t <= 1.0

    sampler = SamplerConfig(EXHAUSTIVE, 1, (0.5, 2.0), seed=0)
    pair = pair_from_k(0.5)
    rng = np.random.default_rng(2026)
    clean_maps = 0
    for _ in range(20):
        table = SelfMap.table(rng.integers(0, 5, 5).tolist())
        if check_psi_phi_contractive(crisp, table, pair, sampler).passed:
            clean_maps += 1
    ok &= clean_maps == 20
    _report(3, ok, f"audit fails only axiom ii (witness t={witness.t}); "
                   f"{clean_maps}/20 random table maps contractive exhaustively")


def test_criterion_4_conversion_from_rate_constant():
    """The halving map under the derived control pair, plus the
    independent grid oracle for both conversion inequalities."""
    k = 0.5
    space = _unit_space()
    sampler = SamplerConfig(RANDOM, 10_000, (0.1, 1.0, 10.0), seed=2026)
    report = check_psi_phi_contractive(space, SelfMap.scale(0.5), pair_from_k(k), sampler)
    ok = report.passed

    psi, phi = psi_from_k(k), phi_from_k(k)
    grid = [i / 201.0 for i in range(1, 201)]  # 200 interior points
    mu_checked = nu_checked = 0
    for u in grid:
        for v in grid:
            # 200 x 200 grid of candidate (grade, image-grade) pairs
            if 1.0 / v - 1.0 <= k * (1.0 / u - 1.0):
                mu_checked += 1
                if psi(v) < u - TOL:
                    ok = False
            if 1.0 / v - 1.0 >= (1.0 / k) * (1.0 / u - 1.0):
                nu_checked += 1
                if phi(v) > u + TOL:
                    ok = False
    ok &= mu_checked > 1000 and nu_checked > 1000
    _report(4, ok, f"halving map: {report.violation_count} violations on 10^4 samples; "
                   f"oracle certified {mu_checked} mu pairs and {nu_checked} nu pairs "
                   f"on the 200x200 grid")


def test_criterion_5_banach_desk_scale():
    """Ten seeded starts of the halving map: tight unique fixed point,
    monotone diagnostics, Cauchy detector fires."""
    space = _unit_space()
    seeds = tuple(np.random.default_rng(2026).uniform(0.05, 1.0, 10).tolist())
    config = SolverConfig(epsilon=1e-8, t_grid=(0.1, 1.0, 10.0), max_iter=10_000,
                          point_tol=1e-8, seeds=seeds)
    t0 = time.perf_counter()
    report = solve_fixed_point(space, SelfMap.scale(0.5), config)
    elapsed = time.perf_counter() - t0
    ok = abs(report.fixed_point) <= 1e-8
    ok &= report.unique
    max_pairwise = report.max_limit_distance
    ok &= max_pairwise <= 2e-8
    for trace in report.traces:
        ok &= trace.stop_reason == "converged"
        for t in config.t_grid:
            mu_d, nu_d = trace.mu_diag[t], trace.nu_diag[t]
            ok &= all(a <= b + TOL for a, b in zip(mu_d, mu_d[1:]))
            ok &= all(a >= b - TOL for a, b in zip(nu_d, nu_d[1:]))
        window = min(config.cauchy_window, len(trace.points))
        ok &= detect_m_cauchy(trace, config.epsilon, config.t_grid[0], window)
    ok &= elapsed < 1.0
    _report(5, ok, f"|x*| = {abs(report.fixed_point):.2e} <= 1e-8, unique over 10 seeds "
                   f"(max pairwise {max_pairwise:.2e} <= 2e-8), diagnostics monotone, "
                   f"Cauchy detector fired, {elapsed:.2f}s < 1s")


def test_criterion_6_edelstein_desk_scale(tmp_path):
    """Exact orbit analysis: halving table, cyclic shift (including the
    CLI exit code), and the exhaustive 4^4 self-map oracle."""
    line = FiniteDomain.line(10)
    space = standard_space(line, TNorm.product(), TConorm.probabilistic_sum())
    config = SolverConfig(epsilon=1e-6, t_grid=(0.1, 1.0, 10.0), max_iter=100,
                          point_tol=0.0, seeds=tuple(range(10)))
    halve = SelfMap.table([i // 2 for i in range(10)])
    report = edelstein_solve(space, halve, config)
    ok = report.fixed_point == 0 and report.cycle_lengths == [1] * 10 and report.unique

    shift_cfg = {
        "schema_version": 1,
        "space": {"construction": "standard", "domain": {"kind": "line", "n": 10},
                  "tnorm": "product", "tconorm": "probabilistic_sum"},
        "map": {"name": "table", "images": [(i + 1) % 10 for i in range(10)]},
        "solver": {"epsilon": 1e-6, "t_grid": [0.1, 1, 10], "max_iter": 100,
                   "point_tol": 0.0, "seeds": list(range(10))},
    }
    cfg_path = tmp_path / "shift.json"
    cfg_path.write_text(json.dumps(shift_cfg))
    exit_code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)])
    shift_report = json.loads((tmp_path / "solve.json").read_text())
    ok &= exit_code == EXIT_NO_CONVERGENCE
    ok &= shift_report["cycle_lengths"] == [10] * 10

    four = standard_space(FiniteDomain.line(4), TNorm.product(),
                          TConorm.probabilistic_sum())
    sampler = SamplerConfig(EXHAUSTIVE, 1, (0.1, 1.0, 10.0), seed=0)
    oracle_cfg = SolverConfig(epsilon=1e-6, t_grid=(0.1, 1.0, 10.0), max_iter=10,
                              point_tol=0.0, seeds=(0, 1, 2, 3))
    pair = pair_from_k(0.5)
    passers = 0
    for images in itertools.product(range(4), repeat=4):
        f = SelfMap.table(images)
        if check_psi_phi_contractive(four, f, pair, sampler).passed:
            passers += 1
            true_fixed = [i for i in range(4) if images[i] == i]
            found = edelstein_solve(four, f, oracle_cfg)
            ok &= len(true_fixed) == 1
            ok &= found.unique and found.fixed_point == true_fixed[0]
    ok &= passers >= 1
    _report(6, ok, f"halving table reaches 0 from all 10 starts; shift cycles of "
                   f"length 10 exit {exit_code}; {passers}/256 maps pass the "
                   f"exhaustive check and each has exactly one fixed point")


def test_criterion_7_joint_continuity():
    """Sequential joint continuity along 1/n and 1 - 1/n."""
    space = _unit_space()
    n_max = 4000
    xs = [1.0 / n for n in range(1, n_max + 1)]
    ys = [1.0 - 1.0 / n for n in range(1, n_max + 1)]
    result = check_joint_continuity(space, xs, ys, 0.0, 1.0, 1.0, 1e-3)
    ok = bool(result) and result.threshold_index is not None
    ok &= result.threshold_index <= 4000
    direct = all(
        abs(space.mu(xs[n - 1], ys[n - 1], 1.0) - 0.5) <= 1.0 / n
        for n in range(1, n_max + 1)
    )
    ok &= direct
    _report(7, ok, f"joint continuity true with threshold index "
                   f"{result.threshold_index} <= 4000; direct gap bound 1/n holds "
                   f"for all n <= {n_max}")


def test_criterion_8_negative_controls():
    """The identity map, an understated rate constant, and an inflated nu
    all fail, each with a witness that re-evaluates as a violation."""
    space = _unit_space()
    sampler = SamplerConfig(RANDOM, 3000, (0.1, 1.0, 10.0), seed=2026)

    pair = pair_from_k(0.5)
    identity_report = check_psi_phi_contractive(space, SelfMap.identity(), pair, sampler)
    ok = not identity_report.passed
    w = identity_report.witnesses[0]
    ok &= abs(w.x - w.y) < 0.05  # shrunk toward each other
    mu_w = float(eval_mu(space, w.x, w.y, w.t))
    nu_w = float(eval_nu(space, w.x, w.y, w.t))
    if w.side == "mu":
        ok &= pair.psi(float(eval_mu(space, w.x, w.y, w.t))) < mu_w - TOL
    else:
        ok &= pair.phi(float(eval_nu(space, w.x, w.y, w.t))) > nu_w + TOL

    k_report = check_k_contractive(space, SelfMap.scale(0.5), 0.4, sampler)
    ok &= not k_report.passed
    kw = k_report.witnesses[0]
    if kw.side == "mu":
        lhs = 1.0 / float(eval_mu(space, 0.5 * kw.x, 0.5 * kw.y, kw.t)) - 1.0
        rhs = 0.4 * (1.0 / float(eval_mu(space, kw.x, kw.y, kw.t)) - 1.0)
        ok &= lhs > rhs
    else:
        lhs = 1.0 / float(eval_nu(space, 0.5 * kw.x, 0.5 * kw.y, kw.t)) - 1.0
        rhs = 2.5 * (1.0 / float(eval_nu(space, kw.x, kw.y, kw.t)) - 1.0)
        ok &= lhs > rhs

    def inflated_nu(x, y, t):
        d = abs(x - y)
        return min(1.2 * d / (t + d), 1.0)

    bad = IFSpace(IntervalDomain(0.0, 1.0), space.mu, inflated_nu, TNorm.product(),
                  TConorm.probabilistic_sum(), NON_ARCHIMEDEAN, name="clamped-nu")
    audit = audit_space(bad, sampler)
    ok &= "i" in audit.failing_axioms
    aw = audit.check("i").witnesses[0]
    violated, _, _ = violation_margin(bad, aw)
    ok &= violated
    total = float(eval_mu(bad, aw.x, aw.y, aw.t)) + float(eval_nu(bad, aw.x, aw.y, aw.t))
    ok &= total > 1.0 + TOL
    _report(8, ok, f"identity map: {identity_report.violation_count} violations with "
                   f"reproducing minimized witness; k=0.4 on the halving map: "
                   f"{k_report.violation_count} violations; inflated nu: axiom i fails "
                   f"(mu+nu = {total:.4f} at the witness)")


def test_criterion_9_demo_reproducibility(tmp_path):
    """Two demo runs with the same seed must be byte-identical."""
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["demo", "--out", str(out1), "--seed", "2026"]) == 0
    assert main(["demo", "--out", str(out2), "--seed", "2026"]) == 0
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    ok = files1 == files2 and len(files1) >= 8
    identical = []
    for rel in files1:
        same = filecmp.cmp(out1 / rel, out2 / rel, shallow=False)
        identical.append(same)
        ok &= same
    _report(9, ok, f"{sum(identical)}/{len(files1)} demo artifacts byte-identical "
                   f"across reruns with the same seed")

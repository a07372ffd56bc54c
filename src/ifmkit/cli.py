"""Command-line front end.

Subcommands:

    audit     check the space axioms, write audit.json        (exit 3 on FAIL)
    contract  check a contraction condition, write contract.json (exit 3)
    solve     run the fixed-point solver, write solve.json + traces
              (exit 4 when nothing converges, 5 when limits disagree
              or some seeds did not converge)
    demo      run the three bundled scenarios deterministically

Configs are JSON with a mandatory top-level "schema_version".  Maps are
restricted to a whitelisted catalogue plus finite tables — configs carry
no executable code.  Any malformed or out-of-range field exits with code 2
and a message naming the field.  The IFM_LOG environment variable selects
log verbosity (debug/info/warning/error).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .auditor import audit_space
from .contraction import (
    PsiPhiPair,
    SelfMap,
    check_k_contractive,
    check_psi_phi_contractive,
    phi_from_k,
    psi_from_k,
)
from .errors import ConfigError, IfmError, NonConvergenceError
from .norms import TConorm, TNorm
from .sampling import EXHAUSTIVE, RANDOM, SamplerConfig
from .solver import (
    SolverConfig,
    edelstein_solve,
    solve_fixed_point,
    write_trace_csv,
)
from .spaces import (
    FiniteDomain,
    IFSpace,
    IntervalDomain,
    crisp_threshold_space,
    standard_space,
)

log = logging.getLogger("ifmkit")

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATIONS = 3
EXIT_NO_CONVERGENCE = 4
EXIT_NOT_UNIQUE = 5

_TNORM_KINDS = tuple(TNorm.BUILTINS)
_TCONORM_KINDS = tuple(TConorm.BUILTINS)
_MAP_NAMES = ("scale", "affine_clamped", "constant", "identity", "table")
_CONTROL_NAMES = ("from_k", "identity", "power")
# Optional config sections, validated in this order after "space".
_SECTIONS = ("map", "contraction", "sampler", "solver")


def _expect(cfg: dict, key: str, path: str, types, choices=None):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}", "missing required field")
    value = cfg[key]
    if not isinstance(value, types):
        raise ConfigError(f"{path}.{key}", f"expected {types}, got {type(value).__name__}")
    if isinstance(value, bool) and types is not bool:
        raise ConfigError(f"{path}.{key}", "expected a number, got a boolean")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}.{key}", f"must be one of {list(choices)}, got {value!r}")
    return value


def _number(cfg: dict, key: str, path: str, lo=None, hi=None, open_lo=False, open_hi=False,
            default=None):
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError(f"{path}.{key}", "missing required field")
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {type(v).__name__}")
    v = float(v)
    if lo is not None and (v <= lo if open_lo else v < lo):
        bound = f"> {lo}" if open_lo else f">= {lo}"
        raise ConfigError(f"{path}.{key}", f"must be {bound}, got {v}")
    if hi is not None and (v >= hi if open_hi else v > hi):
        bound = f"< {hi}" if open_hi else f"<= {hi}"
        raise ConfigError(f"{path}.{key}", f"must be {bound}, got {v}")
    return v


def _t_grid(cfg: dict, path: str, increasing=False) -> list[float]:
    t_grid = _expect(cfg, "t_grid", path, list)
    # the upper bound rejects inf, and integers too large for a float;
    # NaN fails every comparison
    if not t_grid or any(
        isinstance(t, bool) or not isinstance(t, (int, float))
        or not 0 < t <= sys.float_info.max
        for t in t_grid
    ):
        raise ConfigError(f"{path}.t_grid", "must be a nonempty list of positive finite numbers")
    if increasing and (sorted(t_grid) != t_grid or len(set(t_grid)) != len(t_grid)):
        raise ConfigError(f"{path}.t_grid", "must be strictly increasing")
    return [float(t) for t in t_grid]


class RunConfig:
    """A validated, normalized run configuration.

    Sections beyond ``space`` are optional at parse time; each subcommand
    demands the sections it needs.  All present sections are validated up
    front so a bad field fails fast regardless of which command runs.
    """

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        version = _expect(data, "schema_version", "<root>", int)
        if version != SCHEMA_VERSION:
            raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version}")
        self.schema_version = version
        self.space = self._validate_space(_expect(data, "space", "<root>", dict))
        for section in _SECTIONS:
            cfg = data.get(section)
            if cfg is not None and not isinstance(cfg, dict):
                raise ConfigError(section, "must be an object")
            validate = getattr(self, f"_validate_{section}")
            setattr(self, section, None if cfg is None else validate(cfg))

    @staticmethod
    def _validate_space(cfg: dict) -> dict:
        construction = _expect(cfg, "construction", "space", str, ("standard", "crisp"))
        domain = _expect(cfg, "domain", "space", dict)
        kind = _expect(domain, "kind", "space.domain", str, ("interval", "finite", "line"))
        if kind == "interval":
            lo = _number(domain, "lo", "space.domain")
            hi = _number(domain, "hi", "space.domain")
            if lo >= hi:
                raise ConfigError("space.domain", f"requires lo < hi, got [{lo}, {hi}]")
            norm_domain = {"kind": "interval", "lo": lo, "hi": hi}
        elif kind == "line":
            n = _expect(domain, "n", "space.domain", int)
            if n < 1:
                raise ConfigError("space.domain.n", f"must be >= 1, got {n}")
            diameter = _number(domain, "diameter", "space.domain", lo=0.0, open_lo=True,
                               default=1.0)
            norm_domain = {"kind": "line", "n": n, "diameter": diameter}
        else:
            labels = _expect(domain, "labels", "space.domain", list)
            metric = _expect(domain, "metric", "space.domain", list)
            norm_domain = {"kind": "finite", "labels": list(labels), "metric": metric}
        tnorm = _expect(cfg, "tnorm", "space", str, _TNORM_KINDS)
        tconorm = _expect(cfg, "tconorm", "space", str, _TCONORM_KINDS)
        return {
            "construction": construction,
            "domain": norm_domain,
            "tnorm": tnorm,
            "tconorm": tconorm,
        }

    @staticmethod
    def _validate_map(cfg: dict) -> dict:
        name = _expect(cfg, "name", "map", str, _MAP_NAMES)
        out = {"name": name}
        if name == "scale":
            out["factor"] = _number(cfg, "factor", "map")
        elif name == "affine_clamped":
            out["a"] = _number(cfg, "a", "map")
            out["b"] = _number(cfg, "b", "map")
        elif name == "constant":
            if "value" not in cfg:
                raise ConfigError("map.value", "missing required field")
            out["value"] = cfg["value"]
        elif name == "table":
            images = _expect(cfg, "images", "map", list)
            if not all(isinstance(i, int) and not isinstance(i, bool) for i in images):
                raise ConfigError("map.images", "must be a list of integers")
            out["images"] = list(images)
        return out

    @staticmethod
    def _validate_contraction(cfg: dict) -> dict:
        check = _expect(cfg, "check", "contraction", str, ("psi-phi", "k"))
        out = {"check": check}
        if check == "k" or ("k" in cfg and "psi" not in cfg):
            out["k"] = _number(cfg, "k", "contraction", lo=0.0, hi=1.0,
                               open_lo=True, open_hi=True)
        else:
            out["psi"] = RunConfig._validate_control(cfg, "psi")
            out["phi"] = RunConfig._validate_control(cfg, "phi")
        return out

    @staticmethod
    def _validate_control(cfg: dict, which: str) -> dict:
        spec = _expect(cfg, which, "contraction", dict)
        name = _expect(spec, "name", f"contraction.{which}", str, _CONTROL_NAMES)
        out = {"name": name}
        if name == "from_k":
            out["k"] = _number(spec, "k", f"contraction.{which}", lo=0.0, hi=1.0,
                               open_lo=True, open_hi=True)
        elif name == "power":
            out["exponent"] = _number(spec, "exponent", f"contraction.{which}",
                                      lo=0.0, open_lo=True)
        return out

    @staticmethod
    def _validate_sampler(cfg: dict) -> dict:
        mode = _expect(cfg, "mode", "sampler", str, (RANDOM, EXHAUSTIVE))
        count = _expect(cfg, "sample_count", "sampler", int)
        if count < 1:
            raise ConfigError("sampler.sample_count", f"must be >= 1, got {count}")
        t_grid = _t_grid(cfg, "sampler")
        seed = cfg.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError("sampler.seed", "must be an integer")
        return {
            "mode": mode,
            "sample_count": count,
            "t_grid": t_grid,
            "seed": seed,
        }

    @staticmethod
    def _validate_solver(cfg: dict) -> dict:
        epsilon = _number(cfg, "epsilon", "solver", lo=0.0, hi=1.0, open_lo=True, open_hi=True)
        t_grid = _t_grid(cfg, "solver", increasing=True)
        max_iter = cfg.get("max_iter", 10**6)
        if isinstance(max_iter, bool) or not isinstance(max_iter, int) or max_iter < 1:
            raise ConfigError("solver.max_iter", "must be a positive integer")
        point_tol = _number(cfg, "point_tol", "solver", lo=0.0, default=1e-8)
        seeds = _expect(cfg, "seeds", "solver", list)
        if not seeds:
            raise ConfigError("solver.seeds", "must list at least one starting point")
        window = cfg.get("cauchy_window", 5)
        if isinstance(window, bool) or not isinstance(window, int) or window < 2:
            raise ConfigError("solver.cauchy_window", "must be an integer >= 2")
        return {
            "epsilon": epsilon,
            "t_grid": t_grid,
            "max_iter": max_iter,
            "point_tol": point_tol,
            "seeds": list(seeds),
            "cauchy_window": window,
        }

    def to_dict(self) -> dict:
        out = {"schema_version": self.schema_version, "space": self.space}
        for key in _SECTIONS:
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_path(cls, path) -> "RunConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(str(path), f"cannot read config: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                str(path), f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        return cls(data)


# ---------------------------------------------------------------------------
# Builders from validated config sections
# ---------------------------------------------------------------------------


def build_domain(cfg: dict):
    if cfg["kind"] == "interval":
        return IntervalDomain(cfg["lo"], cfg["hi"])
    if cfg["kind"] == "line":
        return FiniteDomain.line(cfg["n"], cfg["diameter"])
    try:
        return FiniteDomain(cfg["labels"], cfg["metric"])
    except IfmError as exc:
        raise ConfigError("space.domain.metric", str(exc)) from exc


def build_space(cfg: dict) -> IFSpace:
    domain = build_domain(cfg["domain"])
    tnorm = TNorm(cfg["tnorm"])
    tconorm = TConorm(cfg["tconorm"])
    if cfg["construction"] == "standard":
        return standard_space(domain, tnorm, tconorm)
    try:
        return crisp_threshold_space(domain, tnorm, tconorm)
    except IfmError as exc:
        raise ConfigError("space.domain", str(exc)) from exc


def build_selfmap(cfg: dict, domain) -> SelfMap:
    name = cfg["name"]
    if name == "identity":
        return SelfMap.identity()
    if name == "table":
        if not isinstance(domain, FiniteDomain):
            raise ConfigError("map.images", "table maps need a finite domain")
        images = cfg["images"]
        if len(images) != domain.size or any(not 0 <= i < domain.size for i in images):
            raise ConfigError(
                "map.images",
                f"must list one in-range index per point ({domain.size} points)",
            )
        return SelfMap.table(images)
    if isinstance(domain, FiniteDomain):
        if name == "constant":
            value = cfg["value"]
            if not isinstance(value, int) or not 0 <= value < domain.size:
                raise ConfigError("map.value", "must be an in-range point index")
            return SelfMap.constant(value)
        raise ConfigError("map.name", f"map {name!r} needs an interval domain")
    if name == "scale":
        return SelfMap.scale(cfg["factor"])
    if name == "constant":
        value = cfg["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError("map.value", "must be a number for interval domains")
        if not domain.contains(float(value)):
            raise ConfigError("map.value", f"point {value!r} outside the domain")
        return SelfMap.constant(float(value))
    return SelfMap.affine_clamped(cfg["a"], cfg["b"], domain.lo, domain.hi)


def build_control_pair(cfg: dict) -> PsiPhiPair:
    if "k" in cfg and "psi" not in cfg:
        return PsiPhiPair.from_k(cfg["k"])

    def control(spec, side):
        if spec["name"] == "from_k":
            return psi_from_k(spec["k"]) if side == "psi" else phi_from_k(spec["k"])
        if spec["name"] == "identity":
            return lambda t: t
        exponent = spec["exponent"]
        return lambda t: t ** exponent

    return PsiPhiPair(control(cfg["psi"], "psi"), control(cfg["phi"], "phi"),
                      ("custom", "cli"))


def build_sampler(cfg: dict, seed_override=None) -> SamplerConfig:
    seed = cfg["seed"] if seed_override is None else seed_override
    return SamplerConfig(
        mode=cfg["mode"],
        sample_count=cfg["sample_count"],
        t_grid=tuple(cfg["t_grid"]),
        seed=seed,
    )


def build_solver_config(cfg: dict, domain) -> SolverConfig:
    seeds = cfg["seeds"]
    if isinstance(domain, FiniteDomain):
        for s in seeds:
            if isinstance(s, bool) or not isinstance(s, int) or not 0 <= s < domain.size:
                raise ConfigError("solver.seeds", f"seed {s!r} is not an in-range index")
    else:
        for s in seeds:
            if isinstance(s, bool) or not isinstance(s, (int, float)) or not domain.contains(s):
                raise ConfigError("solver.seeds", f"seed {s!r} outside the domain")
        seeds = [float(s) for s in seeds]
    return SolverConfig(
        epsilon=cfg["epsilon"],
        t_grid=tuple(cfg["t_grid"]),
        max_iter=cfg["max_iter"],
        point_tol=cfg["point_tol"],
        seeds=tuple(seeds),
        cauchy_window=cfg["cauchy_window"],
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _write_json(data: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(data, indent=2) + "\n")


def _require(config: RunConfig, section: str):
    value = getattr(config, section)
    if value is None:
        raise ConfigError(section, "section required by this command is missing")
    return value


def cmd_audit(config: RunConfig, out_dir: Path, seed_override=None) -> int:
    space = build_space(config.space)
    sampler = build_sampler(_require(config, "sampler"), seed_override)
    report = audit_space(space, sampler)
    _write_json(report.to_dict(), out_dir / "audit.json")
    for check in report.checks:
        log.info("axiom %-5s %s (%d violations)", check.axiom, check.status,
                 check.violation_count)
    if report.passed:
        print(f"audit: PASS ({space.name} space)")
        return EXIT_OK
    print(f"audit: FAIL ({space.name} space), failing axioms: "
          f"{', '.join(report.failing_axioms)}")
    return EXIT_VIOLATIONS


def cmd_contract(config: RunConfig, out_dir: Path, seed_override=None) -> int:
    space = build_space(config.space)
    f = build_selfmap(_require(config, "map"), space.domain)
    contraction = _require(config, "contraction")
    sampler = build_sampler(_require(config, "sampler"), seed_override)
    if contraction["check"] == "k":
        report = check_k_contractive(space, f, contraction["k"], sampler)
    else:
        report = check_psi_phi_contractive(space, f, build_control_pair(contraction), sampler)
    _write_json(report.to_dict(), out_dir / "contract.json")
    if report.passed:
        print(f"contract: PASS ({report.condition} condition, map {f.name})")
        return EXIT_OK
    print(f"contract: FAIL ({report.condition} condition, map {f.name}, "
          f"{report.violation_count} violations)")
    return EXIT_VIOLATIONS


def cmd_solve(config: RunConfig, out_dir: Path) -> int:
    space = build_space(config.space)
    f = build_selfmap(_require(config, "map"), space.domain)
    solver_cfg = build_solver_config(_require(config, "solver"), space.domain)
    if isinstance(space.domain, FiniteDomain):
        report = edelstein_solve(space, f, solver_cfg)
        _write_json(report.to_dict(), out_dir / "solve.json")
        if report.fixed_point is None:
            print("solve: no fixed point; cycle lengths "
                  f"{report.cycle_lengths}")
            return EXIT_NO_CONVERGENCE
    else:
        try:
            report = solve_fixed_point(space, f, solver_cfg)
        except NonConvergenceError as exc:
            diagnostics = {
                "converged": False,
                "stop_reasons": [tr.stop_reason for tr in exc.traces],
                "iterations_per_seed": [tr.iterations for tr in exc.traces],
            }
            _write_json(diagnostics, out_dir / "solve.json")
            for i, tr in enumerate(exc.traces):
                write_trace_csv(tr, out_dir / f"trace_seed{i}.csv")
            print(f"solve: no seed converged within {solver_cfg.max_iter} iterations")
            return EXIT_NO_CONVERGENCE
        _write_json(report.to_dict(), out_dir / "solve.json")
        for i, tr in enumerate(report.traces):
            write_trace_csv(tr, out_dir / f"trace_seed{i}.csv")
    shown = space.domain.describe(report.fixed_point)
    if not report.unique:
        print(f"solve: fixed point {shown} but not unique: limits disagree across "
              "seeds or some seeds did not converge")
        return EXIT_NOT_UNIQUE
    print(f"solve: fixed point {shown} (unique across seeds)")
    return EXIT_OK


def cmd_demo(out_dir: Path, seed: int) -> int:
    """Run the three bundled scenarios and write their artifacts.

    Deterministic: a rerun with the same seed produces byte-identical
    files.
    """
    rng = np.random.default_rng(seed)

    # Scenario 1: halving map on the standard space over [0, 1].
    domain = IntervalDomain(0.0, 1.0)
    space = standard_space(domain, TNorm.product(), TConorm.probabilistic_sum())
    sampler = SamplerConfig(RANDOM, 2000, (0.1, 1.0, 10.0), seed=seed)
    scen = out_dir / "standard_halving"
    _write_json(audit_space(space, sampler).to_dict(), scen / "audit.json")
    halving = SelfMap.scale(0.5)
    _write_json(
        check_psi_phi_contractive(space, halving, PsiPhiPair.from_k(0.5), sampler).to_dict(),
        scen / "contract.json",
    )
    solver_cfg = SolverConfig(
        epsilon=1e-8, t_grid=(0.1, 1.0, 10.0), max_iter=10_000,
        point_tol=1e-8, seeds=(1.0, 0.7, 0.3),
    )
    report = solve_fixed_point(space, halving, solver_cfg)
    _write_json(report.to_dict(), scen / "solve.json")
    for i, tr in enumerate(report.traces):
        write_trace_csv(tr, scen / f"trace_seed{i}.csv")
    print(f"demo standard_halving: fixed point {report.fixed_point:.3g}, "
          f"unique={report.unique}")

    # Scenario 2: the crisp threshold space, which fails strict positivity
    # at small t yet makes every self-map contractive.
    crisp_domain = FiniteDomain.line(5)
    crisp = crisp_threshold_space(crisp_domain, TNorm.minimum(), TConorm.maximum())
    crisp_sampler = SamplerConfig(EXHAUSTIVE, 1, (0.5, 2.0), seed=seed)
    scen = out_dir / "crisp_space"
    crisp_audit = audit_space(crisp, crisp_sampler)
    _write_json(crisp_audit.to_dict(), scen / "audit.json")
    table = SelfMap.table(rng.integers(0, 5, 5).tolist())
    crisp_contract = check_psi_phi_contractive(crisp, table, PsiPhiPair.from_k(0.5),
                                               crisp_sampler)
    _write_json(crisp_contract.to_dict(), scen / "contract.json")
    print(f"demo crisp_space: audit failing axioms {crisp_audit.failing_axioms}, "
          f"contraction passed={crisp_contract.passed}")

    # Scenario 3: exact orbit analysis on a 10-point finite space.
    line = FiniteDomain.line(10)
    finite_space = standard_space(line, TNorm.product(), TConorm.probabilistic_sum())
    finite_cfg = SolverConfig(
        epsilon=1e-6, t_grid=(0.1, 1.0, 10.0), max_iter=100,
        point_tol=0.0, seeds=tuple(range(10)),
    )
    scen = out_dir / "finite_edelstein"
    halve_idx = SelfMap.table([i // 2 for i in range(10)])
    halve_report = edelstein_solve(finite_space, halve_idx, finite_cfg)
    _write_json(halve_report.to_dict(), scen / "solve.json")
    shift = SelfMap.table([(i + 1) % 10 for i in range(10)])
    shift_report = edelstein_solve(finite_space, shift, finite_cfg)
    _write_json(shift_report.to_dict(), scen / "shift_solve.json")
    print(f"demo finite_edelstein: fixed point {halve_report.fixed_point}, "
          f"shift cycle lengths {sorted(set(shift_report.cycle_lengths))}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifmkit",
        description="Audit fuzzy metric space axioms, check contraction "
                    "conditions, and compute fixed points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("audit", "contract", "solve"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", default=".", help="output directory for reports")
        p.add_argument("--seed", type=int, default=None,
                       help="override the sampler seed from the config")
        p.add_argument("--dump-config", action="store_true",
                       help="print the normalized config and exit")
    demo = sub.add_parser("demo")
    demo.add_argument("--out", default="demo-out", help="output directory")
    demo.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("IFM_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "demo":
            return cmd_demo(Path(args.out), args.seed)
        config = RunConfig.from_path(args.config)
        if args.dump_config:
            print(json.dumps(config.to_dict(), indent=2))
            return EXIT_OK
        out_dir = Path(args.out)
        if args.command == "audit":
            return cmd_audit(config, out_dir, args.seed)
        if args.command == "contract":
            return cmd_contract(config, out_dir, args.seed)
        return cmd_solve(config, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IfmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()

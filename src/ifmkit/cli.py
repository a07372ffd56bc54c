"""Command-line front end.

Subcommands:

    audit     check the space axioms, write audit.json        (exit 3 on FAIL)
    contract  check a contraction condition, write contract.json (exit 3;
              6 when the map sends a sampled point outside the domain)
    solve     run the fixed-point solver, write solve.json + traces
              (exit 4 when nothing converges, 5 when limits disagree
              or some seeds did not converge)
    demo      run the three bundled scenarios deterministically

Configs are JSON with a mandatory top-level "schema_version".  Maps are
restricted to a whitelisted catalogue plus finite tables — configs carry
no executable code.  `RunConfig` reads the whole config in one pass before
any command runs: every section present is checked against the space,
whatever the command.  A field's type and range are checked by the object
it configures, whose error names it; this module checks presence, the
JSON types of sections, catalogue names and what needs the space.  Any
malformed or out-of-range field, a non-finite number or a negative seed
exits with code 2 and a message naming the field; an error raised while a
command computes (a map leaving its domain, say) exits with code 6.  The
IFM_LOG environment variable selects log verbosity (debug/info/warning/error;
any other value means warning).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .auditor import audit_space
from .contraction import (
    KContraction,
    PsiPhiPair,
    SelfMap,
    check_k_contractive,
    check_psi_phi_contractive,
    phi_from_k,
    psi_from_k,
)
from .errors import ConfigError, IfmError, NonConvergenceError, real_field, shown
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
EXIT_RUNTIME = 6

_TNORM_KINDS = tuple(TNorm.BUILTINS)
_TCONORM_KINDS = tuple(TConorm.BUILTINS)
_MAP_NAMES = ("scale", "affine_clamped", "constant", "identity", "table")
_CONTROL_NAMES = ("from_k", "identity", "power")


@contextmanager
def _field(name: str):
    """Report an ifmkit error raised inside, by a library constructor, as a
    ConfigError naming ``name.<field>`` if it is about a field
    (`IfmError.about`), else ``name``; a flag such as ``--seed`` keeps it whole."""
    try:
        yield
    except ConfigError:
        raise
    except IfmError as exc:
        if exc.field is None or name.startswith("--"):
            raise ConfigError(name, str(exc)) from exc
        raise ConfigError(f"{name}.{exc.field}", exc.reason) from exc


def _required(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return cfg[key]


def _expect(cfg: dict, key: str, path: str, types, choices=None):
    value = _required(cfg, key, path)
    if not isinstance(value, types):
        raise ConfigError(f"{path}.{key}", f"expected {types}, got {type(value).__name__}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}.{key}", f"must be one of {list(choices)}, got {value!r}")
    return value


def _fields(cfg: dict, path: str, required, optional=()) -> dict:
    """A section's named fields, unchecked, as keyword arguments for their owner."""
    for key in required:
        _required(cfg, key, path)
    return {key: cfg[key] for key in (*required, *optional) if key in cfg}


def _point(domain, p, field: str, noun: str):
    """A config point inside the domain; an interval's as a float."""
    if not domain.contains(p):
        raise ConfigError(field, f"{noun} {p!r} outside the domain")
    return float(p) if isinstance(domain, IntervalDomain) else p


# ---------------------------------------------------------------------------
# Config sections: each is read once, checked against the domain and built.
# A reader returns the normalized section (for --dump-config) and its object.
# ---------------------------------------------------------------------------


def _read_space(cfg: dict) -> tuple[dict, IFSpace]:
    construction = _expect(cfg, "construction", "space", str, ("standard", "crisp"))
    spec = _expect(cfg, "domain", "space", dict)
    kind = _expect(spec, "kind", "space.domain", str, ("interval", "finite", "line"))
    if kind == "interval":
        with _field("space.domain"):
            domain = IntervalDomain(**_fields(spec, "space.domain", ("lo", "hi")))
        normalized = {"kind": kind, "lo": domain.lo, "hi": domain.hi}
    elif kind == "line":
        with _field("space.domain"):
            domain = FiniteDomain.line(**_fields(spec, "space.domain", ("n",), ("diameter",)))
        normalized = {"kind": kind, "n": spec["n"], "diameter": float(spec.get("diameter", 1.0))}
    else:
        labels = _expect(spec, "labels", "space.domain", list)
        metric = _expect(spec, "metric", "space.domain", list)
        normalized = {"kind": kind, "labels": labels, "metric": metric}
        with _field("space.domain.metric"):
            domain = FiniteDomain(labels, metric)
    tnorm = _expect(cfg, "tnorm", "space", str, _TNORM_KINDS)
    tconorm = _expect(cfg, "tconorm", "space", str, _TCONORM_KINDS)
    make = standard_space if construction == "standard" else crisp_threshold_space
    with _field("space.domain"):
        space = make(domain, TNorm(tnorm), TConorm(tconorm))
    return {"construction": construction, "domain": normalized,
            "tnorm": tnorm, "tconorm": tconorm}, space


def _read_map(cfg: dict, domain) -> tuple[dict, SelfMap]:
    name = _expect(cfg, "name", "map", str, _MAP_NAMES)
    finite = isinstance(domain, FiniteDomain)
    if name == "identity":
        return {"name": name}, SelfMap.identity()
    if name == "table":
        images = _expect(cfg, "images", "map", list)
        if not finite:
            raise ConfigError("map.images", "table maps need a finite domain")
        if len(images) != domain.size:  # then SelfMap.table's range is the domain's
            raise ConfigError("map.images", "must list one in-range point index per point "
                                            f"({domain.size} points)")
        return {"name": name, "images": images}, SelfMap.table(images)
    if name == "constant":
        value = _point(domain, _required(cfg, "value", "map"), "map.value", "point")
        return {"name": name, "value": value}, SelfMap.constant(value)
    if finite:
        raise ConfigError("map.name", f"map {name!r} needs an interval domain")
    if name == "scale":
        f = SelfMap.scale(_required(cfg, "factor", "map"))
        return {"name": name, "factor": float(cfg["factor"])}, f
    a, b = _fields(cfg, "map", ("a", "b")).values()
    f = SelfMap.affine_clamped(a, b, domain.lo, domain.hi)
    return {"name": name, "a": float(a), "b": float(b)}, f


def _read_control(cfg: dict, side: str):
    path = f"contraction.{side}"
    spec = _expect(cfg, side, "contraction", dict)
    name = _expect(spec, "name", path, str, _CONTROL_NAMES)
    with _field(path):
        if name == "from_k":
            k = KContraction(_required(spec, "k", path)).k
            return {"name": name, "k": k}, (psi_from_k if side == "psi" else phi_from_k)(k)
        if name == "power":
            exponent = real_field("exponent", _required(spec, "exponent", path), 0.0, open_lo=True)
            return {"name": name, "exponent": exponent}, lambda t: t ** exponent
    return {"name": name}, lambda t: t


def _read_contraction(cfg: dict, _domain) -> tuple[dict, float | PsiPhiPair]:
    """The constant k for the k check, else the psi-phi control pair: given
    by its k or by explicit psi and phi controls."""
    check = _expect(cfg, "check", "contraction", str, ("psi-phi", "k"))
    if check == "k" or ("k" in cfg and "psi" not in cfg):
        k = KContraction(_required(cfg, "k", "contraction")).k
        return {"check": check, "k": k}, (k if check == "k" else PsiPhiPair.from_k(k))
    (psi_spec, psi), (phi_spec, phi) = (_read_control(cfg, side) for side in ("psi", "phi"))
    return {"check": check, "psi": psi_spec, "phi": phi_spec}, PsiPhiPair(psi, phi)


def _read_sampler(cfg: dict, domain) -> tuple[dict, SamplerConfig]:
    sampler = SamplerConfig(**_fields(cfg, "sampler", ("mode", "sample_count"), ("seed",)),
                            t_grid=_expect(cfg, "t_grid", "sampler", list))
    if sampler.mode == EXHAUSTIVE and not isinstance(domain, FiniteDomain):
        raise ConfigError("sampler.mode", "exhaustive sampling needs a finite domain")
    return sampler.to_dict(), sampler


def _read_solver(cfg: dict, domain) -> tuple[dict, SolverConfig]:
    seeds = _expect(cfg, "seeds", "solver", list)
    if not seeds:
        raise ConfigError("solver.seeds", "must list at least one starting point")
    seeds = tuple(_point(domain, s, "solver.seeds", "seed") for s in seeds)
    solver = SolverConfig(**_fields(cfg, "solver", ("epsilon",),
                                    ("max_iter", "point_tol", "cauchy_window")),
                          t_grid=_expect(cfg, "t_grid", "solver", list), seeds=seeds)
    return solver.to_dict(), solver


# Optional config sections, read in this order after "space".
_SECTIONS = {
    "map": _read_map,
    "contraction": _read_contraction,
    "sampler": _read_sampler,
    "solver": _read_solver,
}


class RunConfig:
    """A run configuration, checked and built in one pass.

    ``space`` is read first and built into an `IFSpace`.  Every other
    section present is read once, checked against ``space.domain`` and
    built, whatever the command: ``map`` into a `SelfMap`, ``contraction``
    into the constant k (a float, for the k check) or a `PsiPhiPair`,
    ``sampler`` into a `SamplerConfig` and ``solver`` into a
    `SolverConfig`.  An absent section is None; each subcommand demands
    the sections it needs.  A bad field therefore fails fast, with a
    ConfigError naming it, regardless of which command runs, and
    `to_dict` (what --dump-config prints) is only ever a config that runs.
    Field types and ranges are the rules of the objects built: their
    errors come back as ConfigErrors naming ``<section>.<field>``.
    """

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        version = _required(data, "schema_version", "<root>")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {shown(version)}")
        with _field("space"):
            space_dict, self.space = _read_space(_expect(data, "space", "<root>", dict))
        self._normalized = {"schema_version": version, "space": space_dict}
        for section, read in _SECTIONS.items():
            cfg = data.get(section)
            built = None
            if cfg is not None:
                if not isinstance(cfg, dict):
                    raise ConfigError(section, "must be an object")
                with _field(section):
                    self._normalized[section], built = read(cfg, self.space.domain)
            setattr(self, section, built)

    def to_dict(self) -> dict:
        """The normalized config."""
        return self._normalized

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
        except ValueError as exc:  # an integer literal past Python's digit limit
            raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
        return cls(data)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _write_json(data: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(data, indent=2) + "\n")


def _write_solve(data: dict, traces, out_dir: Path) -> None:
    """solve.json, and one trace_seed{i}.csv per Picard trace."""
    _write_json(data, out_dir / "solve.json")
    for i, tr in enumerate(traces):
        write_trace_csv(tr, out_dir / f"trace_seed{i}.csv")


def _require(config: RunConfig, section: str):
    value = getattr(config, section)
    if value is None:
        raise ConfigError(section, "section required by this command is missing")
    return value


def _sampler(config: RunConfig, seed_override=None) -> SamplerConfig:
    sampler = _require(config, "sampler")
    if seed_override is None:
        return sampler
    with _field("--seed"):
        return dataclasses.replace(sampler, seed=seed_override)


def cmd_audit(config: RunConfig, out_dir: Path, seed_override=None) -> int:
    space = config.space
    report = audit_space(space, _sampler(config, seed_override))
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
    space = config.space
    f = _require(config, "map")
    contraction = _require(config, "contraction")
    sampler = _sampler(config, seed_override)
    if isinstance(contraction, PsiPhiPair):
        report = check_psi_phi_contractive(space, f, contraction, sampler)
    else:
        report = check_k_contractive(space, f, contraction, sampler)
    _write_json(report.to_dict(), out_dir / "contract.json")
    if report.passed:
        print(f"contract: PASS ({report.condition} condition, map {f.name})")
        return EXIT_OK
    print(f"contract: FAIL ({report.condition} condition, map {f.name}, "
          f"{report.violation_count} violations)")
    return EXIT_VIOLATIONS


def cmd_solve(config: RunConfig, out_dir: Path) -> int:
    space = config.space
    f = _require(config, "map")
    solver_cfg = _require(config, "solver")
    solve = edelstein_solve if isinstance(space.domain, FiniteDomain) else solve_fixed_point
    try:
        report = solve(space, f, solver_cfg)
    except NonConvergenceError as exc:  # raised by the Picard engine only
        diagnostics = {"converged": False,
                       "stop_reasons": [tr.stop_reason for tr in exc.traces],
                       "iterations_per_seed": [tr.iterations for tr in exc.traces]}
        _write_solve(diagnostics, exc.traces, out_dir)
        print(f"solve: no seed converged within {solver_cfg.max_iter} iterations")
        return EXIT_NO_CONVERGENCE
    # an orbit engine's traces are point lists, not Picard traces
    _write_solve(report.to_dict(), report.traces if report.method == "picard" else (), out_dir)
    if report.fixed_point is None:  # the orbit engine found only cycles
        print(f"solve: no fixed point; cycle lengths {report.cycle_lengths}")
        return EXIT_NO_CONVERGENCE
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
    with _field("--seed"):
        sampler = SamplerConfig(RANDOM, 2000, (0.1, 1.0, 10.0), seed=seed)
    rng = np.random.default_rng(seed)

    # Scenario 1: halving map on the standard space over [0, 1].
    domain = IntervalDomain(0.0, 1.0)
    space = standard_space(domain, TNorm.product(), TConorm.probabilistic_sum())
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
    _write_solve(report.to_dict(), report.traces, scen)
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


@functools.cache  # prog is fixed, and parse_args leaves the parser as it was
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
        if name != "solve":  # the solver draws no samples
            p.add_argument("--seed", type=int, default=None,
                           help="override the sampler seed from the config")
        p.add_argument("--dump-config", action="store_true",
                       help="print the normalized config and exit")
    demo = sub.add_parser("demo")
    demo.add_argument("--out", default="demo-out", help="output directory")
    demo.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("IFM_LOG", "").upper()
    level = level if level in ("DEBUG", "INFO", "ERROR") else "WARNING"
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
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
    except IfmError as exc:  # raised while a command computes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def console_main() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()

"""Workload definitions: the CLI command sequences and their generated configs.

Every input is derived from the workload seed, so the same seed writes the
same configs.  Each command carries the name under which `checker.EXPECTED`
holds its analytic verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("audit-interval", "map-interval", "finite-line")

# "full" is what the benchmark measures; "tiny" keeps the self-check fast.
SIZES = {
    "full": {
        "audit_samples": 20_000,
        "contract_samples": 20_000,
        "scale_factor": 0.999,
        "line_audit_n": 30,
        "line_n": 100,
    },
    "tiny": {
        "audit_samples": 200,
        "contract_samples": 200,
        "scale_factor": 0.9,
        "line_audit_n": 6,
        "line_n": 12,
    },
}

# Six grid values: the split-time rows cost g^2 per triple, the pair rows g.
PRODUCT_GRID = [0.05, 0.2, 0.5, 1.0, 3.0, 10.0]
LUKASIEWICZ_GRID = [0.1, 1.0, 10.0]
SOLVER_GRID = [0.1, 1.0, 10.0]

_INTERVAL = {"kind": "interval", "lo": 0.0, "hi": 1.0}


@dataclass(frozen=True)
class Command:
    name: str        # key into checker.EXPECTED
    kind: str        # "audit" | "contract" | "solve" | "demo"
    argv: tuple      # full ifmkit argv, --out included
    out_dir: Path


def _space(tnorm: str, tconorm: str, domain: dict) -> dict:
    return {"construction": "standard", "domain": domain,
            "tnorm": tnorm, "tconorm": tconorm}


def _product_space(domain: dict) -> dict:
    return _space("product", "probabilistic_sum", domain)


def _config(**sections) -> dict:
    return {"schema_version": 1, **sections}


def _sampler(mode: str, count: int, grid, seed: int) -> dict:
    return {"mode": mode, "sample_count": count, "t_grid": list(grid), "seed": seed}


def _solver(seeds, epsilon=1e-8, point_tol=1e-8, max_iter=1_000_000) -> dict:
    return {"epsilon": epsilon, "t_grid": SOLVER_GRID, "max_iter": max_iter,
            "point_tol": point_tol, "seeds": list(seeds)}


def _audit_interval(rng, size) -> list:
    n = size["audit_samples"]
    return [
        ("audit-product", "audit", _config(
            space=_product_space(_INTERVAL),
            sampler=_sampler("random", n, PRODUCT_GRID, int(rng.integers(2**31))))),
        ("audit-lukasiewicz", "audit", _config(
            space=_space("lukasiewicz", "bounded_sum", _INTERVAL),
            sampler=_sampler("random", n, LUKASIEWICZ_GRID, int(rng.integers(2**31))))),
    ]


def _map_interval(rng, size) -> list:
    space = _product_space(_INTERVAL)
    sampler = _sampler("random", size["contract_samples"], SOLVER_GRID,
                       int(rng.integers(2**31)))
    halving = {"name": "scale", "factor": 0.5}
    # Seeds near 1 keep the Picard step count within a fraction of a percent
    # across workload seeds, so the seed changes the inputs, not the work.
    scale_seeds = sorted((1.0 - 0.05 * rng.random(3)).tolist(), reverse=True)
    return [
        ("contract-halving", "contract", _config(
            space=space, map=halving,
            contraction={"check": "psi-phi", "k": 0.5}, sampler=sampler)),
        ("contract-identity", "contract", _config(
            space=space, map={"name": "identity"},
            contraction={"check": "psi-phi", "k": 0.5}, sampler=sampler)),
        ("contract-k", "contract", _config(
            space=space, map=halving,
            contraction={"check": "k", "k": 0.4}, sampler=sampler)),
        ("solve-scale", "solve", _config(
            space=space, map={"name": "scale", "factor": size["scale_factor"]},
            solver=_solver(scale_seeds))),
        ("solve-affine", "solve", _config(
            space=space, map={"name": "affine_clamped", "a": 0.99, "b": 0.005},
            solver=_solver([1.0, 0.0, 0.5]))),
    ]


def _finite_line(rng, size) -> list:
    n_audit, n = size["line_audit_n"], size["line_n"]
    line = _product_space({"kind": "line", "n": n})
    exhaustive = _sampler("exhaustive", 1, SOLVER_GRID, 0)
    return [
        ("line-audit", "audit", _config(
            space=_product_space({"kind": "line", "n": n_audit}), sampler=exhaustive)),
        ("line-contract", "contract", _config(
            space=line, map={"name": "table", "images": rng.integers(0, n, n).tolist()},
            contraction={"check": "psi-phi", "k": 0.5}, sampler=exhaustive)),
        ("line-solve", "solve", _config(
            space=line, map={"name": "table", "images": [max(i - 1, 0) for i in range(n)]},
            solver=_solver(range(n), epsilon=1e-6, point_tol=0.0, max_iter=10 * n))),
        ("demo", "demo", None),
    ]


_BUILDERS = {
    "audit-interval": _audit_interval,
    "map-interval": _map_interval,
    "finite-line": _finite_line,
}


def build(workload: str, seed: int, work_dir: Path, size: str = "full") -> list[Command]:
    """Write the workload's configs under ``work_dir`` and return its commands.

    Output directories are created empty, one per command.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    specs = _BUILDERS[workload](rng, SIZES[size])
    commands = []
    for i, (name, kind, config) in enumerate(specs):
        out_dir = work_dir / "out" / f"{i}-{name}"
        out_dir.mkdir(parents=True)
        if kind == "demo":
            argv = ("demo", "--seed", str(seed), "--out", str(out_dir))
        else:
            path = work_dir / f"{i}-{name}.json"
            path.write_text(json.dumps(config, indent=2) + "\n")
            argv = (kind, "--config", str(path), "--out", str(out_dir))
        commands.append(Command(name, kind, argv, out_dir))
    return commands

"""Each numeric config field's type and range rule lives in the object it
configures; the CLI only reads the JSON and names the field.

For every field, the library constructor either accepts a value, stored
as plain Python numbers that JSON can write, or raises an IfmError (never
a TypeError or OverflowError), and `ifmkit <command> --dump-config` exits 2
with ``config error: <section>.<field>: <reason>`` exactly when that error
is about the field.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ifmkit
from ifmkit import (
    RANDOM,
    DomainError,
    FiniteDomain,
    IfmError,
    IntervalDomain,
    KContraction,
    PreconditionError,
    SamplerConfig,
    SelfMap,
    SolverConfig,
    TConorm,
    TNorm,
    check_admissible,
    check_joint_continuity,
    check_k_contractive,
    check_norm_axioms,
    check_psi_phi_contractive,
    detect_g_cauchy,
    detect_m_cauchy,
    edelstein_solve,
    eval_mu,
    pair_from_k,
    picard_iterate,
    standard_space,
    verify_fixed_point,
)
from ifmkit.cli import EXIT_CONFIG, EXIT_OK, RunConfig, main
from ifmkit.errors import ConfigError, shown

SAMPLER = {"mode": "random", "sample_count": 10, "t_grid": [0.5, 1.0], "seed": 0}
SOLVER = {"epsilon": 1e-6, "t_grid": [0.5, 1.0], "max_iter": 100, "point_tol": 1e-8,
          "cauchy_window": 5}


def _config(domain=None, **sections):
    domain = domain or {"kind": "interval", "lo": 0.0, "hi": 1.0}
    return {"schema_version": 1,
            "space": {"construction": "standard", "domain": domain,
                      "tnorm": "product", "tconorm": "probabilistic_sum"}, **sections}


def _line(n=4, diameter=1.0):
    return {"kind": "line", "n": n, "diameter": diameter}


def _to_dict(obj):
    return obj.to_dict()


def _bounds(domain):
    return {"lo": domain.lo, "hi": domain.hi}


# field -> (build the owner with value v, what of it must be JSON, the config with v)
FIELDS = {
    "space.domain.lo": (lambda v: IntervalDomain(v, 1e300), _bounds,
                        lambda v: _config({"kind": "interval", "lo": v, "hi": 1e300})),
    "space.domain.hi": (lambda v: IntervalDomain(-1e300, v), _bounds,
                        lambda v: _config({"kind": "interval", "lo": -1e300, "hi": v})),
    "space.domain.n": (lambda v: FiniteDomain.line(v), None, lambda v: _config(_line(n=v))),
    "space.domain.diameter": (lambda v: FiniteDomain.line(4, v), None,
                              lambda v: _config(_line(diameter=v))),
    # on a finite domain, so that "exhaustive" is a mode the space allows
    **{f"sampler.{key}": (lambda v, key=key: SamplerConfig(**{**SAMPLER, key: v}), _to_dict,
                          lambda v, key=key: _config(_line(), sampler={**SAMPLER, key: v}))
       for key in ("mode", "sample_count", "seed")},
    **{f"solver.{key}": (lambda v, key=key: SolverConfig(**{**SOLVER, key: v}), _to_dict,
                         lambda v, key=key: _config(solver={**SOLVER, key: v, "seeds": [0.5]},
                                                    map={"name": "identity"}))
       for key in ("epsilon", "max_iter", "point_tol", "cauchy_window")},
    "contraction.k": (KContraction, None, lambda v: _config(contraction={"check": "k", "k": v})),
    "map.factor": (SelfMap.scale, None,
                   lambda v: _config(map={"name": "scale", "factor": v})),
    "map.a": (lambda v: SelfMap.affine_clamped(v, 0.0, 0.0, 1.0), None,
              lambda v: _config(map={"name": "affine_clamped", "a": v, "b": 0.0})),
    "map.b": (lambda v: SelfMap.affine_clamped(0.5, v, 0.0, 1.0), None,
              lambda v: _config(map={"name": "affine_clamped", "a": 0.5, "b": v})),
}

ODD = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400), True, False, None,
                       "1", "0.5", "random", "exhaustive", 0, 1, 2, -1, 0.5, 2.5, 1e-9])
NUMPY = (st.integers(-2**63, 2**63 - 1).map(np.int64)
         | st.floats(allow_nan=True, allow_infinity=True).map(np.float64))
VALUES = ODD | st.integers() | st.floats() | st.booleans() | st.text(max_size=4) | NUMPY
# line(n) builds an n x n matrix, so n is drawn small
SMALL_INTS = ODD.filter(lambda v: not (type(v) is int and abs(v) > 100)) | st.integers(-3, 40)
COUNTS = SMALL_INTS | st.floats() | st.booleans() | st.text(max_size=4) | st.integers(
    -3, 40).map(np.int64)


def _library_outcome(field, value):
    """None when the owner accepts the value, else its error."""
    build, stored, _ = FIELDS[field]
    try:
        obj = build(value)
    except IfmError as exc:
        return exc
    if stored is not None:
        json.dumps(stored(obj), allow_nan=False)
    return None


def _cli(tmp_dir, config):
    path = tmp_dir / "config.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["audit", "--config", str(path), "--dump-config"])
    return code, err.getvalue()


def _check(tmp_dir, field, value):
    outcome = _library_outcome(field, value)
    if type(value) not in (int, float, bool, str, type(None)):  # not a JSON value
        return
    code, err = _cli(tmp_dir, FIELDS[field][2](value))
    name = field.rsplit(".", 1)[1]
    if outcome is None:
        assert (code, err) == (EXIT_OK, "")
    elif outcome.field == name:
        assert code == EXIT_CONFIG
        assert err == f"config error: {field}: {outcome.reason}\n"
    else:  # a rule across fields, such as lo < hi, names the section
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ") and not err.startswith(f"config error: {field}")


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("field-rules")


@pytest.mark.parametrize("field", [f for f in FIELDS if f != "space.domain.n"])
@settings(max_examples=60, deadline=None)
@given(value=VALUES)
@example(value=10**400)
@example(value=np.int64(3))
@example(value=math.nan)
def test_field_rule_lives_in_its_owner(tmp_dir, field, value):
    _check(tmp_dir, field, value)


@pytest.mark.parametrize("field", ["space.domain.n", "sampler.sample_count", "sampler.seed",
                                   "solver.max_iter", "solver.cauchy_window"])
@settings(max_examples=60, deadline=None)
@given(value=COUNTS)
def test_count_rule_lives_in_its_owner(tmp_dir, field, value):
    _check(tmp_dir, field, value)


UNIT = standard_space(IntervalDomain(0.0, 1.0), TNorm.product(), TConorm.probabilistic_sum())
HALF = SelfMap.scale(0.5)


def _halving_trace():
    return picard_iterate(UNIT, HALF, 1.0, SolverConfig(1e-8, (1.0,)))


HUGE = 10**5000  # past the 4,300 digits that str() converts


# The reproductions: each failed late with a raw Python or numpy error, or
# was accepted, before the owners held the rules.
@pytest.mark.parametrize("build,error", [
    (lambda: SamplerConfig(RANDOM, 2.5, (1.0,)), PreconditionError),
    (lambda: SamplerConfig(RANDOM, 10, (1.0,), seed=1.5), PreconditionError),
    (lambda: SolverConfig(1e-6, (1.0,), max_iter=2.5), PreconditionError),
    (lambda: SolverConfig(1e-6, (1.0,), cauchy_window=2.5), PreconditionError),
    (lambda: SolverConfig(1e-6, (1.0,), point_tol=math.inf), PreconditionError),
    (lambda: FiniteDomain.line(3, 0.0), DomainError),
    (lambda: FiniteDomain.line(2.5), DomainError),
    (lambda: FiniteDomain.line(True), DomainError),
    (lambda: IntervalDomain(0, 10**400), DomainError),
    (lambda: IntervalDomain(False, 1.0), DomainError),
    (lambda: SelfMap.scale(math.inf), DomainError),
    (lambda: SelfMap.scale("2"), DomainError),
    (lambda: SelfMap.affine_clamped(0.5, math.nan, 0.0, 1.0), DomainError),
    (lambda: KContraction("0.5"), DomainError),
    (lambda: check_norm_axioms(TNorm.product(), 20, -1), PreconditionError),
    (lambda: check_norm_axioms(TNorm.product(), 2.5, 0), PreconditionError),
    (lambda: check_admissible(pair_from_k(0.5), 2.5), PreconditionError),
    (lambda: SamplerConfig(RANDOM, 10, 5), PreconditionError),
    (lambda: SolverConfig(0.1, 1.0), PreconditionError),
    (lambda: FiniteDomain.line(2**32), DomainError),
    (lambda: FiniteDomain.line(10**400), DomainError),
    # a 537 MB metric, one past the 512 MiB budget
    (lambda: FiniteDomain.line(8193), DomainError),
    (lambda: SelfMap.table([0.7, 1]), DomainError),
    (lambda: SelfMap.table([0, "1"]), DomainError),
    (lambda: SelfMap.table([True, 0]), DomainError),
    (lambda: SelfMap.affine_clamped(0.5, 0.1, "0", 1.0), DomainError),
    (lambda: SelfMap.affine_clamped(0.5, 0.1, 0.0, True), DomainError),
    # 0.7 is not a fixed point; at tol = 2.0 it passed
    (lambda: verify_fixed_point(UNIT, HALF, 0.7, (1.0,), 2.0), DomainError),
    (lambda: verify_fixed_point(UNIT, HALF, 0.0, (1.0,), -0.1), DomainError),
    (lambda: check_joint_continuity(UNIT, [0.5], [0.5], 0.5, 0.5, 1.0, 1.0), DomainError),
    (lambda: check_joint_continuity(UNIT, [0.5], [0.5], 0.5, 0.5, 1.0, math.nan), DomainError),
    # at eps_tail = 2.0 every trace passed
    (lambda: detect_g_cauchy(_halving_trace(), 2, 1.0, eps_tail=2.0), DomainError),
    (lambda: detect_m_cauchy(_halving_trace(), 1e-6, 1.0, 2.5), PreconditionError),
    (lambda: detect_m_cauchy(_halving_trace(), 1e-6, 1.0, True), PreconditionError),
    # past the 4,300 digits that str() converts, so the message cannot print it
    (lambda: SamplerConfig(RANDOM, -10**5000, (1.0,)), PreconditionError),
    (lambda: FiniteDomain.line(-10**5000), DomainError),
    (lambda: detect_m_cauchy(_halving_trace(), 1e-6, 1.0, HUGE), PreconditionError),
    (lambda: detect_g_cauchy(_halving_trace(), HUGE, 1.0), PreconditionError),
    (lambda: RunConfig({"schema_version": HUGE}), ConfigError),
    (lambda: SamplerConfig(HUGE, 1, (1.0,)), DomainError),
    (lambda: SelfMap.table([HUGE]), DomainError),
    (lambda: SelfMap.table(5), DomainError),
    # the constant map's name showed the value
    (lambda: SelfMap.constant(HUGE).apply_checked(UNIT.domain, 0.5), DomainError),
    (lambda: SolverConfig(1e-6, (1.0,), seeds=5), PreconditionError),
    (lambda: FiniteDomain(5, [[0]]), DomainError),
    # the admissibility probe never returned; numpy refused the norm samples' shape
    (lambda: check_admissible(pair_from_k(0.5), HUGE), PreconditionError),
    (lambda: check_norm_axioms(TNorm.product(), HUGE, 0), PreconditionError),
    # raw TypeError, OverflowError and UFuncTypeError; a point off [0, 1] gave ok=False
    (lambda: check_joint_continuity(UNIT, 5, 5, 0.5, 0.5, 1.0, 0.1), PreconditionError),
    (lambda: check_joint_continuity(UNIT, [HUGE], [0.5], 0.5, 0.5, 1.0, 0.1), DomainError),
    (lambda: check_joint_continuity(UNIT, [2.0], [0.5], 0.5, 0.5, 1.0, 0.1), DomainError),
    (lambda: check_joint_continuity(UNIT, [0.5], [0.5], "a", 0.5, 1.0, 0.1), DomainError),
], ids=["sample-count-2.5", "seed-1.5", "max-iter-2.5", "cauchy-window-2.5", "point-tol-inf",
        "line-diameter-0", "line-n-2.5", "line-n-bool", "interval-huge-int", "interval-bool",
        "scale-inf", "scale-string", "affine-nan", "k-string", "norm-seed-negative",
        "norm-count-2.5", "admissible-grid-2.5", "sampler-grid-int", "solver-grid-float",
        "line-n-2**32", "line-n-huge", "line-n-8193", "table-float", "table-string", "table-bool",
        "affine-lo-string", "affine-hi-bool", "fixed-point-tol-2", "fixed-point-tol-negative",
        "joint-tol-1", "joint-tol-nan", "g-cauchy-eps-2", "m-cauchy-window-2.5",
        "m-cauchy-window-bool", "sample-count-huge-negative", "line-n-huge-negative",
        "m-cauchy-window-huge", "g-cauchy-offset-huge", "schema-version-huge", "mode-huge",
        "table-image-huge", "table-int", "constant-huge", "solver-seeds-int", "labels-int",
        "admissible-grid-huge", "norm-count-huge", "joint-xs-int", "joint-point-huge",
        "joint-point-outside", "joint-limit-string"])
def test_owner_rejects(build, error):
    with pytest.raises(error):
        build()


# A value past 64 bits appears in a message by its size (`shown`); a
# field rule's error names its field.
LINE5 = standard_space(FiniteDomain.line(5), TNorm.product(), TConorm.probabilistic_sum())


@pytest.mark.parametrize("build,error,field", [
    (lambda: detect_m_cauchy(_halving_trace(), 1e-6, 1.0, HUGE), PreconditionError, "window"),
    (lambda: detect_g_cauchy(_halving_trace(), HUGE, 1.0), PreconditionError, "m_offset"),
    (lambda: RunConfig({"schema_version": HUGE}), ConfigError, "schema_version"),
    (lambda: SamplerConfig(HUGE, 1, (1.0,)), DomainError, "mode"),
    (lambda: SelfMap.table([HUGE]), DomainError, "images"),
    (lambda: SelfMap.constant(HUGE).apply_checked(UNIT.domain, 0.5), DomainError, None),
    (lambda: edelstein_solve(LINE5, SelfMap.table([0, 0, 1, 2, 3]),
                             SolverConfig(1e-6, (1.0,), seeds=(HUGE,))), DomainError, None),
    (lambda: verify_fixed_point(UNIT, HALF, HUGE, (1.0,), 0.1), DomainError, None),
    (lambda: eval_mu(UNIT, HUGE, 0.5, 1.0), DomainError, None),
    (lambda: picard_iterate(UNIT, HALF, HUGE, SolverConfig(1e-6, (1.0,))), DomainError, None),
    (lambda: SelfMap.closure(lambda x: HUGE).apply_checked(UNIT.domain, 0.5), DomainError, None),
    (lambda: check_admissible(pair_from_k(0.5), HUGE), PreconditionError, "grid_size"),
    (lambda: check_norm_axioms(TNorm.product(), HUGE, 0), PreconditionError, "sample_count"),
    (lambda: check_joint_continuity(UNIT, [0.5], [HUGE], 0.5, 0.5, 1.0, 0.1), DomainError, None),
], ids=["m-cauchy-window", "g-cauchy-offset", "schema-version", "sampler-mode", "table-image",
        "constant-name", "edelstein-seed", "fixed-point", "eval-mu", "picard-start",
        "closure-image", "admissible-grid", "norm-count", "joint-point"])
def test_huge_value_is_shown_by_its_size(build, error, field):
    with pytest.raises(error, match="a 16610-bit integer") as err:
        build()
    assert err.value.field == field


@pytest.mark.parametrize("build,error,field", [
    (lambda: SelfMap.table(5), DomainError, "images"),
    (lambda: SolverConfig(1e-6, (1.0,), seeds=5), PreconditionError, "seeds"),
    (lambda: FiniteDomain(5, [[0]]), DomainError, "labels"),
    (lambda: check_joint_continuity(UNIT, [0.5], 5, 0.5, 0.5, 1.0, 0.1), PreconditionError, "ys"),
], ids=["table-images", "solver-seeds", "labels", "joint-ys"])
def test_sequence_argument_must_be_iterable(build, error, field):
    with pytest.raises(error) as err:
        build()
    assert (err.value.field, err.value.reason) == (field, "must be iterable, not int")


def test_type_error_while_iterating_is_not_relabelled():
    def images():
        yield 0
        raise TypeError("from the caller's generator")

    with pytest.raises(TypeError, match="from the caller's generator"):
        SelfMap.table(images())


@settings(max_examples=200, deadline=None)
@given(value=st.integers(-2**64 + 1, 2**64 - 1) | st.booleans() | NUMPY | st.floats()
       | st.text(max_size=8) | st.none())
def test_shown_is_repr_within_64_bits(value):
    assert shown(value) == repr(value)


@given(bits=st.integers(65, 20000), negative=st.booleans())
def test_shown_gives_the_size_past_64_bits(bits, negative):
    value = (-1) ** negative * 2 ** (bits - 1)
    sign = "negative " if negative else ""
    assert shown(value) == f"a {bits}-bit {sign}integer"


# verify_fixed_point reads its grid as a time grid: -1.0 passed with a
# residual nu of -0.0, () raised numpy's zero-size error, 5 was one t.
@pytest.mark.parametrize("t_grid,reason", [
    ((-1.0,), "must be > 0.0, got -1.0"),
    ((), "must be nonempty"),
    (5, "must be iterable, not int"),
], ids=["negative", "empty", "int"])
def test_fixed_point_grid_is_a_time_grid(t_grid, reason):
    with pytest.raises(PreconditionError) as err:
        verify_fixed_point(UNIT, HALF, 0.0, t_grid, 0.1)
    assert (err.value.field, err.value.reason) == ("t_grid", reason)


def test_numpy_numbers_are_stored_as_python_numbers():
    sampler = SamplerConfig(RANDOM, np.int64(10), (1.0,), seed=np.int64(3))
    assert json.dumps(sampler.to_dict()) == (
        '{"mode": "random", "sample_count": 10, "t_grid": [1.0], "seed": 3}')
    solver = SolverConfig(np.float64(0.5), (1.0,), max_iter=np.int32(7), point_tol=np.float32(0))
    assert [type(v) for v in (solver.epsilon, solver.max_iter, solver.point_tol)] == [
        float, int, float]
    assert type(IntervalDomain(np.int64(0), 1).lo) is float
    assert [type(i) for i in SelfMap.table(np.array([1, 0])).images] == [int, int]


# A line whose n x n matrix numpy cannot index fails on n, before any
# arithmetic or allocation; an accepted n is never sent to the CLI here.
@pytest.mark.parametrize("n", [2**32, 10**400])
def test_line_past_the_index_range(tmp_dir, n):
    with pytest.raises(DomainError) as err:
        FiniteDomain.line(n)
    assert err.value.field == "n"
    _check(tmp_dir, "space.domain.n", n)


# line(10**5) asked numpy for an 80 GB metric before any check.  The CLI
# runs in a child under a 1 GiB address-space limit, so a lost bound is a
# MemoryError there, never an allocation of that size.
def test_line_past_the_metric_budget(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config(_line(n=100000), sampler=SAMPLER)))
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from ifmkit.cli import main\n"
            "sys.exit(main(['audit', '--config', sys.argv[1], '--dump-config']))")
    env_path = os.pathsep.join(filter(None, [str(Path(ifmkit.__file__).parents[1]),
                                             os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": env_path}, timeout=120)
    assert (run.returncode, run.stderr) == (
        EXIT_CONFIG, "config error: space.domain.n: must be <= 8192, got 100000\n")


# Python refuses to parse an integer literal of more than 4,300 digits; a
# config holding one is a config error, not the parser's ValueError.
@pytest.mark.parametrize("dump", [True, False], ids=["dump-config", "run"])
def test_config_integer_past_the_digit_limit(tmp_path, capsys, dump):
    path = tmp_path / "config.json"
    text = json.dumps(_config(_line(n=4), sampler=SAMPLER))
    path.write_text(text.replace('"n": 4', '"n": ' + "9" * 5000))
    argv = ["audit", "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv + ["--dump-config"] * dump) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {path}: invalid JSON: ")


def test_error_names_field_and_reason():
    with pytest.raises(PreconditionError) as err:
        SolverConfig(1e-6, (1.0,), point_tol=math.inf)
    assert (err.value.field, err.value.reason) == ("point_tol", "must be finite, got inf")
    assert str(err.value) == "point_tol must be finite, got inf"


def test_max_iter_config_error(tmp_path, capsys):
    config = _config(solver={**SOLVER, "max_iter": 2.5, "seeds": [0.5]}, map={"name": "identity"})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: solver.max_iter: expected an integer, got float\n")


def test_t_grid_config_error(tmp_path, capsys):
    config = _config(solver={**SOLVER, "t_grid": [0.1, -1.0], "seeds": [0.5]},
                     map={"name": "identity"})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: solver.t_grid: must be > 0.0, got -1.0\n"


# The witness shrinker keeps the self-map rule: no sampled point of this
# map leaves [0, 1], but the shrunk witnesses pass through (0.45, 0.55).
ESCAPES = SelfMap.closure(lambda x: 7.0 if 0.45 < x < 0.55 else x)


@pytest.mark.parametrize("check", [
    lambda space, sampler: check_psi_phi_contractive(space, ESCAPES, pair_from_k(0.5), sampler),
    lambda space, sampler: check_k_contractive(space, ESCAPES, 0.5, sampler),
], ids=["psi-phi", "k"])
def test_shrinker_raises_for_an_image_outside_the_domain(check):
    space = standard_space(IntervalDomain(0.0, 1.0), TNorm.product(), TConorm.probabilistic_sum())
    with pytest.raises(DomainError, match=r"map closure sends .* to 7\.0, outside the domain"):
        check(space, SamplerConfig(RANDOM, 6, (0.5, 1.0), seed=2))

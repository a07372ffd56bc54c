"""Every record of ifmkit against a stdlib twin.

A record is a class that `errors.record` decorates: the stdlib's
`dataclass` generates its ``__init__``, and its repr, eq, hash, order and
frozen guard are functions shared by all records.  Each test builds, for
each record, the class that plain `dataclasses.dataclass` makes of the same
fields, flags and class body, and checks that the two behave alike.
"""

import copy
import dataclasses
import importlib
import inspect
import operator
from dataclasses import FrozenInstanceError, MISSING

import numpy as np
import pytest

from ifmkit import (AuditReport, AxiomCheck, IntervalDomain, ResidualCheck, SamplerConfig, SelfMap,
                    TConorm, TNorm, Witness, standard_space)
from ifmkit.contraction import ContractionWitness, FunctionAdmissibility, phi_from_k, psi_from_k
from ifmkit.errors import record
from ifmkit.norms import NormCheck

MODULES = ("auditor", "cli", "contraction", "errors", "norms", "sampling", "solver", "spaces")

# the flags each record is declared with, where they are not record()'s
# defaults (frozen=True, eq=True, order=False)
FLAGS = {"AuditReport": {"frozen": False}, "ContractionReport": {"frozen": False},
         "IterationTrace": {"frozen": False}, "FixedPointReport": {"frozen": False},
         "IFSpace": {"eq": False}, "SelfMap": {"eq": False}, "UnitValue": {"order": True}}


def _grade(x, y, t):
    return t / (t + abs(x - y))


def _half(x):
    return x / 2


_UNIT = IntervalDomain(0.0, 1.0)
_WITNESS = Witness("triangle", 0.25, 0.5, 1.0, 0.75, 2.0, 0.5, 0.25)
_PROBE = FunctionAdmissibility("psi", True, None, False, (0.5, 0.5), "increasing", True, 0.1)
_CONTRACTION_WITNESS = ContractionWitness("mu", 0.1, 0.2, 1.0, 0.5, 0.4)
_SPACE = standard_space(_UNIT, TNorm.product(), TConorm.probabilistic_sum())

# per record class name: the keyword arguments of one instance, and one
# field changed to another value
EXAMPLES = {
    "Witness": ({"axiom": "triangle", "x": 0.25, "y": 0.5, "t": 1.0, "z": 0.75, "s": 2.0,
                 "lhs": 0.5, "rhs": 0.25}, {"lhs": 0.75}),
    "AxiomCheck": ({"axiom": "symmetry", "status": "FAIL", "violation_count": 1,
                    "witnesses": (_WITNESS,), "detail": None}, {"status": "PASS"}),
    "AuditReport": ({"space_name": "standard", "triangle_mode": "archimedean",
                     "sampler": SamplerConfig("random", 10, (1.0,)),
                     "checks": (AxiomCheck("symmetry", "PASS"),), "domain": _UNIT},
                    {"space_name": "custom"}),
    "KContraction": ({"k": 0.5}, {"k": 0.25}),
    "PsiPhiPair": ({"psi": psi_from_k(0.5), "phi": phi_from_k(0.5)}, {"psi": psi_from_k(0.25)}),
    "SelfMap": ({"fn": _half, "name": "half", "images": None}, {"name": "halve"}),
    "FunctionAdmissibility": ({"label": "psi", "range_ok": True, "range_witness": None,
                               "strict_ok": False, "strict_witness": (0.5, 0.5),
                               "monotone_direction": "increasing", "continuity_ok": True,
                               "max_grid_jump": 0.1}, {"max_grid_jump": 0.2}),
    "AdmissibilityReport": ({"psi": _PROBE, "phi": _PROBE, "grid_size": 11}, {"grid_size": 12}),
    "ContractionWitness": ({"side": "mu", "x": 0.1, "y": 0.2, "t": 1.0, "lhs": 0.5,
                            "rhs": 0.4}, {"side": "nu"}),
    "ContractionReport": ({"condition": "k", "space_name": "standard", "map_name": "half",
                           "t_grid": (1.0,), "samples_checked": 10, "violation_count": 1,
                           "witnesses": [_CONTRACTION_WITNESS], "domain": _UNIT},
                          {"violation_count": 2}),
    "UnitValue": ({"value": 0.25}, {"value": 0.5}),
    "TNorm": ({"kind": "product"}, {"kind": "minimum"}),
    "TConorm": ({"kind": "custom", "fn": max}, {"fn": min}),  # fn is not compared
    "NormCheck": ({"axiom": "commutativity", "status": "FAIL", "violation_count": 2,
                   "witness": (0.1, 0.2), "detail": "a*b != b*a"}, {"witness": None}),
    "NormAxiomReport": ({"op_kind": "product", "identity_element": 1.0, "sample_count": 20,
                         "seed": 0, "checks": (NormCheck("associativity", "PASS"),)},
                        {"seed": 1}),
    "SamplerConfig": ({"mode": "random", "sample_count": 10, "t_grid": (0.5, 1.0), "seed": 3},
                      {"sample_count": 11}),
    "SolverConfig": ({"epsilon": 1e-6, "t_grid": (1.0,), "max_iter": 100, "point_tol": 1e-8,
                      "seeds": (0.5,), "cauchy_window": 5}, {"cauchy_window": 3}),
    "IterationTrace": ({"space": _SPACE, "map": SelfMap.scale(0.5), "t_grid": (1.0,),
                        "points": [1.0, 0.5], "mu_diag": {1.0: np.array([0.6])},
                        "nu_diag": {1.0: np.array([0.4])}, "stop_reason": "max_iter",
                        "note": None}, {"note": "stopped"}),
    "ResidualCheck": ({"residual_mu": 0.99, "residual_nu": 0.01, "tol": 0.1}, {"tol": 0.2}),
    "FixedPointReport": ({"method": "picard", "fixed_point": 0.0, "limits": [0.0, 0.0],
                          "iterations_per_seed": [3, 4], "stop_reasons": ["converged"] * 2,
                          "residual": ResidualCheck(1.0, 0.0, 0.1), "unique": True,
                          "witnesses": [], "limit_pairs": 1, "max_limit_distance": 0.0,
                          "cycle_lengths": None, "traces": [], "domain": _UNIT},
                         {"unique": False}),
    "JointContinuityResult": ({"ok": True, "threshold_index": 2, "max_mu_gap": 0.0,
                               "max_nu_gap": 0.0, "hypothesis_warning": None}, {"ok": False}),
    "IntervalDomain": ({"lo": 0.0, "hi": 1.0}, {"hi": 2.0}),
    "IFSpace": ({"domain": _UNIT, "mu": _grade, "nu": _grade, "tnorm": TNorm.product(),
                 "tconorm": TConorm.probabilistic_sum(), "triangle_mode": "archimedean",
                 "name": "custom"}, {"name": "other"}),
}


def _records():
    """Every dataclass that ifmkit's modules define, by class name."""
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"ifmkit.{name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and dataclasses.is_dataclass(cls)):
                found[cls.__name__] = cls
    return found


RECORDS = _records()
_GENERATED = {"__dict__", "__weakref__", "__dataclass_fields__", "__dataclass_params__",
              "__init__", "__match_args__", "_record_init"}
_SHARED = {"__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
           "__lt__", "__le__", "__gt__", "__ge__"}


def _flag(cls, name) -> bool:
    return FLAGS.get(cls.__name__, {}).get(name, name != "order")


def _generated(method) -> bool:
    """Whether `dataclass` compiled ``method`` for its class: such code is
    exec'd from a string."""
    code = getattr(getattr(method, "__wrapped__", method), "__code__", None)
    return code is not None and code.co_filename == "<string>"


def _body(cls) -> dict:
    """The namespace of cls's class body: what neither `dataclass` nor
    `record` put there."""
    return {k: v for k, v in vars(cls).items()
            if k not in _GENERATED and not (k in _SHARED and (
                v is None or _generated(v) or v.__module__ == "ifmkit.errors"))}


def _field(f):
    kwargs = {"init": f.init, "repr": f.repr, "hash": f.hash, "compare": f.compare,
              "metadata": f.metadata, "kw_only": f.kw_only}
    if f.default is not MISSING:
        kwargs["default"] = f.default
    if f.default_factory is not MISSING:
        kwargs["default_factory"] = f.default_factory
    return dataclasses.field(**kwargs)


def _twin(cls):
    """The stdlib dataclass of cls's fields, declared flags and class body;
    for a subclass that is no dataclass of its own (TNorm, TConorm), the
    same subclass of its base's twin."""
    if "__dataclass_fields__" not in vars(cls):
        return type(cls.__name__, (_twin(cls.__base__),), _body(cls))
    flags = {name: _flag(cls, name) for name in ("frozen", "eq", "order")}
    fields = [(f.name, f.type, _field(f)) for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=_body(cls), **flags)


PAIRS = [pytest.param(RECORDS[name], _twin(RECORDS[name]), *example, id=name)
         for name, example in EXAMPLES.items()]


def _outcome(call):
    """What call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def test_every_record_has_an_example():
    # _BinaryOp is built through TNorm and TConorm only
    assert set(RECORDS) - set(EXAMPLES) == {"_BinaryOp"}


@pytest.mark.parametrize("cls", RECORDS.values(), ids=RECORDS.keys())
def test_a_record_keeps_no_generated_method_but_init(cls):
    assert [name for name, value in vars(cls).items() if _generated(value)] in ([], ["__init__"])
    shared = RECORDS["Witness"]
    assert cls.__repr__ is shared.__repr__
    assert shared.__repr__.__module__ == shared.__eq__.__module__ == "ifmkit.errors"
    if _flag(cls, "eq") and "__eq__" not in _body(cls):
        assert cls.__eq__ is shared.__eq__
        assert (cls.__hash__ is shared.__hash__) if _flag(cls, "frozen") else cls.__hash__ is None
    assert (cls.__setattr__ is shared.__setattr__) == _flag(cls, "frozen")
    assert (cls.__lt__ is RECORDS["UnitValue"].__lt__) == _flag(cls, "order")


@pytest.mark.parametrize("cls, twin, kwargs, changed", PAIRS)
def test_fields_signature_and_params_match(cls, twin, kwargs, changed):
    def described(c):
        return [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash,
                 f.compare, f.kw_only, f.metadata) for f in dataclasses.fields(c)]

    assert described(cls) == described(twin)
    assert inspect.signature(cls).parameters == inspect.signature(twin).parameters
    assert cls.__match_args__ == twin.__match_args__
    params = ("init", "repr", "eq", "order", "unsafe_hash", "frozen")
    assert ([getattr(cls.__dataclass_params__, p) for p in params]
            == [getattr(twin.__dataclass_params__, p) for p in params])


@pytest.mark.parametrize("cls, twin, kwargs, changed", PAIRS)
def test_repr_asdict_replace_and_copies_match(cls, twin, kwargs, changed):
    record, other = cls(**kwargs), twin(**kwargs)
    assert repr(record) == repr(other)
    assert repr(dataclasses.asdict(record)) == repr(dataclasses.asdict(other))
    assert repr(dataclasses.astuple(record)) == repr(dataclasses.astuple(other))
    assert repr(dataclasses.replace(record, **changed)) == repr(dataclasses.replace(other, **changed))
    assert type(dataclasses.replace(record)) is cls
    for copied in (copy.copy, copy.deepcopy):
        assert repr(copied(record)) == repr(record)
    assert dataclasses.is_dataclass(record) and dataclasses.is_dataclass(cls)


def _compared(a, changed) -> list:
    """How ``a`` compares with a copy, a changed copy and other objects."""
    same, moved = dataclasses.replace(a), dataclasses.replace(a, **changed)
    return ([_outcome(lambda: op(a, b)) for b in (same, moved, a, (0.5,), object())
             for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt,
                        operator.ge)]
            + [a.__eq__(object()), _outcome(lambda: hash(a) == hash(same)),
               _outcome(lambda: hash(a) == hash(moved))])


@pytest.mark.parametrize("cls, twin, kwargs, changed", PAIRS)
def test_eq_order_and_hash_match(cls, twin, kwargs, changed):
    if "__eq__" in _body(cls):
        return  # SelfMap compares by its own key, on both sides
    record, other = cls(**kwargs), twin(**kwargs)
    assert _compared(record, changed) == _compared(other, changed)
    # a record and its twin are of two classes: neither side claims equality
    assert (record == other, other == record, record != other) == (False, False, True)
    if _flag(cls, "eq") and _flag(cls, "frozen"):
        assert hash(cls(**kwargs)) == hash(twin(**kwargs))


@pytest.mark.parametrize("cls, twin, kwargs, changed", PAIRS)
def test_frozen_guard_matches(cls, twin, kwargs, changed):
    (name, value), = changed.items()

    def guarded(c) -> list:
        a = c(**kwargs)
        return [_outcome(lambda: setattr(a, name, value)), repr(a),
                _outcome(lambda: a.__init__(**{**kwargs, **changed})), repr(a),
                _outcome(lambda: delattr(a, name)), _outcome(lambda: repr(a))]

    ours = guarded(cls)
    assert ours == guarded(twin)
    record = cls(**kwargs)
    if _flag(cls, "frozen"):
        assert ours[0] == (FrozenInstanceError, f"cannot assign to field {name!r}")
        assert ours[4] == (FrozenInstanceError, f"cannot delete field {name!r}")
        # TNorm and TConorm also refuse what their stdlib twins let through
        assert _outcome(lambda: setattr(record, "extra", 1)) == (
            FrozenInstanceError, "cannot assign to field 'extra'")
        assert not hasattr(record, "extra")
        if "__dataclass_fields__" in vars(cls):
            other = twin(**kwargs)
            assert _outcome(lambda: setattr(other, "extra", 1)) == (
                FrozenInstanceError, "cannot assign to field 'extra'")


def test_a_stdlib_dataclass_can_extend_a_record_as_before():
    @dataclasses.dataclass(frozen=True)
    class Tagged(Witness):
        tag: str = ""

    tagged = Tagged("triangle", 0.25, 0.5, 1.0, tag="t")
    assert repr(tagged).endswith("rhs=0.0, tag='t')") and hash(tagged) == hash(Tagged(**vars(tagged)))
    with pytest.raises(TypeError, match="cannot inherit non-frozen dataclass from a frozen one"):
        dataclasses.dataclass(type("Loose", (Witness,), {"__annotations__": {"tag": str}}))
    with pytest.raises(TypeError, match="cannot inherit frozen dataclass from a non-frozen one"):
        dataclasses.dataclass(frozen=True)(type("Fixed", (AuditReport,), {}))


def test_a_subclass_may_wrap_a_frozen_records_init():
    # as perfbench's tracer does to count domain builds
    class Counted(IntervalDomain):
        built = 0

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            type(self).built += 1

    domain = Counted(0.0, 2)
    assert repr(domain).endswith(".Counted(lo=0.0, hi=2.0)") and Counted.built == 1
    for name in ("lo", "extra"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(domain, name, 1.0)


def test_a_method_of_the_class_body_is_kept():
    @record()
    class Tagged:
        tag: str

        def __repr__(self):
            return f"<{self.tag}>"

        def __eq__(self, other):
            return isinstance(other, Tagged) and other.tag.lower() == self.tag.lower()

        def __hash__(self):
            return hash(self.tag.lower())

    assert repr(Tagged("A")) == "<A>" and Tagged("A") == Tagged("a")
    assert hash(Tagged("A")) == hash(Tagged("a"))

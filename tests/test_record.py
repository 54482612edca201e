"""The record base against frozen dataclasses built from the same fields."""

import dataclasses
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import realoracle
from realoracle import axioms, cli, constructors, functions, intervals, oracle, refine
from realoracle.record import Record

# Each value class with its fields in order; a pair is a field and its default.
FIELDS = [
    (intervals.RInterval, ["lo", "hi"]),
    (oracle.Budget, ["steps"]),
    (oracle.FonsiSource, ["enumerator", ("claimed_root", None)]),
    (constructors.SignFunction, ["eval_sign", ("description", "f"), ("coeffs", None)]),
    (constructors.CauchySpec, ["term", "modulus", ("known_limit", None)]),
    (constructors.UpperBoundTest, ["is_ub", "seed_member", "seed_bound"]),
    (functions.Rectangle, ["base", "wall"]),
    (functions.FunctionOracle, ["extension", "modulus", ("point", None), ("domain", None), ("description", "f")]),
    (refine.CFExpansion, ["terms", "convergents", "exact_terminated", "steps"]),
    (refine.DecimalEnclosure, ["digits_text", "places", "exact", "value"]),
    (axioms.Counterexample, ["note", "queries", "budget"]),
    (axioms.AxiomReport, ["property_name", "verdict", "samples_run", ("counterexample", None)]),
    (cli.RationalLit, ["value"]),
    (cli.Root, ["index", "radicand"]),
    (cli.PolyZero, ["coeffs", "bracket_lo", "bracket_hi"]),
    (cli.Neg, ["child"]),
    (cli.Add, ["left", "right"]),
    (cli.Sub, ["left", "right"]),
    (cli.Mul, ["left", "right"]),
    (cli.Recip, ["child", "witness_lo", "witness_hi"]),
]
IDS = [cls.__name__ for cls, _ in FIELDS]


def twin(cls, fields):
    spec = [(f, object) if isinstance(f, str) else (f[0], object, dataclasses.field(default=f[1])) for f in fields]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def sample(cls, fields, salt=""):
    """Valid values for every field, by keyword; ``salt`` varies them."""
    if cls is intervals.RInterval:
        return {"lo": F(1, 3), "hi": F(1, 2 + len(salt))}
    if cls is oracle.Budget:
        return {"steps": 7 + len(salt)}
    names = [f if isinstance(f, str) else f[0] for f in fields]
    return {name: f"{name}{salt}" for name in names}


def test_every_record_class_is_compared():
    def below(cls):
        return {cls}.union(*(below(sub) for sub in cls.__subclasses__()))

    assert below(Record) - {Record} == {cls for cls, _ in FIELDS}


@pytest.mark.parametrize("cls, fields", FIELDS, ids=IDS)
def test_a_record_behaves_as_its_frozen_dataclass_twin(cls, fields):
    other = twin(cls, fields)
    values = sample(cls, fields)
    positional = list(values.values())
    for made, model in [(cls(*positional), other(*positional)), (cls(**values), other(**values))]:
        assert repr(made) == repr(model)
        assert hash(made) == hash(model)
        assert made == cls(*positional) and not made != cls(*positional)
        assert made != model and made != tuple(positional)
    changed = sample(cls, fields, salt="!")
    assert cls(**changed) != cls(**values) and repr(cls(**changed)) == repr(other(**changed))
    required = {name: value for name, value in values.items() if name in fields}
    assert repr(cls(**required)) == repr(other(**required))  # the defaults
    assert repr(cls(*required.values())) == repr(other(*required.values()))


@pytest.mark.parametrize("cls, fields", FIELDS, ids=IDS)
def test_bad_calls_and_assignments_raise_as_for_the_twin(cls, fields):
    other = twin(cls, fields)
    values = sample(cls, fields)
    first = next(iter(values))
    calls = [
        ((), {k: v for k, v in values.items() if k != first}),  # a missing field
        ((), {**values, "unknown": 1}),
        ((*values.values(), 1), {}),  # one too many
        (tuple(values.values()), {first: values[first]}),  # one field twice
    ]
    for args, kwargs in calls:
        for build in (cls, other):
            with pytest.raises(TypeError):
                build(*args, **kwargs)
    with pytest.raises(TypeError, match=repr(first)):
        cls(**calls[0][1])
    with pytest.raises(TypeError, match="'unknown'"):
        cls(**calls[1][1])
    made = cls(**values)
    for name in (first, "unknown"):
        for record in (made, other(**values)):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert made == cls(**values)


def test_value_classes_keep_their_checks():
    with pytest.raises(ValueError, match="misordered"):
        intervals.RInterval(2, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        oracle.Budget(-1)
    with pytest.raises(TypeError, match="integer"):
        oracle.Budget(1.5)
    with pytest.raises(TypeError, match="integer"):
        oracle.Budget(steps="3")
    assert intervals.RInterval(hi="1/2", lo=0) == intervals.RInterval(F(0), F(1, 2))


def test_a_bare_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(realoracle.__file__).parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import realoracle; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"

"""The record idiom: cheap to import, with equality, hash and repr over the
fields, and fields that a frozen record refuses to reassign.

Pure records are NamedTuples; the value and arithmetic types subclass
`pshlab.records.Frozen` (or `Record` where their fields are reassignable).
"""

import copy
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pshlab
from pshlab.arrangement import HopfChart, Line, WeightedArrangement, preset
from pshlab.bergman import (CurveScan, GramBlock, GramResult, QuadratureSpec,
                            RaySlopes)
from pshlab.gaussian import GaussianRational
from pshlab.integrability import IntegrabilityVerdict
from pshlab.multiplier_ideal import IdealDescriptor
from pshlab.polynomials import HomogeneousForm
from pshlab.sequence import (ClaimResult, MonotonicityReport, PatternCheck,
                             SequenceEntry, SubsequenceVerdict,
                             VerificationReport)
from pshlab.singularity import (ComparisonResult, Relation, SingularityClass,
                                Witness)

SRC = Path(pshlab.__file__).resolve().parents[1]
THEOREM1 = preset("theorem1")
X, Y = THEOREM1.lines[:2]


def _new_modules(code: str, *flags: str) -> set[str]:
    """The modules a fresh interpreter loads for `code` beyond its start."""
    probe = ("import sys\nbefore = set(sys.modules)\n" + code
             + "\nprint(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, *flags, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_loads_no_heavy_stdlib():
    # -S: no module that `site` loads can hide one that pshlab loads
    loaded = _new_modules("import pshlab.cli", "-S")
    assert "pshlab.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "numpy", "datetime",
                         "csv"}, loaded


def test_numeric_layers_load_no_dataclasses():
    # numpy itself does not import dataclasses; the numeric layers need site
    loaded = _new_modules("import pshlab.bergman, pshlab.integrability")
    assert "numpy" in loaded and "dataclasses" not in loaded


def test_gram_loads_no_fft():
    # the angular spectra of the Hopf rule are one product with the phase
    # powers each: a Gram up to the top cofactor degree needs no numpy.fft
    loaded = _new_modules(
        "from pshlab import bergman\nfrom pshlab.arrangement import preset\n"
        "bergman.gram_matrix(preset('theorem1'), 1,\n"
        "                    bergman.QuadratureSpec(47, 10_000, 1))")
    assert "pshlab.bergman" in loaded and "numpy.fft" not in loaded


CHART = HopfChart(point=(1 + 0j, 0j), normal=(0j, 1 + 0j),
                  spacing=Fraction(1, 2), s1=0.125, pairs=((0j, 1 + 0j),),
                  chart_x=HomogeneousForm(1, ((1, 0), (0, 0))),
                  chart_y=HomogeneousForm(1, ((0, 0), (1, 0))))
QUAD = QuadratureSpec(max_degree=4, sphere_samples=10_000, seed=1)
CLS = SingularityClass.scaled(THEOREM1.key, (2, 2, 2, 1), 4)

# name -> (class, fields of one instance, a field and another value for it,
# whether the class refuses assignment)
CASES = {
    "IdealDescriptor": (IdealDescriptor, dict(b=(1, 2), e=4, p=1), ("p", 2),
                        True),
    "SequenceEntry": (SequenceEntry,
                      dict(m=4, ideal=IdealDescriptor((2, 2, 2), 7, 1),
                           cls=CLS), ("m", 5), True),
    "Witness": (Witness, dict(kind="gamma", index=0, first=Fraction(1, 2),
                              second=Fraction(2, 3)), ("index", 1), True),
    "PatternCheck": (PatternCheck, dict(k=1, pair=(3, 5), forward_fails=True,
                                        reverse_holds=True),
                     ("reverse_holds", False), True),
    "SubsequenceVerdict": (SubsequenceVerdict,
                           dict(indices=(2, 4), decreasing=True,
                                strictly=False, converges_to_weight=True,
                                first_failure=None), ("strictly", True), True),
    "ClaimResult": (ClaimResult, dict(claim_id="c", description="d",
                                      passed=True, details={"k": 1}),
                    ("passed", False), True),
    "IntegrabilityVerdict": (IntegrabilityVerdict,
                             dict(integrable=True,
                                  radial_margin=Fraction(1, 3),
                                  line_margins=(0.5, 0.25), resolution=1e-7,
                                  undecided=False), ("undecided", True), True),
    "GramBlock": (GramBlock, dict(degree=2, span=(0, 3), gram=((1.0,),),
                                  transform=((1.0,),)), ("degree", 3), True),
    "GaussianRational": (GaussianRational, dict(re=Fraction(1, 2),
                                                im=Fraction(-3)),
                         ("im", Fraction(3)), True),
    "HomogeneousForm": (HomogeneousForm,
                        dict(degree=1, coeffs=((1, 0), (2, 1)), den=3),
                        ("den", 5), True),
    "Line": (Line, dict(cx=X.cx, cy=X.cy), ("cy", Y.cy), True),
    "WeightedArrangement": (
        WeightedArrangement,
        dict(lines=THEOREM1.lines, coeffs=THEOREM1.coeffs,
             point_mass=THEOREM1.point_mass, total_mass=THEOREM1.total_mass),
        ("point_mass", Fraction(1)), True),
    "HopfChart": (HopfChart, {name: getattr(CHART, name)
                              for name in HopfChart._fields},
                  ("s1", 0.25), True),
    "QuadratureSpec": (QuadratureSpec, dict(max_degree=4,
                                            sphere_samples=10_000, seed=1),
                       ("seed", 2), True),
    "RaySlopes": (RaySlopes, dict(gram=None, value=1.5, per_ray=[1.5]),
                  ("value", 2.0), False),
    "CurveScan": (CurveScan, dict(grams=(None, None), t=(1.0,), phi1=(0.5,),
                                  phi2=(0.25,), slope=-1.0),
                  ("slope", 1.0), False),
    "MonotonicityReport": (MonotonicityReport,
                           dict(arrangement=THEOREM1, entries=[],
                                comparisons=[], violations=[(3, 4)],
                                subsequence=None),
                           ("violations", []), False),
    "VerificationReport": (VerificationReport, dict(results=[]),
                           ("results", [None]), False),
}
NAMED_TUPLES = {"IdealDescriptor", "SequenceEntry", "Witness", "PatternCheck",
                "SubsequenceVerdict", "ClaimResult", "IntegrabilityVerdict",
                "GramBlock"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_semantics(name):
    cls, fields, (field, other), frozen = CASES[name]
    assert cls.__name__ == name
    assert issubclass(cls, tuple) == (name in NAMED_TUPLES)
    one, two = cls(**fields), cls(**fields)
    assert all(getattr(one, k) is v for k, v in fields.items())
    assert cls(*fields.values()) == one
    # equality and hash over the fields, within the class
    assert one == two and not one != two
    assert cls(**{**fields, field: other}) != one
    try:  # a dict among the fields makes even a frozen record unhashable
        want = hash(tuple(fields.values())) if frozen else None
    except TypeError:
        want = None
    if want is None:
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(two) == want
    assert repr(one) == f"{name}(" + ", ".join(
        f"{k}={v!r}" for k, v in fields.items()) + ")"
    if frozen:
        with pytest.raises(AttributeError):
            setattr(one, field, other)
        assert getattr(one, field) is fields[field]
    else:
        setattr(one, field, other)
        assert getattr(one, field) is other and one != two
    if name not in NAMED_TUPLES:
        # unlike a tuple, a value record equals only its own class: not the
        # tuple of its fields, and not a subclass instance with equal fields
        assert not isinstance(two, tuple) and two != tuple(fields.values())
        twin = object.__new__(type("Twin", (cls,), {"__slots__": ()}))
        for k, v in fields.items():
            object.__setattr__(twin, k, v)
        assert twin != two and two != twin
    if frozen:
        assert copy.copy(two) == two and copy.deepcopy(two) == two


def test_comparison_result_record():
    # equality and hash read (relation, witnesses); the repr, the relation
    lower = SingularityClass.scaled(THEOREM1.key, (1, 1, 1, 1), 4)
    step = ComparisonResult(Relation.SECOND_MORE_SINGULAR, (lower, CLS))
    again = ComparisonResult(relation=Relation.SECOND_MORE_SINGULAR,
                             pair=(lower, CLS))
    assert step == again and hash(step) == hash(again)
    assert step != ComparisonResult(Relation.EQUIVALENT, (CLS, CLS))
    assert repr(step) == \
        "ComparisonResult(relation=<Relation.SECOND_MORE_SINGULAR: " \
        "'second_more_singular'>)"
    with pytest.raises(AttributeError):
        step.relation = Relation.EQUIVALENT
    assert [str(w) for w in step.witnesses] == ["gamma[0]: 1/4 < 1/2"]


def test_records_whose_constructor_differs_from_their_fields():
    assert repr(CLS) == f"SingularityClass(key={THEOREM1.key!r}, " \
        "num=(2, 2, 2, 1), den=4)"
    assert CLS == SingularityClass(THEOREM1.key, [Fraction(1, 2)] * 3,
                                   Fraction(1, 4))
    assert hash(CLS) == hash((THEOREM1.key, (2, 2, 2, 1), 4))
    with pytest.raises(AttributeError):
        CLS.den = 8
    with pytest.raises(AttributeError):
        del CLS.den
    assert copy.deepcopy(CLS) == CLS
    assert QUAD.with_max_degree(6) == QuadratureSpec(6, 10_000, 1)
    # an omitted ClaimResult.details is empty, and no two claims share it
    assert ClaimResult("c", "d", True).to_dict()["details"] == {}
    with pytest.raises(TypeError):
        ClaimResult("c", "d", True).details["k"] = 1
    # GramResult: mutable, unhashable, with its dense views cached per object
    from pshlab.bergman import gram_matrix

    result = gram_matrix(THEOREM1, 1, QUAD)
    assert isinstance(result, GramResult) and result.gram is result.gram
    assert repr(result).startswith("GramResult(m=1, spec=QuadratureSpec(")
    with pytest.raises(TypeError):
        hash(result)
    assert np.array_equal(result.blocks[0].gram, result.blocks[0][2])

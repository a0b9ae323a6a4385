"""Record types: their text, hashes and immutability, and a cold import of
every submodule that loads no dataclasses machinery.

Fan and CurveClass are slotted classes; the other nine records are named
tuples.  A record's hash is the hash of its field tuple, so the iteration
order of any set or dict keyed by records cannot move with the record's
implementation.
"""

import copy
import os
import pathlib
import pickle
import pkgutil
import subprocess
import sys

import pytest

from toricqh import catalog, cohomology, curves, fano
from toricqh.fan import CurveClass, Fan, PrimitiveData, ValidationReport, validate
from toricqh.fano import ClassTier, ExceptionalData, RelationCertificate, Tier
from toricqh.quantum import Presentation, QuantumTerm

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_P2 = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (0, 2), (1, 2)))
_LINE = CurveClass((1, 1, 1))
_PD = PrimitiveData((0, 1), (3,), (1,), CurveClass((1, 1, 0, -1, 0, 0)))
_CERT = RelationCertificate((0, 1), 1, (3,), 1)

# (record, its exact repr, the field tuple it hashes as)
RECORDS = [
    (
        _P2,
        "Fan(dim=2, rays=((1, 0), (0, 1), (-1, -1)), max_cones=((0, 1), (0, 2), (1, 2)))",
        (2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (0, 2), (1, 2))),
    ),
    (_LINE, "CurveClass(pairings=(1, 1, 1))", ((1, 1, 1),)),
    (
        ValidationReport(False, ("cone (1, 2) is not unimodular",)),
        "ValidationReport(accepted=False, problems=('cone (1, 2) is not unimodular',))",
        (False, ("cone (1, 2) is not unimodular",)),
    ),
    (
        _PD,
        "PrimitiveData(set=(0, 1), rhs_cone=(3,), rhs_coeffs=(1,), "
        "cls=CurveClass(pairings=(1, 1, 0, -1, 0, 0)))",
        ((0, 1), (3,), (1,), CurveClass((1, 1, 0, -1, 0, 0))),
    ),
    (
        cohomology.Shelling((3, 1), ((0, 3), (0, 5)), ((), (5,))),
        "Shelling(perturbation=(3, 1), order=((0, 3), (0, 5)), tau=((), (5,)))",
        ((3, 1), ((0, 3), (0, 5)), ((), (5,))),
    ),
    (
        curves.ToricTree((0, 1), 2, (((1,), 1),), _LINE, True),
        "ToricTree(root=(0, 1), target=2, edges=(((1,), 1),), "
        "cls=CurveClass(pairings=(1, 1, 1)), degree_verified=True)",
        ((0, 1), 2, (((1,), 1),), _LINE, True),
    ),
    (
        _CERT,
        "RelationCertificate(pset=(0, 1), coefficient_sum=1, rhs_cone=(3,), rhs_multiplicity=1)",
        ((0, 1), 1, (3,), 1),
    ),
    (
        ClassTier(Tier.FULL_CLASS, (_CERT,)),
        "ClassTier(tier=<Tier.FULL_CLASS: 3>, certificates=(RelationCertificate(pset=(0, 1), "
        "coefficient_sum=1, rhs_cone=(3,), rhs_multiplicity=1),))",
        (Tier.FULL_CLASS, (_CERT,)),
    ),
    (
        ExceptionalData((0, 1), 3, CurveClass((1, 1, 0, -1, 0, 0))),
        "ExceptionalData(set=(0, 1), exc=3, cls=CurveClass(pairings=(1, 1, 0, -1, 0, 0)))",
        ((0, 1), 3, CurveClass((1, 1, 0, -1, 0, 0))),
    ),
    (
        QuantumTerm(_LINE, (0, 0, 1), 2),
        "QuantumTerm(curve=CurveClass(pairings=(1, 1, 1)), monomial=(0, 0, 1), coefficient=2)",
        (_LINE, (0, 0, 1), 2),
    ),
    (
        Presentation(3, ((1, 0, -1), (0, 1, -1)), (_PD,)),
        "Presentation(n_generators=3, linear=((1, 0, -1), (0, 1, -1)), deformed=(PrimitiveData("
        "set=(0, 1), rhs_cone=(3,), rhs_coeffs=(1,), cls=CurveClass(pairings=(1, 1, 0, -1, 0, 0))),))",
        (3, ((1, 0, -1), (0, 1, -1)), (_PD,)),
    ),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_repr_is_pinned(record, text, fields):
    assert repr(record) == text


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_hash_is_the_field_tuple_hash(record, text, fields):
    assert hash(record) == hash(fields)


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record, text, fields):
    name = text[text.index("(") + 1 : text.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    assert repr(record) == text


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=IDS)
def test_records_survive_pickle_and_copy(record, text, fields):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert twin == record and hash(twin) == hash(record) and repr(twin) == text


def test_slotted_records_have_no_dict_and_no_new_attributes():
    for record, field in ((_P2, "rays"), (_LINE, "pairings")):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_fan_and_curve_class_never_equal_a_tuple():
    p2_fields = (_P2.dim, _P2.rays, _P2.max_cones)
    assert _P2 != p2_fields and p2_fields != _P2
    assert _LINE != (1, 1, 1) and _LINE != ((1, 1, 1),) and ((1, 1, 1),) != _LINE
    assert Fan.__eq__(_P2, p2_fields) is NotImplemented
    assert CurveClass.__eq__(_LINE, ((1, 1, 1),)) is NotImplemented
    assert _P2 == catalog.projective_plane() and _LINE == CurveClass([1, 1, 1])


def test_records_built_by_the_library_match_the_pinned_text():
    bl3p2 = catalog.blowup_p2_three()
    assert validate(_P2) == ValidationReport(True, ())
    assert fano.classify(bl3p2).certificates[0] == _CERT
    assert repr(fano.exceptional_sets(bl3p2)[0]) == RECORDS[8][1]


def test_cold_import_loads_no_dataclasses_machinery():
    # every submodule, since the package namespace and the CLI import lazily;
    # -S keeps site out, which on some installs imports random by itself
    names = [m.name for m in pkgutil.iter_modules([str(SRC / "toricqh")])]
    probe = (
        "import sys; before = set(sys.modules)\n"
        "for name in sys.argv[1:]: __import__('toricqh.' + name)\n"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, *names],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert {"cli", "quantum", "catalog"} <= set(names)
    assert {f"toricqh.{name}" for name in names} <= added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "random"}

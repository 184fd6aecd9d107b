"""Record classes: keyword construction, read-only tuples, fresh details, validation."""

import dataclasses

import numpy as np
import pytest

import coneguard
from coneguard import (
    AkktRecord,
    AkktTrace,
    AlmConfig,
    CaratheodoryResult,
    Certificate,
    CertifyOutcome,
    ConeMembership,
    ConicBlock,
    ConicProgram,
    CqReport,
    DependenceWitness,
    EvaluatedPoint,
    IndexClassification,
    RecoveryOutcome,
    ReducedEntry,
    ReducedGradients,
    SpectralData,
)
from coneguard.expr import GradedValue, parse
from coneguard.model import PsdBlockValue, SocBlockValue

V = np.array([1.0, 2.0])
M = np.eye(2)
TAPE = parse("x1", 1)

# every record with keyword arguments naming each of its fields
RECORDS = [
    (AkktRecord, dict(k=3, x=V, lam=V, mu={"c": V}, alpha={"d": 0.5})),
    (AkktTrace, dict(records=())),
    (AlmConfig, dict(rho0=2.0, gamma=3.0, cap=10.0, outer_max=5, inner_max=7, tol_stat=1e-7, tol_feas=1e-9)),
    (CaratheodoryResult, dict(kept=(0,), coeffs=V, fixed_coeffs=V, residual=0.0)),
    (Certificate, dict(verdict="dependent", margin=0.5, witness=None, residual=1e-9, normalization=1.0,
                       iterations=4, detail={"a": 1})),
    (CertifyOutcome, dict(certified=False, reason="r", offending_k=2, detail={"a": 1})),
    (ConeMembership, dict(member=True, free_coeffs=V, cone_coeffs=V, residual=0.0)),
    (ConicBlock, dict(name="c", kind="soc", dim=1, tapes=(TAPE,), affine=None)),
    (ConicProgram, dict(n=1, objective=TAPE, eq_names=(), equalities=(), blocks=())),
    (CqReport, dict(name="rcpld", verdict="Holds", detail={"a": 1}, certificate=None)),
    (DependenceWitness, dict(lam=V, soc=(V,), psd=(M,), alpha=V)),
    (EvaluatedPoint, dict(program=None, x=V, f=0.0, grad_f=V, h=V, jac_h=M, blocks=(), residual=0.0)),
    (GradedValue, dict(value=1.0, partials=V)),
    (IndexClassification, dict(labels=("interior",), tol_act=1e-8, tol_gap=1e-6, block_names=("c",))),
    (PsdBlockValue, dict(value=None, partials=M, spectral=None)),
    (RecoveryOutcome, dict(verdict="kkt", multipliers={}, residual=0.0, equality_basis=("e",), modal_subset=("c",),
                           modal_frequency=2, m_values=(1.0,), certificate=None, detail={"a": 1})),
    (ReducedEntry, dict(block=0, label="scalar", value=0.0, gradient=V, axis=np.ones(1))),
    (ReducedGradients, dict(entries=())),
    (SocBlockValue, dict(value=V, jac=M)),
    (SpectralData, dict(eigenvalues=V, eigenvectors=M)),
]


def _same(a, b):
    return np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b


@pytest.mark.parametrize("cls,kwargs", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_keyword_construction(cls, kwargs):
    rec = cls(**kwargs)
    for name, value in kwargs.items():
        assert _same(getattr(rec, name), value), name


TUPLES = [(cls, kwargs) for cls, kwargs in RECORDS if issubclass(cls, tuple)]


@pytest.mark.parametrize("cls,kwargs", TUPLES, ids=[cls.__name__ for cls, _ in TUPLES])
def test_tuple_records_are_read_only(cls, kwargs):
    rec = cls(**kwargs)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)


@pytest.mark.parametrize(
    "make",
    [
        lambda: CqReport("rcpld", "Holds"),
        lambda: Certificate("undecided"),
        lambda: CertifyOutcome(True),
        lambda: RecoveryOutcome("inconclusive"),
    ],
)
def test_default_details_are_not_shared(make):
    first, second = make(), make()
    first.detail["key"] = 1
    assert second.detail == {}


def test_validation_is_kept():
    with pytest.raises(ValueError):
        AlmConfig(rho0=0)
    with pytest.raises(ValueError):
        AlmConfig(gamma=1)


def test_no_exported_class_is_a_dataclass():
    exported = [getattr(coneguard, name) for name in coneguard.__all__]
    classes = [obj for obj in exported if isinstance(obj, type)]
    assert len(classes) > 20
    assert [cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)] == []

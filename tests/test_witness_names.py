"""The names a Fails witness carries rebuild the system it solves.

Each name selects one row of the system: an equality name its gradient, a
block name among the free rows or the rays its reduced gradient, and an
SOC or PSD name its block's Jacobian or partials, on the kernel face for
robinson and in the full cone otherwise.  ``verify_dependence`` must
accept the witness on the system rebuilt from the names alone.
"""

import numpy as np
import pytest

from coneguard.akkt import AkktRecord, build_trace, recover_kkt
from coneguard.certificates import verify_dependence
from coneguard.classify import classify
from coneguard.cqchecks import _face_system, check_crsc, check_rcpld, check_robinson
from coneguard.model import evaluate, loads
from coneguard.reduction import conic_base, reduced_view

from conftest import SOC_LINE

PROGRAMS = {
    "opposite vertex blocks": ("vars 1\nobjective x1\nsoc a 2\nx1\n0\nsoc b 2\n-x1\n0\n", [0.0]),
    "CPLD3": ("vars 3\nobjective x1\nsoc a 1\nx2\nsoc b 1\nx1 * x1 - x2\n", [0.0, 0.0, 0.0]),
    "SOC boundary line": (SOC_LINE.read_text(), [0.0]),
    # every witness has an equality row, and unequal multipliers on a and b
    "equality and opposite vertex blocks": (
        "vars 2\nobjective x1\neq h x1 + x2\nsoc a 2\nx1\n0\nsoc b 2\n-2 * x1\n0\n",
        [0.0, 0.0],
    ),
    # a and b are opposite rays, so crsc's free rows hold a's reduced gradient
    "gradient basis": (
        "vars 2\nobjective x1\nsoc a 1\nx1\nsoc b 1\n-x1\nsoc c 2\nx1 + x2\n0\nsoc d 2\n-2 * x2\n0\n",
        [0.0, 0.0],
    ),
    # diag(x1, -x1, 1): robinson's witness is 2x2 on the kernel face, the others' 3x3
    "PSD kernel face": ("vars 1\nobjective x1\npsd G 3\nx1\n0\n0\n-x1\n0\n1\n", [0.0]),
}
CHECKS = {"robinson": check_robinson, "rcpld": check_rcpld, "crsc": check_crsc}
# CPLD3's crsc Fails on a rank that changes at a sample, with no witness
CASES = [(name, cq) for name in PROGRAMS for cq in CHECKS if (name, cq) != ("CPLD3", "crsc")]


def _rebuild(pt, cls, names, face=False, strict=True):
    """The system the witness names select at pt."""
    eq_names, soc_names, psd_names, ray_names = names
    prog = pt.program
    grads = {cls.block_names[e.block]: e.gradient for e in reduced_view(pt, cls, strict=strict).entries}
    rows = {**grads, **dict(zip(prog.eq_names, pt.jac_h))}
    if face:
        socs, soc_idx, psds, psd_idx, _, _ = _face_system(pt, cls)
    else:
        (socs, psds), soc_idx, psd_idx = conic_base(pt, cls), cls.soc_vertex_multi, cls.psd_multiple
    cones = dict(zip(tuple(soc_idx) + tuple(psd_idx), socs + psds))
    return (
        [rows[n] for n in eq_names],
        [cones[prog.block_index(n)] for n in soc_names],
        [cones[prog.block_index(n)] for n in psd_names],
        [grads[n] for n in ray_names],
    )


def _assert_names_rebuild(cert, names, system):
    witness = cert.witness
    assert [len(part) for part in names] == [len(witness.lam), len(witness.soc), len(witness.psd), len(witness.alpha)]
    ok, residual, cone_gap, normalization = verify_dependence(*system, witness)
    assert ok, (names, residual, cone_gap, normalization)


@pytest.mark.parametrize("name, cq", CASES)
def test_check_witness_names_rebuild_its_system(name, cq):
    text, x = PROGRAMS[name]
    pt = evaluate(loads(text), np.array(x))
    cls = classify(pt)
    report = CHECKS[cq](pt, cls)
    assert report.verdict == "Fails" and report.certificate is not None
    system = _rebuild(pt, cls, report.witness_names, face=cq == "robinson")
    _assert_names_rebuild(report.certificate, report.witness_names, system)


def test_recover_witness_names_rebuild_its_system():
    # multipliers of the vertex block G grow geometrically along (1, -1)
    prog = loads("vars 1\nobjective x1\nsoc G 2\nx1\nx1\n")
    mu = [{"G": np.array([10.0**k + 0.5, 0.5 - 10.0**k])} for k in range(10)]
    records = [AkktRecord(k, np.zeros(1), np.zeros(0), mu[k], {}) for k in range(10)]
    pt = evaluate(prog, np.zeros(1))
    out = recover_kkt(pt, build_trace(prog, records))
    assert out.verdict == "unbounded"
    system = _rebuild(pt, classify(pt), out.witness_names, strict=False)
    _assert_names_rebuild(out.certificate, out.witness_names, system)

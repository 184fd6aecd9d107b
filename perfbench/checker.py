"""Independent checks of the CLI's outputs.

Everything is read back from the fenced report (``cli.parse_report``) and
re-verified independently: known verdicts and block labels, every `Fails`
dependence witness by substitution into the same system
(``certificates.verify_dependence``), every recovered KKT point with
``akkt.verify_kkt``, and every trace written by `solve` by a round trip
through ``loads_trace``/``dumps_trace``.  Each check returns a list of
rejection causes; an empty list means the output was accepted.
"""

from __future__ import annotations

import numpy as np

ALLOWED_EXIT = (0, 1, 2, 3, 64)
CHECKS = ("nondegeneracy", "robinson", "rcpld", "crsc")


def fenced(text):
    """The fenced block of a command's output, byte for byte, or None."""
    from coneguard.cli import REPORT_BEGIN, REPORT_END

    start = text.find(REPORT_BEGIN + "\n")
    stop = text.find(REPORT_END + "\n", start)
    if start < 0 or stop < 0:
        return None
    return text[start : stop + len(REPORT_END) + 1]


def rows(text):
    from coneguard.cli import parse_report

    try:
        return parse_report(text)
    except ValueError:
        return []


def first(report, *head):
    """Tokens after ``head`` on the first row that starts with it, or None."""
    for row in report:
        if row[: len(head)] == head:
            return row[len(head) :]
    return None


def verdicts(report):
    return {row[1]: row[2] for row in report if row[0] == "verdict"}


def _floats(tokens):
    return np.array([float(t) for t in tokens])


def _sym(tokens):
    """Symmetric matrix from its upper triangle, row-major."""
    m = int(round((np.sqrt(8 * len(tokens) + 1) - 1) / 2))
    mat = np.zeros((m, m))
    iu = np.triu_indices(m)
    mat[iu] = _floats(tokens)
    return mat + np.triu(mat, 1).T


def _point(prog, x):
    from coneguard.classify import classify
    from coneguard.model import evaluate

    pt = evaluate(prog, np.asarray(x, dtype=float))
    return pt, classify(pt)


def _witness(report, scope, lam_names, soc_names, psd_names, ray_names):
    from coneguard.certificates import DependenceWitness

    values = {}
    for row in report:
        if row[:2] == ("witness", scope):
            values[(row[2], row[3])] = row[4:]
    try:
        lam = _floats([values[("lambda", n)][0] for n in lam_names])
        soc = tuple(_floats(values[("mu", n)]) for n in soc_names)
        psd = tuple(_sym(values[("mu", n)]) for n in psd_names)
        alpha = _floats([values[("alpha", n)][0] for n in ray_names])
    except KeyError as exc:
        return None, "witness for %s lacks a coefficient for %s" % (scope, exc)
    return DependenceWitness(lam, soc, psd, alpha), None


def _verify(report, scope, system, names):
    from coneguard.certificates import verify_dependence

    witness, problem = _witness(report, scope, *names)
    if witness is None:
        return [problem]
    ok, residual, cone_gap, normalization = verify_dependence(*system, witness)
    if not ok:
        return [
            "%s witness fails substitution (residual %.3g, cone gap %.3g, normalization %.3g)"
            % (scope, residual, cone_gap, normalization)
        ]
    return []


def _full_cone_system(pt, cls, eq_names, eq_extra, ray_names, strict=True):
    """System with full-cone irreducible blocks, as rcpld, crsc and recover build it."""
    from coneguard.reduction import reduced_view

    prog = pt.program
    grads = {prog.blocks[e.block].name: e.gradient for e in reduced_view(pt, cls, strict=strict).entries}
    eq = [pt.jac_h[prog.eq_names.index(n)] for n in eq_names] + [grads[n] for n in eq_extra]
    socs = [pt.blocks[j].jac for j in cls.soc_vertex_multi]
    psds = [pt.blocks[j].partials for j in cls.psd_multiple]
    return (eq, socs, psds, [grads[n] for n in ray_names])


def review_check(prog, x, code, report, verdicts_known, labels_known):
    """Check the report of `check --cq all`; returns rejection causes."""
    from coneguard.cqchecks import _face_system

    causes = []
    found = verdicts(report)
    for name, want in verdicts_known.items():
        if found.get(name) != want:
            causes.append("%s is %s, expected %s" % (name, found.get(name), want))
    causes += review_labels(report, labels_known)
    if first(report, "status") != ("feasible",):
        return causes
    if sorted(found) != sorted(CHECKS):
        return causes + ["verdicts missing: %r" % (found,)]
    want_code = 1 if "Fails" in found.values() else 0 if set(found.values()) == {"Holds"} else 3
    if code != want_code:
        causes.append("exit code %d for verdicts %r" % (code, found))

    pt, cls = _point(prog, x)
    conic_soc = cls.names(cls.soc_vertex_multi)
    conic_psd = cls.names(cls.psd_multiple)
    has_witness = {row[1] for row in report if row[0] == "witness"}
    if found["robinson"] == "Fails" and "robinson" in has_witness:
        socs, _, psds, _, rays, _ = _face_system(pt, cls)
        eq = [pt.jac_h[i] for i in range(prog.p)]
        names = (
            prog.eq_names,
            first(report, "detail", "robinson", "soc-blocks") or (),
            first(report, "detail", "robinson", "psd-blocks") or (),
            first(report, "detail", "robinson", "rays") or (),
        )
        causes += _verify(report, "robinson", (eq, socs, psds, rays), names)
    if found["rcpld"] == "Fails" and "rcpld" in has_witness:
        basis = first(report, "detail", "rcpld", "equality-basis") or ()
        subset = first(report, "detail", "rcpld", "subset") or ()
        system = _full_cone_system(pt, cls, basis, (), subset)
        causes += _verify(report, "rcpld", system, (basis, conic_soc, conic_psd, subset))
    if found["crsc"] == "Fails" and "crsc" in has_witness:
        basis = first(report, "detail", "crsc", "equality-basis") or ()
        gbasis = first(report, "detail", "crsc", "gradient-basis") or ()
        j_plus = first(report, "detail", "crsc", "j-plus") or ()
        system = _full_cone_system(pt, cls, basis, gbasis, j_plus)
        causes += _verify(report, "crsc", system, (tuple(basis) + tuple(gbasis), conic_soc, conic_psd, j_plus))
    for name in ("rcpld", "crsc"):
        if found[name] == "Fails":
            causes += _review_sample(prog, cls, report, name, name in has_witness)
    return causes


def _review_sample(prog, cls, report, name, has_witness):
    """A sampled check's Fails must carry a witness or a sample point that shows it.

    The witness itself is verified by substitution in review_check.  At a
    printed sample point the checker recomputes the rank the report rests
    on: for rcpld's dependent subset the subset's gradients must be
    independent there; for a rank that is not locally constant the rank
    at the sample must be the one printed, and differ from the point's.
    """
    from coneguard.certificates import numerical_rank
    from coneguard.model import evaluate
    from coneguard.reduction import reduced_view

    sample = first(report, "detail", name, "sample-point")
    if sample is None:
        return [] if has_witness else ["%s Fails without a witness or a sample point" % name]
    sp = evaluate(prog, _floats(sample))
    grads = {prog.blocks[e.block].name: e.gradient for e in reduced_view(sp, cls).entries}
    eq = {n: sp.jac_h[i] for i, n in enumerate(prog.eq_names)}
    if first(report, "detail", name, "rank-at-sample") is None:
        basis = first(report, "detail", name, "equality-basis") or ()
        family = [eq[n] for n in basis] + [grads[n] for n in first(report, "detail", name, "subset") or ()]
        if numerical_rank(family)[0] != len(family):
            return ["%s subset gradients are dependent at the printed sample point" % name]
        return []
    family = list(eq.values()) + [grads[n] for n in first(report, "detail", name, "j-minus") or ()]
    rank = numerical_rank(family)[0]
    printed = int(first(report, "detail", name, "rank-at-sample")[0])
    at_point = int(first(report, "detail", name, "rank-at-point")[0])
    if rank != printed or rank == at_point:
        return ["%s rank at the sample point is %d, printed %d, %d at the point" % (name, rank, printed, at_point)]
    return []


def review_labels(report, labels_known):
    causes = []
    for row in report:
        if row[0] == "block" and row[1] in labels_known and row[4] != labels_known[row[1]]:
            causes.append("block %s labelled %s, expected %s" % (row[1], row[4], labels_known[row[1]]))
    return causes


def review_trace(prog, text):
    """A trace written by `solve` must survive loads_trace/dumps_trace unchanged."""
    from coneguard.akkt import dumps_trace, loads_trace

    if dumps_trace(loads_trace(prog, text)) != text:
        return ["trace does not round-trip through loads_trace/dumps_trace"]
    return []


def review_certify(code, report):
    if code == 2:
        return []  # capped, slightly infeasible final iterate: a documented outcome
    certified = first(report, "certified")
    if certified is None or certified[0] not in ("yes", "no"):
        return ["certify report has no certified line"]
    if code != (0 if certified[0] == "yes" else 1):
        return ["certify exit code %d with certified %s" % (code, certified[0])]
    return []


def review_recover(prog, code, report):
    """Re-verify a KKT result with verify_kkt and a divergence witness by substitution."""
    from coneguard.akkt import verify_kkt

    if code == 2:
        return []  # capped, slightly infeasible final iterate: a documented outcome
    recovery = first(report, "recovery")
    if recovery is None:
        return ["recover report has no recovery line"]
    want_code = {"KKT": 0, "UnboundedWitness": 1, "Inconclusive": 3}.get(recovery[0])
    if code != want_code:
        return ["recover exit code %d with recovery %s" % (code, recovery[0])]
    pt, cls = _point(prog, _floats(first(report, "point")))
    if recovery[0] == "KKT":
        lam = _floats(first(report, "lambda") or ())
        mu = {}
        for blk in prog.blocks:
            tokens = first(report, "mu", blk.name)
            if tokens is None:
                return ["KKT result lacks a multiplier for %s" % blk.name]
            mu[blk.name] = _floats(tokens) if blk.kind == "soc" else _sym(tokens)
        tol = 10.0 * float(first(report, "tol")[0])
        ok, detail = verify_kkt(pt, lam, mu, tol)
        if not ok:
            return ["recovered multipliers fail verify_kkt: %r" % (detail,)]
    if recovery[0] == "UnboundedWitness":
        basis = first(report, "equality-basis") or ()
        modal = first(report, "modal-subset") or ()
        system = _full_cone_system(pt, cls, basis, (), modal, strict=False)
        names = (basis, cls.names(cls.soc_vertex_multi), cls.names(cls.psd_multiple), modal)
        return _verify(report, "recover", system, names)
    return []

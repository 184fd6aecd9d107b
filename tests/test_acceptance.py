"""Acceptance suite: one test and one printed pass/fail line per criterion."""

import io
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    PROBLEMS,
    fd_tolerance,
    grid_dependence_oracle,
    make_planted_dependent,
    make_planted_independent,
    random_feasible_program,
)
from coneguard.akkt import certify_akkt, recover_kkt, verify_kkt
from coneguard.alm import _penalty_terms, solve
from coneguard.certificates import caratheodory_reduce, conic_dependence
from coneguard.classify import classify
from coneguard.cli import (
    EXIT_NEGATIVE,
    main,
    parse_report,
)
from coneguard.cqchecks import (
    check_crsc,
    check_nondegeneracy,
    check_rcpld,
    check_robinson,
)
from coneguard.expr import eval_grad, parse
from coneguard.model import embed_block_diagonal, evaluate, loads
from coneguard.reduction import eigen_gap, phi_soc, reduced_view, sigma_min_grad

SOC_LINE = str(PROBLEMS / "soc_boundary_line.txt")
PSD_PAIR = str(PROBLEMS / "psd_pair_line.txt")
SCALAR_PAIR = str(PROBLEMS / "scalar_pair.txt")


def _conclude(number, label, errors):
    status = "PASS" if not errors else "FAIL"
    suffix = "" if not errors else " — " + "; ".join(str(e) for e in errors)
    line = "criterion %d (%s): %s%s" % (number, label, status, suffix)
    print(line)
    assert not errors, line


def _expect(errors, condition, message):
    if not condition:
        errors.append(message)


def _rows(out, *head):
    return [r for r in parse_report(out) if r[: len(head)] == head]


def _row(out, *head):
    found = _rows(out, *head)
    assert len(found) == 1, (head, found)
    return found[0]


def _central_fd(fun, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        out[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return out


def test_criterion_1_boundary_line_reproduction(capsys):
    errors = []
    started = time.perf_counter()
    try:
        code = main(["check", "--problem", SOC_LINE, "--point", "1", "--cq", "all"])
        out, _ = capsys.readouterr()
        _expect(errors, code == EXIT_NEGATIVE, "exit code %d" % code)
        verdicts = {r[1]: r[2] for r in _rows(out, "verdict")}
        _expect(errors, verdicts.get("robinson") == "Fails", "robinson %s" % verdicts)
        _expect(errors, verdicts.get("nondegeneracy") == "Fails", "nondegeneracy %s" % verdicts)
        _expect(errors, verdicts.get("rcpld") == "Holds", "rcpld %s" % verdicts)
        _expect(errors, verdicts.get("crsc") == "Holds", "crsc %s" % verdicts)
        alpha = float(_row(out, "witness", "robinson", "alpha", "g")[4])
        _expect(errors, abs(alpha - 1.0) <= 1e-6, "witness alpha %g" % alpha)
        resid = float(_row(out, "detail", "robinson", "residual")[3])
        _expect(errors, resid <= 1e-7, "combination residual %g" % resid)
        jm = _row(out, "detail", "crsc", "j-minus")
        _expect(errors, jm[3:] == ("g",), "j-minus %r" % (jm[3:],))
    except Exception as exc:  # pragma: no cover - defensive reporting
        errors.append("unexpected error: %r" % exc)
    elapsed = time.perf_counter() - started
    _expect(errors, elapsed < 1.0, "runtime %.2fs" % elapsed)
    _conclude(1, "boundary-line CQ portrait", errors)


def test_criterion_2_kernel_pair_reproduction():
    errors = []
    started = time.perf_counter()
    try:
        prog = loads(Path(PSD_PAIR).read_text(encoding="utf-8"))
        pt = evaluate(prog, np.zeros(1))
        cls = classify(pt)
        _expect(errors, cls.psd_simple == (0, 1), "simple set %r" % (cls.psd_simple,))
        rv = reduced_view(pt, cls)
        grads = [entry.gradient for entry in rv.entries]
        _expect(errors, abs(grads[0][0] - 1.0) <= 1e-10, "gradient %r" % grads[0])
        _expect(errors, abs(grads[1][0] + 1.0) <= 1e-10, "gradient %r" % grads[1])
        rob = check_robinson(pt, cls)
        _expect(errors, rob.verdict == "Fails", "robinson %s" % rob.verdict)
        wit = rob.certificate.witness
        combo = np.zeros(1)
        for name, coeff, entry in zip(rob.detail["rays"], wit.alpha, rv.entries):
            mu = coeff * np.outer(
                pt.blocks[cls.reduced()[0] if name == "g1" else cls.reduced()[1]].spectral.eigenvectors[:, 0],
                pt.blocks[cls.reduced()[0] if name == "g1" else cls.reduced()[1]].spectral.eigenvectors[:, 0],
            )
            eigs = np.linalg.eigvalsh(mu)
            _expect(errors, eigs.min() >= -1e-9, "mu for %s has eigenvalue %g" % (name, eigs.min()))
            j = 0 if name == "g1" else 1
            combo = combo + np.tensordot(pt.blocks[j].partials, mu, axes=([1, 2], [0, 1]))
        _expect(errors, float(np.linalg.norm(combo)) <= 1e-7,
                "substitution residual %g" % float(np.linalg.norm(combo)))
        rcpld = check_rcpld(pt, cls)
        crsc = check_crsc(pt, cls)
        _expect(errors, rcpld.verdict == "Holds", "rcpld %s" % rcpld.verdict)
        _expect(errors, crsc.verdict == "Holds", "crsc %s" % crsc.verdict)
        _expect(errors, crsc.detail["j_minus"] == ("g1", "g2"),
                "j_minus %r" % (crsc.detail["j_minus"],))
    except Exception as exc:  # pragma: no cover - defensive reporting
        errors.append("unexpected error: %r" % exc)
    elapsed = time.perf_counter() - started
    _expect(errors, elapsed < 1.0, "runtime %.2fs" % elapsed)
    _conclude(2, "kernel-pair CQ portrait", errors)


def test_criterion_3_block_diagonal_pathology():
    errors = []
    try:
        pair = loads(Path(PSD_PAIR).read_text(encoding="utf-8"))
        scalars = loads(Path(SCALAR_PAIR).read_text(encoding="utf-8"))

        pt = evaluate(scalars, np.zeros(2))
        multifold = check_nondegeneracy(pt, classify(pt))
        _expect(errors, multifold.verdict == "Holds",
                "multifold scalar form %s" % multifold.verdict)

        for label, prog, x in [
            ("embedded kernel pair", embed_block_diagonal(pair), np.zeros(1)),
            ("embedded scalar pair", embed_block_diagonal(scalars), np.zeros(2)),
        ]:
            pt = evaluate(prog, x)
            cls = classify(pt)
            _expect(errors, cls.psd_multiple == (0,), "%s not irreducible" % label)
            rep = check_nondegeneracy(pt, cls)
            _expect(errors, rep.verdict == "Fails", "%s %s" % (label, rep.verdict))
    except Exception as exc:  # pragma: no cover - defensive reporting
        errors.append("unexpected error: %r" % exc)
    _conclude(3, "diagonal embedding breaks nondegeneracy", errors)


def test_criterion_4_caratheodory_suite():
    errors = []
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    checked = 0
    try:
        for _ in range(500):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(0, min(3, n) + 1))
            while True:
                fixed = [rng.integers(-8, 9, size=n) / 4.0 for _ in range(p)]
                if p == 0 or np.linalg.matrix_rank(np.stack(fixed)) == p:
                    break
            q = int(rng.integers(1, 9))
            vectors = []
            for i in range(q):
                roll = rng.random()
                if roll < 0.15:
                    vectors.append(np.zeros(n))
                elif roll < 0.3 and vectors:
                    vectors.append(vectors[int(rng.integers(0, len(vectors)))].copy())
                else:
                    vectors.append(rng.integers(-8, 9, size=n) / 4.0)
            betas = rng.integers(1, 17, size=q) / 8.0
            lam0 = rng.integers(-8, 9, size=p) / 4.0
            target = sum(b * v for b, v in zip(betas, vectors))
            if p:
                target = target + np.stack(fixed).T @ lam0
            target = np.asarray(target, dtype=float).reshape(n)

            res = caratheodory_reduce(fixed, list(zip(vectors, betas)), target)
            recon = np.zeros(n)
            if p:
                recon = recon + np.stack(fixed).T @ res.fixed_coeffs
            for idx, coeff in zip(res.kept, res.coeffs):
                recon = recon + coeff * vectors[idx]
            scale = max(1.0, float(np.linalg.norm(target)))
            gap = float(np.linalg.norm(recon - target))
            _expect(errors, gap <= 1e-10 * scale, "reconstruction %g" % gap)
            family = list(fixed) + [vectors[i] for i in res.kept]
            if family:
                _expect(
                    errors,
                    np.linalg.matrix_rank(np.stack(family)) == len(family),
                    "dependent output family",
                )
            _expect(errors, np.all(res.coeffs > 0), "nonpositive coefficient")
            checked += 1
            if errors:
                break
    except Exception as exc:  # pragma: no cover - defensive reporting
        errors.append("unexpected error: %r" % exc)
    elapsed = time.perf_counter() - started
    _expect(errors, checked == 500, "only %d instances ran" % checked)
    _expect(errors, elapsed < 10.0, "runtime %.2fs" % elapsed)
    _conclude(4, "500-instance conic thinning suite", errors)


def test_criterion_5_dependence_oracle_equivalence():
    errors = []
    rng = np.random.default_rng(505)
    shapes = [
        ([2], [], 1),
        ([], [2], 1),
        ([], [], 4),
        ([3], [], 0),
        ([2], [], 2),
        ([], [2], 0),
        ([], [], 3),
        ([3], [], 1),
    ]
    undecided = 0
    disagreements = []
    try:
        for i in range(100):
            n = 2 + (i // 2) % 2
            soc_dims, psd_dims, n_rays = shapes[i % len(shapes)]
            if i % 2 == 0:
                eq, soc, psd, rays = make_planted_dependent(rng, n, soc_dims, psd_dims, n_rays)
            else:
                eq, soc, psd, rays = make_planted_independent(rng, n, soc_dims, psd_dims, n_rays)
            cert = conic_dependence(eq, soc, psd, rays)
            if cert.verdict == "undecided":
                undecided += 1
                continue
            oracle_dep, best = grid_dependence_oracle(eq, soc, psd, rays)
            mine = cert.verdict == "dependent"
            if mine != oracle_dep:
                disagreements.append("instance %d: %s vs oracle %s (best %g)"
                                     % (i, cert.verdict, oracle_dep, best))
        _expect(errors, not disagreements, "; ".join(disagreements))
        _expect(errors, undecided <= 10, "%d undecided" % undecided)
    except Exception as exc:  # pragma: no cover - defensive reporting
        errors.append("unexpected error: %r" % exc)
    _conclude(5, "100-instance oracle agreement", errors)


def test_criterion_6_gradient_suites():
    errors = []
    rng = np.random.default_rng(66)
    try:
        # expression forward-mode derivatives
        sources = [
            "x1 ^ 3 + 2 * x2",
            "x1 * x2 - x2 ^ 2",
            "(x1 + x2) * (x1 - x2)",
            "x1 * x1 * x2 + 4",
            "(x1 - 1) ^ 2 + (x2 + 2) ^ 2",
        ]
        for src in sources:
            e = parse(src, 2)
            for _ in range(10):
                x = rng.uniform(-2.0, 2.0, size=2)
                gv = eval_grad(e, x)
                fd = _central_fd(lambda y: eval_grad(e, y).value, x)
                scale = max(1.0, abs(gv.value), float(np.max(np.abs(gv.partials))))
                err = float(np.max(np.abs(fd - gv.partials)))
                _expect(errors, err <= fd_tolerance(scale),
                        "expression %r gradient error %g" % (src, err))

        # boundary reduction gradients
        soc_prog = loads(
            "vars 2\nobjective x1\nsoc c 3\nx1 ^ 2 + x2\nx1 * x2 - 1\nx1 + 2 * x2\n"
        )
        for _ in range(25):
            x = rng.uniform(-1.5, 1.5, size=2)
            value, grad = phi_soc(evaluate(soc_prog, x), 0)
            fd = _central_fd(lambda y: phi_soc(evaluate(soc_prog, y), 0)[0], x)
            scale = max(1.0, abs(value), float(np.max(np.abs(grad))))
            err = float(np.max(np.abs(fd - grad)))
            _expect(errors, err <= fd_tolerance(scale), "phi gradient error %g" % err)

        # smallest-eigenvalue gradients, simple spectrum only
        psd_prog = loads(
            "vars 2\nobjective x1\npsd P 2\nx1 ^ 2 + 1\nx1 * x2\nx2 ^ 2 + 2\n"
        )
        checked = 0
        for _ in range(40):
            x = rng.uniform(-1.5, 1.5, size=2)
            pt = evaluate(psd_prog, x)
            gap, scale0 = eigen_gap(pt, 0)
            if gap <= 10.0 * 1e-6 * scale0:
                continue
            value, grad = sigma_min_grad(pt, 0)
            fd = _central_fd(lambda y: sigma_min_grad(evaluate(psd_prog, y), 0)[0], x)
            scale = max(1.0, abs(value), float(np.max(np.abs(grad))))
            err = float(np.max(np.abs(fd - grad)))
            _expect(errors, err <= fd_tolerance(scale), "sigma-min gradient error %g" % err)
            checked += 1
        _expect(errors, checked >= 25, "only %d eigenvalue points checked" % checked)

        # augmented Lagrangian gradients away from projection kinks
        alm_prog = loads(
            "vars 2\nobjective x1 ^ 2 + x2\neq h x1 + x2 - 1\nsoc G 2\nx1\nx2\npsd a 1\nx1\n"
        )
        checked = 0
        for _ in range(40):
            x = rng.uniform(-1.5, 1.5, size=2)
            lam = rng.uniform(-2.0, 2.0, size=1)
            mus = [rng.uniform(-2.0, 2.0, size=2), rng.uniform(-2.0, 2.0, size=(1, 1))]
            rho = 2.0
            pt = evaluate(alm_prog, x)
            z_soc = mus[0] - rho * pt.blocks[0].value
            if abs(float(np.linalg.norm(z_soc[1:])) - z_soc[0]) <= 1e-3 * max(1.0, float(np.linalg.norm(z_soc))):
                continue
            z_psd = mus[1] - rho * pt.blocks[1].value
            if abs(float(z_psd[0, 0])) <= 1e-3 * max(1.0, abs(float(z_psd[0, 0]))):
                continue
            val, grad, _ = _penalty_terms(pt, lam, mus, rho)
            fd = _central_fd(
                lambda y: _penalty_terms(evaluate(alm_prog, y), lam, mus, rho)[0], x
            )
            scale = max(1.0, abs(val), float(np.max(np.abs(grad))))
            err = float(np.max(np.abs(fd - grad)))
            _expect(errors, err <= fd_tolerance(scale),
                    "augmented Lagrangian gradient error %g" % err)
            checked += 1
        _expect(errors, checked >= 25, "only %d penalty points checked" % checked)
    except Exception as exc:  # pragma: no cover - defensive reporting
        errors.append("unexpected error: %r" % exc)
    _conclude(6, "four finite-difference gradient suites", errors)


def test_criterion_7_end_to_end_pipeline():
    errors = []
    started = time.perf_counter()
    try:
        for label, path, x0 in [
            ("boundary line", SOC_LINE, np.array([3.0])),
            ("kernel pair", PSD_PAIR, np.array([0.75])),
        ]:
            prog = loads(Path(path).read_text(encoding="utf-8"))
            trace, status = solve(prog, x0, log=io.StringIO())
            _expect(errors, status == "converged", "%s solver %s" % (label, status))
            x_star = trace.records[-1].x
            outcome = certify_akkt(evaluate(prog, x_star), trace)
            _expect(errors, outcome.certified, "%s not certified (%s)" % (label, outcome.reason))
            _expect(errors, outcome.detail["max_tail_residual"] <= 1e-6,
                    "%s tail residual %g" % (label, outcome.detail["max_tail_residual"]))
            rec = recover_kkt(evaluate(prog, x_star), trace)
            _expect(errors, rec.verdict == "kkt", "%s recovery %s" % (label, rec.verdict))
            if rec.verdict == "kkt":
                pt = evaluate(prog, x_star)
                ok, detail = verify_kkt(
                    pt, rec.multipliers["lambda"], rec.multipliers["mu"], 1e-5
                )
                _expect(errors, ok, "%s multipliers rejected: %r" % (label, detail))
    except Exception as exc:  # pragma: no cover - defensive reporting
        errors.append("unexpected error: %r" % exc)
    elapsed = time.perf_counter() - started
    _expect(errors, elapsed < 30.0, "runtime %.2fs" % elapsed)
    _conclude(7, "solve/certify/recover pipeline", errors)


def test_criterion_8_cq_hierarchy():
    errors = []
    rng = np.random.default_rng(2026)
    robinson_holds = 0
    try:
        for i in range(50):
            prog, x_star = random_feasible_program(rng)
            pt = evaluate(prog, x_star)
            cls = classify(pt)
            rob = check_robinson(pt, cls, budget=4000)
            if rob.verdict != "Holds":
                continue
            robinson_holds += 1
            rcpld = check_rcpld(pt, cls, samples=10, budget=4000)
            crsc = check_crsc(pt, cls, samples=10, budget=4000)
            _expect(errors, rcpld.verdict != "Fails",
                    "instance %d: Robinson Holds but RCPLD Fails" % i)
            _expect(errors, crsc.verdict != "Fails",
                    "instance %d: Robinson Holds but CRSC Fails" % i)
        _expect(errors, robinson_holds >= 5,
                "only %d instances had Robinson hold" % robinson_holds)
    except Exception as exc:  # pragma: no cover - defensive reporting
        errors.append("unexpected error: %r" % exc)
    _conclude(8, "implication order over random corpus", errors)

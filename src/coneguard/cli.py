"""Command-line interface.

Subcommands: classify, check, solve, certify, recover, embed-diag.  Every
command prints a short human-readable summary followed by a fenced
machine-readable section between ``---REPORT-BEGIN---`` and
``---REPORT-END---`` whose lines follow the problem-file grammar (first
token is a key, the rest are values, floats rendered with %.17g).  The
fenced section is byte-identical across identical invocations; timing
lines are printed outside the fence.

Exit codes: 0 for positive outcomes (feasible, Holds, converged,
certified, recovered KKT point), 1 for negative ones (Fails, rejected
trace, diverging-multiplier witness, unbounded descent), 2 for an
infeasible point, 3 for undecided or inconclusive outcomes (also when an
internal iteration budget runs out or a factorization does not converge),
and 64 for unusable inputs (bad flags, malformed files or vectors).

The environment variable CONEGUARD_SEED, when set, overrides check --seed.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time

import numpy as np

from .akkt import certify_akkt, dump_trace, load_trace, recover_kkt
from .alm import AlmConfig, solve
from .certificates import DEFAULT_BUDGET, TOL_CERT, TOL_RANK
from .classify import TOL_ACT, TOL_GAP, classify
from .cones import upper_triangle
from .cqchecks import (
    DELTA,
    SAMPLES,
    SEED,
    SUBSET_CAP,
    check_crsc,
    check_nondegeneracy,
    check_rcpld,
    check_robinson,
)
from .errors import (
    BudgetExhaustedError,
    ConeguardError,
    DimensionMismatchError,
    DomainError,
    ExprSyntaxError,
    InfeasiblePointError,
    ProblemFormatError,
    SymmetryError,
    UnknownIdentifierError,
    VariableIndexError,
)
from .model import block_distances, dumps, embed_block_diagonal, evaluate, loads

_F = "%.17g"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INFEASIBLE = 2
EXIT_UNDECIDED = 3
EXIT_USAGE = 64

REPORT_BEGIN = "---REPORT-BEGIN---"
REPORT_END = "---REPORT-END---"

_INPUT_ERRORS = (
    ProblemFormatError,
    ExprSyntaxError,
    UnknownIdentifierError,
    VariableIndexError,
    DimensionMismatchError,
    SymmetryError,
)


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


def _fmt(value):
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalize negative zero
    return _F % value


def _fmt_vec(values):
    return [_fmt(v) for v in np.asarray(values, dtype=float).reshape(-1)]


def _fmt_upper(mat):
    mat = np.asarray(mat, dtype=float)
    return [_fmt(v) for v in mat[upper_triangle(mat.shape[0])]]


class Report:
    """Ordered token lines destined for the fenced machine-readable block."""

    def __init__(self):
        self.lines = []

    def add(self, *tokens):
        self.lines.append(tuple(str(t) for t in tokens))

    def render(self):
        body = [" ".join(line) for line in self.lines]
        return "\n".join([REPORT_BEGIN] + body + [REPORT_END]) + "\n"


def parse_report(text):
    """Extract the fenced section of a command's output as token tuples.

    render(parse(text)) reproduces the fenced block byte for byte, since
    lines are whitespace-delimited tokens joined by single spaces.
    """
    lines = text.splitlines()
    try:
        start = lines.index(REPORT_BEGIN)
        stop = lines.index(REPORT_END, start + 1)
    except ValueError:
        raise ValueError("no machine-readable report section found")
    return [tuple(line.split()) for line in lines[start + 1 : stop]]


def _emit_detail(rep, scope, detail):
    """Serialize the flat part of a detail dict deterministically.

    Scalars, strings, arrays, and flat homogeneous tuples are emitted as
    ``detail <scope> <key> <values...>`` with keys sorted; nested
    structures stay in the human-readable section only.
    """
    for key in sorted(detail):
        value = detail[key]
        name = key.replace("_", "-")
        if isinstance(value, bool):
            rep.add("detail", scope, name, "yes" if value else "no")
        elif isinstance(value, (int, np.integer)):
            rep.add("detail", scope, name, "%d" % int(value))
        elif isinstance(value, (float, np.floating)):
            rep.add("detail", scope, name, _fmt(value))
        elif isinstance(value, str):
            rep.add("detail", scope, name, *value.split())
        elif isinstance(value, np.ndarray):
            rep.add("detail", scope, name, *_fmt_vec(value))
        elif isinstance(value, (tuple, list)):
            items = list(value)
            if all(isinstance(t, str) for t in items):
                rep.add("detail", scope, name, *items)
            elif all(isinstance(t, (int, np.integer)) for t in items):
                rep.add("detail", scope, name, *("%d" % int(t) for t in items))
            elif all(isinstance(t, (int, float, np.integer, np.floating)) for t in items):
                rep.add("detail", scope, name, *(_fmt(t) for t in items))
        # nested values (subset logs, per-sample tables) are human-only


def _emit_witness(rep, scope, witness, lam_names, soc_names, psd_names, ray_names):
    if witness is None:
        return
    for name, coeff in zip(lam_names, witness.lam):
        rep.add("witness", scope, "lambda", name, _fmt(coeff))
    for name, mu in zip(soc_names, witness.soc):
        rep.add("witness", scope, "mu", name, *_fmt_vec(mu))
    for name, mat in zip(psd_names, witness.psd):
        rep.add("witness", scope, "mu", name, *_fmt_upper(mat))
    for name, coeff in zip(ray_names, witness.alpha):
        rep.add("witness", scope, "alpha", name, _fmt(coeff))


def _load_program(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _CliError(EXIT_USAGE, "cannot read problem file %s: %s" % (path, exc))
    try:
        return loads(text)
    except _INPUT_ERRORS as exc:
        raise _CliError(EXIT_USAGE, "problem file %s: %s" % (path, exc))


def _parse_vector(text, n, what):
    tokens = [t for t in re.split(r"[\s,]+", text.strip()) if t]
    try:
        values = [float(t) for t in tokens]
    except ValueError:
        raise _CliError(EXIT_USAGE, "%s must be a comma- or space-separated list of numbers" % what)
    if len(values) != n:
        raise _CliError(EXIT_USAGE, "%s has %d entries, the program expects %d" % (what, len(values), n))
    return np.array(values, dtype=float)


def _evaluate_checked(prog, x, what):
    try:
        return evaluate(prog, x)
    except DomainError as exc:
        raise _CliError(EXIT_USAGE, "%s leaves an expression domain: %s" % (what, exc))


def _resolve_seed(args):
    env = os.environ.get("CONEGUARD_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError:
        raise _CliError(EXIT_USAGE, "CONEGUARD_SEED must be an integer, got %r" % env)


def _finish(rep, started, human_lines):
    for line in human_lines:
        print(line)
    sys.stdout.write(rep.render())
    print("elapsed %.3f s" % (time.perf_counter() - started))


def _classification_label(cls, j):
    if j in cls.soc_interior:
        return "interior"
    if j in cls.soc_boundary:
        return "boundary"
    if j in cls.soc_scalar_active:
        return "vertex-scalar"
    if j in cls.soc_vertex_multi:
        return "vertex"
    if j in cls.psd_inactive:
        return "inactive"
    if j in cls.psd_simple:
        return "kernel-simple"
    return "kernel-multiple"


def _emit_classification(rep, prog, cls):
    for j, blk in enumerate(prog.blocks):
        rep.add("block", blk.name, blk.kind, "%d" % blk.dim, _classification_label(cls, j))
    rep.add("set", "soc-interior", *cls.names(cls.soc_interior))
    rep.add("set", "soc-boundary", *cls.names(cls.soc_boundary))
    rep.add("set", "soc-vertex-scalar", *cls.names(cls.soc_scalar_active))
    rep.add("set", "soc-vertex", *cls.names(cls.soc_vertex_multi))
    rep.add("set", "psd-inactive", *cls.names(cls.psd_inactive))
    rep.add("set", "psd-kernel-simple", *cls.names(cls.psd_simple))
    rep.add("set", "psd-kernel-multiple", *cls.names(cls.psd_multiple))
    rep.add("set", "reduced", *cls.names(cls.reduced()))
    rep.add("set", "conic", *cls.names(cls.conic()))


def _infeasible_exit(rep, started, pt, exc, human):
    rep.add("status", "infeasible")
    rep.add("residual", _fmt(exc.residual))
    for name, dist in sorted(block_distances(pt).items()):
        rep.add("distance", name, _fmt(dist))
    _finish(rep, started, human + ["point is infeasible (residual %s)" % _fmt(exc.residual)])
    return EXIT_INFEASIBLE


def _cmd_classify(args):
    started = time.perf_counter()
    prog = _load_program(args.problem)
    x = _parse_vector(args.point, prog.n, "--point")
    pt = _evaluate_checked(prog, x, "--point")
    rep = Report()
    rep.add("command", "classify")
    rep.add("problem", args.problem)
    rep.add("point", *_fmt_vec(x))
    rep.add("tol-act", _fmt(args.tol_act))
    rep.add("tol-gap", _fmt(args.tol_gap))
    try:
        cls = classify(pt, args.tol_act, args.tol_gap)
    except InfeasiblePointError as exc:
        return _infeasible_exit(rep, started, pt, exc, [])
    rep.add("status", "feasible")
    rep.add("objective", _fmt(pt.f))
    rep.add("residual", _fmt(pt.residual))
    _emit_classification(rep, prog, cls)
    human = ["classification at the given point:"]
    for j, blk in enumerate(prog.blocks):
        human.append(
            "  %-12s %s dim %d: %s" % (blk.name, blk.kind, blk.dim, _classification_label(cls, j))
        )
    _finish(rep, started, human)
    return EXIT_OK


_CHECK_ORDER = ("nondegeneracy", "robinson", "rcpld", "crsc")


def _run_check(name, pt, cls, args, seed):
    if name == "nondegeneracy":
        return check_nondegeneracy(pt, cls, tol_rank=args.tol_rank)
    if name == "robinson":
        return check_robinson(pt, cls, tol_rank=args.tol_rank, tol_cert=args.tol_cert, budget=args.budget)
    if name == "rcpld":
        return check_rcpld(
            pt,
            cls,
            delta=args.radius,
            samples=args.samples,
            seed=seed,
            tol_rank=args.tol_rank,
            tol_cert=args.tol_cert,
            budget=args.budget,
            subset_cap=args.subset_cap,
        )
    return check_crsc(
        pt,
        cls,
        delta=args.radius,
        samples=args.samples,
        seed=seed,
        tol_rank=args.tol_rank,
        tol_cert=args.tol_cert,
        budget=args.budget,
    )


def _witness_names(name, prog, cls, report):
    detail = report.detail
    conic_soc = cls.names(cls.soc_vertex_multi)
    conic_psd = cls.names(cls.psd_multiple)
    if name == "robinson":
        return (prog.eq_names, detail.get("soc_blocks", conic_soc), detail.get("psd_blocks", conic_psd), detail.get("rays", ()))
    if name == "rcpld":
        return (detail.get("equality_basis", ()), conic_soc, conic_psd, detail.get("subset", ()))
    if name == "crsc":
        free = tuple(detail.get("equality_basis", ())) + tuple(detail.get("gradient_basis", ()))
        return (free, conic_soc, conic_psd, detail.get("j_plus", ()))
    return ((), (), (), ())


def _cmd_check(args):
    started = time.perf_counter()
    prog = _load_program(args.problem)
    x = _parse_vector(args.point, prog.n, "--point")
    seed = _resolve_seed(args)
    pt = _evaluate_checked(prog, x, "--point")
    rep = Report()
    rep.add("command", "check")
    rep.add("problem", args.problem)
    rep.add("point", *_fmt_vec(x))
    rep.add("cq", args.cq)
    rep.add("tol-act", _fmt(args.tol_act))
    rep.add("tol-gap", _fmt(args.tol_gap))
    rep.add("tol-rank", _fmt(args.tol_rank))
    rep.add("tol-cert", _fmt(args.tol_cert))
    rep.add("radius", _fmt(args.radius))
    rep.add("samples", "%d" % args.samples)
    rep.add("seed", "%d" % seed)
    rep.add("budget", "%d" % args.budget)
    try:
        cls = classify(pt, args.tol_act, args.tol_gap)
    except InfeasiblePointError as exc:
        return _infeasible_exit(rep, started, pt, exc, [])
    rep.add("status", "feasible")
    _emit_classification(rep, prog, cls)
    names = _CHECK_ORDER if args.cq == "all" else (args.cq,)
    human = []
    verdicts = []
    for name in names:
        report = _run_check(name, pt, cls, args, seed)
        verdicts.append(report.verdict)
        rep.add("verdict", name, report.verdict)
        _emit_detail(rep, name, report.detail)
        if report.certificate is not None and report.certificate.witness is not None:
            lam_names, soc_names, psd_names, ray_names = _witness_names(name, prog, cls, report)
            _emit_witness(rep, name, report.certificate.witness, lam_names, soc_names, psd_names, ray_names)
        note = report.detail.get("reason") or report.detail.get("note") or ""
        human.append("%-14s %s%s" % (name + ":", report.verdict, "  (%s)" % note if note else ""))
    _finish(rep, started, human)
    if any(v == "Fails" for v in verdicts):
        return EXIT_NEGATIVE
    if all(v == "Holds" for v in verdicts):
        return EXIT_OK
    return EXIT_UNDECIDED


def _cmd_solve(args):
    started = time.perf_counter()
    prog = _load_program(args.problem)
    x0 = _parse_vector(args.x0, prog.n, "--x0")
    cfg = AlmConfig(
        rho0=args.rho0,
        gamma=args.gamma,
        cap=args.cap,
        outer_max=args.outer_max,
        inner_max=args.inner_max,
        tol_stat=args.tol_stat,
        tol_feas=args.tol_feas,
    )
    _evaluate_checked(prog, x0, "--x0")
    trace, status = solve(prog, x0, cfg)
    try:
        dump_trace(trace, args.trace)
    except OSError as exc:
        raise _CliError(EXIT_USAGE, "cannot write trace file %s: %s" % (args.trace, exc))
    final = trace.records[-1]
    final_pt = evaluate(prog, final.x)
    rep = Report()
    rep.add("command", "solve")
    rep.add("problem", args.problem)
    rep.add("x0", *_fmt_vec(x0))
    rep.add("rho0", _fmt(cfg.rho0))
    rep.add("gamma", _fmt(cfg.gamma))
    rep.add("cap", _fmt(cfg.cap))
    rep.add("outer-max", "%d" % cfg.outer_max)
    rep.add("inner-max", "%d" % cfg.inner_max)
    rep.add("tol-stat", _fmt(cfg.tol_stat))
    rep.add("tol-feas", _fmt(cfg.tol_feas))
    rep.add("status", status)
    rep.add("records", "%d" % len(trace.records))
    rep.add("final-x", *_fmt_vec(final.x))
    rep.add("final-objective", _fmt(final_pt.f))
    rep.add("final-residual", _fmt(final_pt.residual))
    human = [
        "solver status: %s after %d outer iterates" % (status, len(trace.records) - 1),
        "trace written to %s" % args.trace,
    ]
    _finish(rep, started, human)
    if status == "converged":
        return EXIT_OK
    if status == "unbounded":
        return EXIT_NEGATIVE
    return EXIT_UNDECIDED


def _load_trace_checked(prog, path):
    try:
        return load_trace(prog, path)
    except OSError as exc:
        raise _CliError(EXIT_USAGE, "cannot read trace file %s: %s" % (path, exc))
    except _INPUT_ERRORS as exc:
        raise _CliError(EXIT_USAGE, "trace file %s: %s" % (path, exc))


def _cmd_certify(args):
    started = time.perf_counter()
    prog = _load_program(args.problem)
    x = _parse_vector(args.point, prog.n, "--point")
    pt = _evaluate_checked(prog, x, "--point")
    trace = _load_trace_checked(prog, args.trace)
    rep = Report()
    rep.add("command", "certify")
    rep.add("problem", args.problem)
    rep.add("point", *_fmt_vec(x))
    rep.add("trace", args.trace)
    rep.add("tol", _fmt(args.tol))
    rep.add("records", "%d" % len(trace.records))
    try:
        outcome = certify_akkt(prog, x, trace, tol=args.tol, tol_act=args.tol_act, tol_gap=args.tol_gap)
    except InfeasiblePointError as exc:
        return _infeasible_exit(rep, started, pt, exc, [])
    rep.add("certified", "yes" if outcome.certified else "no")
    if outcome.reason is not None:
        rep.add("reason", *outcome.reason.split())
    if outcome.offending_k is not None:
        rep.add("offending-k", "%d" % outcome.offending_k)
    _emit_detail(rep, "certify", outcome.detail)
    human = [
        "trace %s: %s" % (args.trace, "Certified" if outcome.certified else "Rejected (%s)" % outcome.reason)
    ]
    _finish(rep, started, human)
    return EXIT_OK if outcome.certified else EXIT_NEGATIVE


def _cmd_recover(args):
    started = time.perf_counter()
    prog = _load_program(args.problem)
    x = _parse_vector(args.point, prog.n, "--point")
    pt = _evaluate_checked(prog, x, "--point")
    trace = _load_trace_checked(prog, args.trace)
    rep = Report()
    rep.add("command", "recover")
    rep.add("problem", args.problem)
    rep.add("point", *_fmt_vec(x))
    rep.add("trace", args.trace)
    rep.add("tol", _fmt(args.tol))
    rep.add("records", "%d" % len(trace.records))
    try:
        outcome = recover_kkt(
            prog,
            x,
            trace,
            tol=args.tol,
            tol_act=args.tol_act,
            tol_gap=args.tol_gap,
            tol_rank=args.tol_rank,
            tol_cert=args.tol_cert,
            m_cap=args.m_cap,
        )
    except InfeasiblePointError as exc:
        return _infeasible_exit(rep, started, pt, exc, [])
    verdict = {"kkt": "KKT", "unbounded": "UnboundedWitness", "inconclusive": "Inconclusive"}[outcome.verdict]
    rep.add("recovery", verdict)
    rep.add("equality-basis", *outcome.equality_basis)
    rep.add("modal-subset", *outcome.modal_subset)
    if outcome.modal_frequency is not None:
        rep.add("modal-frequency", "%d" % outcome.modal_frequency)
    if outcome.m_values:
        rep.add("m-values", *(_fmt(v) for v in outcome.m_values))
    if outcome.residual is not None:
        rep.add("residual", _fmt(outcome.residual))
    human = ["recovery verdict: %s" % verdict]
    if outcome.multipliers is not None:
        lam = outcome.multipliers["lambda"]
        if lam.size:
            rep.add("lambda", *_fmt_vec(lam))
            human.append("lambda: %s" % " ".join(_fmt_vec(lam)))
        for blk in prog.blocks:
            mu = outcome.multipliers["mu"][blk.name]
            tokens = _fmt_vec(mu) if blk.kind == "soc" else _fmt_upper(mu)
            rep.add("mu", blk.name, *tokens)
            human.append("mu %s: %s" % (blk.name, " ".join(tokens)))
    if outcome.certificate is not None and outcome.certificate.witness is not None:
        cls = classify(pt, args.tol_act, args.tol_gap)
        _emit_witness(
            rep,
            "recover",
            outcome.certificate.witness,
            outcome.equality_basis,
            cls.names(cls.soc_vertex_multi),
            cls.names(cls.psd_multiple),
            outcome.modal_subset,
        )
    _emit_detail(rep, "recover", outcome.detail)
    _finish(rep, started, human)
    if outcome.verdict == "kkt":
        return EXIT_OK
    if outcome.verdict == "unbounded":
        return EXIT_NEGATIVE
    return EXIT_UNDECIDED


def _cmd_embed_diag(args):
    started = time.perf_counter()
    prog = _load_program(args.problem)
    try:
        embedded = embed_block_diagonal(prog)
    except DimensionMismatchError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    text = dumps(embedded)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(EXIT_USAGE, "cannot write %s: %s" % (args.out, exc))
    rep = Report()
    rep.add("command", "embed-diag")
    rep.add("problem", args.problem)
    rep.add("out", args.out)
    rep.add("blocks-merged", "%d" % len(prog.blocks))
    rep.add("dim", "%d" % (embedded.blocks[0].dim if embedded.blocks else 0))
    _finish(rep, started, ["embedded program written to %s" % args.out])
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _add_point_tols(sub):
    sub.add_argument("--tol-act", type=float, default=TOL_ACT, help="activity tolerance")
    sub.add_argument("--tol-gap", type=float, default=TOL_GAP, help="eigenvalue simplicity gap tolerance")


def build_parser():
    parser = _Parser(prog="coneguard", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="subcommand")

    p = subs.add_parser("classify", parents=[], description="Classify constraint blocks at a point.")
    p.add_argument("--problem", required=True)
    p.add_argument("--point", required=True)
    _add_point_tols(p)
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("check", description="Verify constraint qualifications at a point.")
    p.add_argument("--problem", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--cq", required=True, choices=_CHECK_ORDER + ("all",))
    _add_point_tols(p)
    p.add_argument("--tol-rank", type=float, default=TOL_RANK)
    p.add_argument("--tol-cert", type=float, default=TOL_CERT)
    p.add_argument("--radius", type=float, default=DELTA, help="sampling radius for neighborhood clauses")
    p.add_argument("--samples", type=int, default=SAMPLES)
    p.add_argument("--seed", type=int, default=SEED)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--subset-cap", type=int, default=SUBSET_CAP)
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("solve", description="Run the augmented Lagrangian solver and write a trace.")
    p.add_argument("--problem", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--trace", required=True, help="output trace file")
    p.add_argument("--rho0", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=4.0)
    p.add_argument("--cap", type=float, default=1e6)
    p.add_argument("--outer-max", type=int, default=60)
    p.add_argument("--inner-max", type=int, default=5000)
    p.add_argument("--tol-stat", type=float, default=1e-8)
    p.add_argument("--tol-feas", type=float, default=1e-8)
    p.set_defaults(func=_cmd_solve)

    p = subs.add_parser("certify", description="Certify a trace as approximately stationary at a point.")
    p.add_argument("--problem", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--trace", required=True, help="input trace file")
    p.add_argument("--tol", type=float, default=1e-6)
    _add_point_tols(p)
    p.set_defaults(func=_cmd_certify)

    p = subs.add_parser("recover", description="Recover candidate multipliers from a trace.")
    p.add_argument("--problem", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--trace", required=True, help="input trace file")
    p.add_argument("--tol", type=float, default=1e-6)
    _add_point_tols(p)
    p.add_argument("--tol-rank", type=float, default=TOL_RANK)
    p.add_argument("--tol-cert", type=float, default=TOL_CERT)
    p.add_argument("--m-cap", type=float, default=1e8)
    p.set_defaults(func=_cmd_recover)

    p = subs.add_parser("embed-diag", description="Merge all semidefinite blocks into one block-diagonal block.")
    p.add_argument("--problem", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_embed_diag)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _CliError as exc:
        print("error: %s" % exc.message, file=sys.stderr)
        return exc.code
    except InfeasiblePointError as exc:
        print("error: point is infeasible (residual %s)" % _fmt(exc.residual), file=sys.stderr)
        return EXIT_INFEASIBLE
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExhaustedError, np.linalg.LinAlgError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_UNDECIDED
    except ConeguardError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: classify, check, solve, certify, recover, embed-diag.  Every
command prints a short human-readable summary followed by a fenced
machine-readable section between ``---REPORT-BEGIN---`` and
``---REPORT-END---`` whose lines follow the problem-file grammar (first
token is a key, the rest are values, floats written by ``expr.literal``
with negative zero as 0).  The fenced section is byte-identical across
identical invocations; timing lines are printed outside the fence.

Exit codes: 0 for positive outcomes (feasible, Holds, converged,
certified, recovered KKT point), 1 for negative ones (Fails, rejected
trace, diverging-multiplier witness, unbounded descent), 2 for an
infeasible point, 3 for undecided or inconclusive outcomes (also when an
internal iteration budget runs out, a factorization does not converge, a
floating-point operation overflows, is invalid or divides by zero, or the
library raises an error no command expects), and 64 for unusable
inputs (bad flags, malformed files or vectors, points or trace records
outside an expression domain, or input too large for the memory
available).

The environment variable CONEGUARD_SEED, when set, overrides check --seed.
It, the numeric flags and the --point/--x0 entries are signed ASCII literals
(``expr.integer``, ``expr.real``), range-checked as they are parsed:
tolerances, radii and caps finite and positive, --gamma finite and above 1,
counts at least 1 (--samples at most 4096), seeds at least 0, vector
entries finite; else exit 64.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import time

import numpy as np

from .akkt import M_CAP, TOL_KKT, certify_akkt, dumps_trace, loads_trace, recover_kkt
from .alm import AlmConfig, solve
from .certificates import DEFAULT_BUDGET, TOL_CERT, TOL_RANK
from .classify import TOL_ACT, TOL_GAP, classify
from .cones import listed
from .cqchecks import (
    DELTA,
    SAMPLE_CAP,
    SAMPLES,
    SEED,
    SUBSET_CAP,
    check_crsc,
    check_nondegeneracy,
    check_rcpld,
    check_robinson,
)
from .errors import (
    ConeguardError,
    DimensionMismatchError,
    DomainError,
    ExprSyntaxError,
    InfeasiblePointError,
    ProblemFormatError,
    SymmetryError,
)
from .expr import integer, literal, real
from .model import dumps, embed_block_diagonal, evaluate, loads

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
    return literal(value)


def _fmt_vec(values):
    return [_fmt(v) for v in np.asarray(values, dtype=float).reshape(-1)]


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

    Numbers, strings, arrays, and flat tuples of strings or of integers are
    emitted as ``detail <scope> <key> <values...>`` with keys sorted; other
    structures stay in the human-readable section only.
    """
    for key in sorted(detail):
        value = detail[key]
        name = key.replace("_", "-")
        if isinstance(value, (int, np.integer)):
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
        # nested values (subset logs, per-sample tables) are human-only


def _emit_witness(rep, scope, result):
    """Witness rows of a check's or a recovery's certificate, under the names
    the result gives them."""
    if result.certificate is None or result.certificate.witness is None:
        return
    witness = result.certificate.witness
    lam_names, soc_names, psd_names, ray_names = result.witness_names
    for name, coeff in zip(lam_names, witness.lam):
        rep.add("witness", scope, "lambda", name, _fmt(coeff))
    for name, mu in zip(soc_names + psd_names, witness.soc + witness.psd):
        rep.add("witness", scope, "mu", name, *map(_fmt, listed(mu)))
    for name, coeff in zip(ray_names, witness.alpha):
        rep.add("witness", scope, "alpha", name, _fmt(coeff))


def _read(path, what, parse):
    """parse(text) of the what ("problem" or "trace") file at path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_USAGE, "cannot read %s file %s: %s" % (what, path, exc))
    try:
        return parse(text)
    except _INPUT_ERRORS as exc:
        raise _CliError(EXIT_USAGE, "%s file %s: %s" % (what, path, exc))


def _write(path, text, what):
    """Write text to path; what names the file in the error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(EXIT_USAGE, "cannot write %s: %s" % (what, exc))


def _parse_vector(text, n, what):
    tokens = [t for t in re.split(r"[\s,]+", text.strip()) if t]
    try:
        values = [real(t) for t in tokens]
    except ValueError:
        raise _CliError(EXIT_USAGE, "%s must be a comma- or space-separated list of numbers" % what)
    if len(values) != n:
        raise _CliError(EXIT_USAGE, "%s has %d entries, the program expects %d" % (what, len(values), n))
    if not np.isfinite(values).all():
        raise _CliError(EXIT_USAGE, "%s has a non-finite entry" % what)
    return np.array(values, dtype=float)


def _open(args, rep):
    """Load the program and evaluate --point on it, which rep reports."""
    prog = _read(args.problem, "problem", loads)
    x = _parse_vector(args.point, prog.n, "--point")
    try:
        pt = evaluate(prog, x)
    except DomainError as exc:
        raise _CliError(EXIT_USAGE, "--point leaves an expression domain: %s" % exc)
    rep.add("point", *_fmt_vec(x))
    return prog, pt


def _open_with_trace(args, rep):
    """_open, then load the --trace file and report it with --tol."""
    prog, pt = _open(args, rep)
    trace = _read(args.trace, "trace", functools.partial(loads_trace, prog))
    rep.add("trace", args.trace)
    _echo(rep, args, "tol")
    rep.add("records", "%d" % len(trace.records))
    return prog, pt, trace


def _echo(rep, args, *flags):
    """One report line per flag, repeating its value."""
    for flag in flags:
        value = getattr(args, flag.replace("-", "_"))
        rep.add(flag, "%d" % value if isinstance(value, int) else _fmt(value))


def _finish(rep, human_lines):
    for line in human_lines:
        print(line)
    sys.stdout.write(rep.render())


def _emit_classification(rep, prog, cls):
    for j, blk in enumerate(prog.blocks):
        rep.add("block", blk.name, blk.kind, "%d" % blk.dim, cls.labels[j])
    rep.add("set", "soc-interior", *cls.names(cls.soc_interior))
    rep.add("set", "soc-boundary", *cls.names(cls.soc_boundary))
    rep.add("set", "soc-vertex-scalar", *cls.names(cls.soc_scalar_active))
    rep.add("set", "soc-vertex", *cls.names(cls.soc_vertex_multi))
    rep.add("set", "psd-inactive", *cls.names(cls.psd_inactive))
    rep.add("set", "psd-kernel-simple", *cls.names(cls.psd_simple))
    rep.add("set", "psd-kernel-multiple", *cls.names(cls.psd_multiple))
    rep.add("set", "reduced", *cls.names(cls.reduced()))
    rep.add("set", "conic", *cls.names(cls.conic()))


def _infeasible_exit(rep, exc):
    rep.add("status", "infeasible")
    rep.add("residual", _fmt(exc.residual))
    for name, dist in sorted(exc.distances.items()):
        rep.add("distance", name, _fmt(dist))
    _finish(rep, ["point is infeasible (residual %s)" % _fmt(exc.residual)])
    return EXIT_INFEASIBLE


def _cmd_classify(args, rep):
    prog, pt = _open(args, rep)
    _echo(rep, args, "tol-act", "tol-gap")
    cls = classify(pt, args.tol_act, args.tol_gap)
    rep.add("status", "feasible")
    rep.add("objective", _fmt(pt.f))
    rep.add("residual", _fmt(pt.residual))
    _emit_classification(rep, prog, cls)
    human = ["classification at the given point:"]
    for j, blk in enumerate(prog.blocks):
        human.append("  %-12s %s dim %d: %s" % (blk.name, blk.kind, blk.dim, cls.labels[j]))
    _finish(rep, human)
    return EXIT_OK


_CHECK_ORDER = ("nondegeneracy", "robinson", "rcpld", "crsc")


def _run_check(name, pt, cls, args):
    if name == "nondegeneracy":
        return check_nondegeneracy(pt, cls, tol_rank=args.tol_rank)
    certified = dict(tol_rank=args.tol_rank, tol_cert=args.tol_cert, budget=args.budget)
    if name == "robinson":
        return check_robinson(pt, cls, **certified)
    sampled = dict(certified, delta=args.radius, samples=args.samples, seed=args.seed)
    if name == "rcpld":
        return check_rcpld(pt, cls, subset_cap=args.subset_cap, **sampled)
    return check_crsc(pt, cls, **sampled)


def _cmd_check(args, rep):
    env = os.environ.get("CONEGUARD_SEED")
    if env is not None:
        try:
            args.seed = _SEED(env)
        except (ValueError, argparse.ArgumentTypeError):
            raise _CliError(EXIT_USAGE, "CONEGUARD_SEED must be an integer >= 0, got %r" % env)
    prog, pt = _open(args, rep)
    rep.add("cq", args.cq)
    _echo(rep, args, "tol-act", "tol-gap", "tol-rank", "tol-cert", "radius", "samples", "seed", "budget")
    cls = classify(pt, args.tol_act, args.tol_gap)
    rep.add("status", "feasible")
    _emit_classification(rep, prog, cls)
    human = []
    verdicts = []
    for name in _CHECK_ORDER if args.cq == "all" else (args.cq,):
        report = _run_check(name, pt, cls, args)
        verdicts.append(report.verdict)
        rep.add("verdict", name, report.verdict)
        _emit_detail(rep, name, report.detail)
        _emit_witness(rep, name, report)
        note = report.detail.get("reason") or report.detail.get("note") or ""
        human.append("%-14s %s%s" % (name + ":", report.verdict, "  (%s)" % note if note else ""))
    _finish(rep, human)
    if "Fails" in verdicts:
        return EXIT_NEGATIVE
    return EXIT_OK if all(v == "Holds" for v in verdicts) else EXIT_UNDECIDED


def _cmd_solve(args, rep):
    prog = _read(args.problem, "problem", loads)
    x0 = _parse_vector(args.x0, prog.n, "--x0")
    try:
        trace, status = solve(prog, x0, AlmConfig(**{name: getattr(args, name) for name in _ALM_OPTIONS}))
    except DomainError as exc:  # only from x0: the line search catches the others
        raise _CliError(EXIT_USAGE, "--x0 leaves an expression domain: %s" % exc)
    _write(args.trace, dumps_trace(trace), "trace file " + args.trace)
    final = trace.records[-1]
    final_pt = evaluate(prog, final.x)
    rep.add("x0", *_fmt_vec(x0))
    _echo(rep, args, *(name.replace("_", "-") for name in _ALM_OPTIONS))
    rep.add("status", status)
    rep.add("records", "%d" % len(trace.records))
    rep.add("final-x", *_fmt_vec(final.x))
    rep.add("final-objective", _fmt(final_pt.f))
    rep.add("final-residual", _fmt(final_pt.residual))
    human = [
        "solver status: %s after %d outer iterates" % (status, len(trace.records) - 1),
        "trace written to %s" % args.trace,
    ]
    _finish(rep, human)
    if status == "converged":
        return EXIT_OK
    return EXIT_NEGATIVE if status == "unbounded" else EXIT_UNDECIDED


def _cmd_certify(args, rep):
    _, pt, trace = _open_with_trace(args, rep)
    try:
        outcome = certify_akkt(pt, trace, tol=args.tol, tol_act=args.tol_act, tol_gap=args.tol_gap)
    except DomainError as exc:
        raise _CliError(EXIT_USAGE, "trace file %s: %s" % (args.trace, exc))
    rep.add("certified", "yes" if outcome.certified else "no")
    if outcome.reason is not None:
        rep.add("reason", *outcome.reason.split())
    if outcome.offending_k is not None:
        rep.add("offending-k", "%d" % outcome.offending_k)
    _emit_detail(rep, "certify", outcome.detail)
    verdict = "Certified" if outcome.certified else "Rejected (%s)" % outcome.reason
    _finish(rep, ["trace %s: %s" % (args.trace, verdict)])
    return EXIT_OK if outcome.certified else EXIT_NEGATIVE


def _cmd_recover(args, rep):
    prog, pt, trace = _open_with_trace(args, rep)
    try:
        outcome = recover_kkt(
            pt,
            trace,
            tol=args.tol,
            tol_act=args.tol_act,
            tol_gap=args.tol_gap,
            tol_rank=args.tol_rank,
            tol_cert=args.tol_cert,
            m_cap=args.m_cap,
        )
    except DomainError as exc:
        raise _CliError(EXIT_USAGE, "trace file %s: %s" % (args.trace, exc))
    verdict = {"kkt": "KKT", "unbounded": "UnboundedWitness", "inconclusive": "Inconclusive"}[outcome.verdict]
    rep.add("recovery", verdict)
    rep.add("equality-basis", *outcome.equality_basis)
    rep.add("modal-subset", *outcome.modal_subset)
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
            tokens = [_fmt(v) for v in listed(outcome.multipliers["mu"][blk.name])]
            rep.add("mu", blk.name, *tokens)
            human.append("mu %s: %s" % (blk.name, " ".join(tokens)))
    _emit_witness(rep, "recover", outcome)
    _emit_detail(rep, "recover", outcome.detail)
    _finish(rep, human)
    if outcome.verdict == "kkt":
        return EXIT_OK
    return EXIT_NEGATIVE if outcome.verdict == "unbounded" else EXIT_UNDECIDED


def _cmd_embed_diag(args, rep):
    prog = _read(args.problem, "problem", loads)
    embedded = embed_block_diagonal(prog)
    try:
        text = dumps(embedded)
    except ValueError as exc:  # a literal that overflowed when it was read
        raise _CliError(EXIT_USAGE, "problem file %s: %s" % (args.problem, exc))
    _write(args.out, text, args.out)
    rep.add("out", args.out)
    rep.add("blocks-merged", "%d" % len(prog.blocks))
    rep.add("dim", "%d" % (embedded.blocks[0].dim if embedded.blocks else 0))
    _finish(rep, ["embedded program written to %s" % args.out])
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-3" or "-0.5,1" for an option unless it is a plain
        # negative decimal; no flag starts with '-' and a digit, so read such
        # a word as a value
        self._negative_number_matcher = re.compile(r"-\.?[0-9]")

    def error(self, message):
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _ranged(kind, what, ok):
    """An argparse type: a value of kind for which ok holds."""

    def convert(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError("%r is not %s" % (text, what))
        return value

    convert.__name__ = kind.__name__  # argparse's wording names the reader: "invalid real value"
    return convert


_POSITIVE = _ranged(real, "a finite number > 0", lambda v: 0 < v < math.inf)
_ABOVE_ONE = _ranged(real, "a finite number > 1", lambda v: 1 < v < math.inf)
_COUNT = _ranged(integer, "an integer >= 1", lambda v: v >= 1)
_SAMPLES = _ranged(integer, "an integer from 1 to %d" % SAMPLE_CAP, lambda v: 1 <= v <= SAMPLE_CAP)
_SEED = _ranged(integer, "an integer >= 0", lambda v: v >= 0)
# AlmConfig's options in its __slots__ order, each with its argparse type
_ALM_OPTIONS = dict(rho0=_POSITIVE, gamma=_ABOVE_ONE, cap=_POSITIVE, outer_max=_COUNT, inner_max=_COUNT,
                    tol_stat=_POSITIVE, tol_feas=_POSITIVE)


def _subcommand(subs, name, description, *required):
    """A subcommand with --problem and the required flags; main looks its
    handler up by name, so wrappers installed on the module's _cmd_*
    functions are called."""
    p = subs.add_parser(name, description=description)
    p.set_defaults(handler="_cmd_" + name.replace("-", "_"))
    for flag in ("--problem",) + required:
        p.add_argument(flag, required=True)
    return p


def _add_point_tols(sub):
    sub.add_argument("--tol-act", type=_POSITIVE, default=TOL_ACT, help="activity tolerance")
    sub.add_argument("--tol-gap", type=_POSITIVE, default=TOL_GAP, help="eigenvalue simplicity gap tolerance")


@functools.cache
def build_parser():
    parser = _Parser(prog="coneguard", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="subcommand")

    p = _subcommand(subs, "classify", "Classify constraint blocks at a point.", "--point")
    _add_point_tols(p)

    p = _subcommand(subs, "check", "Verify constraint qualifications at a point.", "--point")
    p.add_argument("--cq", required=True, choices=_CHECK_ORDER + ("all",))
    _add_point_tols(p)
    p.add_argument("--tol-rank", type=_POSITIVE, default=TOL_RANK)
    p.add_argument("--tol-cert", type=_POSITIVE, default=TOL_CERT)
    p.add_argument("--radius", type=_POSITIVE, default=DELTA, help="sampling radius for neighborhood clauses")
    p.add_argument("--samples", type=_SAMPLES, default=SAMPLES)
    p.add_argument("--seed", type=_SEED, default=SEED)
    p.add_argument("--budget", type=_COUNT, default=DEFAULT_BUDGET)
    p.add_argument("--subset-cap", type=_COUNT, default=SUBSET_CAP)

    p = _subcommand(subs, "solve", "Run the augmented Lagrangian solver and write a trace.", "--x0")
    p.add_argument("--trace", required=True, help="output trace file")
    defaults = AlmConfig()
    for name, kind in _ALM_OPTIONS.items():
        p.add_argument("--" + name.replace("_", "-"), type=kind, default=getattr(defaults, name))

    p = _subcommand(subs, "certify", "Certify a trace as approximately stationary at a point.", "--point")
    p.add_argument("--trace", required=True, help="input trace file")
    p.add_argument("--tol", type=_POSITIVE, default=TOL_KKT)
    _add_point_tols(p)

    p = _subcommand(subs, "recover", "Recover candidate multipliers from a trace.", "--point")
    p.add_argument("--trace", required=True, help="input trace file")
    p.add_argument("--tol", type=_POSITIVE, default=TOL_KKT)
    _add_point_tols(p)
    p.add_argument("--tol-rank", type=_POSITIVE, default=TOL_RANK)
    p.add_argument("--tol-cert", type=_POSITIVE, default=TOL_CERT)
    p.add_argument("--m-cap", type=_POSITIVE, default=M_CAP)

    _subcommand(subs, "embed-diag", "Merge all semidefinite blocks into one block-diagonal block.", "--out")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    started = time.perf_counter()
    rep = Report()
    rep.add("command", args.subcommand)
    rep.add("problem", args.problem)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            code = globals()[args.handler](args, rep)
    except InfeasiblePointError as exc:  # classify's answer at --point
        code = _infeasible_exit(rep, exc)
    except _CliError as exc:
        print("error: %s" % exc.message, file=sys.stderr)
        return exc.code
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (ConeguardError, np.linalg.LinAlgError, FloatingPointError) as exc:  # library, LAPACK and float errors
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_UNDECIDED
    except MemoryError:
        print("error: the input needs more memory than is available", file=sys.stderr)
        return EXIT_USAGE
    print("elapsed %.3f s" % (time.perf_counter() - started))
    return code


if __name__ == "__main__":
    sys.exit(main())

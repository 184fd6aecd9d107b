"""In-memory spans around the public functions of each coneguard module.

The benchmark wraps functions from the outside: every module-level binding
in ``coneguard.*`` that *is* a wrapped function is replaced, because
modules import names from each other (``from .model import evaluate``),
so patching only the defining module would miss most calls.

A span is ``[layer, start, end, parent, instance, info]``; spans are kept
in a list in the order they open, so a parent always precedes its
children.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time

# layer name -> (module, attribute).  Layer names are <module>.<function>;
# the cli layers wrap the per-subcommand handlers.
LAYERS = {
    "expr.parse": ("expr", "parse"),
    "expr.eval_grad": ("expr", "eval_grad"),
    "model.loads": ("model", "loads"),
    "model.evaluate": ("model", "evaluate"),
    "cones.eig_sym": ("cones", "eig_sym"),
    "cones.project_psd": ("cones", "project_psd"),
    "cones.project_soc": ("cones", "project_soc"),
    "classify.classify": ("classify", "classify"),
    "reduction.reduced_view": ("reduction", "reduced_view"),
    "certificates.conic_dependence": ("certificates", "conic_dependence"),
    "certificates.nnls": ("certificates", "nnls"),
    "certificates.numerical_rank": ("certificates", "numerical_rank"),
    "certificates.cone_membership": ("certificates", "cone_membership"),
    "certificates.caratheodory_reduce": ("certificates", "caratheodory_reduce"),
    "cqchecks.check_nondegeneracy": ("cqchecks", "check_nondegeneracy"),
    "cqchecks.check_robinson": ("cqchecks", "check_robinson"),
    "cqchecks.check_rcpld": ("cqchecks", "check_rcpld"),
    "cqchecks.check_crsc": ("cqchecks", "check_crsc"),
    "alm.solve": ("alm", "solve"),
    "akkt.certify_akkt": ("akkt", "certify_akkt"),
    "akkt.recover_kkt": ("akkt", "recover_kkt"),
    "akkt.loads_trace": ("akkt", "loads_trace"),
    "akkt.dumps_trace": ("akkt", "dumps_trace"),
    "cli.classify": ("cli", "_cmd_classify"),
    "cli.check": ("cli", "_cmd_check"),
    "cli.solve": ("cli", "_cmd_solve"),
    "cli.certify": ("cli", "_cmd_certify"),
    "cli.recover": ("cli", "_cmd_recover"),
}


def _conic_info(cert):
    return cert.verdict, cert.iterations


def _solve_info(result):
    trace, _status = result
    return len(trace.records) - 1


# layers whose return value carries a count the metrics need
_INFO = {
    "certificates.conic_dependence": _conic_info,
    "alm.solve": _solve_info,
}


class Tracer:
    """Records spans while ``recording`` is true; wrappers stay installed."""

    def __init__(self):
        self.spans = []
        self.recording = False
        self.instance = None
        self._stack = []
        self._patched = []

    def install(self):
        """Wrap every layer in LAYERS, replacing each binding by identity."""
        modules = [m for name, m in list(sys.modules.items()) if name == "coneguard" or name.startswith("coneguard.")]
        for layer, (mod_name, attr) in LAYERS.items():
            original = getattr(sys.modules["coneguard." + mod_name], attr)
            wrapper = self._wrap(layer, original)
            replaced = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
                        replaced += 1
            if replaced == 0:
                raise RuntimeError("no binding of %s found to wrap" % layer)

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []

    def _wrap(self, layer, fn):
        info = _INFO.get(layer)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.instance, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(result)
            return result

        return wrapper

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def _durations(spans):
    """Per span: (duration, self time), self time excluding child spans."""
    duration = [span[2] - span[1] for span in spans]
    own = list(duration)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            own[span[3]] -= duration[i]
    return duration, own


def _layer_totals(spans):
    """Per layer: [calls, inclusive seconds, self seconds]."""
    duration, own = _durations(spans)
    totals = {layer: [0, 0.0, 0.0] for layer in LAYERS}
    for i, span in enumerate(spans):
        row = totals[span[0]]
        row[0] += 1
        row[1] += duration[i]
        row[2] += own[i]
    return totals


def _under(spans, layers):
    """Flags: span i has an ancestor whose layer is in ``layers``."""
    flags = [False] * len(spans)
    for i, span in enumerate(spans):
        p = span[3]
        if p >= 0:
            flags[i] = flags[p] or spans[p][0] in layers
    return flags


_CHECKS = ("nondegeneracy", "robinson", "rcpld", "crsc")
_VERDICTS = ("dependent", "independent", "undecided")


def count_metrics(spans):
    """Counts that must repeat exactly between runs on the same inputs."""
    totals = _layer_totals(spans)
    out = {}
    for layer in (
        "expr.parse",
        "expr.eval_grad",
        "model.evaluate",
        "cones.eig_sym",
        "cones.project_psd",
        "cones.project_soc",
        "reduction.reduced_view",
        "certificates.nnls",
        "certificates.numerical_rank",
        "certificates.cone_membership",
        "certificates.caratheodory_reduce",
    ):
        out[layer + ".calls"] = totals[layer][0]
    by_verdict = {v: [0, 0] for v in _VERDICTS}
    for span in spans:
        if span[0] == "certificates.conic_dependence" and span[5] is not None:
            verdict, iterations = span[5]
            by_verdict[verdict][0] += 1
            by_verdict[verdict][1] += iterations
    for v in _VERDICTS:
        out["certificates.conic_dependence.calls." + v] = by_verdict[v][0]
        out["certificates.conic_dependence.iterations." + v] = by_verdict[v][1]

    under_rcpld = _under(spans, {"cqchecks.check_rcpld"})
    under_check = _under(spans, {"cqchecks.check_" + c for c in _CHECKS})
    under_solve = _under(spans, {"alm.solve"})
    out["cqchecks.rcpld.queries"] = sum(
        1 for i, s in enumerate(spans) if under_rcpld[i] and s[0] == "certificates.conic_dependence"
    )
    out["cqchecks.evaluate_calls"] = sum(1 for i, s in enumerate(spans) if under_check[i] and s[0] == "model.evaluate")
    out["alm.solve.evaluations"] = sum(1 for i, s in enumerate(spans) if under_solve[i] and s[0] == "model.evaluate")
    out["alm.solve.outer_iterations"] = sum(s[5] for s in spans if s[0] == "alm.solve" and s[5] is not None)

    queries = sum(by_verdict[v][0] for v in _VERDICTS)
    decided = by_verdict["dependent"][0] + by_verdict["independent"][0]
    # with no queries at all, none was left undecided
    out["certificates.conic_dependence.decided_ratio"] = decided / queries if queries else 1.0
    outer = out["alm.solve.outer_iterations"]
    out["alm.solve.evaluations_per_outer"] = out["alm.solve.evaluations"] / outer if outer else 0.0
    return out


def time_metrics(spans):
    """Seconds per layer: self time, inclusive time, and per-call time."""
    totals = _layer_totals(spans)
    out = {}
    for layer in (
        "expr.parse",
        "expr.eval_grad",
        "model.loads",
        "model.evaluate",
        "cones.eig_sym",
        "cones.project_psd",
        "classify.classify",
        "reduction.reduced_view",
        "certificates.nnls",
        "certificates.numerical_rank",
        "certificates.caratheodory_reduce",
    ):
        out[layer + ".self_s"] = totals[layer][2]
    calls, inclusive, _ = totals["model.evaluate"]
    out["model.evaluate.per_call_s"] = inclusive / calls if calls else 0.0

    self_by_verdict = {v: 0.0 for v in _VERDICTS}
    _, own = _durations(spans)
    for i, span in enumerate(spans):
        if span[0] == "certificates.conic_dependence" and span[5] is not None:
            self_by_verdict[span[5][0]] += own[i]
    for v in _VERDICTS:
        out["certificates.conic_dependence.self_s." + v] = self_by_verdict[v]

    for check in _CHECKS:
        out["cqchecks.%s.s" % check] = totals["cqchecks.check_" + check][1]
    out["alm.solve.s"] = totals["alm.solve"][1]
    for fn in ("certify_akkt", "recover_kkt", "loads_trace", "dumps_trace"):
        out["akkt.%s.s" % fn] = totals["akkt." + fn][1]
    for cmd in ("classify", "check", "solve", "certify", "recover"):
        out["cli.%s.s" % cmd] = totals["cli." + cmd][1]
    return out


def self_shares(spans):
    """Each layer's self time as a share of all traced time."""
    totals = _layer_totals(spans)
    whole = sum(row[2] for row in totals.values())
    return {layer: row[2] / whole for layer, row in totals.items() if row[0]} if whole else {}


def layer_calls(spans):
    """Calls per layer, for the self-check that every expected layer ran."""
    return {layer: row[0] for layer, row in _layer_totals(spans).items()}


def write_spans(spans, path):
    """Write spans as gzip'd tab-separated lines, times relative to the first span."""
    origin = spans[0][1] if spans else 0.0
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("index\tlayer\tstart_s\tend_s\tparent\tinstance\n")
        for i, (layer, start, end, parent, instance, _) in enumerate(spans):
            fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%s\n" % (i, layer, start - origin, end - origin, parent, instance))

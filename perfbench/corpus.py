"""Seeded problem corpus for the benchmark workloads.

Every instance is generated from the workload seed (or is fixed), written
as a problem file, and paired with the CLI command sequence a user would
run on it.  Nothing is downloaded; the three files in ``problems/`` are
copied from the checkout.

Whether a dependence query is dependent, and how long the ALM line search
runs, swing with the data, so every seeded instance takes its shape and
coefficients from its family and index and the seed jitters each
coefficient (``Draw``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

# Iteration caps for `solve`.  Uncapped, several seeded instances run for
# more than a minute.  With larger caps the steepest-descent inner loop
# stalls at points that swing with small changes of the data, and with
# them the work done and the `recover` outcome; at these caps both repeat
# closely across seeds and every instance ends well within a second.
OUTER_MAX = 5
INNER_MAX = 30


@dataclass(frozen=True)
class Instance:
    name: str  # unique within a workload, e.g. "mid-3"
    family: str
    text: str  # problem file contents
    point: tuple  # point to diagnose (or x0 for the solve pipeline)
    verdicts: dict = field(default_factory=dict)  # known verdict by check name
    labels: dict = field(default_factory=dict)  # known classification by block name


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sequence: str  # "classify+check", "check" or "solve+certify+recover"
    families: dict  # family name -> one-line reason it is in the corpus
    instances: tuple
    layers: tuple  # per-layer spans that must record calls on this workload


def _num(value):
    return repr(float(value))


def _affine(constant, coeffs):
    """Expression text for constant + sum coeffs[i] * x{i+1}."""
    parts = [_num(constant)]
    for i, c in enumerate(coeffs):
        if c != 0.0:
            parts.append("+ %s * x%d" % (_num(c), i + 1))
    return " ".join(parts)


def _program(n, objective, blocks):
    """blocks: (kind, name, dim, constants, coefficient rows)."""
    lines = ["vars %d" % n, "objective %s" % objective]
    for kind, name, dim, constants, rows in blocks:
        lines.append("%s %s %d" % (kind, name, dim))
        lines.extend(_affine(c, row) for c, row in zip(constants, rows))
    return "\n".join(lines) + "\n"


def _upper(mat):
    return np.asarray(mat, dtype=float)[np.triu_indices(mat.shape[0])]


class Draw:
    """Random coefficients for one instance.

    ``base`` fixes the instance's shape and coefficients, drawn from the
    family name and instance index; the ``jitter`` stream, drawn from the
    workload seed, scales every coefficient by (1 + JITTER * N(0, 1)).
    So every seed runs the same mix of degenerate and regular cases while
    the inputs still differ.
    """

    def __init__(self, seed, family, index):
        self.base = np.random.default_rng([_key(family), index])
        self.jitter = np.random.default_rng([seed, _key(family), index])

    def integers(self, lo, hi):
        return int(self.base.integers(lo, hi))

    def normal(self, shape):
        return self.base.standard_normal(shape) * (1.0 + JITTER * self.jitter.standard_normal(shape))


# The ALM path of some solve instances, and so their cost, swings with the
# data: at a jitter of 0.5% one took 138 to 240 evaluations over ten seeds,
# at 0.05% 153 to 162.
JITTER = 0.0005


def _key(family):
    return sum(map(ord, family))


def _psd_block(draw, name, const_mat, n, scale=0.3):
    consts = _upper(const_mat)
    return ("psd", name, const_mat.shape[0], consts, scale * draw.normal((consts.size, n)))


def _soc_block(draw, name, const_vec, n, scale=0.3):
    consts = np.asarray(const_vec, dtype=float)
    return ("soc", name, consts.size, consts, scale * draw.normal((consts.size, n)))


# ---------------------------------------------------------------------------
# affine-reducible


ALL_HOLD = {"nondegeneracy": "Holds", "robinson": "Holds", "rcpld": "Holds", "crsc": "Holds"}


def affine_family(draw, n, psd_dims, soc_dims):
    """Affine blocks that are all active and reducible at x = 0.

    Each PSD block is diag(0, 1, ..., m-1) at the origin (a simple zero
    eigenvalue) and each SOC block is (1, 1, 0, ...) (on the boundary).
    Returns (text, verdicts, labels).  The reduced gradients follow from
    the coefficients alone: row (0, 0) for a PSD block, row 0 minus row 1
    for a SOC block.  When they are linearly independent, which holds
    for generic coefficients, all four checks must hold.
    """
    blocks = []
    labels = {}
    gradients = []
    for b, m in enumerate(psd_dims):
        blk = _psd_block(draw, "p%d" % (b + 1), np.diag(np.arange(m, dtype=float)), n)
        blocks.append(blk)
        labels[blk[1]] = "kernel-simple"
        gradients.append(blk[4][0])
    for b, m in enumerate(soc_dims):
        blk = _soc_block(draw, "s%d" % (b + 1), [1.0, 1.0] + [0.0] * (m - 2), n)
        blocks.append(blk)
        labels[blk[1]] = "boundary"
        gradients.append(blk[4][0] - blk[4][1])
    independent = np.linalg.matrix_rank(np.array(gradients)) == len(gradients)
    return _program(n, "x1", blocks), ALL_HOLD if independent else {}, labels


def _affine_instances(seed):
    shapes = {
        "mid": (10, (6, 6, 4), (4, 3)),
        "big": (30, (10, 10, 8, 8), (5, 5, 5, 5)),
    }
    # 8 mid, 4 big: the median falls among mid and the tail among big
    order = ["mid", "big", "mid", "mid", "big", "mid"] * 2
    out = []
    seen = {}
    for family in order:
        i = seen[family] = seen.get(family, -1) + 1
        n, psd_dims, soc_dims = shapes[family]
        text, verdicts, labels = affine_family(Draw(seed, family, i), n, psd_dims, soc_dims)
        out.append(Instance("%s-%d" % (family, i), family, text, (0.0,) * n, verdicts, labels))
    return tuple(out)


# ---------------------------------------------------------------------------
# conic-degenerate


def kernel_chain(k):
    """k PSD 2x2 blocks alternating the two blocks of psd_pair_line (n = 1)."""
    lines = ["vars 1", "objective x1"]
    for b in range(k):
        lines.append("psd g%d 2" % (b + 1))
        if b % 2 == 0:
            lines += ["(x1 + 1) / 2", "(x1 - 1) / 2", "(x1 + 1) / 2"]
        else:
            lines += ["(1 - x1) / 2", "(-x1 - 1) / 2", "(1 - x1) / 2"]
    return "\n".join(lines) + "\n"


KERNEL_PAIR_VERDICTS = {"nondegeneracy": "Fails", "robinson": "Fails", "rcpld": "Holds", "crsc": "Holds"}


def _chain(k):
    labels = {"g%d" % (b + 1): "kernel-simple" for b in range(k)}
    return Instance("chain-%d" % k, "chain", kernel_chain(k), (0.0,), KERNEL_PAIR_VERDICTS, labels)


def cluster_program(draw, n):
    """One 3x3 PSD block equal to diag(0, 0, 1) at x = 0 (2-dim zero cluster)."""
    return _program(n, "x1", [_psd_block(draw, "g", np.diag([0.0, 0.0, 1.0]), n)])


def vertex_program(draw, n):
    """Two SOC blocks at the vertex and one boundary SOC block at x = 0."""
    blocks = [
        _soc_block(draw, "v1", [0.0, 0.0, 0.0], n),
        _soc_block(draw, "v2", [0.0, 0.0], n),
        _soc_block(draw, "b", [1.0, 1.0, 0.0], n),
    ]
    return _program(n, "x1", blocks)


def mixed_program(draw, n):
    """A 2-dim PSD zero cluster, a vertex SOC block and a simple PSD block."""
    blocks = [
        _psd_block(draw, "c", np.diag([0.0, 0.0, 2.0]), n),
        _soc_block(draw, "v", [0.0, 0.0, 0.0], n),
        _psd_block(draw, "s", np.diag([0.0, 1.0]), n),
    ]
    return _program(n, "x1", blocks)


def known_defect_program():
    """Fixed instance where robinson Holds while rcpld and crsc Fail.

    n = 4, diag(0, 0, 1) with coefficients 0.3 N(0, 1) from seed 0: the
    constant-rank checks use full-cone partials where robinson uses the
    kernel-compressed face.  Kept so `hierarchy_violations` shows the
    defect until it is fixed.  DEFECT_VERDICTS are the verdicts the
    defect gives; they change, with the checker's expectation, when it is
    fixed.
    """
    coeffs = 0.3 * np.random.default_rng(0).standard_normal((6, 4))
    return _program(4, "x1", [("psd", "g", 3, _upper(np.diag([0.0, 0.0, 1.0])), coeffs)])


DEFECT_VERDICTS = {"nondegeneracy": "Holds", "robinson": "Holds", "rcpld": "Fails", "crsc": "Fails"}


def cpld_pair_program():
    """x2 >= 0 and x1^2 - x2 >= 0 as 1x1 PSD blocks, at the origin.

    The textbook failure of the constant-rank conditions: the gradients
    (0, 1) and (0, -1) are positively dependent at the origin but
    independent at every nearby point with x1 != 0, so all four checks
    Fail, and rcpld prints a witness for the subset {a, b}.
    """
    return "vars 2\nobjective x1\npsd a 1\nx2\npsd b 1\nx1^2 - x2\n"


ALL_FAIL = {"nondegeneracy": "Fails", "robinson": "Fails", "rcpld": "Fails", "crsc": "Fails"}


def _conic_instances(seed):
    out = [
        _chain(6),
        Instance("defect-0", "defect", known_defect_program(), (0.0,) * 4, DEFECT_VERDICTS, {"g": "kernel-multiple"}),
        Instance("cpld-0", "cpld", cpld_pair_program(), (0.0, 0.0), ALL_FAIL, dict.fromkeys("ab", "kernel-simple")),
    ]
    makers = {"cluster": cluster_program, "vertex": vertex_program, "mixed": mixed_program}
    for i in range(8):
        for family, build in makers.items():
            draw = Draw(seed, family, i)
            n = draw.integers(3, 9)
            out.append(Instance("%s-%d" % (family, i), family, build(draw, n), (0.0,) * n))
        if i == 1:
            out.append(_chain(8))
    return tuple(out)


# ---------------------------------------------------------------------------
# solve-pipeline


def outside_centre_program(draw, n, kinds):
    """Blocks strictly feasible at x = 0, objective centred outside them.

    The objective is ||x - c||^2 with ||c|| = 3, while each block's entries
    move by 0.5 N(0, 1) per unit of x from an interior value at the origin,
    so constraints are typically active at the solution.
    """
    blocks = []
    for b, kind in enumerate(kinds):
        if kind == "soc":
            blocks.append(_soc_block(draw, "s%d" % (b + 1), [1.0] + [0.0] * n, n, scale=0.5))
        else:
            blocks.append(_psd_block(draw, "p%d" % (b + 1), np.eye(2), n, scale=0.5))
    c = draw.normal(n)
    c = 3.0 * c / np.linalg.norm(c)
    objective = " + ".join("(x%d - %s)^2" % (i + 1, _num(ci)) for i, ci in enumerate(c))
    return _program(n, objective, blocks)


def _problem_file(name):
    return (PROBLEMS / name).read_text(encoding="utf-8")


def _pipeline_instances(seed):
    out = [
        Instance("file-soc-line", "file", _problem_file("soc_boundary_line.txt"), (3.0,)),
        Instance("file-psd-pair", "file", _problem_file("psd_pair_line.txt"), (0.75,)),
        Instance("file-scalar-pair", "file", _problem_file("scalar_pair.txt"), (1.0, 1.0)),
    ]
    # family -> (blocks, instances).  Most one-SOC programs converge in a
    # few milliseconds; fewer of them keep the median among the instances
    # where the capped ALM does real work.
    shapes = {"soc": (("soc",), 6), "psd": (("psd",), 12), "soc-psd": (("soc", "psd"), 12)}
    for i in range(12):
        for family, (kinds, count) in shapes.items():
            if i >= count:
                continue
            draw = Draw(seed, family, i)
            n = draw.integers(2, 4)
            out.append(Instance("%s-%d" % (family, i), family, outside_centre_program(draw, n, kinds), (0.0,) * n))
    return tuple(out)


_CHECK_LAYERS = (
    "expr.parse",
    "expr.eval_grad",
    "model.loads",
    "model.evaluate",
    "cones.eig_sym",
    "classify.classify",
    "reduction.reduced_view",
    "certificates.conic_dependence",
    "certificates.numerical_rank",
    "certificates.cone_membership",
    "cqchecks.check_nondegeneracy",
    "cqchecks.check_robinson",
    "cqchecks.check_rcpld",
    "cqchecks.check_crsc",
    "cli.check",
)


def workload(name, seed):
    """The named workload's instances for one seed."""
    if name == "affine-reducible":
        return Workload(
            name,
            (
                "large affine programs: evaluate takes about 90% of the time (expression eval about 65%,"
                " eig_sym about 20%) and parse about 8%; dependence queries under 1%"
            ),
            "classify+check",
            {
                "mid": "n = 10, PSD 6, 6, 4 and SOC 4, 3: evaluate-bound at moderate size",
                "big": "n = 30, PSD 10, 10, 8, 8 and four SOC 5: parse, evaluate and eig dominate",
            },
            _affine_instances(seed),
            _CHECK_LAYERS + ("cli.classify", "certificates.nnls"),
        )
    if name == "conic-degenerate":
        return Workload(
            name,
            (
                "small degenerate programs: conic_dependence takes about half the time and its eig_sym margin search"
                " about a third, mostly on dependent rcpld subset queries; evaluate under 10%"
            ),
            "check",
            {
                "chain": "kernel-pair chains (k = 6, 8, n = 1): rcpld runs 2^k subset queries",
                "defect": "fixed seed-0 instance where robinson Holds and rcpld/crsc Fail (known defect)",
                "cpld": "fixed textbook instance where all four checks Fail; rcpld prints a witness",
                "cluster": "3x3 PSD block with a 2-dim zero cluster: dependent queries pay the margin search",
                "vertex": "SOC blocks at the vertex: full-cone dependence queries with SOC projections",
                "mixed": "PSD cluster, vertex SOC and a simple PSD block together",
            },
            _conic_instances(seed),
            _CHECK_LAYERS + ("cones.project_psd", "cones.project_soc"),
        )
    if name == "solve-pipeline":
        return Workload(
            name,
            (
                "tiny programs: the capped ALM makes about 2200 cheap evaluate calls per pass, over 80% of the time;"
                " certify and recover about 7%, trace writing and reading under 1%"
            ),
            "solve+certify+recover",
            {
                "file": "the three problems/ files; each converges in milliseconds",
                "soc": "n = 2-3, one SOC block, objective centre outside: capped ALM with an active cone",
                "psd": "n = 2-3, one 2x2 PSD block, objective centre outside",
                "soc-psd": "n = 2-3, one SOC and one 2x2 PSD block, objective centre outside",
            },
            _pipeline_instances(seed),
            (
                "expr.parse",
                "expr.eval_grad",
                "model.loads",
                "model.evaluate",
                "cones.eig_sym",
                "cones.project_psd",
                "cones.project_soc",
                "classify.classify",
                "reduction.reduced_view",
                "certificates.numerical_rank",
                "certificates.caratheodory_reduce",
                "alm.solve",
                "akkt.certify_akkt",
                "akkt.recover_kkt",
                "akkt.loads_trace",
                "akkt.dumps_trace",
                "cli.solve",
                "cli.certify",
                "cli.recover",
            ),
        )
    raise KeyError(name)


WORKLOADS = ("affine-reducible", "conic-degenerate", "solve-pipeline")

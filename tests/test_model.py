"""Problem text format, evaluation, Jacobians, and diagonal embedding."""

import tracemalloc

import numpy as np
import pytest

import coneguard.expr as ex
from coneguard.cones import sym_from_upper
from coneguard.errors import (
    DimensionMismatchError,
    DomainError,
    ProblemFormatError,
)
from coneguard.model import (
    apply_jacobian_adjoint,
    block_distances,
    dumps,
    embed_block_diagonal,
    evaluate,
    lagrangian_gradient,
    loads,
)

from conftest import (
    affine_entry_text,
    build_program_text,
    fd_gradient,
    fd_tolerance,
    random_feasible_program,
)


# ---------------------------------------------------------------------------
# parsing and round-trips


def test_dumps_loads_round_trip_on_corpus():
    rng = np.random.default_rng(21)
    for _ in range(20):
        prog, x_star = random_feasible_program(rng)
        text = dumps(prog)
        again = loads(text)
        assert dumps(again) == text
        x = x_star + 0.25 * rng.standard_normal(prog.n)
        pa, pb = evaluate(prog, x), evaluate(again, x)
        assert pa.f == pb.f
        assert np.array_equal(pa.grad_f, pb.grad_f)
        assert np.array_equal(pa.h, pb.h)
        assert np.array_equal(pa.jac_h, pb.jac_h)


def test_seventeen_digit_coefficients_survive_round_trip():
    text = "vars 1\nobjective 0.1 * x1\nsoc g 1\n0.30000000000000004 + x1\n"
    prog = loads(text)
    again = loads(dumps(prog))
    p1, p2 = evaluate(prog, [0.7]), evaluate(again, [0.7])
    assert p1.f == p2.f
    assert p1.blocks[0].value[0] == p2.blocks[0].value[0]


def test_comments_and_blank_lines_are_ignored():
    text = (
        "# heading\n\nvars 2  # two variables\n"
        "objective x1 + x2\n"
        "eq h1 x1 - x2   # a line\n"
        "soc g 2\nx1\n# interior comment\nx2\n"
    )
    prog = loads(text)
    assert prog.n == 2
    assert prog.p == 1
    assert prog.blocks[0].dim == 2


def test_any_whitespace_follows_a_keyword():
    spaced = "vars 2\nobjective x1 + x2\neq h1 x1 - x2\nsoc g 2\nx1\nx2\npsd q 1\nx1\n"
    tabbed = "vars\t2\nobjective\tx1 + x2\neq\th1\tx1 - x2\nsoc\tg \t2\nx1\nx2\npsd\tq\t1\nx1\n"
    assert dumps(loads(tabbed)) == dumps(loads(spaced)) == spaced


def test_example_problem_files_parse(soc_line_program, psd_pair_program, scalar_pair_program):
    assert soc_line_program.n == 1
    assert soc_line_program.blocks[0].kind == "soc"
    assert psd_pair_program.n == 1
    assert [b.kind for b in psd_pair_program.blocks] == ["psd", "psd"]
    assert scalar_pair_program.n == 2
    assert [b.dim for b in scalar_pair_program.blocks] == [1, 1]


# a block dimension that asks for more entry lines than follow -> its message
BLOCK_LINE_ERRORS = {
    "vars 2\nobjective x1\nsoc g 12345678901\nx1\n": "block 'g' needs 2147483648 entry lines, 1 follow",
    "vars 2\nobjective x1\nsoc g 3\nx1\nx2\n": "block 'g' needs 3 entry lines, 2 follow",
    "vars 2\nobjective x1\npsd P 99999\nx1\n": "block 'P' needs 4999950000 entry lines, 1 follow",
    "vars 2\nobjective x1\npsd P 2\nx1\n0\n": "block 'P' needs 3 entry lines, 2 follow",
}


@pytest.mark.parametrize(
    "text",
    [
        "objective x1\n",                                  # missing vars
        "vars 0\nobjective x1\n",                          # nonpositive n
        "vars two\nobjective x1\n",                        # non-integer n
        "vars 1\n",                                        # missing objective
        "vars 1\nobjective\n",                             # empty objective
        "vars 1\nobjective x1\nwhat g 1\nx1\n",            # unknown directive
        "vars 1\nobjective x1\neq h x1\neq h x1\n",        # duplicate eq name
        "vars 1\nobjective x1\neq h\n",                   # eq without expression
        "vars 1\nobjective x1\nsoc g 1\nx1\nsoc g 1\nx1\n",  # duplicate block
        "vars 1\nobjective x1\neq g x1\nsoc g 1\nx1\n",      # block named like an equality
        "vars 1\nobjective x1\nsoc g 0\n",                 # nonpositive dim
        "vars 1\nobjective x1\nsoc g 2\nx1\n",             # missing entries
        "vars 1\nobjective x1\nsoc g 1\nx1\neq h x1\n",    # eq after block
        "vars 1\nobjective x1\nsoc g 1\nx2\n",             # bad entry expr
        "vars 1\nobjective x1\nsoc g\n",                   # missing dimension
        "vars " + "0" * 5000 + "12345678901\nobjective x1\n",  # n past 10 digits
        "vars 1\nobjective x1\nsoc g " + "0" * 5000 + "12345678901\nx1\n",  # dim past 10 digits
        "vars 1_0\nobjective x1\n",                       # counts are ASCII digits only:
        "vars +2\nobjective x1\n",                        # no underscore, sign
        "vars \u0663\nobjective x1\n",                     # or other script's digit
        "vars 2\nobjective x1\nsoc g 0_2\nx1\nx2\n",
        "vars 1\nobjective x1\npsd g \u0661\nx1\n",
    ] + list(BLOCK_LINE_ERRORS),
)
def test_format_errors(text):
    with pytest.raises(ProblemFormatError):
        loads(text)


def test_format_errors_carry_line_numbers():
    with pytest.raises(ProblemFormatError) as err:
        loads("vars 1\nobjective x1\nsoc g 1\nx2\n")
    assert err.value.line == 4
    for text, message in BLOCK_LINE_ERRORS.items():
        with pytest.raises(ProblemFormatError) as err:
            loads(text)
        assert str(err.value) == "line 3: " + message
    # the affine fast path reads ASCII digits only, as parse does
    with pytest.raises(ProblemFormatError) as err:
        loads("vars 1\nobjective x1\nsoc g 1\n\u0662 + \u0663 * x\u0661\n")
    assert err.value.line == 4


def test_variable_count_is_capped_at_the_int32_index_range():
    # nothing here allocates n entries: the cap is checked on the vars line
    assert loads("vars 2147483647\nobjective x1\n").n == 2**31 - 1
    with pytest.raises(ProblemFormatError, match="variable count must be at most 2147483647") as err:
        loads("vars 2147483648\nobjective x1\n")
    assert err.value.line == 1
    with pytest.raises(ProblemFormatError) as err:
        loads("# huge\nvars 1000000000000\nobjective x1\nsoc g 1\n0 + 1 * x1\n")
    assert err.value.line == 2


def test_counts_are_read_like_variable_indices():
    # leading zeros of any length, as in x000...01; past 10 significant
    # digits a count reads as 2**31, above the cap
    zeros = "0" * 5000
    assert loads("vars %s5\nobjective x%s1\n" % (zeros, zeros)).n == 5
    prog = loads("vars 2\nobjective x1\nsoc g %s2\nx1\nx2\n" % zeros)
    assert prog.blocks[0].dim == 2
    with pytest.raises(ProblemFormatError, match="variable count must be at most 2147483647"):
        loads("vars %s99999999999\nobjective x1\n" % zeros)


# ---------------------------------------------------------------------------
# evaluation: determinism, Jacobians, residuals


def test_evaluate_is_bitwise_deterministic():
    rng = np.random.default_rng(22)
    prog, x_star = random_feasible_program(rng)
    x = x_star + 0.1 * rng.standard_normal(prog.n)
    a, b = evaluate(prog, x), evaluate(prog, x.copy())
    assert a.f == b.f and a.residual == b.residual
    assert np.array_equal(a.grad_f, b.grad_f)
    assert np.array_equal(a.h, b.h) and np.array_equal(a.jac_h, b.jac_h)
    for ba, bb, blk in zip(a.blocks, b.blocks, prog.blocks):
        if blk.kind == "soc":
            assert np.array_equal(ba.value, bb.value)
            assert np.array_equal(ba.jac, bb.jac)
        else:
            assert np.array_equal(ba.value, bb.value)
            assert np.array_equal(ba.partials, bb.partials)
            assert np.array_equal(ba.spectral.eigenvalues, bb.spectral.eigenvalues)
            assert np.array_equal(ba.spectral.eigenvectors, bb.spectral.eigenvectors)


def test_jacobians_match_finite_differences_at_200_points():
    rng = np.random.default_rng(23)
    points = 0
    while points < 200:
        prog, x_star = random_feasible_program(rng)
        for _ in range(5):
            x = x_star + 0.3 * rng.standard_normal(prog.n)
            pt = evaluate(prog, x)

            def value_of(z, pick):
                return pick(evaluate(prog, z))

            fd = fd_gradient(lambda z: value_of(z, lambda p: p.f), x)
            scale = max(1.0, abs(pt.f), float(np.max(np.abs(pt.grad_f))))
            assert np.all(np.abs(fd - pt.grad_f) <= fd_tolerance(scale))
            for i in range(prog.p):
                fd = fd_gradient(lambda z: value_of(z, lambda p: float(p.h[i])), x)
                scale = max(1.0, float(np.max(np.abs(pt.jac_h[i]))))
                assert np.all(np.abs(fd - pt.jac_h[i]) <= fd_tolerance(scale))
            for j, blk in enumerate(prog.blocks):
                bv = pt.blocks[j]
                if blk.kind == "soc":
                    for r in range(blk.dim):
                        fd = fd_gradient(
                            lambda z: value_of(
                                z, lambda p: float(p.blocks[j].value[r])
                            ),
                            x,
                        )
                        scale = max(1.0, float(np.max(np.abs(bv.jac[r]))))
                        assert np.all(np.abs(fd - bv.jac[r]) <= fd_tolerance(scale))
                else:
                    rows, cols = np.triu_indices(blk.dim)
                    for a, b in zip(rows, cols):
                        fd = fd_gradient(
                            lambda z: value_of(
                                z, lambda p: float(p.blocks[j].value[a, b])
                            ),
                            x,
                        )
                        grad = bv.partials[:, a, b]
                        scale = max(1.0, float(np.max(np.abs(grad))))
                        assert np.all(np.abs(fd - grad) <= fd_tolerance(scale))
            points += 1
            if points >= 200:
                break


def test_residual_and_block_distances():
    text = "vars 1\nobjective x1\neq h1 x1 - 1\nsoc s 2\nx1\n2\npsd q 1\nx1 - 3\n"
    prog = loads(text)
    pt = evaluate(prog, [1.0])
    dist = block_distances(pt)
    assert dist["eq:h1"] == 0.0
    # soc value (1, 2) is infeasible: distance (2 - 1)/sqrt(2)
    assert dist["s"] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert dist["q"] == pytest.approx(2.0, abs=1e-12)
    assert pt.residual == pytest.approx(2.0, abs=1e-12)


def test_point_dimension_check():
    prog = loads("vars 2\nobjective x1 + x2\n")
    with pytest.raises(DimensionMismatchError):
        evaluate(prog, [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_is_a_domain_error(bad):
    # no expression reads x2, so only the point check can see it
    prog = loads("vars 2\nobjective (x1 - 1)^2\nsoc g 2\nx1\nx1\n")
    with pytest.raises(DomainError, match="point has a non-finite entry"):
        evaluate(prog, [0.5, bad])


def test_domain_error_names_block_and_entry():
    prog = loads("vars 1\nobjective x1\nsoc g 2\n1\nsqrt(x1)\n")
    with pytest.raises(DomainError) as err:
        evaluate(prog, [-1.0])
    assert "g" in str(err.value) and "1" in str(err.value)


def test_apply_jacobian_adjoint_matches_direct_contraction():
    rng = np.random.default_rng(24)
    prog, x_star = random_feasible_program(rng)
    pt = evaluate(prog, x_star)
    for j, blk in enumerate(prog.blocks):
        bv = pt.blocks[j]
        if blk.kind == "soc":
            mu = rng.standard_normal(blk.dim)
            expect = bv.jac.T @ mu
        else:
            mu = rng.standard_normal((blk.dim, blk.dim))
            mu = 0.5 * (mu + mu.T)
            expect = np.tensordot(bv.partials, mu, axes=([1, 2], [0, 1]))
        got = apply_jacobian_adjoint(pt, j, mu)
        assert np.all(np.abs(got - expect) <= 1e-14)


def test_lagrangian_gradient_matches_a_dense_contraction():
    # grad f + J_h^T lam - sum_j Dg_j^* mu_j summed by einsum over the
    # Jacobians and partials, some blocks without a multiplier
    rng = np.random.default_rng(27)
    seen = {"eq": 0, "soc": 0, "psd": 0, "none": 0}
    nonlinear = loads(
        "vars 3\nobjective x1 ^ 2 + x2 * x3\neq h x1 * x2 - 1\n"
        "soc G 3\nx1 + 2\nx2 ^ 2\nx3\npsd P 2\nx1 * x3 + 1\nx2\nexp(x3)\n"
    )
    programs = [random_feasible_program(rng)[0] for _ in range(40)] + [nonlinear] * 10
    for prog in programs:
        pt = evaluate(prog, rng.uniform(-1.5, 1.5, size=prog.n))
        lam = rng.standard_normal(prog.p)
        expect = pt.grad_f + np.einsum("ki,k->i", pt.jac_h, lam)
        seen["eq"] += prog.p > 0
        multipliers = []
        for blk, bv in zip(prog.blocks, pt.blocks):
            if rng.random() < 0.3:
                multipliers.append(None)
                seen["none"] += 1
                continue
            if blk.kind == "soc":
                mu = rng.standard_normal(blk.dim)
                expect = expect - np.einsum("ei,e->i", bv.jac, mu)
            else:
                a = rng.standard_normal((blk.dim, blk.dim))
                mu = a + a.T
                expect = expect - np.einsum("iab,ab->i", bv.partials, mu)
            seen[blk.kind] += 1
            multipliers.append(mu)
        got = lagrangian_gradient(pt, lam, multipliers)
        assert got is not pt.grad_f
        assert np.all(np.abs(got - expect) <= 1e-12 * max(1.0, float(np.max(np.abs(expect)))))
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# affine blocks folded to coefficient arrays


def affine_program_text(rng, n=30, psd_dims=(10, 10, 8, 8), soc_dims=(5, 5, 5, 5), keep=1.0):
    """Entries c0 + sum 0.3 N(0, 1) x_i; each term is kept with probability ``keep``.

    With the default shape the text has 212 lines.
    """
    blocks = []
    for kind, dims in (("psd", psd_dims), ("soc", soc_dims)):
        for b, m in enumerate(dims):
            count = m if kind == "soc" else m * (m + 1) // 2
            coeffs = 0.3 * rng.standard_normal((count, n)) * (rng.random((count, n)) < keep)
            consts = rng.integers(-3, 4, size=count) / 2.0
            lines = ["%s %s%d %d" % (kind, kind, b + 1, m)]
            blocks.append(lines + [affine_entry_text(row, c) for row, c in zip(coeffs, consts)])
    return build_program_text(n, "x1", blocks=blocks)


@pytest.mark.parametrize("keep", [1.0, 0.3])
def test_affine_fold_equals_entry_tapes(keep):
    rng = np.random.default_rng(31)
    for _ in range(2):
        prog = loads(affine_program_text(rng, keep=keep))
        for _ in range(5):
            x = rng.standard_normal(prog.n)
            for blk in prog.blocks:
                assert blk.affine is not None
                graded = [ex.eval_grad(entry, x) for entry in blk.entries]
                assert np.array_equal(blk.affine.values(x), [gv.value for gv in graded])
                assert np.array_equal(blk.affine.jac, [gv.partials for gv in graded])


def test_only_all_affine_blocks_are_folded():
    prog = loads("vars 2\nobjective x1\nsoc a 2\n1 + 2 * x1\n0.5\nsoc b 2\n1 + 2 * x1\nx2\n")
    assert prog.blocks[0].affine is not None
    assert prog.blocks[0].tapes is None
    assert prog.blocks[1].affine is None
    assert len(prog.blocks[1].tapes) == 2
    # blanks are whatever str.isspace takes, as in parse, a no-break space too
    assert loads("vars 1\nobjective x1\nsoc g 1\n2\u00a0+ 3 * x1\n").blocks[0].affine is not None


def test_folded_entries_print_as_their_parsed_lines():
    text = affine_program_text(np.random.default_rng(33), keep=0.3)
    prog = loads(text)
    lines = [line for line in text.splitlines()[2:] if not line.startswith(("soc", "psd"))]
    printed = [ex.to_source(entry) for blk in prog.blocks for entry in blk.entries]
    assert printed == [ex.to_source(ex.parse(line, prog.n)) for line in lines]
    assert dumps(loads(dumps(prog))) == dumps(prog)


def test_loads_parses_only_the_objective_of_an_affine_program(monkeypatch):
    text = affine_program_text(np.random.default_rng(32))
    calls = []
    parse = ex.parse
    monkeypatch.setattr(ex, "parse", lambda source, n: calls.append(source) or parse(source, n))
    loads(text)
    assert calls == ["x1"]


def test_loads_holds_under_300_kb_for_a_212_line_affine_program():
    text = affine_program_text(np.random.default_rng(32))
    assert len(text.splitlines()) == 212
    loads(text)
    tracemalloc.start()
    try:
        prog = loads(text)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prog.n == 30
    assert held < 300_000


def test_loads_builds_no_jacobian_for_a_large_variable_count():
    tracemalloc.start()
    try:
        prog = loads("vars 10000000\nobjective x1\nsoc g 1\n0 + 1 * x1\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000
    assert prog.blocks[0].affine.terms() == [(0.0, [1.0], [0])]


@pytest.mark.parametrize("keep", [1.0, 0.3])
def test_psd_block_value_is_the_symmetric_array_of_its_entries(keep):
    prog = loads(affine_program_text(np.random.default_rng(36), n=3, psd_dims=(3, 1), soc_dims=(2,), keep=keep))
    x = np.random.default_rng(37).standard_normal(3)
    pt = evaluate(prog, x)
    for blk, bv in zip(prog.blocks, pt.blocks):
        if blk.kind == "psd":
            vals = [ex.eval_grad(entry, x).value for entry in blk.entries]
            assert type(bv.value) is np.ndarray
            assert bv.value.tobytes() == sym_from_upper(vals, blk.dim).tobytes()


def test_folded_derivatives_are_shared_and_read_only():
    prog = loads(affine_program_text(np.random.default_rng(34), n=3, psd_dims=(3,), soc_dims=(2,)))
    rng = np.random.default_rng(35)
    pa, pb = evaluate(prog, rng.standard_normal(3)), evaluate(prog, rng.standard_normal(3))
    assert pa.blocks[0].partials is pb.blocks[0].partials
    assert pa.blocks[1].jac is pb.blocks[1].jac
    with pytest.raises(ValueError):
        pa.blocks[0].partials[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        pa.blocks[1].jac[0, 0] = 1.0


@pytest.mark.parametrize(
    "text,where",
    [
        ("vars 1\nobjective 1e200 * 1e200 * x1\n", "objective"),
        ("vars 1\nobjective x1\neq h 1e308 * x1 * x1\n", "equality 'h'"),
        ("vars 1\nobjective x1\nsoc g 2\nx1\n1e200 * 1e200\n", "block 'g' entry 1"),
        ("vars 1\nobjective x1\nsoc g 2\n1e308 + 1e308 * x1\n0 + 1e308 * x1\n", "block 'g' entry 0"),
    ],
    ids=["objective", "equality", "block-entry", "folded-block"],
)
def test_non_finite_values_are_domain_errors(text, where):
    with pytest.raises(DomainError, match=where):
        evaluate(loads(text), [2.0])


# ---------------------------------------------------------------------------
# block-diagonal embedding


def _psd_program(rng, n_blocks):
    lines = ["vars 2", "objective x1 + x2"]
    for b in range(n_blocks):
        m = int(rng.integers(1, 4))
        lines.append("psd b%d %d" % (b, m))
        rows, cols = np.triu_indices(m)
        for a, c in zip(rows, cols):
            coeffs = rng.integers(-2, 3, size=2)
            cst = float(rng.integers(-2, 3))
            lines.append(
                "%s + %s * x1 + %s * x2" % (repr(cst), repr(float(coeffs[0])), repr(float(coeffs[1])))
            )
    return loads("\n".join(lines) + "\n")


def test_embedding_values_equal_block_diagonal_assembly():
    rng = np.random.default_rng(25)
    for _ in range(10):
        prog = _psd_program(rng, int(rng.integers(2, 4)))
        merged = embed_block_diagonal(prog)
        assert len(merged.blocks) == 1
        assert merged.blocks[0].dim == sum(b.dim for b in prog.blocks)
        x = rng.uniform(-1.0, 1.0, size=2)
        pa, pb = evaluate(prog, x), evaluate(merged, x)
        assert pa.f == pb.f
        big = pb.blocks[0].value
        off = 0
        for j, blk in enumerate(prog.blocks):
            small = pa.blocks[j].value
            assert np.array_equal(big[off : off + blk.dim, off : off + blk.dim], small)
            off += blk.dim
        # off-diagonal couplings are identically zero
        mask = np.ones_like(big, dtype=bool)
        off = 0
        for blk in prog.blocks:
            mask[off : off + blk.dim, off : off + blk.dim] = False
            off += blk.dim
        assert np.all(big[mask] == 0.0)


def test_embedding_requires_psd_blocks_only():
    prog = loads("vars 1\nobjective x1\nsoc g 2\nx1\nx1\n")
    with pytest.raises(DimensionMismatchError):
        embed_block_diagonal(prog)


def test_embedding_avoids_name_collision():
    text = "vars 1\nobjective x1\npsd diag 1\nx1\npsd other 1\nx1\n"
    merged = embed_block_diagonal(loads(text))
    assert merged.blocks[0].name == "diag_"


def test_embedding_avoids_equality_names_and_loads_again():
    text = "vars 1\nobjective x1\neq diag x1\neq diag_ x1\npsd a 1\nx1\npsd b 1\nx1\n"
    merged = embed_block_diagonal(loads(text))
    assert merged.blocks[0].name == "diag__"
    assert loads(dumps(merged)).blocks[0].name == "diag__"


def test_embedding_single_block_is_identity_shape():
    prog = loads("vars 1\nobjective x1\npsd only 2\nx1\n0\nx1\n")
    merged = embed_block_diagonal(prog)
    assert len(merged.blocks) == 1
    assert merged.blocks[0].dim == 2
    x = [0.8]
    assert np.array_equal(
        evaluate(prog, x).blocks[0].value, evaluate(merged, x).blocks[0].value
    )

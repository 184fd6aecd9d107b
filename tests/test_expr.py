"""Expression parsing, printing, and forward-mode differentiation."""

import math
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

import coneguard.expr as ex
from coneguard.errors import (
    ConeguardError,
    DomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
    VariableIndexError,
)
from coneguard.expr import ADD, BINARY, CALL, FUNCTIONS, LIT, NEG, POW, VAR, Tape, _Builder, affine_tape

from coneguard.model import AffineFold

from conftest import fd_gradient, fd_tolerance, same_bits, seeded_doubles


# ---------------------------------------------------------------------------
# expression trees, the reference for the tape


@dataclass(frozen=True)
class Expr:
    span: int | None = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class Lit(Expr):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Expr):
    index: int = 0  # 0-based


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr = None


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr = None
    exponent: int = 1


@dataclass(frozen=True)
class Bin(Expr):
    op: str = "+"
    left: Expr = None
    right: Expr = None


@dataclass(frozen=True)
class Call(Expr):
    func: str = "exp"
    arg: Expr = None


_CHILDREN = {Neg: ("arg",), Call: ("arg",), Pow: ("base",), Bin: ("left", "right")}


def compile_tree(e):
    """Compile an expression tree into a tape, without recursion."""
    order, stack = [], [e]
    while stack:  # each node before its subtrees, the right one first
        node = stack.pop()
        order.append(node)
        stack.extend(getattr(node, child) for child in _CHILDREN.get(type(node), ()))
    out = _Builder()
    for node in reversed(order):
        if isinstance(node, Lit):
            out.emit(LIT, float(node.value), node.span)
        elif isinstance(node, Var):
            out.emit(VAR, node.index, node.span)
        elif isinstance(node, Neg):
            out.emit(NEG, 0, node.span)
        elif isinstance(node, Pow):
            out.emit(POW, node.exponent, node.span)
        elif isinstance(node, Bin):
            out.emit(ADD + BINARY.index(node.op), 0, node.span)
        elif isinstance(node, Call):
            out.emit(CALL, FUNCTIONS.index(node.func), node.span)
        else:
            raise TypeError("not an expression node: %r" % (node,))
    return Tape(out)


def test_fold_tapes_equal_compiled_trees():
    rng = np.random.default_rng(17)
    for _ in range(200):
        count = int(rng.integers(0, 6))
        c0 = float(rng.standard_normal())
        coef = rng.standard_normal(count).tolist()
        var = rng.integers(0, 8, size=count).tolist()
        tree = Lit(c0)
        for c, i in zip(coef, var):
            tree = Bin("+", tree, Bin("*", Lit(c), Var(i)))
        got, want = affine_tape(c0, coef, var), compile_tree(tree)
        for name in ("ops", "args", "spans", "lits"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


# ---------------------------------------------------------------------------
# random tree corpus


def random_tree(rng, depth, n):
    """Random expression tree of depth at most ``depth`` over x1..xn."""
    r = rng.random()
    if depth == 0 or r < 0.22:
        if rng.random() < 0.45:
            return Lit(float(rng.integers(-8, 9)) / 4.0)
        return Var(int(rng.integers(0, n)))
    if r < 0.42:
        return Bin("+", random_tree(rng, depth - 1, n), random_tree(rng, depth - 1, n))
    if r < 0.57:
        return Bin("-", random_tree(rng, depth - 1, n), random_tree(rng, depth - 1, n))
    if r < 0.72:
        return Bin("*", random_tree(rng, depth - 1, n), random_tree(rng, depth - 1, n))
    if r < 0.80:
        return Bin("/", random_tree(rng, depth - 1, n), random_tree(rng, depth - 1, n))
    if r < 0.86:
        return Neg(random_tree(rng, depth - 1, n))
    if r < 0.93:
        return Pow(random_tree(rng, depth - 1, n), int(rng.integers(-2, 4)))
    func = ex.FUNCTIONS[int(rng.integers(0, len(ex.FUNCTIONS)))]
    return Call(func, random_tree(rng, depth - 1, n))


def _comfortable(e, x):
    """True when every subexpression sits well inside its domain at x.

    Margins are much larger than the finite-difference step, so the
    comparison below never leaves the domain and curvature stays tame.
    """
    if isinstance(e, (Lit, Var)):
        return True
    if isinstance(e, Neg):
        return _comfortable(e.arg, x)
    if isinstance(e, Pow):
        if not _comfortable(e.base, x):
            return False
        v = ex.eval_grad(compile_tree(e.base), x).value
        if e.exponent < 0 and abs(v) < 0.3:
            return False
        return abs(v) < 6.0
    if isinstance(e, Bin):
        if not (_comfortable(e.left, x) and _comfortable(e.right, x)):
            return False
        if e.op == "/":
            return abs(ex.eval_grad(compile_tree(e.right), x).value) >= 0.3
        return True
    if isinstance(e, Call):
        if not _comfortable(e.arg, x):
            return False
        v = ex.eval_grad(compile_tree(e.arg), x).value
        if e.func in ("sqrt", "log"):
            return v >= 0.1
        if e.func == "exp":
            return v <= 4.0
        return True
    raise TypeError(e)


def tame_corpus(seed, count, depth=6, n_max=4):
    """Yield ``count`` (tree, point) pairs whose evaluation is well-posed."""
    rng = np.random.default_rng(seed)
    made = 0
    attempts = 0
    while made < count:
        attempts += 1
        assert attempts < 60 * count, "corpus generator stalled"
        n = int(rng.integers(1, n_max + 1))
        tree = random_tree(rng, int(rng.integers(1, depth + 1)), n)
        x = rng.uniform(-1.5, 1.5, size=n)
        try:
            if not _comfortable(tree, x):
                continue
            gv = ex.eval_grad(compile_tree(tree), x)
        except DomainError:
            continue
        scale = max(1.0, abs(gv.value), float(np.max(np.abs(gv.partials))))
        if scale > 1e4:
            continue
        made += 1
        yield tree, x, gv, scale


def reference_eval(e, x):
    """The recursive tree walk that the tape replaced, kept as a reference."""
    if isinstance(e, Lit):
        return e.value, np.zeros(len(x))
    if isinstance(e, Var):
        g = np.zeros(len(x))
        if e.index >= len(x):
            raise DomainError("variable x%d beyond point dimension" % (e.index + 1), e.span)
        g[e.index] = 1.0
        return float(x[e.index]), g
    if isinstance(e, Neg):
        v, g = reference_eval(e.arg, x)
        return -v, -g
    if isinstance(e, Bin):
        lv, lg = reference_eval(e.left, x)
        rv, rg = reference_eval(e.right, x)
        if e.op == "+":
            return lv + rv, lg + rg
        if e.op == "-":
            return lv - rv, lg - rg
        if e.op == "*":
            return lv * rv, rv * lg + lv * rg
        if rv == 0.0:
            raise DomainError("division by zero", e.span)
        return lv / rv, (lg - (lv / rv) * rg) / rv
    if isinstance(e, Pow):
        v, g = reference_eval(e.base, x)
        k = e.exponent
        if k == 0:
            return 1.0, np.zeros(len(x))
        if v == 0.0 and k < 0:
            raise DomainError("zero raised to a negative power", e.span)
        try:
            val = float(v**k)
            dv = float(k) * v ** (k - 1)
        except OverflowError:
            raise DomainError("overflow in power", e.span) from None
        return val, dv * g
    if isinstance(e, Call):
        v, g = reference_eval(e.arg, x)
        try:
            if e.func == "sqrt":
                if v < 0.0:
                    raise DomainError("sqrt of a negative value", e.span)
                if v == 0.0:
                    raise DomainError("sqrt derivative undefined at zero", e.span)
                s = math.sqrt(v)
                return s, g / (2.0 * s)
            if e.func == "exp":
                s = math.exp(v)
                return s, s * g
            if e.func == "log":
                if v <= 0.0:
                    raise DomainError("log of a non-positive value", e.span)
                return math.log(v), g / v
            if e.func == "sin":
                return math.sin(v), math.cos(v) * g
            return math.cos(v), -math.sin(v) * g
        except OverflowError:
            raise DomainError("overflow in %s" % e.func, e.span) from None
    raise TypeError("not an expression node: %r" % (e,))


def test_tape_equals_reference_walk_on_1000_trees():
    for tree, x, gv, _ in tame_corpus(4321, 1000):
        value, partials = reference_eval(tree, x)
        assert gv.value == value
        assert np.array_equal(gv.partials, partials)
        # the parsed text compiles to the same tape as the tree
        again = ex.eval_grad(ex.parse(ex.to_source(compile_tree(tree)), x.size), x)
        assert again.value == value
        assert np.array_equal(again.partials, partials)


def reference_affine_terms(tape):
    """The tape-level recognizer that the text one replaced, kept as a reference."""
    ops = tape.ops
    if ops.size % 4 != 1 or ops[0] != ex.LIT or np.any(ops[1:].reshape(-1, 4) != (ex.LIT, ex.VAR, ex.MUL, ex.ADD)):
        return None
    return float(tape.lits[0]), tape.lits[1:], tape.args[2::4]


def random_affine_tree(rng, n):
    """c0 + c1 * xi + ..., literals now and then under unary minuses; one in
    four trees has a last term that breaks the form."""

    def lit():
        node = Lit(float(rng.choice([-1.0, 1.0]) * rng.random() * 10.0 ** int(rng.integers(-3, 4))))
        for _ in range(int(rng.integers(1, 3)) if rng.random() < 0.3 else 0):
            node = Neg(node)
        return node

    tree = lit()
    for _ in range(int(rng.integers(0, 5))):
        tree = Bin("+", tree, Bin("*", lit(), Var(int(rng.integers(0, n)))))
    var = Var(int(rng.integers(0, n)))
    broken = [
        Bin("-", tree, Bin("*", lit(), var)),
        Bin("+", tree, Bin("*", var, lit())),
        Bin("+", tree, Neg(Bin("*", lit(), var))),
        Bin("+", tree, Bin("*", lit(), Pow(var, 1))),
    ]
    return broken[int(rng.integers(0, 4))] if rng.random() < 0.25 else tree


def _assert_recognizers_agree(source, n, x):
    """The text recognizer accepts ``source`` exactly when the tape one accepts
    its parse, with the same terms, and the fold equals the tape bitwise."""
    terms = ex.affine_terms(source, n)
    try:
        tape = ex.parse(source, n)
    except ConeguardError:
        assert terms is None, source
        return False
    ref = reference_affine_terms(tape)
    assert (terms is None) == (ref is None), source
    if terms is None:
        return False
    c0, coef, var = terms
    assert np.array([c0, *coef]).tobytes() == np.array([ref[0], *ref[1]]).tobytes(), source
    assert var == ref[2].tolist(), source
    fold, gv = AffineFold([terms], n), ex.eval_grad(tape, x)
    assert fold.values(x).tobytes() == np.array([gv.value]).tobytes(), source
    assert fold.jac.tobytes() == gv.partials[None].tobytes(), source
    return True


def test_text_recognizer_agrees_with_the_tape_on_1000_trees():
    accepted = sum(_assert_recognizers_agree(ex.to_source(compile_tree(tree)), x.size, x) for tree, x, _, _ in tame_corpus(4321, 1000))
    assert accepted > 100  # the lone literals, -(-1) among them


def test_text_recognizer_agrees_with_the_tape_on_affine_trees():
    rng = np.random.default_rng(5)
    accepted = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        accepted += _assert_recognizers_agree(ex.to_source(compile_tree(random_affine_tree(rng, n))), n, rng.standard_normal(n))
    assert 600 < accepted < 900


@pytest.mark.parametrize(
    "source,terms",
    [
        ("- 0.5 + 1 * x1", (-0.5, [1.0], [0])),
        ("1.e5 + .5 * x2", (1e5, [0.5], [1])),
        ("1 + 2 * x0", None),
        ("1 + 2 * x3", None),
        ("1 + 2 * x1x", None),
        ("1 - 2 * x1", None),
        ("2 * x1", None),
        ("1e400 + 1 * x1", (math.inf, [1.0], [0])),
        ("-(-(2)) + (-3) * x2 + - 4e-1*x1", (2.0, [-3.0, -0.4], [1, 0])),
        ("-" * 2 + "1", None),
        ("(" * ex.MAX_NESTING + "1" + ")" * ex.MAX_NESTING, (1.0, [], [])),
        ("(" * (ex.MAX_NESTING + 1) + "1" + ")" * (ex.MAX_NESTING + 1), None),
        ("2 + 3 * x\u0661", None),
    ],
)
def test_text_recognizer_edge_strings(source, terms):
    assert ex.affine_terms(source, 2) == terms
    assert _assert_recognizers_agree(source, 2, np.array([0.5, -1.5])) == (terms is not None)


def test_text_recognizer_is_linear_in_blank_runs():
    # blanks are only consumed after a token, so failing costs no backtracking;
    # were two blank runs to meet, each of the first two would take over ten seconds
    for source in ["(" + " " * 20000 + "x", "1 +" + " " * 20000 + "x", "( - " * 5000 + "x"]:
        started = time.perf_counter()
        assert ex.affine_terms(source, 1) is None
        assert time.perf_counter() - started < 2.0


def test_tape_and_reference_agree_on_domain_errors():
    rng = np.random.default_rng(77)
    raised = 0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        tree = random_tree(rng, int(rng.integers(1, 7)), n)
        x = rng.uniform(-1.5, 1.5, size=n)
        try:
            value, partials = reference_eval(tree, x)
        except DomainError as err:
            raised += 1
            with pytest.raises(DomainError) as got:
                ex.eval_grad(compile_tree(tree), x)
            assert str(got.value) == str(err)
            continue
        gv = ex.eval_grad(compile_tree(tree), x)
        assert gv.value == value or (math.isnan(gv.value) and math.isnan(value))
        assert np.array_equal(gv.partials, partials, equal_nan=True)
    assert raised > 0


def test_deep_trees_evaluate_and_print_without_recursion():
    tree = Var(0)
    for _ in range(5000):
        tree = Bin("+", tree, Lit(1.0))
    tape = compile_tree(tree)
    gv = ex.eval_grad(tape, [0.5])
    assert gv.value == 5000.5
    assert gv.partials[0] == 1.0
    text = ex.to_source(tape)
    assert ex.eval_grad(ex.parse(text, 1), [0.5]).value == 5000.5


def test_nesting_limit():
    deep = ex.MAX_NESTING
    assert ex.eval_grad(ex.parse("(" * deep + "x1" + ")" * deep, 1), [2.0]).value == 2.0
    assert ex.eval_grad(ex.parse("sin(" * deep + "x1" + ")" * deep, 1), [0.0]).value == 0.0
    for source in ["(" * (deep + 1) + "x1" + ")" * (deep + 1), "(" * 1200 + "x1" + ")" * 1200]:
        with pytest.raises(ExprSyntaxError):
            ex.parse(source, 1)


def test_gradients_match_finite_differences_on_1000_trees():
    checked = 0
    for tree, x, gv, scale in tame_corpus(1234, 1000):
        tape = compile_tree(tree)
        fd = fd_gradient(lambda z: ex.eval_grad(tape, z).value, x)
        assert np.all(np.abs(fd - gv.partials) <= fd_tolerance(scale)), (
            ex.to_source(tape),
            x,
        )
        checked += 1
    assert checked == 1000


def test_print_parse_is_identity_on_corpus():
    for tree, x, gv, _ in tame_corpus(99, 300):
        # printing never changes meaning, even for trees the parser would
        # normalize (a unary minus wrapping a negative literal, say)
        canon = ex.parse(ex.to_source(compile_tree(tree)), x.size)
        gv2 = ex.eval_grad(canon, x)
        assert gv2.value == gv.value
        assert np.array_equal(gv2.partials, gv.partials)
        # on canonical trees, parse after print is the identity
        text = ex.to_source(canon)
        assert ex.to_source(ex.parse(text, x.size)) == text


def test_parse_canonical_forms():
    e = ex.parse("(x1 - 1)^2", 1)
    gv = ex.eval_grad(e, [3.0])
    assert gv.value == 4.0
    assert gv.partials[0] == 4.0
    # unary minus binds after power: -x1^2 is -(x1^2)
    e = ex.parse("-x1^2", 1)
    assert ex.eval_grad(e, [2.0]).value == -4.0
    # negative literal folding round-trips
    e = ex.parse("-2 * x1", 1)
    assert ex.to_source(ex.parse(ex.to_source(e), 1)) == ex.to_source(e)
    # negative and zero integer exponents
    e = ex.parse("x1^-2", 1)
    gv = ex.eval_grad(e, [2.0])
    assert gv.value == 0.25
    assert gv.partials[0] == pytest.approx(-0.25, abs=1e-15)
    assert ex.eval_grad(ex.parse("x1^0", 1), [5.0]).value == 1.0


def test_seventeen_digit_literals_round_trip():
    val = 0.1 + 0.2  # not exactly representable in decimal shorthand
    text = ex.to_source(compile_tree(Lit(val)))
    assert ex.eval_grad(ex.parse(text, 1), [0.0]).value == val


def test_real_reads_every_double_that_17_digits_print():
    # one number grammar: %.17g of a finite double reads back bitwise, and a
    # nonnegative one is also the literal that parse reads from the same token
    for v in seeded_doubles(34, 4000):
        text = "%.17g" % v
        assert same_bits(ex.real(text), v), text
        if not math.copysign(1.0, v) < 0:
            assert same_bits(ex.parse(text, 1).lits, [v]), text


@pytest.mark.parametrize(
    "text, value",
    [("+1", 1.0), ("-5e-1", -0.5), ("1e0", 1.0), (".5", 0.5), ("5.", 5.0), ("1E+2", 100.0), ("1e999", math.inf),
     ("-inf", -math.inf), ("nan", math.nan), ("0", 0), ("+3", 3), ("-7", -7), ("007", 7), ("9" * 20, 10**20 - 1)],
)
def test_signed_ascii_literals_are_numbers(text, value):
    if isinstance(value, int):
        assert ex.integer(text) == value
    else:
        assert same_bits(ex.real(text), value)


def test_integer_drops_leading_zeros_as_bounded_does():
    # past int()'s 4300-digit limit in zeros alone, as problem files read x0001
    zeros = "0" * 5000
    assert [ex.integer(sign + zeros + "7") for sign in ("", "+", "-")] == [7, 7, -7]
    assert ex.integer(zeros) == ex.integer("-" + zeros) == 0
    assert ex.integer(zeros + "1" * 4300) == int("1" * 4300)
    with pytest.raises(ValueError, match="4300"):
        ex.integer(zeros + "1" * 4301)


PYTHON_WORDS = {"real": (float, "could not convert string to float: %r"),
                "integer": (int, "invalid literal for int() with base 10: %r")}


@pytest.mark.parametrize(
    "reader, text",
    [("real", t) for t in ["1_0", "\u0663", "\u0660.\u0661", "Infinity", "INF", "NaN", " 1", "1 ", "", "+", "1e",
                           "0x1", "--1", "zero"]]
    + [("integer", t) for t in ["1_0", "\u0663", "1.0", "1e3", " 1", "", "+", "one", "0x1"]],
)
def test_readers_refuse_what_problem_files_refuse_in_pythons_words(reader, text):
    python, words = PYTHON_WORDS[reader]
    with pytest.raises(ValueError) as err:
        getattr(ex, reader)(text)
    assert str(err.value) == words % text
    try:
        python(text)
    except ValueError as exc:
        assert str(exc) == str(err.value)


@pytest.mark.parametrize(
    "source",
    [
        "x1 +", "", "(x1", "x1 ) ", "x1 ^ x1", "x1 ^ 2.5", "1 $ 2", "x1 x2", "sin x1", "x1 ^ 9999999999",
        "\u0663", "x1^\u0662",  # literals and exponents are ASCII digits
    ],
)
def test_syntax_errors(source):
    with pytest.raises(ExprSyntaxError):
        ex.parse(source, 2)


def test_unknown_identifiers():
    with pytest.raises(UnknownIdentifierError):
        ex.parse("y1 + 2", 2)
    with pytest.raises(UnknownIdentifierError):
        ex.parse("foo(x1)", 1)


def test_variable_index_range():
    with pytest.raises(VariableIndexError):
        ex.parse("x0", 2)
    with pytest.raises(VariableIndexError):
        ex.parse("x3", 2)
    # VariableIndexError is a syntax error subtype
    assert issubclass(VariableIndexError, ExprSyntaxError)


@pytest.mark.parametrize(
    "source,point",
    [
        ("sqrt(x1)", [-1.0]),
        ("sqrt(x1)", [0.0]),
        ("log(x1)", [0.0]),
        ("log(x1)", [-2.0]),
        ("1 / x1", [0.0]),
        ("x1^-1", [0.0]),
        ("exp(x1)", [1000.0]),
    ],
)
def test_domain_errors(source, point):
    e = ex.parse(source, 1)
    with pytest.raises(DomainError):
        ex.eval_grad(e, point)


def test_variable_beyond_point_dimension():
    e = ex.parse("x2", 2)
    with pytest.raises(DomainError):
        ex.eval_grad(e, [1.0])


def test_functions_cover_contract():
    assert set(ex.FUNCTIONS) == {"sqrt", "exp", "log", "sin", "cos"}
    x = np.array([0.7])
    for name, val, der in [
        ("sqrt", np.sqrt(0.7), 0.5 / np.sqrt(0.7)),
        ("exp", np.exp(0.7), np.exp(0.7)),
        ("log", np.log(0.7), 1 / 0.7),
        ("sin", np.sin(0.7), np.cos(0.7)),
        ("cos", np.cos(0.7), -np.sin(0.7)),
    ]:
        gv = ex.eval_grad(ex.parse("%s(x1)" % name, 1), x)
        assert gv.value == pytest.approx(val, abs=1e-15)
        assert gv.partials[0] == pytest.approx(der, abs=1e-12)

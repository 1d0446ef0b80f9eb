"""A tiny closed expression language for one-variable piecewise functions.

Expressions are built from the variable ``x``, rational constants, the
arithmetic operators, integer powers, and the lattice/metric primitives
``min``/``max``/``abs``.  Everything in the language is continuous except
where a division has a vanishing denominator, so min/max compositions of
polynomials (the shapes the iteration is exercised on) evaluate totally.

Concrete syntax, loosest-binding rule first::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' INT)?
    atom   := 'x' | NUMBER | '(' expr ')'
            | ('min' | 'max') '(' expr ',' expr ')' | 'abs' '(' expr ')'

Adjacency is multiplication: ``6x^2`` means ``6*x^2``.  NUMBER covers
integers, exact decimals (``0.25`` -> 1/4, never a binary float), and
integer ratios: ``p/q`` with ``q > 0`` is a single rational constant
unless a ``^`` follows, so ``3/4`` is the constant 3/4 while ``3/4^2``
divides 3 by 4 squared.  A ratio never forms in the right operand of a
division; ``x/2/3`` stays left-associative ``(x/2)/3``.

Evaluation compiles each expression once per backend, on its first
evaluation, into closures cached on the expression object.  One walk
over the tree labels paths and folds constants for every backend, and
each backend supplies a node builder; the exact evaluator and the grid
also compile each polynomial branch to one Horner kernel.  See the
Evaluation section.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import partial

from .numerics import _aligned, _float_in_range, _text_int, reduced, scalar_text
from .record import Record, init_field

__all__ = [
    "Var",
    "RationalConst",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Min",
    "Max",
    "Abs",
    "FunctionExpr",
    "ParseError",
    "EvalError",
    "parse",
    "eval_exact",
    "eval_float",
    "to_text",
]


class _Node(Record):
    """Base of the expression nodes.

    ``eval_exact``/``eval_float`` cache compiled closures on the node they
    evaluate, in two slots that are no fields: equality, hashing and repr
    ignore them, and a pickled or copied node compiles again on first use.
    """

    __slots__ = ("_exact_code", "_float_code")


class _Unary(_Node):
    __slots__ = ("operand",)

    def __init__(self, operand: "FunctionExpr"):
        init_field(self, "operand", operand)


class _Binary(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: "FunctionExpr", right: "FunctionExpr"):
        init_field(self, "left", left)
        init_field(self, "right", right)


class Var(_Node):
    """The single free variable ``x``."""

    __slots__ = ()


class RationalConst(_Node):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        init_field(self, "value", value if isinstance(value, Fraction) else Fraction(value))


class Neg(_Unary):
    __slots__ = ()


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(_Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base: "FunctionExpr", exponent: int):
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise ValueError("power exponent must be an int")
        if exponent < 0:
            raise ValueError("power exponent must be non-negative")
        init_field(self, "base", base)
        init_field(self, "exponent", exponent)


class Min(_Binary):
    __slots__ = ()


class Max(_Binary):
    __slots__ = ()


class Abs(_Unary):
    __slots__ = ()


FunctionExpr = Var | RationalConst | Neg | Add | Sub | Mul | Div | Pow | Min | Max | Abs


class ParseError(ValueError):
    """Syntax error at a character index, with the token set that was legal there."""

    def __init__(self, offset: int, expected: frozenset, found: str):
        self.offset = offset
        self.expected = frozenset(expected)
        self.found = found
        choices = ", ".join(sorted(self.expected))
        super().__init__(
            f"syntax error at offset {offset}: found {found}, expected one of: {choices}"
        )


class EvalError(ArithmeticError):
    """Division by zero during evaluation, located by a path of node labels."""

    def __init__(self, x, path: tuple[str, ...]):
        self.x = x
        self.path = tuple(path)
        where = "/".join(self.path) or "(root)"
        super().__init__(f"division by zero at x = {scalar_text(x)} in node {where}")


# ---------------------------------------------------------------------------
# Evaluation
#
# Each expression compiles once per backend into nested closures, cached
# on the expression object (the frozen fields, and with them equality,
# hashing and repr, are untouched).  One walk, _lower, compiles for
# every backend, which supplies a node builder and a fold.  A subtree
# that divides by zero stays a closure and raises when it runs, so an
# error names the same node and the same ``x`` as a left-to-right walk
# of the tree would.
#
# The exact and grid backends also supply a kernel builder.  For them
# the walk collects each subtree made only of x, constants, +, -, unary
# -, x^k, products with a constant or with a single term c x^j, and
# divisions by a nonzero constant into sparse terms {k: c_k}; the terms
# of a node come from its children's, once.  Each maximal such subtree
# that depends on x becomes one kernel, which evaluates the polynomial
# by Horner's rule, instead of one closure per node.  Products of sums
# and powers of sums are never expanded, so x^3000000 - 1/2 is two
# terms.  No such subtree divides by zero.  eval_float keeps one closure
# per node: a float trace records the rounding of each node.
#
# Exact closures map x, passed as its numerator and denominator, to a
# value pair (num, den) with den > 0 that no closure reduces; eval_exact
# reduces once, at the end, through ``numerics.reduced``, which splits
# off the power of two first.  Sums and min/max comparisons go through
# ``numerics._aligned``: at the iteration's midpoints x = n/2^E q, so a
# degree-k term carries about 2^(kE), and aligning by shifts keeps a sum
# of two x-dependent subtrees over the larger power of two where
# cross-multiplying would multiply them.  _aligned chooses its own
# path: operands with at most 64 twos it cross-multiplies.  ``Pow`` and
# the kernel raise a denominator d = 2^t q as (q^k) << tk, not d^k.


_ONE, _ZERO = Fraction(1), Fraction(0)


def _lower(expr: FunctionExpr, path: tuple[str, ...], node, fold, kernel=None):
    """``(code, const)``: ``expr`` as backend code, and its value if x-free, else None.

    ``node(expr, path, kids)`` makes that pair for one node from its
    children's (each child's tuple starts with its pair).  A node whose children are all constant is folded by
    ``fold(code)``, which runs it once and returns a constant's pair,
    unless the run raises EvalError: then the node raises when it runs.
    With ``kernel``, constants are Fractions, and each constant and
    polynomial subtree is lowered to ``kernel(terms)``, not by ``node``
    (see the Evaluation comment); it is x-free when its terms have no x
    term, as x - x.
    """
    code, const, terms = _walk(expr, path, node, fold, kernel)
    return kernel(terms) if code is None else code, const


def _walk(expr: FunctionExpr, path: tuple[str, ...], node, fold, kernel):
    """``(code, const, terms)`` for ``_lower``.

    ``terms`` is the subtree's polynomial {k: c_k} (None if it is none,
    or without ``kernel``), and ``code`` is None while the subtree is
    part of a larger polynomial, whose kernel is built where it ends.
    """
    kind = type(expr)
    if kernel is not None and kind is RationalConst:
        c = expr.value
        return None, c, {0: c} if c else {}
    if kind is Var or kind is RationalConst:
        code, const = node(expr, path, ())
        return code, const, None if kernel is None else {1: _ONE}
    name = kind.__name__
    if kind is Neg or kind is Abs or kind is Pow:
        child = expr.base if kind is Pow else expr.operand
        kids = (_walk(child, path + (name,), node, fold, kernel),)
    elif kind in (Add, Sub, Mul, Div, Min, Max):
        kids = (
            _walk(expr.left, path + (f"{name}[0]",), node, fold, kernel),
            _walk(expr.right, path + (f"{name}[1]",), node, fold, kernel),
        )
    else:
        raise TypeError(f"not a function expression: {expr!r}")
    if kernel is not None:
        terms = _terms(expr, kids)
        if terms is not None:
            return None, None if any(terms) else terms.get(0, _ZERO), terms
        kids = [(kernel(terms) if code is None else code, const) for code, const, terms in kids]
    code, const = node(expr, path, kids)
    # kids[-1] is kids[0] for a node with one child.
    if const is None and kids[0][1] is not None and kids[-1][1] is not None:
        try:
            code, const = fold(code)
        except EvalError:
            pass
    if kernel is None or const is None:
        return code, const, None
    return code, const, {0: const} if const else {}


def _terms(expr: FunctionExpr, kids):
    """The terms {k: c_k} of a node from its children's, or None if it is no polynomial.

    A child's dict belongs to this node alone, so sums update one of
    them in place: merging the smaller into the larger.  Zero
    coefficients are dropped.
    """
    kind = type(expr)
    t = kids[0][2]
    if t is None or kind is Abs or kind is Min or kind is Max:
        return None
    if kind is Neg:
        for k in t:
            t[k] = -t[k]
        return t
    if kind is Pow:
        k = expr.exponent
        if k == 0:
            return {0: _ONE}
        if len(t) == 1:
            [(j, c)] = t.items()
            return {j * k: c if c == 1 else c**k}
        return t if k == 1 or not t else None
    u = kids[1][2]
    if u is None:
        return None
    if kind is Add or kind is Sub:
        if kind is Sub:
            for k in u:
                u[k] = -u[k]
        if len(t) < len(u):
            t, u = u, t
        for k, c in u.items():
            if k in t:
                c += t[k]
                if not c:
                    del t[k]
                    continue
            t[k] = c
        return t
    if kind is Div:
        if len(u) != 1 or 0 not in u:
            return None
        c = u[0]
        return {k: v / c for k, v in t.items()}
    if len(u) > 1:
        t, u = u, t
    if len(u) > 1:
        return None
    if not u:
        return {}
    [(j, c)] = u.items()
    return {k + j: v if c == 1 else v * c for k, v in t.items()}


def _exact_const(q: Fraction):
    num, den = q.numerator, q.denominator
    return (lambda n, d: (num, den)), q


def _exact_fold(fn):
    return _exact_const(Fraction(*fn(0, 1)))


def _exact_node(expr: FunctionExpr, path: tuple[str, ...], kids):
    """``(fn, const)`` for one node but a constant: ``fn(xn, xd)`` is its value pair at x = xn/xd."""
    kind = type(expr)
    if kind is Var:
        return (lambda n, d: (n, d)), None
    f = kids[0][0]
    if kind is Neg:
        def fn(n, d):
            a, b = f(n, d)
            return -a, b
    elif kind is Abs:
        def fn(n, d):
            a, b = f(n, d)
            return abs(a), b
    elif kind is Pow:
        k = expr.exponent

        def fn(n, d):
            a, b = f(n, d)
            t = (b & -b).bit_length() - 1
            return a**k, ((b >> t) ** k) << (t * k)
    else:
        g = kids[1][0]
        if kind is Div:
            div_path = path + ("Div",)

            def fn(n, d):
                a, b = f(n, d)
                c, e = g(n, d)
                if c > 0:
                    return a * e, b * c
                if c < 0:
                    return -a * e, -b * c
                raise EvalError(Fraction(n, d), div_path)
        elif kind is Min:
            def fn(n, d):
                u = a, b = f(n, d)
                v = c, e = g(n, d)
                x, y, _, _ = _aligned(a, b, c, e)
                return v if y < x else u
        elif kind is Max:
            def fn(n, d):
                u = a, b = f(n, d)
                v = c, e = g(n, d)
                x, y, _, _ = _aligned(a, b, c, e)
                return v if x < y else u
        elif kind is Add:
            def fn(n, d):
                a, b = f(n, d)
                c, e = g(n, d)
                x, y, u, v = _aligned(a, b, c, e)
                return x + y, u * v
        elif kind is Sub:
            def fn(n, d):
                a, b = f(n, d)
                c, e = g(n, d)
                x, y, u, v = _aligned(a, b, c, e)
                return x - y, u * v
        else:
            def fn(n, d):
                a, b = f(n, d)
                c, e = g(n, d)
                return a * c, b * e
    return fn, None


def _integer_terms(terms):
    """``(L, [(k, C_k), ...])`` for terms with an x term, by descending k.

    L is the lcm of the coefficients' denominators and C_k = L c_k.
    """
    scale = math.lcm(*(c.denominator for c in terms.values()))
    coeffs = [(k, c.numerator * (scale // c.denominator)) for k, c in terms.items()]
    coeffs.sort(reverse=True)
    return scale, coeffs


def _exact_kernel(terms):
    """``fn(n, d)`` for the polynomial sum of c_k x^k over ``terms``, at x = n/d.

    With L and C_k from _integer_terms and D the top exponent, fn
    returns (sum of C_k n^k d^(D-k), L d^D) by Horner's rule on
    integers, stepping over each gap in the exponents with one power.
    With d = 2^t q, d^j is (q^j) << tj.
    """
    if not any(terms):
        return _exact_const(terms.get(0, _ZERO))[0]
    scale, coeffs = _integer_terms(terms)
    top, lead = coeffs[0]
    low = coeffs[-1][0]
    # (gap, C_e, D - e) from each exponent down to the next, e.
    steps = tuple((k - e, c, top - e) for (k, _), (e, c) in zip(coeffs, coeffs[1:]))

    def fn(n, d):
        t = (d & -d).bit_length() - 1
        q = d >> t
        acc, qp = lead, 1
        for gap, c, r in steps:
            if gap == 1:
                qp *= q
                acc = acc * n + (c * qp << t * r)
            else:
                qp *= q**gap
                acc = acc * n**gap + (c * qp << t * r)
        if low:
            return acc * n**low, scale * qp * q**low << t * top
        return acc, scale * qp << t * top

    return fn


_compile_exact = partial(_lower, node=_exact_node, fold=_exact_fold, kernel=_exact_kernel)


def _float_fold(fn):
    value = fn(0.0)
    return (lambda x: value), value


def _float_node(expr: FunctionExpr, path: tuple[str, ...], kids):
    """``(fn, const)`` for one node: fn(x) in IEEE binary64, const its value without x."""
    kind = type(expr)
    if kind is Var:
        return (lambda x: x), None
    if kind is RationalConst:
        q = expr.value
        try:
            c = float(q)
        except OverflowError:
            # Out of float range: raise at every evaluation, not at compile time.
            return (lambda x: _float_in_range(q, "constant")), None
        return (lambda x: c), c
    f = kids[0][0]
    if kind is Neg:
        fn = lambda x: -f(x)
    elif kind is Abs:
        fn = lambda x: abs(f(x))
    elif kind is Pow:
        k = expr.exponent

        def fn(x):
            base = f(x)
            try:
                return base**k
            except OverflowError:
                return -math.inf if base < 0 and k % 2 == 1 else math.inf
    else:
        g = kids[1][0]
        if kind is Add:
            fn = lambda x: f(x) + g(x)
        elif kind is Sub:
            fn = lambda x: f(x) - g(x)
        elif kind is Mul:
            fn = lambda x: f(x) * g(x)
        elif kind is Min:
            fn = lambda x: min(f(x), g(x))
        elif kind is Max:
            fn = lambda x: max(f(x), g(x))
        else:
            div_path = path + ("Div",)

            def fn(x):
                num = f(x)
                den = g(x)
                if den == 0:
                    raise EvalError(x, div_path)
                return num / den
    return fn, None


_compile_float = partial(_lower, node=_float_node, fold=_float_fold)


def _compiled(expr: FunctionExpr, attr: str, compile_):
    code = compile_(expr, ())
    object.__setattr__(expr, attr, code)
    return code


def eval_exact(expr: FunctionExpr, x: Fraction) -> Fraction:
    """Evaluate with exact rational arithmetic.

    Raises:
        EvalError: if a denominator is exactly zero at ``x``.
    """
    try:
        fn, _ = expr._exact_code
    except AttributeError:
        fn, _ = _compiled(expr, "_exact_code", _compile_exact)
    if type(x) is not Fraction:
        x = Fraction(x)
    return reduced(*fn(x.numerator, x.denominator))


def eval_float(expr: FunctionExpr, x: float) -> float:
    """Evaluate in IEEE binary64, rounding every operation to nearest.

    Constants round once, at compile time.  Overflow follows float
    semantics (infinities propagate); only an exactly-zero denominator
    raises.
    """
    try:
        fn, _ = expr._float_code
    except AttributeError:
        fn, _ = _compiled(expr, "_float_code", _compile_float)
    return fn(float(x))


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<number>\d+\.\d+|\.\d+|\d+)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)

_END = "end of input"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, pos)`` per token, ending with ``("end", "", len(text))``.

    A kind is 'name', 'int' or 'decimal', or the operator itself.  A
    match that does not start where the last one ended means no token
    starts there: the lexer error names that character.
    """
    tokens = []
    pos = 0
    for match in _TOKEN_RE.finditer(text):
        if match.start() != pos:
            break
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        value = match.group()
        if kind == "number":
            kind = "decimal" if "." in value else "int"
        elif kind == "op":
            kind = value
        tokens.append((kind, value, match.start()))
    if pos != len(text):
        raise ParseError(pos, frozenset({"a token"}), repr(text[pos]))
    tokens.append(("end", "", pos))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_CALLS = {"min": Min, "max": Max}

_ATOM_STARTERS = frozenset({"'x'", "a number", "'('", "'min'", "'max'", "'abs'"})


def _starts_atom(kind: str, text: str) -> bool:
    return kind in ("int", "decimal", "(") or (kind == "name" and text in ("x", "min", "max", "abs"))


class _Parser:
    """Recursive descent over the grammar in the module docstring.

    ``self.tokens[self.index]`` is the next token.  Only a token other
    than the final 'end' is ever consumed, so the index stays in range.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def fail(self, expected) -> "ParseError":
        kind, text, pos = self.tokens[self.index]
        raise ParseError(pos, frozenset(expected), _END if kind == "end" else repr(text))

    def expect(self, op: str) -> None:
        if self.tokens[self.index][0] != op:
            self.fail({f"'{op}'"})
        self.index += 1

    def parse(self) -> FunctionExpr:
        expr = self.expr()
        if self.tokens[self.index][0] != "end":
            self.fail({"'+'", "'-'", "'*'", "'/'", _END})
        return expr

    def expr(self) -> FunctionExpr:
        node = self.term()
        while True:
            op = self.tokens[self.index][0]
            if op != "+" and op != "-":
                return node
            self.index += 1
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)

    def term(self) -> FunctionExpr:
        node = self.factor(True)
        while True:
            op, text, _ = self.tokens[self.index]
            if op == "*" or op == "/":
                self.index += 1
                # A bare 'p/q' reads as one constant only where that
                # cannot change a left-associative chain's value, i.e.
                # never as the right operand of '/'.
                rhs = self.factor(op == "*")
                node = Mul(node, rhs) if op == "*" else Div(node, rhs)
            # Implicit multiplication: a factor beginning right after
            # another factor, with no operator in between.  '-' is
            # excluded so 'a-b' stays subtraction.
            elif _starts_atom(op, text):
                node = Mul(node, self.factor(False))
            else:
                return node

    def factor(self, allow_ratio: bool) -> FunctionExpr:
        if self.tokens[self.index][0] == "-":
            self.index += 1
            return Neg(self.factor(allow_ratio))
        node = self.atom(allow_ratio)
        if self.tokens[self.index][0] == "^":
            self.index += 1
            kind, text, _ = self.tokens[self.index]
            if kind != "int":
                self.fail({"a non-negative integer exponent"})
            self.index += 1
            node = Pow(node, int(text))
        return node

    def atom(self, allow_ratio: bool) -> FunctionExpr:
        tokens = self.tokens
        i = self.index
        kind, text, _ = tokens[i]
        if not _starts_atom(kind, text):
            self.fail(_ATOM_STARTERS)
        self.index = i = i + 1
        if kind == "int":
            # Ratio literal: INT '/' INT with positive denominator, not
            # followed by '^' (so '3/4^2' keeps conventional precedence).
            if allow_ratio and tokens[i][0] == "/" and tokens[i + 1][0] == "int":
                den = _text_int(tokens[i + 1][1])
                if den > 0 and tokens[i + 2][0] != "^":
                    self.index = i + 2
                    return RationalConst(Fraction(_text_int(text), den))
            return RationalConst(Fraction(_text_int(text)))
        if kind == "decimal":
            whole, _, digits = text.partition(".")
            return RationalConst(Fraction(_text_int(whole + digits), 10 ** len(digits)))
        if text == "x":
            return Var()
        # What is left: '(' expr ')', min/max '(' expr ',' expr ')', abs '(' expr ')'.
        if kind == "name":
            self.expect("(")
        node = self.expr()
        if text in _CALLS:
            self.expect(",")
            node = _CALLS[text](node, self.expr())
        elif text == "abs":
            node = Abs(node)
        self.expect(")")
        return node


def parse(text: str) -> FunctionExpr:
    """Parse concrete syntax into an expression tree.

    Raises:
        ParseError: on any syntax error, carrying ``offset`` (the
            character index into ``text``), ``expected`` (legal tokens
            there), and ``found``.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printer

# Precedence levels for parenthesization.  A child is wrapped when its
# level is below what its position requires.
_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_NEG = 3
_LEVEL_POW = 4
_LEVEL_ATOM = 5


def _level(expr: FunctionExpr) -> int:
    if isinstance(expr, (Add, Sub)):
        return _LEVEL_ADD
    if isinstance(expr, (Mul, Div)):
        return _LEVEL_MUL
    if isinstance(expr, RationalConst) and expr.value.denominator != 1:
        # 'p/q' tokenizes as three tokens, so in print form it binds
        # like a division, not like an atom.
        return _LEVEL_MUL
    if isinstance(expr, Neg):
        return _LEVEL_NEG
    if isinstance(expr, Pow):
        return _LEVEL_POW
    return _LEVEL_ATOM


def _fmt(expr: FunctionExpr, require: int, *, wrap_neg: bool = False) -> str:
    text = _render(expr)
    if _level(expr) < require or (wrap_neg and isinstance(expr, Neg)):
        return f"({text})"
    return text


def _is_int(expr) -> bool:
    return isinstance(expr, RationalConst) and expr.value.denominator == 1


def _render(expr: FunctionExpr) -> str:
    if isinstance(expr, Var):
        return "x"
    if isinstance(expr, RationalConst):
        return scalar_text(expr.value)
    if isinstance(expr, Neg):
        return "-" + _fmt(expr.operand, _LEVEL_POW)
    if isinstance(expr, Add):
        return f"{_fmt(expr.left, _LEVEL_ADD)}+{_fmt(expr.right, _LEVEL_MUL, wrap_neg=True)}"
    if isinstance(expr, Sub):
        return f"{_fmt(expr.left, _LEVEL_ADD)}-{_fmt(expr.right, _LEVEL_MUL, wrap_neg=True)}"
    if isinstance(expr, Mul):
        return f"{_fmt(expr.left, _LEVEL_MUL)}*{_fmt(expr.right, _LEVEL_NEG, wrap_neg=True)}"
    if isinstance(expr, Div):
        left = _fmt(expr.left, _LEVEL_MUL)
        if _is_int(expr.right) and _is_int(
            expr.left.right if isinstance(expr.left, Mul)
            else expr.left.operand if isinstance(expr.left, Neg) else None
        ):
            # 'x*3/4' and '-3/4' would read back with the ratio 3/4.
            left = f"({left})"
        return f"{left}/{_fmt(expr.right, _LEVEL_NEG, wrap_neg=True)}"
    if isinstance(expr, Pow):
        return f"{_fmt(expr.base, _LEVEL_ATOM)}^{expr.exponent}"
    if isinstance(expr, Min):
        return f"min({_render(expr.left)}, {_render(expr.right)})"
    if isinstance(expr, Max):
        return f"max({_render(expr.left)}, {_render(expr.right)})"
    if isinstance(expr, Abs):
        return f"abs({_render(expr.operand)})"
    raise TypeError(f"not a function expression: {expr!r}")


def to_text(expr: FunctionExpr) -> str:
    """Canonical concrete syntax: explicit operators, minimal parentheses.

    For any tree the parser can produce, ``parse(to_text(e)) == e``
    structurally.  Hand-built trees the grammar cannot spell (a negative
    constant, or an integer constant divided by an integer constant)
    reparse to a different tree of equal value.
    """
    return _render(expr)

"""Textual math expressions with exact first derivatives.

Grammar, from loosest to tightest binding::

    sum      := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)*
    atom     := NUMBER | NAME | NAME '(' sum ')' | '(' sum ')'
    exponent := ['-'] INTEGER | '(' ['-'] INTEGER ')'

Binary operators of equal precedence associate to the left, and '^'
requires a constant integer exponent; literals must be finite doubles.
The recognised functions are sin, cos, exp, log, sqrt and abs.

Derivatives are forward-mode dual numbers: every AST node propagates a
value together with one derivative component per requested variable.
For speed the propagation is unrolled into straight-line Python, built as
operation records that one printer turns into source, and compiled once
per (tree, variable order) pair, or into one function for a tuple of
trees; partials that are structurally zero are never materialised, and
x * 1.0, 1.0 * x, x / 1.0, x / -1.0 and + - * of two literals are folded
as the records are built, which is exact up to the sign of a nan (a **
or a call never is).  Results are bit-identical across repeated evaluations.

The default ``scalar`` backend works on Python floats and raises
:class:`DomainEvalError` outside an operation's domain.  The ``vector``
backend takes numpy arrays, evaluates every point at once and returns
NaN at a point outside the domain, so one bad point does not fail the
others.  Maps (:mod:`manideg.fields`) evaluate on the ``vector`` one only.
Both backends write an integer power u^m, m >= 2, as a chain of products
(u^m = (u^(m/2))^2 for even m, u^(m-1) * u for odd m), faster than ``**``
and the same on every machine; the ``vector`` one writes u^(-m) as
1.0 / u^m.  The ``scalar`` one keeps ``**`` for u^(-m), and before each
chain it tests u, raising ``OverflowError`` for exactly the finite u whose
power or chain overflows (:func:`_finite_powers`).
"""

import functools
import itertools
import math
import re
import struct
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainEvalError, ExpressionSyntaxError, UndeclaredVariableError

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")


# --- AST -----------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # one of '+', '-', '*', '/'
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Num | Var | Neg | Bin | Pow | Call


def variables_in(node):
    """Set of variable names appearing in the tree."""
    match node:
        case Num():
            return set()
        case Var(name):
            return {name}
        case Neg(arg) | Call(_, arg) | Pow(arg, _):
            return variables_in(arg)
        case Bin(_, left, right):
            return variables_in(left) | variables_in(right)
    raise TypeError(f"not an expression node: {node!r}")


# --- tokenizer -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'name' | 'op' | 'end'
    text: str
    pos: int  # character offset into the source


def _byte_offset(source, pos):
    # offsets are reported in bytes so they stay meaningful for non-ASCII text
    return len(source[:pos].encode("utf-8"))


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExpressionSyntaxError(
                f"unexpected character {source[pos]!r}", _byte_offset(source, pos)
            )
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", pos))
    return tokens


# --- parser --------------------------------------------------------------

class _Parser:
    def __init__(self, source, declared):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0
        self.declared = declared

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message, tok):
        raise ExpressionSyntaxError(message, _byte_offset(self.source, tok.pos))

    def expect_op(self, text):
        tok = self.take()
        if tok.kind != "op" or tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def parse(self):
        node = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected trailing input {tok.text!r}", tok)
        return node

    def sum(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            node = Pow(node, self.exponent())
        return node

    def exponent(self):
        # '^' admits only a constant integer, optionally negated/parenthesised
        parens = False
        if self.peek().kind == "op" and self.peek().text == "(":
            self.take()
            parens = True
        sign = 1
        if self.peek().kind == "op" and self.peek().text == "-":
            self.take()
            sign = -1
        tok = self.take()
        if tok.kind != "num":
            self.fail("exponent must be a constant integer", tok)
        if not re.fullmatch(r"\d+", tok.text):
            self.fail(f"non-integer exponent {tok.text!r}", tok)
        if parens:
            self.expect_op(")")
        return sign * int(tok.text)

    def atom(self):
        tok = self.take()
        if tok.kind == "num":
            if not math.isfinite(float(tok.text)):
                self.fail(f"numeric literal {tok.text!r} overflows", tok)
            return Num(float(tok.text))
        if tok.kind == "name":
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return Call(tok.text, arg)
            if tok.text not in self.declared:
                raise UndeclaredVariableError(
                    f"undeclared variable {tok.text!r}",
                    _byte_offset(self.source, tok.pos),
                )
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        self.fail(f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input", tok)


def _check_declared(declared_vars):
    names = tuple(declared_vars)
    if len(set(names)) != len(names):
        raise ExpressionSyntaxError("duplicate variable names")
    for name in names:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
            raise ExpressionSyntaxError(f"invalid variable name {name!r}")
        if name in FUNCTIONS:
            raise ExpressionSyntaxError(f"variable name {name!r} shadows a function")
    return names


def parse(source, declared_vars):
    """Parse ``source`` into an immutable AST.

    Every name in the expression must either be one of the function
    names or appear in ``declared_vars``.
    """
    names = _check_declared(declared_vars)
    return _Parser(source, frozenset(names)).parse()


# --- printing ------------------------------------------------------------

_PREC_SUM, _PREC_TERM, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _print(node, context):
    match node:
        case Num(v):
            text, prec = repr(v) if v >= 0 else f"({v!r})", _PREC_ATOM
        case Var(name):
            text, prec = name, _PREC_ATOM
        case Neg(arg):
            text, prec = f"-{_print(arg, _PREC_POW)}", _PREC_NEG
        case Bin(op, left, right):
            prec = _PREC_SUM if op in "+-" else _PREC_TERM
            # the right operand is printed one level tighter so that
            # re-parsing rebuilds the same left-associated tree
            text = f"{_print(left, prec)} {op} {_print(right, prec + 1)}"
        case Pow(base, exponent):
            suffix = str(exponent) if exponent >= 0 else f"(-{-exponent})"
            text, prec = f"{_print(base, _PREC_ATOM)}^{suffix}", _PREC_POW
        case Call(func, arg):
            text, prec = f"{func}({_print(arg, 0)})", _PREC_ATOM
        case _:
            raise TypeError(f"not an expression node: {node!r}")
    return f"({text})" if prec < context else text


def to_source(node):
    """Canonical text form; ``parse(to_source(ast), ...)`` rebuilds ``ast``."""
    return _print(node, 0)


# --- runtime helpers for generated code ----------------------------------

def _div(a, b):
    if b == 0.0:
        raise DomainEvalError("division by zero")
    return a / b


def _log(x):
    if x <= 0.0:
        raise DomainEvalError(f"log of non-positive value {x!r}")
    return math.log(x)


def _sqrt(x):
    if x < 0.0:
        raise DomainEvalError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


def _ipow(b, n):
    if b == 0.0 and n < 0:
        raise DomainEvalError("zero raised to a negative power")
    return b ** n


def _dabs(u, du):
    if u == 0.0:
        raise DomainEvalError("abs is not differentiable at 0")
    return du if u > 0.0 else -du


# The vector helpers evaluate many points at once: a point outside an
# operation's domain becomes NaN instead of failing the whole array, and
# batch evaluation (AmbientMap.batch) reads NaN rows as invalid.

def _div_v(a, b):
    return a / np.where(b == 0.0, np.nan, b)


def _log_v(x):
    return np.log(np.where(x > 0.0, x, np.nan))


def _sqrt_v(x):
    return np.sqrt(np.where(x < 0.0, np.nan, x))


def _dabs_v(u, du):
    return np.where(u > 0.0, du, np.where(u < 0.0, -du, np.nan))


_SCALAR_NS = {
    "math": math, "_div": _div, "_log": _log, "_sqrt": _sqrt,
    "_ipow": _ipow, "_dabs": _dabs,
}
_VECTOR_NS = {
    "np": np, "_div": _div_v, "_log": _log_v, "_sqrt": _sqrt_v, "_dabs": _dabs_v,
}
_FUNC_NAMES = {
    "scalar": {"sin": "math.sin", "cos": "math.cos", "exp": "math.exp", "abs": "abs",
               "log": "_log", "sqrt": "_sqrt"},
    "vector": {"sin": "np.sin", "cos": "np.cos", "exp": "np.exp", "abs": "abs",
               "log": "_log", "sqrt": "_sqrt"},
}


# --- code generation ------------------------------------------------------
#
# Code is built as records, never read back as text: an operand is a local name (a str),
# a float literal (a float) or a Term over operands, and a line is an Op.  The fold
# rules, _folded, _negated, _divided and _sum, apply as the records are built.

class Term:
    """The source ``text``: ``fmt`` with its {} filled by the operands ``args``, which name
    every local it reads.  It may raise when it says so (a call, a power, a division by anything
    but a non-zero literal, an item of a sequence, a raise statement) or when an operand may."""

    def __init__(self, fmt, *args, raises=False):
        self.fmt, self.args, self.text = fmt, args, fmt.format(*map(_text, args))
        self.raises = raises or any(isinstance(x, Term) and x.raises for x in args)


# a line of generated code, ``indent`` blocks in: ``target = value``, or the statement
# ``value`` (a Term) when ``target`` is None, as for a line that assigns several names or none
Op = namedtuple("Op", "target value indent", defaults=(0,))


def _reads(*operands):  # the local names the operands read
    names = set()
    for x in operands:
        if isinstance(x, Term):
            names |= _reads(*x.args)
        elif isinstance(x, str):
            names.add(x)
    return names


def _text(operand):  # an operand as source: a literal by its repr, parenthesised when negative
    if isinstance(operand, float):
        return repr(operand) if math.copysign(1.0, operand) > 0.0 else f"({operand!r})"
    return operand.text if isinstance(operand, Term) else operand


def _printed(name, params, ops, result):
    """The source of ``def name(params):`` with the lines ``ops`` and ``return result``."""
    return "\n".join([f"def {name}({params}):", *(
        "    " * (1 + op.indent)
        + (_text(op.value) if op.target is None else f"{op.target} = {_text(op.value)}")
        for op in [*ops, Op(None, Term("return {}", result))])])


def _tuple(operands, fmt="({},)"):  # (a, b, ...,), or fmt's {} filled with a, b, ...
    operands = tuple(operands)
    return Term(fmt, Term(", ".join(["{}"] * len(operands)), *operands))


def _zero(operand):  # a structural zero: an absent partial (None) or a literal 0.0
    return operand is None or operand == 0.0


def _folded(left, op, right):
    """``left op right`` for two operands and ``op`` one of + - *, folded where that is
    bit-exact up to the sign of a nan: two literals become one (when the result is
    finite), x * 1.0 and 1.0 * x become x, and x * -1.0 and -1.0 * x become -x.
    A /, a ** or a call is never folded."""
    if isinstance(left, float) and isinstance(right, float):
        value = left + right if op == "+" else left - right if op == "-" else left * right
        if math.isfinite(value):
            return value
    if op == "*" and right in (1.0, -1.0):
        return left if right == 1.0 else _negated(left)
    if op == "*" and left in (1.0, -1.0):
        return right if left == 1.0 else _negated(right)
    return Term(f"{{}} {op} {{}}", left, right)


def _negated(operand):  # -operand: a literal for a literal, x for -x (negation is exact)
    if isinstance(operand, Term) and operand.fmt == "-{}":
        return operand.args[0]
    return -operand if isinstance(operand, float) else Term("-{}", operand)


def _divided(numerator, divisor, fmt="{} / {}"):
    """``numerator / divisor`` as ``fmt`` writes it, folded for a divisor 1.0 or -1.0,
    which is exact up to the sign of a nan; a division by another non-zero literal
    cannot raise."""
    if divisor in (1.0, -1.0):
        return numerator if divisor == 1.0 else _negated(numerator)
    literal = isinstance(divisor, float) and divisor != 0.0
    return Term(fmt, numerator, divisor, raises=not literal)


def _sum(*terms):
    """The sum of ``terms`` left to right, each an operand or an (a, b) for a * b,
    without the terms that are structural zeros (None when all are), folded as
    _folded folds."""
    total = None
    for term in terms:
        if isinstance(term, tuple):
            if _zero(term[0]) or _zero(term[1]):
                continue
            term = _folded(term[0], "*", term[1])
        elif _zero(term):
            continue
        total = term if total is None else _folded(total, "+", term)
    return total


class _Emitter:
    """Unrolls dual-number propagation into straight-line code, as Op records."""

    def __init__(self, variables, seeds, backend):
        self.lines = []
        self.counter = itertools.count()
        self.bind(variables, seeds)
        self.fn, self.vector = _FUNC_NAMES[backend], backend == "vector"

    def bind(self, variables, seeds, point=None):
        # for the trees emitted next: each variable's operand, point's (a0, a1, ... by
        # default), and the seeds
        point = [f"a{i}" for i in range(len(variables))] if point is None else point
        self.point = dict(zip(variables, point))
        self.seed_index = {name: j for j, name in enumerate(seeds)}

    def new(self, value):
        t = f"v{next(self.counter)}"
        self.lines.append(Op(t, value))
        return t

    def operand(self, value):
        """A name or literal holding ``value``: itself when it is one, else a new line's."""
        return value if isinstance(value, (str, float)) else self.new(value)

    def sum(self, *terms):  # _sum's operand: a name (of a new line when needed), literal or None
        total = _sum(*terms)
        return total if total is None else self.operand(total)

    def emit(self, node):
        """Returns (value operand, {seed slot: derivative operand})."""
        match node:
            case Num(v):
                return v, {}
            case Var(name):
                d = {}
                if name in self.seed_index:
                    d[self.seed_index[name]] = 1.0
                return self.point[name], d
            case Neg(arg):
                v, d = self.emit(arg)
                return self.operand(_negated(v)), {j: self.operand(_negated(dj))
                                                  for j, dj in d.items()}
            case Bin(op, left, right):
                return self._bin(op, left, right)
            case Pow(base, exponent):
                return self._pow(base, exponent)
            case Call(func, arg):
                return self._call(func, arg)
        raise TypeError(f"not an expression node: {node!r}")

    def _bin(self, op, left, right):
        vl, dl = self.emit(left)
        vr, dr = self.emit(right)
        if op == "/":  # _div raises DomainEvalError for a zero divisor
            v = self.operand(_divided(vl, vr, "_div({}, {})"))
        else:
            v = self.operand(_folded(vl, op, vr))
        d = {}
        for j in sorted(dl.keys() | dr.keys()):
            a, b = dl.get(j), dr.get(j)
            if op == "+":
                d[j] = a if b is None else b if a is None else self.operand(_folded(a, "+", b))
            elif op == "-":
                d[j] = a if b is None else self.operand(
                    _negated(b) if a is None else _folded(a, "-", b))
            elif op == "*":
                terms = [_folded(x, "*", y) for x, y in ((a, vr), (vl, b))
                         if x is not None and y is not None]
                d[j] = self.operand(_folded(terms[0], "+", terms[1]) if len(terms) == 2
                                    else terms[0])
            else:  # '/': derivative of l/r is (dl - v*dr) / r, with r != 0 ensured
                top = (a if b is None else Term("(-{}) * {}", v, b) if a is None
                       else Term("({} - {} * {})", a, v, b))
                d[j] = self.operand(_divided(top, vr))
        return v, d

    def _pow(self, base, n):
        vb, db = self.emit(base)
        if n in (0, 1):
            return (1.0, {}) if n == 0 else (vb, db)
        # u^m, m >= 2, is _power's product chain, so the derivative reads u^(n-1) from the
        # value's chain.  A product gives inf where u ** m raised OverflowError, so the scalar
        # backend first tests u by _finite_powers.  The vector u^(-m) is 1.0 / u^m: nan for a
        # zero u, inf where the chain underflows, as numpy's ** gave them.
        if n > 0 and not self.vector:
            lo, hi, e = _finite_powers(n)
            self.lines.append(Op(None, Term(f"if not {{}} <= {{}} <= {{}}: {{}} ** {e}",
                                            lo, vb, hi, vb, raises=True)))
        elif n < 0 and self.vector:
            vb = self.new(Term("np.where({} == 0.0, np.nan, {})", vb, vb))
        chain = {1: vb}

        def power(m):  # an operand holding u^m, by _ipow for the scalar backend's m < 0
            if m < 0:
                return self.new(Term(f"_ipow({{}}, {m})", vb, raises=True))
            return _power(m, chain, lambda a, b: self.operand(_folded(a, "*", b)))

        if n > 0 or not self.vector:
            v = power(n)
            slope = self.new(Term(f"{float(n)!r} * {{}}", power(n - 1))) if db else None
        else:
            v = self.operand(_divided(1.0, power(-n)))
            slope = self.operand(_divided(float(n), power(1 - n))) if db else None
        return v, {j: self.operand(_folded(slope, "*", dj)) for j, dj in db.items()}

    def _call(self, func, arg):
        vu, du = self.emit(arg)
        if func not in FUNCTIONS:
            raise TypeError(f"unknown function {func!r}")
        v = self.new(Term(f"{self.fn[func]}({{}})", vu, raises=True))
        if not du:
            return v, du
        if func == "log":
            return v, {j: self.operand(_divided(dj, vu)) for j, dj in du.items()}
        if func == "abs":
            return v, {j: self.new(Term("_dabs({}, {})", vu, dj, raises=True))
                       for j, dj in du.items()}
        if func == "sqrt":
            twice = self.new(Term("2.0 * {}", v))
            return v, {j: self.new(Term("_div({}, {})", dj, twice, raises=True))
                       for j, dj in du.items()}
        slope = v if func == "exp" else self.new(Term(  # the derivative of sin or cos
            f"{self.fn['cos']}({{}})" if func == "sin" else f"-{self.fn['sin']}({{}})",
            vu, raises=True))
        return v, {j: self.operand(_folded(slope, "*", dj)) for j, dj in du.items()}


def _power(m, chain, times):
    # u^m, m >= 1, by the product chain u^m = (u^(m/2))^2 for even m and u^(m-1) * u for odd
    # m: ``times`` multiplies two powers, and ``chain`` maps each exponent to its power,
    # u's at 1 and the new ones added
    if m not in chain:
        a = _power(m - 1 if m % 2 else m // 2, chain, times)
        chain[m] = times(a, chain[1] if m % 2 else a)
    return chain[m]


@functools.cache
def _finite_powers(m):
    # (lo, hi, e): the negative and the positive float of largest magnitude whose m-th power
    # is finite by this platform's ** and by the product chain (bisecting each sign's floats,
    # ordered as their bit patterns), and the least e >= m for which u ** e raises
    # OverflowError at the first float past either bound, and so at every finite u outside
    # [lo, hi]; nan ** e and inf ** e do not raise.  Of m = 2, ..., 40 only m = 13 needs
    # e = m + 1: its chain overflows where ** does not.
    def raises(u, e):  # whether u ** e raises OverflowError
        try:
            u ** e
        except OverflowError:
            return True
        return False

    def last(sign):
        def at(bits):
            return sign * struct.unpack("<d", struct.pack("<q", bits))[0]

        good, bad = 0, 0x7FF0000000000000  # the bits of 0.0 and of inf
        while bad - good > 1:
            mid = (good + bad) // 2
            u = at(mid)
            overflows = raises(u, m) or math.isinf(_power(m, {1: u}, float.__mul__))
            good, bad = (good, mid) if overflows else (mid, bad)
        return at(good)

    lo, hi = last(-1.0), last(1.0)
    e = m
    while not all(raises(math.nextafter(u, u * 2.0), e) for u in (lo, hi)):
        e += 1
    return lo, hi, e


@functools.cache  # variables and seeds come as tuples; a call that raises is not kept
def _compile(ast, variables, seeds, backend):
    _check_declared(variables)
    if len(set(seeds)) != len(seeds) or not set(seeds) <= set(variables):
        raise ExpressionSyntaxError(f"seeds {seeds} are not distinct variables of {variables}")
    trees = ast if isinstance(ast, tuple) else (ast,)
    missing = set().union(*map(variables_in, trees)) - set(variables)
    if missing:
        raise UndeclaredVariableError(f"unbound variables {sorted(missing)}")
    em = _Emitter(variables, seeds, backend)
    parts = []
    for tree in trees:
        value, deriv = em.emit(tree)
        parts.append(value)
        parts.extend(deriv.get(j, 0.0) for j in range(len(seeds)))
    args = ", ".join(f"a{i}" for i in range(len(variables)))
    source = _printed("_f", args, em.lines,
                      _tuple(parts) if seeds or isinstance(ast, tuple) else parts[0])
    ns = dict(_SCALAR_NS if backend == "scalar" else _VECTOR_NS)
    exec(compile(source + "\n", "<manideg expression>", "exec"), ns)
    return ns["_f"]


def compile_value(ast, variables, backend="scalar"):
    """Callable ``f(*values) -> float`` over the given variable order.

    For a tuple of trees the callable returns the tuple of their values.
    """
    return _compile(ast, tuple(variables), (), backend)


def compile_gradient(ast, variables, seeds=None, backend="scalar"):
    """Callable ``f(*values) -> (value, d/d seeds[0], ...)``.

    ``seeds`` selects the variables to differentiate against (defaults
    to all of them); the rest are treated as passive inputs.  For a
    tuple of trees the callable returns these groups one after another
    in one flat tuple, from a single generated function.
    """
    variables = tuple(variables)
    seeds = variables if seeds is None else tuple(seeds)
    return _compile(ast, variables, seeds, backend)

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
For speed the propagation is unrolled into generated Python source and
compiled once per (tree, variable order) pair, or into one function for
a tuple of trees; partials that are structurally zero are never
materialised, and x * 1.0, 1.0 * x and + - * of two literals are folded
when the code is generated, which is exact (a /, a ** or a call never
is).  Results are bit-identical across repeated evaluations.

The default ``scalar`` backend works on Python floats and raises
:class:`DomainEvalError` outside an operation's domain.  The ``vector``
backend takes numpy arrays, evaluates every point at once and returns
NaN at a point outside the domain, so one bad point does not fail the
others.  Maps (:mod:`manideg.fields`) evaluate on the ``vector`` one only.
"""

import itertools
import math
import re
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
ExpressionAst = Node


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


def _ipow_v(b, n):
    if n < 0:
        b = np.where(b == 0.0, np.nan, b)
    return b ** n


def _dabs_v(u, du):
    return np.where(u > 0.0, du, np.where(u < 0.0, -du, np.nan))


_SCALAR_NS = {
    "math": math, "_div": _div, "_log": _log, "_sqrt": _sqrt,
    "_ipow": _ipow, "_dabs": _dabs,
}
_VECTOR_NS = {
    "np": np, "_div": _div_v, "_log": _log_v, "_sqrt": _sqrt_v,
    "_ipow": _ipow_v, "_dabs": _dabs_v,
}
_FUNC_NAMES = {
    "scalar": {"sin": "math.sin", "cos": "math.cos", "exp": "math.exp", "abs": "abs"},
    "vector": {"sin": "np.sin", "cos": "np.cos", "exp": "np.exp", "abs": "abs"},
}


# --- code generation ------------------------------------------------------

class _Literal(str):
    """A number as an operand of generated code: its repr, parenthesised when negative,
    with the float it denotes as ``value``.  Every literal the emitter writes is one, so
    whether an operand is a number is known without parsing its text."""

    def __new__(cls, value):
        text = repr(value) if math.copysign(1.0, value) > 0.0 else f"({value!r})"
        self = super().__new__(cls, text)
        self.value = value
        return self


def _literal(operand):
    """The float an operand of generated code denotes when it is a number, else None."""
    return operand.value if isinstance(operand, _Literal) else None


def _folded(left, op, right):
    """The text of ``left op right`` for two operands and ``op`` one of + - *, folded
    where that is bit-exact: two literals become one (when the result is finite), and
    x * 1.0 and 1.0 * x become x.  A /, a ** or a call is never folded."""
    a, b = _literal(left), _literal(right)
    if a is not None and b is not None:
        value = a + b if op == "+" else a - b if op == "-" else a * b
        if math.isfinite(value):
            return _Literal(value)
    if op == "*" and b == 1.0:
        return left
    if op == "*" and a == 1.0:
        return right
    return f"{left} {op} {right}"


def _negated(operand):
    """The text of ``-operand``, a literal when the operand is one (negation is exact)."""
    value = _literal(operand)
    return f"-{operand}" if value is None else _Literal(-value)


class _Emitter:
    """Unrolls dual-number propagation into straight-line Python source."""

    def __init__(self, variables, seeds, backend):
        self.lines = []
        self.counter = itertools.count()
        self.bind(variables, seeds)
        self.fn = _FUNC_NAMES[backend]

    def bind(self, variables, seeds):  # for the trees emitted next: a0, a1, ... and seeds
        self.arg_index = {name: i for i, name in enumerate(variables)}
        self.seed_index = {name: j for j, name in enumerate(seeds)}

    def new(self, expr):
        t = f"v{next(self.counter)}"
        self.lines.append(f"{t} = {expr}")
        return t

    def operand(self, text):
        """A name or literal holding ``text``: itself when it is one, else a new line's."""
        return text if text.isidentifier() or _literal(text) is not None else self.new(text)

    def emit(self, node):
        """Returns (value expression, {seed slot: derivative expression})."""
        match node:
            case Num(v):
                return _Literal(v), {}
            case Var(name):
                d = {}
                if name in self.seed_index:
                    d[self.seed_index[name]] = _Literal(1.0)
                return f"a{self.arg_index[name]}", d
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
        if op == "/":
            v = self.new(f"_div({vl}, {vr})")
        else:
            v = self.operand(_folded(vl, op, vr))
        d = {}
        for j in sorted(dl.keys() | dr.keys()):
            a, b = dl.get(j), dr.get(j)
            if op == "+":
                d[j] = self.operand(_folded(a, "+", b)) if a and b else (a or b)
            elif op == "-":
                d[j] = self.operand(_folded(a, "-", b) if a and b else _negated(b)) if b else a
            elif op == "*":
                terms = [_folded(x, "*", y) for x, y in ((a, vr), (vl, b)) if x and y]
                d[j] = self.operand(_folded(terms[0], "+", terms[1]) if a and b else terms[0])
            else:  # '/': derivative of l/r is (dl - v*dr) / r, with r != 0 ensured
                if a and b:
                    d[j] = self.new(f"({a} - {v} * {b}) / {vr}")
                elif a:
                    d[j] = self.new(f"{a} / {vr}")
                else:
                    d[j] = self.new(f"(-{v}) * {b} / {vr}")
        return v, d

    def _pow(self, base, n):
        vb, db = self.emit(base)
        if n == 0:
            return _Literal(1.0), {}
        if n == 1:
            return vb, db
        v = self.new(f"_ipow({vb}, {n})" if n < 0 else f"{vb} ** {n}")
        d = {}
        if db:
            if n - 1 == 1:
                power = vb
            elif n - 1 < 0:
                power = self.new(f"_ipow({vb}, {n - 1})")
            else:
                power = self.new(f"{vb} ** {n - 1}")
            factor = self.new(f"{float(n)!r} * {power}")
            d = {j: self.operand(_folded(factor, "*", dj)) for j, dj in db.items()}
        return v, d

    def _call(self, func, arg):
        vu, du = self.emit(arg)
        fn = self.fn
        if func == "sin":
            v = self.new(f"{fn['sin']}({vu})")
            if du:
                c = self.new(f"{fn['cos']}({vu})")
                du = {j: self.operand(_folded(c, "*", dj)) for j, dj in du.items()}
        elif func == "cos":
            v = self.new(f"{fn['cos']}({vu})")
            if du:
                s = self.new(f"-{fn['sin']}({vu})")
                du = {j: self.operand(_folded(s, "*", dj)) for j, dj in du.items()}
        elif func == "exp":
            v = self.new(f"{fn['exp']}({vu})")
            du = {j: self.operand(_folded(v, "*", dj)) for j, dj in du.items()}
        elif func == "log":
            v = self.new(f"_log({vu})")
            du = {j: self.new(f"{dj} / {vu}") for j, dj in du.items()}
        elif func == "sqrt":
            v = self.new(f"_sqrt({vu})")
            if du:
                twice = self.new(f"2.0 * {v}")
                du = {j: self.new(f"_div({dj}, {twice})") for j, dj in du.items()}
        elif func == "abs":
            v = self.new(f"{fn['abs']}({vu})")
            du = {j: self.new(f"_dabs({vu}, {dj})") for j, dj in du.items()}
        else:
            raise TypeError(f"unknown function {func!r}")
        return v, du


_COMPILED = {}


def _compile(ast, variables, seeds, backend):
    key = (ast, tuple(variables), tuple(seeds), backend)
    fn = _COMPILED.get(key)
    if fn is not None:
        return fn
    trees = ast if isinstance(ast, tuple) else (ast,)
    missing = set().union(*map(variables_in, trees)) - set(variables)
    if missing:
        raise UndeclaredVariableError(f"unbound variables {sorted(missing)}")
    em = _Emitter(variables, seeds, backend)
    parts = []
    for tree in trees:
        value, deriv = em.emit(tree)
        parts.append(value)
        parts.extend(deriv.get(j, "0.0") for j in range(len(seeds)))
    if seeds or isinstance(ast, tuple):
        em.lines.append(f"return ({', '.join(parts)},)")
    else:
        em.lines.append(f"return {parts[0]}")
    args = ", ".join(f"a{i}" for i in range(len(variables)))
    source = f"def _f({args}):\n" + "".join(f"    {ln}\n" for ln in em.lines)
    ns = dict(_SCALAR_NS if backend == "scalar" else _VECTOR_NS)
    exec(compile(source, "<manideg expression>", "exec"), ns)
    fn = ns["_f"]
    _COMPILED[key] = fn
    return fn


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


# --- evaluation API --------------------------------------------------------

@dataclass(frozen=True)
class Environment:
    """Ordered variable bindings used by :func:`evaluate` and :func:`gradient`."""

    names: tuple
    values: tuple

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate names in environment")
        if len(self.names) != len(self.values):
            raise ValueError("environment names and values differ in length")

    @classmethod
    def of(cls, mapping):
        names = tuple(mapping)
        return cls(names, tuple(float(mapping[n]) for n in names))


def evaluate(ast, env):
    """Value of ``ast`` at ``env``; domain violations raise, never return NaN."""
    return compile_value(ast, env.names)(*env.values)


def gradient(ast, env):
    """Derivatives of ``ast`` with respect to every ``env`` name, in order."""
    out = compile_gradient(ast, env.names)(*env.values)
    return np.array(out[1:], dtype=float)

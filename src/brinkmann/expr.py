"""Expression language for metric functions on a Brinkmann chart.

Grammar (whitespace-insensitive)::

    expr    := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' signed-integer)?
    atom    := number | variable | func '(' expr ')' | '(' expr ')'
    func    := sin | cos | exp | sqrt

Variables are exactly ``u`` and ``x2`` .. ``x{n-1}`` for the declared chart
dimension ``n``; ``v`` is rejected outright because everything stored in a
chart is v-independent.  ``^`` takes integer literal exponents only and
binds tighter than unary minus, so ``-u^2`` reads as ``-(u^2)``.
Parentheses, calls and unary minus nest at most ``MAX_NESTING`` deep.

Every parse error carries the byte offset of the offending token.

Jet evaluation runs a ``Tape``: expressions compiled once into a flat,
hash-consed instruction list, so a subtree shared within or between
expressions is evaluated once per call.  ``Tape.compiled`` is a tape as
straight-line Python at jet order 1 only, each coefficient a local float; its
values are also order 0's.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from . import jets

__all__ = [
    "Num",
    "Var",
    "Neg",
    "Bin",
    "Pow",
    "Call",
    "ExprAst",
    "ParseError",
    "parse",
    "to_text",
    "eval_scalar",
    "eval_jet",
    "Tape",
    "TapeDomainError",
    "var_names",
]

FUNCTIONS = ("sin", "cos", "exp", "sqrt")
# The parser recurses about five Python frames per nesting level, so without this bound
# whether an expression parses would depend on how deep the caller's stack already is.
MAX_NESTING = 64


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprAst"


ExprAst = Union[Num, Var, Neg, Bin, Pow, Call]


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.reason = message


def var_names(dimension: int) -> list[str]:
    """Legal variable names for an n-dimensional chart: u, x2 .. x{n-1}."""
    if dimension < 2:
        raise ValueError("chart dimension must be at least 2")
    return ["u"] + [f"x{i}" for i in range(2, dimension)]


# -- tokenizer -------------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []  # (kind, value, offset)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ParseError(f"malformed number {text[i:j]!r}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


# -- parser ----------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, dimension: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = set(var_names(dimension))
        self.dimension = dimension
        self.depth = 0   # open parentheses, calls and unary minuses

    def nested(self, offset: int, parse: Callable[[], ExprAst]) -> ExprAst:
        """``parse()`` one level deeper, opened by the token at ``offset``."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested more than {MAX_NESTING} deep", offset)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.advance()

    def parse(self) -> ExprAst:
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", offset)
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = Bin(value, node, self.term())
            else:
                return node

    def term(self) -> ExprAst:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = Bin(value, node, self.unary())
            else:
                return node

    def unary(self) -> ExprAst:
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            node = self.nested(offset, self.unary)
            # fold a negated literal so printing round-trips structurally
            if isinstance(node, Num):
                return Num(-node.value)
            return Neg(node)
        return self.power()

    def power(self) -> ExprAst:
        node = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            node = Pow(node, self.integer_exponent())
        return node

    def integer_exponent(self) -> int:
        sign = 1
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1
            kind, value, offset = self.peek()
        if kind != "num":
            raise ParseError("expected integer exponent after '^'", offset)
        if value != int(value):
            raise ParseError(f"non-integer exponent {value!r}", offset)
        self.advance()
        return sign * int(value)

    def atom(self) -> ExprAst:
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "op" and value == "(":
            node = self.nested(offset, self.expr)
            self.expect_op(")")
            return node
        if kind == "name":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", offset)
                self.advance()
                arg = self.nested(offset, self.expr)
                self.expect_op(")")
                return Call(value, arg)
            if value == "v":
                raise ParseError(
                    "variable 'v' is not allowed: chart functions are v-independent "
                    "by the normal form", offset)
            if value not in self.vars:
                raise ParseError(
                    f"unknown identifier {value!r} for dimension {self.dimension}", offset)
            return Var(value)
        raise ParseError(f"unexpected token {value!r}", offset)


def parse(text: str, dimension: int) -> ExprAst:
    """Parse an expression over the variables of an n-dimensional chart."""
    return _Parser(text, dimension).parse()


# -- printing --------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node: ExprAst) -> int:
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    if isinstance(node, Pow):
        return _PREC["^"]
    if isinstance(node, Num) and repr(node.value).startswith("-"):
        return _PREC["neg"]  # includes -0.0, which prints with a sign
    return _PREC["atom"]


def to_text(node: ExprAst) -> str:
    """Pretty-print an AST; reparsing the result gives a structurally equal tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = to_text(node.arg)
        if _prec(node.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Pow):
        base = to_text(node.base)
        if _prec(node.base) <= _PREC["^"]:
            base = f"({base})"
        return f"{base}^{node.exponent}" if node.exponent >= 0 else f"{base}^({node.exponent})"
    if isinstance(node, Call):
        return f"{node.func}({to_text(node.arg)})"
    if isinstance(node, Bin):
        left = to_text(node.left)
        right = to_text(node.right)
        if _prec(node.left) < _PREC[node.op]:
            left = f"({left})"
        # - and / are left-associative: parenthesize right operands of equal precedence
        if _prec(node.right) < _PREC[node.op] or (
            node.op in "-/" and _prec(node.right) == _PREC[node.op]
        ):
            right = f"({right})"
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an AST node: {node!r}")


# -- evaluation ------------------------------------------------------------------


def eval_scalar(node: ExprAst, env: Mapping[str, float]) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return float(env[node.name])
    if isinstance(node, Neg):
        return -eval_scalar(node.arg, env)
    if isinstance(node, Pow):
        return eval_scalar(node.base, env) ** node.exponent
    if isinstance(node, Call):
        return getattr(math, node.func)(eval_scalar(node.arg, env))
    if isinstance(node, Bin):
        a = eval_scalar(node.left, env)
        b = eval_scalar(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    raise TypeError(f"not an AST node: {node!r}")




# -- compiled jet evaluation -------------------------------------------------------


class TapeDomainError(jets.JetDomainError):
    """A tape instruction left its jet function's domain.

    ``reason`` is the jet error's message and ``output`` the index of the
    first tape output that needs the failing instruction.
    """

    def __init__(self, reason: str, output: int):
        super().__init__(reason)
        self.reason = reason
        self.output = output


# Instruction bodies, called as body(values, a, b): ``a`` is an operand slot,
# ``b`` a second slot, a float literal or an integer exponent.  Operators
# dispatch through the Jet class and functions through ``jets.<name>`` at
# run time, so wrappers installed on either see every instruction.
_BODIES = {
    "neg": lambda v, a, b: -v[a],
    "+": lambda v, a, b: v[a] + v[b],
    "-": lambda v, a, b: v[a] - v[b],
    "*": lambda v, a, b: v[a] * v[b],
    "/": lambda v, a, b: v[a] / v[b],
    "+c": lambda v, a, c: v[a] + c,
    "-c": lambda v, a, c: v[a] - c,
    "c-": lambda v, a, c: c - v[a],
    "*c": lambda v, a, c: v[a] * c,
    "^": lambda v, a, n: jets.pow_int(v[a], n),
    "sin": lambda v, a, b: jets.sin(v[a]),
    "cos": lambda v, a, b: jets.cos(v[a]),
    "exp": lambda v, a, b: jets.exp(v[a]),
    "sqrt": lambda v, a, b: jets.sqrt(v[a]),
}
_LITERAL_OPERAND = ("+c", "-c", "c-", "*c")
_BINARY = ("+", "-", "*", "/")


class Tape:
    """Several expressions compiled into one flat, hash-consed jet program.

    Every distinct subtree, also one shared between outputs, is one
    instruction, and instructions are stored in dependency order: first the
    variables, then the constant jets, then the operations.  A literal
    operand of ``+``, ``-`` or ``*`` whose other operand is not a literal
    stays a Python float, so the jet is shifted or scaled and no constant
    jet is built.  Every other literal (divisor, dividend, function or power
    argument, output, operand beside another literal) becomes one constant
    jet per run, so those instructions keep the bits of plain jet
    arithmetic.  Literals are keyed by ``float.hex``, which tells ``0.0``
    from ``-0.0``.
    """

    def __init__(self, outputs: Sequence[ExprAst]):
        keys: list[tuple] = []
        index: dict[tuple, int] = {}
        seen: dict[int, int] = {}

        def intern(key: tuple) -> int:
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
            return index[key]

        def folded(node: Bin) -> bool:
            """Whether one operand of a +, - or * is a literal kept as a float."""
            return node.op in "+-*" and (type(node.left) is Num) != (type(node.right) is Num)

        def operands(node: ExprAst) -> tuple:
            """The subtrees a node's key reads, in the order they are interned."""
            kind = type(node)
            if kind is Bin:
                if folded(node):
                    return (node.right if type(node.left) is Num else node.left,)
                return (node.left, node.right)
            if kind is Num or kind is Var:
                return ()
            if kind is Neg or kind is Call:
                return (node.arg,)
            if kind is Pow:
                return (node.base,)
            raise TypeError(f"not an AST node: {node!r}")

        def visit(root: ExprAst) -> int:
            """Intern every subtree of ``root``, each after its operands and the left
            one first, as a recursive walk would; a stack, not recursion, so that a
            sum of many terms does not exhaust Python's recursion limit.  A node goes
            back on the stack as ``(node,)``, under its operands."""
            stack: list = [root]
            while stack:
                node = stack.pop()
                if type(node) is tuple:
                    node = node[0]
                elif id(node) in seen:
                    continue
                elif children := operands(node):
                    stack.append((node,))
                    stack.extend(reversed(children))
                    continue
                if id(node) not in seen:
                    seen[id(node)] = intern(key_of(node))
            return seen[id(root)]

        def key_of(node: ExprAst) -> tuple:
            kind = type(node)
            if kind is Bin:
                left, right = node.left, node.right
                if not folded(node):
                    return (node.op, seen[id(left)], seen[id(right)])
                if type(right) is Num:
                    return (node.op + "c", seen[id(left)], float(right.value).hex())
                return ("c-" if node.op == "-" else node.op + "c", seen[id(right)],
                        float(left.value).hex())
            if kind is Num:
                return ("const", float(node.value).hex())
            if kind is Var:
                return ("var", node.name)
            if kind is Neg:
                return ("neg", seen[id(node.arg)])
            if kind is Pow:
                return ("^", seen[id(node.base)], node.exponent)
            return (node.func, seen[id(node.arg)])

        roots = [visit(node) for node in outputs]
        order = ([k for k, key in enumerate(keys) if key[0] == "var"]
                 + [k for k, key in enumerate(keys) if key[0] == "const"])
        leaves = len(order)
        order += [k for k, key in enumerate(keys) if key[0] not in ("var", "const")]
        slot = {old: new for new, old in enumerate(order)}

        self.var_names = [keys[k][1] for k in order if keys[k][0] == "var"]
        self.constants = [float.fromhex(keys[k][1]) for k in order if keys[k][0] == "const"]
        self.kinds: list[str] = []
        ops = []
        operands: list[tuple[int, ...]] = [()] * leaves
        for k in order[leaves:]:
            kind, a, *rest = keys[k]
            b = rest[0] if rest else None
            if kind in _LITERAL_OPERAND:
                b = float.fromhex(b)
            elif kind in _BINARY:
                b = slot[b]
            self.kinds.append(kind)
            ops.append((_BODIES[kind], slot[a], b))
            operands.append((slot[a], b) if kind in _BINARY else (slot[a],))
        self.outputs = tuple(slot[r] for r in roots)

        # Each operation also lists the slots it reads last, which are
        # released after it, so a batched run holds only the live jets.
        last_reader = {s: k for k in range(leaves, len(order)) for s in operands[k]}
        released: list[list[int]] = [[] for _ in ops]
        for s, k in last_reader.items():
            if s not in self.outputs:
                released[k - leaves].append(s)
        self.code = [op + (tuple(r),) for op, r in zip(ops, released)]

        # first output (in output order) that reads each instruction
        self.first_output = [-1] * len(order)
        for o, root in enumerate(self.outputs):
            stack = [root]
            while stack:
                k = stack.pop()
                if self.first_output[k] < 0:
                    self.first_output[k] = o
                    stack.extend(operands[k])
        self._compiled: dict[int, Callable] = {}

    def __len__(self) -> int:
        """Number of instructions: variables, constant jets and operations."""
        return len(self.var_names) + len(self.constants) + len(self.code)

    def compiled(self, num_vars: int) -> Callable:
        """The tape as straight-line Python at jet order 1, built on first use.

        Returns ``run(point)``: ``point`` holds the values of u, x2 .. in
        chart order, and ``run`` returns a list of one tuple per tape output
        with the jet coefficients of ``eval_jet(tape, seeded env, num_vars, 1)``
        (the value, which is also the order-0 value, then the first partials
        in the order of ``jets.context(num_vars, 1).exps``), bit for bit,
        overflow included.  Every coefficient is a local float or a literal,
        and a product sums only the pairs its factors' supports can feed (see
        the code generator below).  A domain error raises ``TapeDomainError``
        as ``eval_jet`` does.
        """
        if num_vars not in self._compiled:
            self._compiled[num_vars] = _compile(self, num_vars)
        return self._compiled[num_vars]


def eval_jet(node: ExprAst | Tape, env: Mapping[str, jets.Jet], num_vars: int,
             order: int) -> jets.Jet | list[jets.Jet]:
    """Run a tape as jets, given seeded jets for every variable it reads.

    Returns one jet per tape output.  A single AST is compiled on the spot
    and its jet returned.  A ``JetDomainError`` of an instruction is
    re-raised as ``TapeDomainError`` naming the first output that needs it.
    """
    tape = node if isinstance(node, Tape) else Tape([node])
    values = [env[name] for name in tape.var_names]
    values += [jets.const(c, num_vars, order) for c in tape.constants]
    try:
        for body, a, b, released in tape.code:
            values.append(body(values, a, b))
            for k in released:
                values[k] = None
    except jets.JetDomainError as err:
        raise TapeDomainError(str(err), tape.first_output[len(values)]) from None
    outputs = [values[k] for k in tape.outputs]
    return outputs if tape is node else outputs[0]


# -- straight-line code at order 1 ---------------------------------------------------
#
# ``Tape.compiled`` emits the tape at order 1 as straight-line Python in which
# every jet coefficient of every instruction is a local float or a literal.
# The emitter repeats ``eval_jet``'s arithmetic coefficient by coefficient, so
# every bit matches it, signed zeros and overflow included.  It tracks each
# instruction's support as ``Jet`` does: a seed has {v}, a constant none,
# ``+``, ``-``, ``*`` and ``/`` the union, ``x^0`` none, and every other
# operation its operand's; a coefficient outside the support is a literal
# zero.  A product sums from 0.0, in ``mul_flat`` order, exactly the pairs of
# ``JetContext.mul_pairs`` for its factors' supports, as ``np.bincount``
# does; a division is a product with the reciprocal, and a power is
# ``jets.binary_power`` over the same products.  A literal operand acts as the
# constant jet ``Jet._coerce`` would build, and ``a - b`` is ``a + -b``, as in
# ``Jet.__sub__``.  Literals are folded with Python floats, and x * 1.0 and
# x + -0.0 fold to x, which they equal bit for bit.  x + 0.0 folds only where
# x cannot be -0.0, since -0.0 + 0.0 is +0.0: a sum is -0.0 only if both its
# terms are, so no product summed from 0.0 is.  A function is one call of
# ``taylor`` for its Taylor coefficients (c0, c1) from ``jets.TAYLOR_COEFS`` on
# a 0-d array, as the jet functions take them, so a domain error names the
# first output that needs it; ``Jet._compose``'s order-1 result is then c0,
# and c1 times each coefficient of the operand's support summed from 0.0.
# A function of a literal (the reciprocal behind ``/ 2.0``, say) is that same
# call made once, while the code is emitted, and its (c0, c1) are literals;
# outside the function's domain it stays a call, so every run raises there.
#
# A register that is read exactly once, and that one expression sets, is not a
# line of its own: its expression is written into its reader in parentheses, so
# Python does the same IEEE operations in the same order, and only the time of
# a pure float expression moves (a ``taylor`` call, which may raise, keeps its
# line and its place).  The emitter decides this on the parts it holds, after
# the whole tape is emitted and every register's readers are counted.  The
# parentheses of inlined registers nest at most ``_DEPTH`` deep in one line;
# past that a register keeps its line, since Python's tokenizer refuses 200
# nested parentheses and its compiler recurses once per level.
#
# The lines are cut into functions of about ``_CHUNK`` operations each,
# compiled one at a time.  Each function takes the registers that are live
# into it as arguments and returns those live out of it, and stores an
# output's coefficient tuple into the list ``o`` as soon as it is known.


def _var_index(name: str) -> int:
    """Jet variable of a chart variable: u is 0, x{k} is k - 1."""
    return 0 if name == "u" else int(name[1:]) - 1


_CHUNK = 256  # operations per compiled function, which bounds the compiler's memory
_DEPTH = 16   # nesting of the parentheses of inlined registers in one line


def _taylor(func: str, value: float, out: int) -> tuple[float, float]:
    """The Taylor coefficients (c0, c1) of ``func`` about ``value``; a domain
    error names tape output ``out``."""
    try:
        c0, c1 = jets.TAYLOR_COEFS[func](np.asarray(value), 1)
    except jets.JetDomainError as err:
        raise TapeDomainError(str(err), out) from None
    return float(c0), float(c1)


@lru_cache(maxsize=None)
def _product_pairs(num_vars: int, support_a: int, support_b: int) -> tuple[tuple, ...]:
    """The pairs (ka, kb) that feed each coefficient of the order-1 product of
    jets with these supports, in ``mul_flat`` order, as ``eval_jet`` sums them
    (``JetContext.mul_pairs``, without the tables its batched product builds)."""
    ctx = jets.context(num_vars, 1)
    ka, kb, ko = (k.tolist() for k in ctx.mul_pairs(support_a, support_b))
    pairs: list[list] = [[] for _ in range(ctx.ncoeffs)]
    for o, i, j in zip(ko, ka, kb):
        pairs[o].append((i, j))
    return tuple(map(tuple, pairs))


class _Expr(NamedTuple):
    """An expression not yet assigned to a register: its parts (source text, and
    registers as ints), whether it may be -0.0, and its number of operations."""

    parts: tuple
    negative_zero: bool = True
    ops: int = 1


# A coefficient is a float (a literal), an int (a register) or an ``_Expr``.
_Coef = Union[float, int, _Expr]

_POINT = -1   # the register that stands for ``point``, which only the seeds read


def _name(register: int) -> str:
    return "point" if register == _POINT else f"r{register}"


class _Emitter:
    """The lines of one tape at order 1; an instruction's jet is a list of
    coefficients and its support.  A line is the registers it sets (none for an
    output's), its parts, the registers among them and its number of operations."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        # the variable of each first partial's coefficient
        self.partial_var = [int(np.flatnonzero(e)[0]) for e in jets.context(num_vars, 1).exps[1:]]
        self.lines: list[tuple[tuple[int, ...], tuple, list[int], int]] = []
        self.registers = 0
        self.expressions: set[int] = set()   # registers set by ``assign``, which may be inlined
        self.never_negative_zero: set[int] = set()
        self.literals: dict[str, float] = {}   # non-finite literals, bound by name

    def part(self, x: float | int) -> str | int:
        """A register as itself, a literal as its source text."""
        if type(x) is int:
            return x
        if math.isfinite(x):
            return repr(x)
        name = f"k{len(self.literals)}"
        self.literals[name] = x
        return name

    def parts(self, x: _Coef) -> tuple:
        return x.parts if type(x) is _Expr else (self.part(x),)

    def negative_zero(self, x: _Coef) -> bool:
        """Whether x may be -0.0."""
        if type(x) is int:
            return x not in self.never_negative_zero
        if type(x) is float:
            return x == 0.0 and math.copysign(1.0, x) < 0.0
        return x.negative_zero

    def line(self, parts: tuple, count: int, ops: int) -> list[int]:
        """Append a line setting ``count`` new registers to ``parts``; returns them."""
        registers = list(range(self.registers, self.registers + count))
        self.registers += count
        self.lines.append((tuple(registers), parts, [p for p in parts if type(p) is int], ops))
        return registers

    def assign(self, x: _Coef) -> float | int:
        if type(x) is not _Expr:
            return x
        register = self.registers
        self.registers += 1
        self.lines.append(((register,), x.parts, [p for p in x.parts if type(p) is int], x.ops))
        self.expressions.add(register)
        if not x.negative_zero:
            self.never_negative_zero.add(register)
        return register

    def neg(self, x: float | int) -> float | _Expr:
        return -x if type(x) is float else _Expr(("-", x))

    def add(self, x: _Coef, y: _Coef) -> _Coef:
        """x + y; a sum is -0.0 only if both terms are, so -0.0 is dropped beside
        any term and 0.0 beside a term that cannot be -0.0."""
        if type(y) is float:
            if type(x) is float:
                return x + y
            if y == 0.0 and (math.copysign(1.0, y) < 0.0 or not self.negative_zero(x)):
                return x
        elif type(x) is float and x == 0.0 and (math.copysign(1.0, x) < 0.0
                                               or not self.negative_zero(y)):
            return y
        if type(x) is _Expr:
            parts, negative_zero, ops = x
        else:
            parts, negative_zero, ops = (self.part(x),), self.negative_zero(x), 0
        if type(y) is _Expr:
            return _Expr(parts + (" + ",) + y.parts, negative_zero and y.negative_zero,
                         ops + y.ops + 1)
        return _Expr(parts + (" + ", self.part(y)), negative_zero and self.negative_zero(y),
                     ops + 1)

    def times(self, x: float | int, y: float | int) -> _Coef:
        if type(y) is float:
            if type(x) is float:
                return x * y
            if y == 1.0:
                return x
        elif type(x) is float and x == 1.0:
            return y
        return _Expr((self.part(x), " * ", self.part(y)))

    def jet(self, coefs: list[_Coef], support: int) -> tuple[list, int]:
        return [self.assign(x) if type(x) is _Expr else x for x in coefs], support

    def products(self, a: tuple[list, int], b: tuple[list, int]) -> list[_Coef]:
        """The sums of the truncated product a * b, not yet assigned."""
        (xa, sa), (xb, sb) = a, b
        sums: list[_Coef] = []
        add, times = self.add, self.times
        for pairs in _product_pairs(self.num_vars, sa, sb):
            acc: _Coef = 0.0
            for i, j in pairs:
                acc = add(acc, times(xa[i], xb[j]))
            sums.append(acc)
        return sums

    def mul(self, a: tuple[list, int], b: tuple[list, int]) -> tuple[list, int]:
        return self.jet(self.products(a, b), a[1] | b[1])

    def coefficients(self, func: str, x: float | int, out: int) -> tuple:
        """The Taylor coefficients (c0, c1) of ``func`` about x: literals, taken once
        here, when x is a literal in the function's domain; otherwise two registers
        set by a ``taylor`` call on every run, which raises where ``eval_jet`` does."""
        if type(x) is float:
            with contextlib.suppress(TapeDomainError):
                return _taylor(func, x, out)
        return tuple(self.line((f"taylor({func!r}, ", *self.parts(x), f", {out})"), 2, 1))

    def taylor(self, func: str, a: tuple[list, int], out: int) -> tuple[list, int]:
        """``Jet._compose`` at order 1: c0, then c1 * (a - a0) summed as a product.
        Each coefficient past the value is c1 times one of a's partials, so none
        reads a0; the value's sum, c1 * a0, is dropped unassigned."""
        xa, sa = a
        c0, c1 = self.coefficients(func, xa[0], out)
        sums = self.products(([c1] + [0.0] * self.num_vars, 0), a)
        return self.jet([c0] + sums[1:], sa)

    def operation(self, kind: str, a: tuple[list, int], b, out: int) -> tuple[list, int]:
        """The jet of one tape operation on operand jet ``a`` and ``b``: a second
        operand jet, a literal or an exponent; ``out`` names a domain error."""
        xa, sa = a
        if kind == "neg":
            return self.jet([self.neg(x) for x in xa], sa)
        if kind in ("+", "-"):
            xb = b[0] if kind == "+" else [self.neg(y) for y in b[0]]
            return self.jet([self.add(x, y) for x, y in zip(xa, xb)], sa | b[1])
        if kind == "*":
            return self.mul(a, b)
        if kind == "/":
            return self.mul(a, self.taylor("reciprocal", b, out))
        if kind in ("+c", "-c"):
            c, zero = (b, 0.0) if kind == "+c" else (-b, -0.0)
            return self.jet([self.add(xa[0], c)] + [self.add(x, zero) for x in xa[1:]], sa)
        if kind == "c-":
            return self.jet([self.add(self.neg(xa[0]), b)]
                            + [self.add(self.neg(x), 0.0) for x in xa[1:]], sa)
        if kind == "*c":
            return self.jet([self.times(x, b) for x in xa], sa)
        if kind == "^":
            if b < 0:
                a, b = self.taylor("reciprocal", a, out), -b
            if b == 0:
                return [1.0] + [0.0] * self.num_vars, 0
            return jets.binary_power(a, b, self.mul)
        return self.taylor(kind, a, out)

    def emit(self, tape: Tape) -> None:
        """The lines of the whole tape: seeds, constants, operations, and each
        output's ``o[k] = (..)`` as soon as its instruction is known."""
        outputs: dict[int, list[int]] = {}
        for k, slot in enumerate(tape.outputs):
            outputs.setdefault(slot, []).append(k)
        values: list[tuple[list, int]] = []

        def store(value: tuple[list, int]) -> None:
            slot = len(values)
            values.append(value)
            if slot in outputs:
                targets = "".join(f"o[{k}] = " for k in outputs[slot])
                parts = [targets + "("]
                for x in value[0]:
                    parts += (*self.parts(x), ", ")
                parts.append(")")
                self.lines.append(((), parts, [p for p in parts if type(p) is int], 0))

        for name in tape.var_names:
            var = _var_index(name)
            value = self.line(("float(", _POINT, f"[{var}])"), 1, 1)
            store((value + [1.0 if v == var else 0.0 for v in self.partial_var], 1 << var))
        for c in tape.constants:
            store(([c] + [0.0] * self.num_vars, 0))
        leaves = len(values)
        for j, (kind, (_, a, b, _)) in enumerate(zip(tape.kinds, tape.code)):
            operand = values[b] if kind in _BINARY else b
            store(self.operation(kind, values[a], operand, tape.first_output[leaves + j]))

    def statements(self):
        """The lines as statements, each with every register read once that an
        ``assign`` set, to the depth ``_DEPTH``, written into it in parentheses:
        (source, the registers it sets, those it reads, its operations)."""
        reads = collections.Counter(itertools.chain.from_iterable(
            registers for _, _, registers, _ in self.lines))
        once = {register for register in self.expressions if reads[register] == 1}
        written = {_POINT: "point"}   # each register as its readers write it
        held: dict[int, tuple[int, list[int], int]] = {}   # inlined: depth, reads, ops
        for targets, parts, registers, ops in self.lines:
            depth, used = 0, []
            for register in registers:
                if register in held:
                    inner_depth, inner_used, inner_ops = held.pop(register)
                    if inner_depth >= depth:
                        depth = inner_depth + 1
                    used += inner_used
                    ops += inner_ops
                else:
                    used.append(register)
            text = "".join([written[p] if type(p) is int else p for p in parts])
            if depth < _DEPTH and targets and targets[0] in once:
                held[targets[0]] = depth, used, ops
                written[targets[0]] = f"({text})"
                continue
            for register in targets:
                written[register] = f"r{register}"
            if targets:
                text = f"{', '.join(map(_name, targets))} = {text}"
            yield text, targets, used, ops

    def chunk_sources(self) -> list[str]:
        """Sources of ``def chunk(o, ..)``, of about ``_CHUNK`` operations each: each takes
        the registers live into it, the first ``point``, and returns those live out.
        A register's first chunk is the one that sets it."""
        bodies: list[list[str]] = [[]]
        first: dict[int, int] = {_POINT: -1}
        last: dict[int, int] = {_POINT: 0}
        ops = 0
        for text, targets, used, count in self.statements():
            if ops >= _CHUNK:
                bodies.append([])
                ops = 0
            c = len(bodies) - 1
            bodies[-1].append(f"    {text}\n")
            ops += count
            for register in used:
                last[register] = c
            for register in targets:
                first[register] = c
                last.setdefault(register, c)
        live: list[list[str]] = [[] for _ in range(len(bodies) + 1)]
        for register, c in first.items():
            for k in range(c + 1, last[register] + 1):
                live[k].append(_name(register))
        return [f"def chunk(o, {', '.join(live[c])}):\n{''.join(body)}"
                f"    return ({''.join(name + ', ' for name in live[c + 1])})\n"
                for c, body in enumerate(bodies)]


def _compile(tape: Tape, num_vars: int) -> Callable:
    """``run(point)``: the chunks of the tape's order-1 code, run one after another."""
    emitter = _Emitter(num_vars)
    emitter.emit(tape)
    namespace = dict(emitter.literals, taylor=_taylor)
    chunks = []
    for source in emitter.chunk_sources():
        exec(compile(source, "<tape>", "exec"), namespace)
        chunks.append(namespace["chunk"])
    n_outputs = len(tape.outputs)

    def run(point):
        o = [None] * n_outputs
        live = (point,)
        for chunk in chunks:
            live = chunk(o, *live)
        return o

    return run

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

Every parse error carries the byte offset of the offending token.

Jet evaluation runs a ``Tape``: expressions compiled once into a flat,
hash-consed instruction list, so a subtree shared within or between
expressions is evaluated once per call.  ``Tape.compiled`` is a tape as
straight-line Python at jet order 1 only; its values are also order 0's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence, Union

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
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            node = self.unary()
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
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", offset)
                self.advance()
                arg = self.expr()
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
    import math

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

        def visit(node: ExprAst) -> int:
            if id(node) not in seen:
                seen[id(node)] = intern(key_of(node))
            return seen[id(node)]

        def key_of(node: ExprAst) -> tuple:
            if isinstance(node, Num):
                return ("const", float(node.value).hex())
            if isinstance(node, Var):
                return ("var", node.name)
            if isinstance(node, Neg):
                return ("neg", visit(node.arg))
            if isinstance(node, Pow):
                return ("^", visit(node.base), node.exponent)
            if isinstance(node, Call):
                return (node.func, visit(node.arg))
            if isinstance(node, Bin):
                left, right = node.left, node.right
                if node.op in "+-*" and isinstance(left, Num) != isinstance(right, Num):
                    if isinstance(right, Num):
                        return (node.op + "c", visit(left), float(right.value).hex())
                    kind = "c-" if node.op == "-" else node.op + "c"
                    return (kind, visit(right), float(left.value).hex())
                return (node.op, visit(left), visit(right))
            raise TypeError(f"not an AST node: {node!r}")

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
        self._chunks: list | None = None
        self._compiled: dict[int, Callable] = {}

    def __len__(self) -> int:
        """Number of instructions: variables, constant jets and operations."""
        return len(self.var_names) + len(self.constants) + len(self.code)

    def compiled(self, num_vars: int) -> Callable:
        """The tape as straight-line Python on float tuples, built on first use.

        Returns ``run(point)``: ``point`` holds the values of u, x2 .. in
        chart order, and ``run`` returns one tuple per tape output with the
        jet coefficients of ``eval_jet(tape, seeded env, num_vars, 1)`` (the
        value, which is also the order-0 value, then the first partials in the
        order of ``jets.context(num_vars, 1).exps``), bit for bit on finite
        values (see the kernels below).  A domain error raises
        ``TapeDomainError`` as ``eval_jet`` does.
        """
        if num_vars not in self._compiled:
            if self._chunks is None:
                self._chunks = [compile(source, "<tape>", "exec")
                                for source in _chunk_sources(self)]
            kernels = _kernels(num_vars)
            namespace = dict(kernels, K=tuple(b for _, _, b, _ in self.code))
            chunks = []
            for code in self._chunks:
                exec(code, namespace)
                chunks.append(namespace["chunk"])
            self._compiled[num_vars] = _runner(self, kernels["seed"], kernels["const"], chunks)
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
# ``Tape.compiled`` emits one line per operation, each a call of a kernel on
# coefficient tuples.  The kernels are made once per num_vars and
# repeat the jet arithmetic step by step, so on finite values every bit
# (signed zeros too) matches ``eval_jet``: a Cauchy product sums all its
# pairs from 0.0 in ``mul_flat`` order, as ``np.bincount`` does, and the
# pairs ``eval_jet`` leaves out by the factors' supports add only +-0; a
# literal operand acts as the constant jet ``Jet._coerce`` would build;
# functions take their Taylor coefficients from ``jets.TAYLOR_COEFS`` on a
# 0-d array, as the jet functions do, and form ``Jet._compose``'s order-1
# result c0 + c1 * delta, whose value is c0 itself; powers use
# ``jets.binary_power``.  Only where a value overflowed do they differ: a
# coefficient outside a product's supports is the NaN of inf * 0 here and
# 0 in ``eval_jet``.


def _var_index(name: str) -> int:
    """Jet variable of a chart variable: u is 0, x{k} is k - 1."""
    return 0 if name == "u" else int(name[1:]) - 1


def _arith_source(ctx: jets.JetContext) -> str:
    """Source of the unrolled ring operations on coefficient tuples of ``ctx``."""
    a = [f"a{i}" for i in range(ctx.ncoeffs)]
    b = [f"b{i}" for i in range(ctx.ncoeffs)]
    sums = [["0.0"] for _ in a]
    for i, j, o in zip(*ctx.mul_flat()):
        sums[o].append(f"a{i} * b{j}")
    bodies = {
        "neg(a)": [f"-{x}" for x in a],
        "add(a, b)": [f"{x} + {y}" for x, y in zip(a, b)],
        "sub(a, b)": [f"{x} + -{y}" for x, y in zip(a, b)],      # a + (-b), as Jet.__sub__
        "mul(a, b)": [" + ".join(terms) for terms in sums],
        "addc(a, c)": ["a0 + c"] + [f"{x} + 0.0" for x in a[1:]],
        "subc(a, c)": ["a0 + -c"] + [f"{x} + -0.0" for x in a[1:]],
        "rsubc(a, c)": ["-a0 + c"] + [f"-{x} + 0.0" for x in a[1:]],
        "mulc(a, c)": [f"{x} * c" for x in a],
    }
    lines = []
    for signature, items in bodies.items():
        lines += [f"def {signature}:", f"    {', '.join(a)}, = a"]
        if ", b)" in signature:
            lines.append(f"    {', '.join(b)}, = b")
        lines.append(f"    return ({', '.join(items)},)")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _kernels(num_vars: int) -> dict:
    """Kernels of the order-1 jet context, by the names ``_chunk_sources`` calls."""
    ctx = jets.context(num_vars, 1)
    kernels: dict = {}
    exec(_arith_source(ctx), kernels)
    mul = kernels["mul"]
    zeros = (0.0,) * (ctx.ncoeffs - 1)
    # the first partials' exponents form a permutation matrix; column var seeds var
    units = [tuple(map(float, column)) for column in np.asarray(ctx.exps)[1:].T]

    def seed(value, var):
        return (float(value),) + units[var]

    def const(value):
        return (value,) + zeros

    def taylor(func, a, out):
        try:
            coefs = jets.TAYLOR_COEFS[func](np.asarray(a[0]), 1)
        except jets.JetDomainError as err:
            raise TapeDomainError(str(err), out) from None
        delta = (0.0,) + a[1:]
        return (float(coefs[0]),) + mul(const(float(coefs[1])), delta)[1:]

    def div(a, b, out):
        return mul(a, taylor("reciprocal", b, out))

    def power(a, n, out):
        if n < 0:
            return power(taylor("reciprocal", a, out), -n, out)
        if n == 0:
            return const(1.0)
        return jets.binary_power(a, n, mul)

    kernels.update(seed=seed, const=const, taylor=taylor, div=div, power=power)
    return kernels


_CHUNK = 64  # tape lines per compiled function, which bounds the compiler's memory

# The line of each operation kind: operands in slots ``s[a]`` and ``s[b]``,
# literal operand ``K[j]`` of operation j, exponent ``b``, and ``out`` the
# first output needing the operation, which a domain error names.
_LINES = {
    "neg": "neg(s[{a}])",
    "+": "add(s[{a}], s[{b}])",
    "-": "sub(s[{a}], s[{b}])",
    "*": "mul(s[{a}], s[{b}])",
    "/": "div(s[{a}], s[{b}], {out})",
    "+c": "addc(s[{a}], K[{j}])",
    "-c": "subc(s[{a}], K[{j}])",
    "c-": "rsubc(s[{a}], K[{j}])",
    "*c": "mulc(s[{a}], K[{j}])",
    "^": "power(s[{a}], {b}, {out})",
}


def _chunk_sources(tape: Tape) -> list[str]:
    """Sources of ``def chunk(s)``: one line per tape operation, slot k in ``s[k]``,
    cut into functions of ``_CHUNK`` lines that are compiled one at a time."""
    leaves = len(tape.var_names) + len(tape.constants)
    lines = []
    for j, (kind, (_, a, b, _)) in enumerate(zip(tape.kinds, tape.code)):
        line = _LINES.get(kind, "taylor({kind!r}, s[{a}], {out})")
        lines.append(f"    s[{leaves + j}] = " + line.format(
            kind=kind, a=a, b=b, j=j, out=tape.first_output[leaves + j]))
    return ["def chunk(s):\n" + "\n".join(lines[i:i + _CHUNK]) + "\n"
            for i in range(0, len(lines), _CHUNK)]


def _runner(tape: Tape, seed: Callable, const: Callable, chunks: list[Callable]) -> Callable:
    """``run(point)``: seed the variables, place the constants, run the chunks."""
    variables = [_var_index(name) for name in tape.var_names]
    constants = [const(c) for c in tape.constants]
    operations = [None] * len(tape.code)
    outputs = tape.outputs

    def run(point):
        s = [seed(point[i], i) for i in variables] + constants + operations
        for chunk in chunks:
            chunk(s)
        return tuple([s[k] for k in outputs])

    return run

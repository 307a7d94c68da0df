"""Truncated multivariate Taylor-jet arithmetic.

A jet stores the Taylor coefficients of a smooth function about a base
point, up to a fixed total degree ``order``:

    coeff[alpha] = d^alpha f / alpha!        (|alpha| <= order)

so the degree-0 coefficient is the function value and ``partial`` recovers
raw partial derivatives.  Addition, multiplication (truncated Cauchy
product) and composition with analytic functions propagate all partial
derivatives exactly, to machine precision, which is what the curvature
formulas downstream rely on.

Coefficients are stored densely over the simplex {|alpha| <= order} in
graded lexicographic order.  Because the ordering is graded, the
coefficient vector of a lower order is a prefix of a higher one, so
truncation is a slice.  The pairs of the truncated product are listed once
per (num_vars, order) pair: ``mul_flat`` gives its coefficient pairs (ka, kb)
sorted by the output coefficient ko they feed, and ``mul_padded`` lays them
out as one row per output, padded to the longest row.

A ``Jet`` may carry a leading batch shape: ``data`` has shape
``(*batch, ncoeffs)``.  Scalar jets have ``batch == ()``.  All arithmetic
broadcasts over the batch axes, which is how whole tensor fields of jets
are handled without Python-level loops.

A ``Jet`` also knows its ``support``, a bitmask of the variables it may
depend on: ``seed(v)`` has {v}, constants have none, a sum or product has
the union of its operands', and every other operation keeps its operand's
(or has none where it returns a constant jet, as ``pow_int(x, 0)`` does).
A jet built from raw data has all variables.  A coefficient whose monomial
has a variable outside the support is zero, so a product need only sum the
pairs (alpha, beta) with alpha over the first factor's variables and beta
over the second's.  ``mul_tables(sa, sb)`` keeps those pairs of ``mul_flat``,
in its order, once per pair of supports; the all-variables entry is the
dense product.  On finite data every pair left out is an exact +-0, and a
sum from +0.0 does not change by adding +-0, so the product is the dense
one bit for bit, signed zeros included.  Only where a factor overflowed
does a coefficient outside the supports read 0 instead of the NaN of
inf * 0.

Batches of at most ``MUL_BINCOUNT_BATCH`` jets, a scalar jet being a batch
of one, multiply by one ``np.bincount`` over the table's pairs: batch entry
r's pair products land in bin ko + ncoeffs * r (``MulTable.bins``).  Larger
batches copy only the coefficients the table reads to coefficient-major rows
(``MulTable.rows_a`` and ``rows_b``, each (rows, N)): a u-only factor at
order 3 is 4 rows, not all 56 at nv 5.  The table groups its outputs into
buckets of equally many pairs (``MulTable.buckets``), and each bucket pair
column is one take of whole rows of each operand.  Both paths sum each
coefficient's pairs in ``mul_flat`` order starting from +0.0,
and an output no pair feeds is +0.0, so a batched product equals the stacked
scalar ones bit for bit.  The bincount path wins while its (N, pairs)
temporaries stay in cache; the row path pays a fixed cost per bucket pair
column, which small batches do not amortize.

``jet_einsum`` makes one ``np.matmul`` over all output coefficients, whose
inner axis runs over a coefficient's padded row of pairs and the contracted
indices, so the outer product over those indices is never formed.  Padding
pairs point at an all-zero row of both operands.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Jet",
    "JetContext",
    "JetDomainError",
    "JetShapeError",
    "context",
    "seed",
    "const",
    "zeros",
    "sin",
    "cos",
    "exp",
    "sqrt",
    "pow_int",
    "jet_einsum",
]


class JetDomainError(ValueError):
    """Elementary function applied outside its domain (e.g. sqrt at <= 0)."""


class JetShapeError(ValueError):
    """Operands live in incompatible jet contexts."""


def _compositions(total: int, nvars: int):
    """Yield exponent tuples summing to ``total``, lexicographically."""
    if nvars == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, nvars - 1):
            yield (head,) + rest


class JetContext:
    """Shared coefficient layout and operation tables for (num_vars, order)."""

    def __init__(self, nvars: int, order: int):
        if nvars < 1:
            raise JetShapeError("need at least one variable")
        if order < 0:
            raise JetShapeError("order must be non-negative")
        self.nvars = nvars
        self.order = order
        exps: list[tuple[int, ...]] = []
        self.ncoeffs_by_order = []
        for deg in range(order + 1):
            exps.extend(_compositions(deg, nvars))
            self.ncoeffs_by_order.append(len(exps))
        self.exps = np.array(exps, dtype=np.int64)
        self.degrees = self.exps.sum(axis=1)
        self.ncoeffs = len(exps)
        self._index = {tuple(e): i for i, e in enumerate(exps)}
        self.all_vars = (1 << nvars) - 1
        # the variables each coefficient's monomial depends on, as a bitmask
        self.var_masks = ((self.exps > 0) << np.arange(nvars)).sum(axis=1)
        self._mul_tables: dict[tuple[int, int, bool], MulTable] = {}
        self._diff_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._grad_tables: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def index(self, alpha: Sequence[int]) -> int:
        key = tuple(int(a) for a in alpha)
        if key not in self._index:
            raise JetShapeError(f"multi-index {key} not representable at order {self.order}")
        return self._index[key]

    @cached_property
    def _mul(self) -> tuple[tuple, tuple]:
        runs: list[list[tuple[int, int]]] = [[] for _ in range(self.ncoeffs)]
        for ia in range(self.ncoeffs):
            da = int(self.degrees[ia])
            ea = self.exps[ia]
            for ib in range(self.ncoeffs_by_order[self.order - da]):
                runs[self._index[tuple(ea + self.exps[ib])]].append((ia, ib))
        ka, kb = np.array([pair for run in runs for pair in run], dtype=np.intp).T.copy()
        ko = np.repeat(np.arange(self.ncoeffs, dtype=np.intp), [len(run) for run in runs])
        width = max(len(run) for run in runs)
        pad = [(self.ncoeffs, self.ncoeffs)]
        padded = np.array([run + pad * (width - len(run)) for run in runs], dtype=np.intp)
        return (ka, kb, ko), tuple(padded.transpose(2, 0, 1).copy())

    def mul_flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pairs (ka, kb) of the truncated product and the output ko each feeds, sorted by ko."""
        return self._mul[0]

    def mul_padded(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ka, kb)``, each (ncoeffs, width): row k holds output k's pairs in ``mul_flat``
        order, padded to the longest row with the index ``ncoeffs``."""
        return self._mul[1]

    def mul_pairs(self, support_a: int, support_b: int,
                  centered: bool = False) -> tuple[np.ndarray, ...]:
        """The ``mul_flat`` pairs (ka, kb) and outputs ko of the product of a jet with
        support ``support_a`` by one with ``support_b``: those whose monomials lie
        over those variables, in ``mul_flat`` order.  ``centered`` also leaves out
        the pairs that read the second factor's value coefficient, a zero by
        construction (``Jet._compose``'s ``self - value``)."""
        ka, kb, ko = self.mul_flat()
        keep = (((self.var_masks[ka] | support_a) == support_a)
                & ((self.var_masks[kb] | support_b) == support_b))
        if centered:
            keep &= kb != 0
        return ka[keep], kb[keep], ko[keep]

    def mul_tables(self, support_a: int, support_b: int, centered: bool = False) -> MulTable:
        """The table of ``mul_pairs``."""
        key = (support_a, support_b, centered)
        if key not in self._mul_tables:
            self._mul_tables[key] = _mul_table(self.ncoeffs,
                                               *self.mul_pairs(support_a, support_b, centered))
        return self._mul_tables[key]

    def diff_table(self, var: int) -> tuple[np.ndarray, np.ndarray]:
        """Map child-context coefficients to (source index, factor) pairs."""
        if var not in self._diff_tables:
            if not 0 <= var < self.nvars:
                raise JetShapeError(f"variable index {var} out of range")
            child = context(self.nvars, self.order - 1)
            src = np.empty(child.ncoeffs, dtype=np.intp)
            fac = np.empty(child.ncoeffs)
            for i in range(child.ncoeffs):
                beta = child.exps[i].copy()
                beta[var] += 1
                src[i] = self._index[tuple(beta)]
                fac[i] = beta[var]
            self._diff_tables[var] = (src, fac)
        return self._diff_tables[var]

    def grad_table(self, variables: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """``diff_table`` of each variable, stacked (len(variables), child coefficients)."""
        if variables not in self._grad_tables:
            tables = [self.diff_table(var) for var in variables]
            shape = (len(variables), context(self.nvars, self.order - 1).ncoeffs)
            self._grad_tables[variables] = (
                np.array([src for src, _ in tables], dtype=np.intp).reshape(shape),
                np.array([fac for _, fac in tables], dtype=float).reshape(shape))
        return self._grad_tables[variables]


@lru_cache(maxsize=None)
def context(nvars: int, order: int) -> JetContext:
    return JetContext(nvars, order)


# Largest batch multiplied by bincount.  At order 4, nv 4 / 5, bincount took
# 111 / 199 us at N = 32 / 31 against 384 / 511 us for the row kernel, and
# 394 / 881 us at N = 64 / 63 against 416 / 567 us; at orders 1 to 3 it wins
# or ties up to N = 64 (best of 7 x 300 calls on a shared 2-vCPU host).
MUL_BINCOUNT_BATCH = 32


def _flat(x: np.ndarray, batch: tuple[int, ...]) -> np.ndarray:
    """Coefficient data over ``batch`` as rows (N, ncoeffs); data with one batch
    entry stays one row, which broadcasts."""
    nc = x.shape[-1]
    if x.shape[:-1] != batch and x.size != nc:
        x = np.broadcast_to(x, batch + (nc,))
    return x.reshape(-1, nc)


class MulTable(NamedTuple):
    """The truncated product's pairs restricted to one pair of supports.

    The bincount path reads ``ka``, ``kb`` and ``bins``; the row path reads
    only the coefficient rows ``rows_a`` and ``rows_b`` of its operands, and
    its ``buckets`` address those rows by position.
    """

    ka: np.ndarray          # the pairs (ka, kb) kept, in ``mul_flat`` order
    kb: np.ndarray
    bins: np.ndarray        # bin of each pair product of a batch of MUL_BINCOUNT_BATCH jets,
                            # row-major over (batch entry r, pair): ko + ncoeffs * r
    rows_a: np.ndarray      # the coefficients ka reads, ascending
    rows_b: np.ndarray      # the coefficients kb reads, ascending
    buckets: list           # (ko, ia, ib) of the fed outputs with equally many pairs: row r
                            # of ia and ib (outputs, pairs) holds output ko[r]'s pairs as
                            # positions in rows_a and rows_b


def _used_rows(ncoeffs: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients ``k`` reads, ascending, and each entry's position among them."""
    used = np.zeros(ncoeffs, dtype=bool)   # np.unique would import numpy.ma
    used[k] = True
    return np.flatnonzero(used), (np.cumsum(used) - 1)[k]


def _mul_table(ncoeffs: int, ka: np.ndarray, kb: np.ndarray, ko: np.ndarray) -> MulTable:
    """The table of the pairs (ka, kb), sorted by the output ko each feeds."""
    counts = np.bincount(ko, minlength=ncoeffs)
    starts = np.cumsum(counts) - counts
    rows_a, ia = _used_rows(ncoeffs, ka)
    rows_b, ib = _used_rows(ncoeffs, kb)
    buckets = []
    for size in sorted(set(counts.tolist()) - {0}):
        outs = np.flatnonzero(counts == size)
        pairs = starts[outs][:, None] + np.arange(size)
        buckets.append((outs, ia[pairs], ib[pairs]))
    bins = (ko + ncoeffs * np.arange(MUL_BINCOUNT_BATCH)[:, None]).ravel()
    return MulTable(ka, kb, bins, rows_a, rows_b, buckets)


def _mul_data(ctx: JetContext, a: np.ndarray, b: np.ndarray,
              support_a: int, support_b: int, centered: bool = False) -> np.ndarray:
    """Truncated Cauchy product on coefficient arrays (batch-broadcasting) of jets
    with supports ``support_a`` and ``support_b``; an output no pair feeds is +0.0.
    ``centered`` reads ``b`` as if its value coefficient were zero (``mul_pairs``).

    Up to ``MUL_BINCOUNT_BATCH`` jets, it takes the table's pairs of each jet's
    coefficients.  A larger batch gathers only the coefficient rows the table
    reads, ``rows_a`` of ``a`` and ``rows_b`` of ``b``, as rows (rows, N), and
    writes each bucket's outputs into the zeroed (N, ncoeffs) result.
    """
    table = ctx.mul_tables(support_a, support_b, centered)
    batch = a.shape[:-1]
    if batch != b.shape[:-1]:
        batch = np.broadcast_shapes(batch, b.shape[:-1])
    fa, fb = _flat(a, batch), _flat(b, batch)
    n = math.prod(batch)
    if n <= MUL_BINCOUNT_BATCH:
        weights = fa.take(table.ka, axis=1) * fb.take(table.kb, axis=1)
        return np.bincount(table.bins[:weights.size], weights=weights.ravel(),
                           minlength=n * ctx.ncoeffs).reshape(batch + (ctx.ncoeffs,))
    ra, rb = fa.T[table.rows_a], fb.T[table.rows_b]
    out = np.zeros((n, ctx.ncoeffs))
    # Bucket by bucket, so each coefficient sums its pairs in mul_flat order; an
    # operand with one batch entry is one column, which broadcasts.
    for ko, ia, ib in table.buckets:
        acc = ra[ia[:, 0]] * rb[ib[:, 0]]
        for j in range(1, ia.shape[1]):
            acc += ra[ia[:, j]] * rb[ib[:, j]]
        # bincount sums from 0.0, so a sum of -0.0 terms is +0.0 there; only that
        # case differs from summing from the first term, and adding 0.0 mends it
        acc += 0.0
        out.T[ko] = acc
    return out.reshape(batch + (ctx.ncoeffs,))


class Jet:
    """A (possibly batched) truncated Taylor expansion.

    ``support`` is a bitmask of the variables the jet may depend on (bit v for
    variable v): every coefficient whose monomial has a variable outside it
    is zero.  A jet built from raw data may depend on all variables; code
    that writes into ``data`` keeps the coefficients outside the support zero.
    """

    __slots__ = ("ctx", "data", "support")

    def __init__(self, ctx: JetContext, data: np.ndarray, support: int | None = None):
        self.ctx = ctx
        self.data = np.asarray(data, dtype=float)
        self.support = ctx.all_vars if support is None else support
        if self.data.shape[-1:] != (ctx.ncoeffs,):
            raise JetShapeError("coefficient axis does not match context")

    # -- basic introspection -------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self.ctx.nvars

    @property
    def order(self) -> int:
        return self.ctx.order

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape[:-1]

    def value(self):
        v = self.data[..., 0]
        return float(v) if v.ndim == 0 else v.copy()

    def coeff(self, alpha: Sequence[int]):
        v = self.data[..., self.ctx.index(alpha)]
        return float(v) if v.ndim == 0 else v.copy()

    def partial(self, alpha: Sequence[int]):
        """Raw partial derivative d^alpha f = alpha! * coeff[alpha]."""
        fac = math.prod(math.factorial(int(a)) for a in alpha)
        v = self.data[..., self.ctx.index(alpha)] * fac
        return float(v) if v.ndim == 0 else v

    def __getitem__(self, key) -> "Jet":
        if not isinstance(key, tuple):
            key = (key,)
        return Jet(self.ctx, self.data[key + (slice(None),)], self.support)

    def __repr__(self) -> str:
        return f"Jet(nvars={self.num_vars}, order={self.order}, shape={self.shape})"

    # -- order management ----------------------------------------------------

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise JetShapeError("cannot raise jet order by truncation")
        if order == self.order:
            return self
        ctx = context(self.num_vars, order)
        return Jet(ctx, self.data[..., : ctx.ncoeffs], self.support)

    def _align(self, other: "Jet") -> tuple["Jet", "Jet"]:
        if self.ctx is other.ctx:
            return self, other
        if self.num_vars != other.num_vars:
            raise JetShapeError("jets over different variable sets")
        k = min(self.order, other.order)
        return self.truncate(k), other.truncate(k)

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        arr = np.asarray(other, dtype=float)
        data = np.zeros(arr.shape + (self.ctx.ncoeffs,))
        data[..., 0] = arr
        return Jet(self.ctx, data, 0)

    def __add__(self, other) -> "Jet":
        other = other if isinstance(other, Jet) else self._coerce(other)
        a, b = self._align(other)
        return Jet(a.ctx, a.data + b.data, a.support | b.support)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(self.ctx, -self.data, self.support)

    def __sub__(self, other) -> "Jet":
        return self.__add__(-self._coerce(other) if not isinstance(other, Jet) else -other)

    def __rsub__(self, other) -> "Jet":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Jet":
        if isinstance(other, float):
            return Jet(self.ctx, self.data * other, self.support)
        if not isinstance(other, Jet):
            arr = np.asarray(other, dtype=float)
            return Jet(self.ctx, self.data * arr[..., None], self.support)
        a, b = self._align(other)
        return Jet(a.ctx, _mul_data(a.ctx, a.data, b.data, a.support, b.support),
                   a.support | b.support)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return self * (1.0 / np.asarray(other, dtype=float))
        a, b = self._align(other)
        return a * b.reciprocal()

    def __rtruediv__(self, other) -> "Jet":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "Jet":
        return pow_int(self, n)

    def reciprocal(self) -> "Jet":
        return self._compose(_reciprocal_coefs(self.data[..., 0], self.order))

    # -- calculus ------------------------------------------------------------

    def diff(self, var: int) -> "Jet":
        """Partial derivative with respect to variable ``var`` (order drops by one)."""
        if self.order == 0:
            raise JetShapeError("cannot differentiate an order-0 jet")
        src, fac = self.ctx.diff_table(var)
        child = context(self.num_vars, self.order - 1)
        return Jet(child, self.data[..., src] * fac, self.support)

    def du(self) -> "Jet":
        """Derivative along the first variable (u by convention)."""
        return self.diff(0)

    def grad(self, variables: tuple[int, ...]) -> "Jet":
        """Partial derivatives along ``variables`` on a new axis just before the
        coefficients, entry k that of ``diff(variables[k])``; one gather."""
        if self.order == 0:
            raise JetShapeError("cannot differentiate an order-0 jet")
        src, fac = self.ctx.grad_table(variables)
        return Jet(context(self.num_vars, self.order - 1), self.data[..., src] * fac,
                   self.support)

    # -- composition with univariate analytic functions -----------------------

    def _compose(self, coefs: list) -> "Jet":
        """Evaluate sum_k coefs[k] * (self - value)^k by Horner's rule.

        Each product by self - value is ``centered``: it leaves out the pairs
        that read that jet's value coefficient, a zero by construction.  On
        finite data they add exact zeros, so the bits are those of the plain
        product; where a Taylor coefficient overflowed they would add
        inf * 0 = NaN.  So the value is coefs[0] itself, and the truncation of
        a composition is the composition at the lower order, bit for bit.
        """
        ctx, data, support = self.ctx, self.data, self.support
        acc = const(coefs[-1], self.num_vars, self.order, shape=data.shape[:-1])
        for k in range(len(coefs) - 2, -1, -1):
            acc = Jet(ctx, _mul_data(ctx, acc.data, data, acc.support, support, True),
                      acc.support | support)
            if k:
                acc = acc + self._coerce(coefs[k])
            else:
                acc.data[..., 0] = coefs[0]
        return acc


# -- constructors --------------------------------------------------------------


def seed(var_index: int, value, num_vars: int, order: int) -> Jet:
    """Jet of the coordinate function x_var about the point where it equals ``value``."""
    if not 0 <= var_index < num_vars:
        raise JetShapeError(f"var_index {var_index} out of range for {num_vars} variables")
    ctx = context(num_vars, order)
    arr = np.asarray(value, dtype=float)
    data = np.zeros(arr.shape + (ctx.ncoeffs,))
    data[..., 0] = arr
    if order >= 1:
        e = [0] * num_vars
        e[var_index] = 1
        data[..., ctx.index(e)] = 1.0
    return Jet(ctx, data, 1 << var_index)


def const(value, num_vars: int, order: int, shape: tuple[int, ...] = ()) -> Jet:
    ctx = context(num_vars, order)
    arr = np.broadcast_to(np.asarray(value, dtype=float), shape) if shape else np.asarray(value, dtype=float)
    data = np.zeros(arr.shape + (ctx.ncoeffs,))
    data[..., 0] = arr
    return Jet(ctx, data, 0)


def zeros(shape: tuple[int, ...], num_vars: int, order: int) -> Jet:
    ctx = context(num_vars, order)
    return Jet(ctx, np.zeros(shape + (ctx.ncoeffs,)), 0)


# -- elementary functions -------------------------------------------------------
#
# Each ``_<name>_coefs(c0, order)`` gives the Taylor coefficients f^(k)(c0)/k!,
# k = 0 .. order, about the constant terms ``c0`` (an array), and raises
# JetDomainError outside the function's domain.  ``Jet._compose`` sums them.


def _reciprocal_coefs(c0, order: int) -> list:
    if np.any(c0 == 0.0):
        raise JetDomainError("division by a jet with zero constant term")
    return [(-1.0) ** k / c0 ** (k + 1) for k in range(order + 1)]


def _sin_coefs(c0, order: int) -> list:
    cycle = [np.sin(c0), np.cos(c0), -np.sin(c0), -np.cos(c0)]
    return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]


def _cos_coefs(c0, order: int) -> list:
    cycle = [np.cos(c0), -np.sin(c0), -np.cos(c0), np.sin(c0)]
    return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]


def _exp_coefs(c0, order: int) -> list:
    e0 = np.exp(c0)
    return [e0 / math.factorial(k) for k in range(order + 1)]


def _sqrt_coefs(c0, order: int) -> list:
    if np.any(c0 <= 0.0):
        raise JetDomainError("sqrt of a jet with non-positive constant term")
    coefs = []
    binom = 1.0
    for k in range(order + 1):
        coefs.append(binom * c0 ** (0.5 - k))
        binom *= (0.5 - k) / (k + 1)
    return coefs


TAYLOR_COEFS = {"reciprocal": _reciprocal_coefs, "sin": _sin_coefs, "cos": _cos_coefs,
                "exp": _exp_coefs, "sqrt": _sqrt_coefs}


def sin(a: Jet) -> Jet:
    return a._compose(_sin_coefs(a.data[..., 0], a.order))


def cos(a: Jet) -> Jet:
    return a._compose(_cos_coefs(a.data[..., 0], a.order))


def exp(a: Jet) -> Jet:
    return a._compose(_exp_coefs(a.data[..., 0], a.order))


def sqrt(a: Jet) -> Jet:
    return a._compose(_sqrt_coefs(a.data[..., 0], a.order))


def binary_power(base, n: int, mul):
    """base^n for n >= 1 by binary powering, every product taken by ``mul``."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        base = mul(base, base) if n > 1 else base
        n >>= 1
    return result


def pow_int(a: Jet, n: int) -> Jet:
    if not isinstance(n, (int, np.integer)):
        raise JetDomainError("pow_int exponent must be an integer")
    n = int(n)
    if n < 0:
        return pow_int(a.reciprocal(), -n)
    if n == 0:
        return const(1.0, a.num_vars, a.order, shape=a.data.shape[:-1])
    return binary_power(a, n, operator.mul)


# -- two-operand einsum over batch axes ------------------------------------------


class _EinsumPlan(NamedTuple):
    """One ``jet_einsum`` call's bookkeeping, cached per (subscripts, shapes, context)."""

    perm_a: tuple[int, ...]        # from ``a`` to (coefficient, batch, left, contracted)
    perm_b: tuple[int, ...]        # from ``b`` to (coefficient, batch, contracted, right)
    zero_a: np.ndarray             # the all-zero row appended to each coefficient-first copy
    zero_b: np.ndarray
    rows_a: tuple[int, ...]        # (coefficient, pair, batch, left, contracted) of the row gather
    rows_b: tuple[int, ...]        # (coefficient, pair, batch, contracted, right)
    mat_a: tuple[int, int, int, int]  # (coefficient, batch, left, pairs * contracted)
    mat_b: tuple[int, int, int, int]  # (coefficient, batch, pairs * contracted, right)
    grouped: tuple[int, ...]       # coefficient, batch, left and right dimensions
    perm_out: tuple[int, ...]      # from ``grouped`` to (*out, coefficient)


@lru_cache(maxsize=4096)
def _einsum_plan(subscripts: str, shape_a: tuple[int, ...], shape_b: tuple[int, ...],
                 ctx: JetContext) -> _EinsumPlan:
    try:
        lhs, out = subscripts.replace(" ", "").split("->")
        s1, s2 = lhs.split(",")
    except ValueError:
        raise JetShapeError(f"subscripts {subscripts!r} are not of the form 'ab,bc->ac'") from None
    if len(s1) != len(shape_a) or len(s2) != len(shape_b):
        raise JetShapeError(f"subscripts {subscripts!r} do not match operand shapes")
    for letters in (s1, s2, out):
        if len(set(letters)) != len(letters):
            raise JetShapeError(f"repeated index within one term of {subscripts!r}")
    dims: dict[str, int] = {}
    for letters, shape in ((s1, shape_a), (s2, shape_b)):
        for letter, dim in zip(letters, shape):
            if dims.setdefault(letter, dim) != dim:
                raise JetShapeError(f"dimension mismatch for index {letter!r}")
    if not set(out) <= dims.keys():
        raise JetShapeError(f"output of {subscripts!r} names an index no operand has")
    for letter in s1 + s2:
        if letter not in out and (letter in s1) != (letter in s2):
            raise JetShapeError(f"index {letter!r} of {subscripts!r} is in one operand only "
                                "and not in the output; sum it out of that operand first")

    batch = [x for x in out if x in s1 and x in s2]
    left = [x for x in out if x in s1 and x not in s2]
    right = [x for x in out if x in s2 and x not in s1]
    contracted = [x for x in s1 if x in s2 and x not in out]
    nb, nl, nc, nr = (math.prod(dims[x] for x in xs) for xs in (batch, left, contracted, right))

    width = ctx.mul_padded()[0].shape[1]
    grouped = batch + left + right
    return _EinsumPlan(
        perm_a=(len(s1),) + tuple(s1.index(x) for x in batch + left + contracted),
        perm_b=(len(s2),) + tuple(s2.index(x) for x in batch + contracted + right),
        zero_a=np.zeros((1,) + tuple(dims[x] for x in batch + left + contracted)),
        zero_b=np.zeros((1,) + tuple(dims[x] for x in batch + contracted + right)),
        rows_a=(ctx.ncoeffs, width, nb, nl, nc),
        rows_b=(ctx.ncoeffs, width, nb, nc, nr),
        mat_a=(ctx.ncoeffs, nb, nl, width * nc),
        mat_b=(ctx.ncoeffs, nb, width * nc, nr),
        grouped=(ctx.ncoeffs,) + tuple(dims[x] for x in grouped),
        perm_out=tuple(1 + grouped.index(x) for x in out) + (0,),
    )


def jet_einsum(subscripts: str, a: Jet, b: Jet) -> Jet:
    """einsum-style contraction of two batched jets, e.g. ``'ir,rjk->ijk'``.

    Repeated letters are contracted by summation; the coefficient axis is
    convolved (truncated product).  Only the two-operand form is supported,
    no letter may repeat within one term, and a letter that only one operand
    carries must be in the output.

    One ``np.matmul`` makes every output coefficient: letters shared by both
    operands and the output form its batch axis, the free letters of ``a`` its
    rows, those of ``b`` its columns, and its inner axis runs over the
    coefficient's row of ``ctx.mul_padded()`` times the contracted letters.
    """
    a, b = a._align(b)
    plan = _einsum_plan(subscripts, a.shape, b.shape, a.ctx)
    ka, kb = a.ctx.mul_padded()
    # Coefficient-first copies with an all-zero row at index ncoeffs, so that a
    # padding pair adds 0 * 0; pair j of contracted entry c is inner index j * nc + c.
    ga = np.concatenate((a.data.transpose(plan.perm_a), plan.zero_a)).take(ka, axis=0)
    gb = np.concatenate((b.data.transpose(plan.perm_b), plan.zero_b)).take(kb, axis=0)
    out = np.matmul(ga.reshape(plan.rows_a).transpose(0, 2, 3, 1, 4).reshape(plan.mat_a),
                    gb.reshape(plan.rows_b).transpose(0, 2, 1, 3, 4).reshape(plan.mat_b))
    return Jet(a.ctx, out.reshape(plan.grouped).transpose(plan.perm_out))

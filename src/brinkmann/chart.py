"""Brinkmann-chart metric specifications and first-layer derived objects.

A chart stores the data of the normal form

    g = -2 du (dv + H du + W_i dx^i) + g_ij dx^i dx^j,      i,j = 2 .. n-1,

with H, W_i and g_ij given as expression trees in (u, x^2 .. x^{n-1}).
Nothing may depend on v.  All evaluation happens through jets, so every
partial derivative used by the curvature formulas is exact.

Index conventions used throughout the package:

* coordinate order is (u, v, x^2, ..., x^{n-1});
* "leaf" indices label the spacelike directions x^2 .. x^{n-1} and are
  stored 0-based (array slot k corresponds to x^{k+2});
* jet variables are (u, x^2, ..., x^{n-1}) in that order, so jet variable
  0 is u and jet variable 1+k is leaf direction k;
* the partly null frame is E_0 = d_u - H d_v, E_1 = d_v,
  E_i = d_i - W_i d_v, with dual theta^0 = du,
  theta^1 = dv + H du + W_j dx^j, theta^i = dx^i.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
# The LAPACK gufuncs that np.linalg.inv and np.linalg.cholesky call, with the same
# signature "d->d" and so the same bits, without the wrappers' per-call checks.  A
# failure comes back NaN throughout with the invalid flag set, so every caller holds
# an np.errstate for it; none is called on a 0 x 0 matrix.
from numpy.linalg._umath_linalg import cholesky_lo, inv

from . import expr, jets
from .expr import ExprAst
from .jets import Jet, jet_einsum

__all__ = [
    "MetricSpec",
    "ChartPoint",
    "ChartJets",
    "FrameData",
    "MetricDefinitenessError",
    "eval_metric",
    "metric_coefficients",
    "compute_h_t",
    "christoffel_bar",
    "frame_components",
    "jet_matrix_inverse",
    "node_blocks",
    "first_failing_node",
    "NODE_BLOCK",
    "FRAME_BLOCKS",
]

PIVOT_RATIO = 1e-10  # smallest/largest Cholesky pivot allowed for the leaf metric
# Points per stacked metric, oracle or engine call, which bounds the memory of a
# stack: a 64-node engine stack at order 4 and depth 2 allocates at most 51 MB
# at once on cw6_order2 (leaf dimension 4) and 2.5 MB on cw4_order2.
NODE_BLOCK = 64
# The bytes of the last one-point leaf metric that passed ``_check_leaf_metric``: its
# verdict depends on them only, and whatever any thread writes here has passed.
_passed_leaf_metric: bytes | None = None


class MetricDefinitenessError(ValueError):
    """The leaf metric g_ij failed to be positive definite at a sample point."""


def _delta(i: int, j: int) -> ExprAst:
    return expr.Num(1.0 if i == j else 0.0)


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """A stack of N >= 1 chart points; v is omitted since nothing depends on it.

    u is a 1-D array of length N, and each x coordinate is broadcast to its
    shape; a float u is read as a stack of one point.  ``eval_metric``, the
    oracle and the engine evaluate a stack in one call and give every result
    a leading node axis.
    """

    u: np.ndarray
    x: tuple[np.ndarray, ...]

    def __post_init__(self):
        u0 = np.atleast_1d(np.asarray(self.u, dtype=float))
        u, *x = np.broadcast_arrays(u0, *(np.asarray(c, dtype=float) for c in self.x))
        if u.ndim != 1 or u.shape != u0.shape or not len(u):
            raise ValueError("a stack of chart points needs a non-empty 1-D u and x of its shape")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "x", tuple(x))
        if not all(np.isfinite(c).all() for c in self.coords):
            raise ValueError("chart point has non-finite coordinates")

    def __len__(self) -> int:
        return len(self.u)

    @property
    def coords(self) -> tuple[np.ndarray, ...]:
        return (self.u,) + self.x

    def at(self, k: int) -> tuple[float, ...]:
        """The chart coordinates (u, x2, ..) of point k, as floats."""
        return tuple(float(c[k]) for c in self.coords)

    def rows(self, rows: slice) -> "ChartPoint":
        """The sub-stack ``rows``."""
        return ChartPoint(self.u[rows], tuple(c[rows] for c in self.x))


def node_blocks(p: ChartPoint):
    """(rows, p.rows(rows)) for each slice ``rows`` of ``NODE_BLOCK`` points of p."""
    for start in range(0, len(p), NODE_BLOCK):
        rows = slice(start, start + NODE_BLOCK)
        yield rows, p.rows(rows)


def first_failing_node(p: ChartPoint, evaluate):
    """``evaluate(p)``.  When that raises a ValueError, the error is the one
    ``evaluate`` raises on the one-point stack of the first node that fails,
    so a batch reports exactly what a loop over its nodes would."""
    try:
        return evaluate(p)
    except ValueError:
        for k in range(len(p)):
            evaluate(p.rows(slice(k, k + 1)))
        raise


def _where(p: ChartPoint) -> tuple:
    """The coordinates an error at p names: floats for one point, the
    coordinate arrays for a larger stack (whose error ``first_failing_node``
    replaces by its first failing node's)."""
    return p.at(0) if len(p) == 1 else p.coords


@dataclass(frozen=True)
class MetricSpec:
    """Dimension plus expression trees for H, W_i and the symmetric g_ij.

    ``box`` holds one (lo, hi) interval per jet variable (u first, then the
    leaf coordinates); samples are always drawn inside it, which is how
    chart singularities of user metrics (poles of a sphere block, say) are
    avoided.
    """

    n: int
    H: ExprAst
    W: tuple[ExprAst, ...]
    g: tuple[tuple[ExprAst, ...], ...]
    box: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        m = self.m
        if len(self.W) != m:
            raise ValueError(f"expected {m} W components, got {len(self.W)}")
        if len(self.g) != m or any(len(row) != m for row in self.g):
            raise ValueError("g must be an (n-2) x (n-2) expression matrix")
        for i in range(m):
            for j in range(m):
                if self.g[i][j] != self.g[j][i]:
                    raise ValueError("g expression matrix must be stored symmetric")
        if not self.box:
            object.__setattr__(self, "box", tuple((-1.0, 1.0) for _ in range(self.n - 1)))
        if len(self.box) != self.n - 1:
            raise ValueError("box must give one interval per coordinate (u and each x)")

    @property
    def m(self) -> int:
        """Leaf dimension n - 2."""
        return self.n - 2

    @property
    def num_vars(self) -> int:
        return self.n - 1

    @staticmethod
    def from_text(n: int, H: str | ExprAst | None = None,
                  W: dict[int, str | ExprAst] | None = None,
                  g: dict[tuple[int, int], str | ExprAst] | None = None,
                  box: Sequence[tuple[float, float]] | None = None) -> "MetricSpec":
        """Build a spec from expression texts or trees; H and W default to 0, g to delta.

        W and g keys use chart labels (2 .. n-1), not 0-based slots.
        """
        def field(value: str | ExprAst | None) -> ExprAst:
            return expr.parse(value, n) if isinstance(value, str) else value or expr.Num(0.0)
        m = n - 2
        W_asts = tuple(field((W or {}).get(i + 2)) for i in range(m))
        g_entries = {frozenset((a - 2, b - 2)): field(value) for (a, b), value in (g or {}).items()}
        return MetricSpec(
            n=n,
            H=field(H),
            W=W_asts,
            g=tuple(tuple(g_entries.get(frozenset((i, j)), _delta(i, j)) for j in range(m))
                    for i in range(m)),
            box=tuple(box) if box is not None else (),
        )

    @functools.cached_property
    def tape(self) -> expr.Tape:
        """H, W_i and g_ij (row-major) compiled into one tape on first use."""
        return expr.Tape([self.H, *self.W, *(e for row in self.g for e in row)])

    def field_name(self, output: int) -> str:
        """Chart label of tape output ``output``: H, W_i or g_ij."""
        m = self.m
        if output == 0:
            return "H"
        if output <= m:
            return f"W_{output + 1}"
        i, j = divmod(output - 1 - m, m)
        return f"g_{i + 2}{j + 2}"

    def center(self) -> ChartPoint:
        """The box center, as a stack of one point."""
        mids = [(lo + hi) / 2.0 for lo, hi in self.box]
        return ChartPoint(mids[0], tuple(mids[1:]))


# -- metric evaluation -----------------------------------------------------------


@dataclass
class ChartJets:
    """Jets of all metric functions about each point of a stack; every jet and
    ``ginv0`` has a leading node axis.  ``fields`` is read-only, so jets that
    the engine and the oracle share cannot be written through."""

    spec: MetricSpec
    point: ChartPoint
    order: int
    H: Jet          # (N,)
    W: Jet          # (N, m)
    g: Jet          # (N, m, m)
    ginv0: np.ndarray  # numeric inverse of the degree-0 part
    fields: np.ndarray  # (N, outputs, coefficients): the tape outputs; H, W, g are views

    @functools.cached_property
    def ginv(self) -> Jet:
        """Jet inverse of g at order ``order - 1``, built on first use.

        Its consumers (t, h, the leaf Christoffel symbols and Ricci tensor)
        are all of order ``order - 1`` or lower, so no higher degree is read.
        """
        return jet_matrix_inverse(self.g.truncate(self.order - 1))

    def rows(self, rows: slice, order: int) -> "ChartJets":
        """The jets of the sub-stack ``rows`` at ``order`` (at most ``self.order``),
        cut by ``Jet.truncate``.  They are bit for bit ``eval_metric`` on that
        sub-stack at that order: a node's jets do not depend on the stack, and
        every jet operation sums the same terms for a coefficient at every
        order (``Jet._compose`` leaves out the zero value of self - value)."""
        fields = Jet(self.H.ctx, self.fields[rows]).truncate(order)
        return _chart_jets(self.spec, self.point.rows(rows), fields.ctx, fields.data,
                           self.ginv0[rows])

    @property
    def m(self) -> int:
        return self.spec.m

    @property
    def num_vars(self) -> int:
        return self.spec.num_vars


def _seed_env(spec: MetricSpec, p: ChartPoint, order: int) -> dict[str, Jet]:
    nv = spec.num_vars
    env = {"u": jets.seed(0, p.u, nv, order)}
    for k in range(spec.m):
        env[f"x{k + 2}"] = jets.seed(1 + k, p.x[k], nv, order)
    return env


def jet_matrix_inverse(G: Jet) -> Jet:
    """Inverse of each matrix of a stack of square jet matrices (N, m, m) via
    the truncated Neumann series.

    Writing G = G0 (I - X) with X = -G0^{-1} (G - G0), the correction X has
    zero constant term, hence is nilpotent in the truncated ring and the
    series sum_k X^k terminates at the jet order.
    """
    m = G.shape[-1]
    G0 = G.value()
    G0inv = np.linalg.inv(G0)
    nv, order = G.num_vars, G.order
    product = "Nij,Njk->Nik"
    G0inv_jet = jets.const(G0inv, nv, order)
    X = -jet_einsum(product, G0inv_jet, G - jets.const(G0, nv, order))
    S = jets.const(np.eye(m), nv, order, shape=G.shape)
    for _ in range(order):
        S = jets.const(np.eye(m), nv, order) + jet_einsum(product, X, S)
    return jet_einsum(product, S, G0inv_jet)


def _run_tape(spec: MetricSpec, where: tuple, run):
    """``run()``, with a tape domain error located at its field and the point
    ``where`` (chart coordinates, as ``_where`` gives them)."""
    if len(where) != 1 + spec.m:
        raise ValueError("point dimension does not match the spec")
    try:
        return run()
    except expr.TapeDomainError as err:
        raise jets.JetDomainError(
            f"{err.reason} in {spec.field_name(err.output)} at {where}") from None


def _check_leaf_metric(g0: np.ndarray, where: tuple) -> None:
    """Raise MetricDefinitenessError unless the numeric g_ij is finite and
    positive definite, with its smallest Cholesky pivot above PIVOT_RATIO times
    the largest; ``where`` (chart coordinates) names the point.  A non-finite
    entry is named in chart labels (x2 is leaf index 0).  One point (m, m),
    the transport's compiled-tape path, is tested on Python floats, and passes
    at once if byte-equal to the last one that passed; a stack (N, m, m) is
    tested at once, and ``first_failing_node`` then names the node.  Both
    factor with the raw ``cholesky_lo`` under ``np.errstate(invalid="ignore")``
    (about 1 us) and read a NaN pivot, a failed factorization, as not positive
    definite; an empty leaf (m = 0) passes before any factorization."""
    global _passed_leaf_metric
    if g0.shape[-1] == 0:
        return
    if g0.ndim == 2:
        key = g0.tobytes()
        if key == _passed_leaf_metric:
            return
        m, entries = len(g0), g0.ravel().tolist()
        if not all(map(math.isfinite, entries)):
            i, j = divmod(next(k for k, x in enumerate(entries) if not math.isfinite(x)), m)
            raise MetricDefinitenessError(f"non-finite g_{i + 2}{j + 2} at {where}")
    else:
        finite = np.isfinite(g0)
        if not finite.all():
            i, j = np.argwhere(~finite)[0][-2:]
            raise MetricDefinitenessError(f"non-finite g_{i + 2}{j + 2} at {where}")
    with np.errstate(invalid="ignore"):
        L = cholesky_lo(g0, signature="d->d")
    if g0.ndim == 2:
        pivots = [d * d for d in L.diagonal().tolist()]   # the bits of diagonal ** 2
        failed = any(map(math.isnan, pivots))
    else:
        pivots = np.diagonal(L, axis1=-2, axis2=-1) ** 2
        failed = np.isnan(pivots).any()
    # a NaN compares false, so a failed factorization is refused before the ratio test
    if failed:
        raise MetricDefinitenessError(f"leaf metric not positive definite at {where}")
    if g0.ndim == 2:
        degenerate = min(pivots) <= PIVOT_RATIO * max(pivots)
    else:
        degenerate = (pivots.min(axis=-1) <= PIVOT_RATIO * pivots.max(axis=-1)).any()
    if degenerate:
        raise MetricDefinitenessError(f"leaf metric nearly degenerate at {where}")
    if g0.ndim == 2:
        _passed_leaf_metric = key


def eval_metric(spec: MetricSpec, p: ChartPoint, order: int) -> ChartJets:
    """Jets of H, W_i and g_ij about p, plus the inverse leaf metric's value.

    All fields come from one run of the spec's tape.  Raises
    MetricDefinitenessError when the numeric g_ij at p is not positive
    definite (``_check_leaf_metric``), and JetDomainError naming the field
    and the point when a field leaves the domain of a jet function there
    (a pole, say).

    The tape runs once on jets of batch shape (N,) for the N points of p:
    every jet and ``ginv0`` has a leading node axis (a field that is
    constant on the tape is broadcast to it), and a failure raises the error
    of the first failing node (``first_failing_node``).
    """
    return first_failing_node(p, lambda q: _eval_metric(spec, q, order))


def _eval_metric(spec: MetricSpec, p: ChartPoint, order: int) -> ChartJets:
    nv, m = spec.num_vars, spec.m
    where = _where(p)
    fields = _run_tape(spec, where, lambda: expr.eval_jet(
        spec.tape, _seed_env(spec, p, order), nv, order))
    ctx = fields[0].ctx
    # a field constant on the tape has no node axis yet
    data = np.stack([np.broadcast_to(f.data, (len(p), ctx.ncoeffs)) for f in fields], axis=1)
    g0 = data[:, 1 + m:, 0].reshape(len(p), m, m)
    _check_leaf_metric(g0, where)
    return _chart_jets(spec, p, ctx, data, np.linalg.inv(g0))


def _chart_jets(spec: MetricSpec, p: ChartPoint, ctx: jets.JetContext, fields: np.ndarray,
                ginv0: np.ndarray) -> ChartJets:
    """The ``ChartJets`` of the tape outputs ``fields`` (N, outputs, coefficients),
    made read-only, with H, W and g as views of them."""
    m = spec.m
    fields.flags.writeable = False
    H, W, g = (Jet(ctx, a) for a in (
        fields[:, 0], fields[:, 1:1 + m], fields[:, 1 + m:].reshape(len(p), m, m, ctx.ncoeffs)))
    return ChartJets(spec, p, ctx.order, H, W, g, ginv0, fields)


def metric_coefficients(spec: MetricSpec, point: Sequence[float]) -> np.ndarray:
    """The order-1 jet coefficients of H, W_i and g_ij about a point given by its
    chart coordinates (u, x2, ..) as floats, from the compiled tape.

    Row k holds tape output k (H, then W_i, then g_ij row-major): the value,
    which is also the order-0 value, then the first partials.  The coefficients,
    the checks and the errors are those of ``eval_metric`` at the one-point
    stack ``ChartPoint(point[0], point[1:])``, bit for bit, and no ``ChartPoint``
    is built; a g_ij byte-equal to the last one that passed is not factored again,
    and any other is factored once by the raw ``cholesky_lo`` (``_check_leaf_metric``).
    """
    point, m = tuple(point), spec.m
    if not all(map(math.isfinite, point)):
        raise ValueError("chart point has non-finite coordinates")
    run = spec.tape.compiled(spec.num_vars)
    rows = _run_tape(spec, point, lambda: run(point))
    out = np.fromiter(itertools.chain.from_iterable(rows), float,
                      len(rows) * len(rows[0])).reshape(len(rows), -1)
    _check_leaf_metric(out[1 + m:, 0].reshape(m, m), point)
    return out


# -- first-layer derived objects ---------------------------------------------------


def compute_h_t(cj: ChartJets) -> tuple[Jet, Jet]:
    """The chart's extrinsic data: h_i = H_,i - dW_i/du and
    t_ij = (-dg_ij/du + W_i,j - W_j,i)/2 (the node axis leads, as in ``cj``)."""
    leaf = tuple(range(1, cj.m + 1))
    h = cj.H.grad(leaf) - cj.W.du()
    dW = cj.W.grad(leaf)                                 # dW[..., i, j] = W_i,j
    t = 0.5 * (-cj.g.du() + dW - Jet(dW.ctx, np.swapaxes(dW.data, -3, -2)))
    return h, t


def christoffel_bar(cj: ChartJets) -> Jet:
    """Leaf Christoffel symbols Gamma^i_{jk} of g_ij at fixed u, as jets (the
    node axis leads, as in ``cj``)."""
    dg = cj.g.grad(tuple(range(1, cj.m + 1)))            # dg[..., r, j, k] = g_rj,k
    sym = Jet(dg.ctx, dg.data + np.einsum("...rkjc->...rjkc", dg.data)
              - np.einsum("...jkrc->...rjkc", dg.data))
    # sym[r, j, k] = g_rj,k + g_rk,j - g_jk,r
    return 0.5 * jet_einsum("Nir,Nrjk->Nijk", cj.ginv.truncate(dg.order), sym)


# -- partly null frame -------------------------------------------------------------


# The frame blocks of R (4 slots), its Ricci tensor (2) and scalar (0), nabla R
# (5) and nabla nabla R (6), one dict per depth.  Each key maps to its slot
# signature, one letter per slot of R^a_{bcd} [a, b, c, d, inner derivative,
# outer derivative]: '0' for E_0, '1' for E_1 and 'l' for the leaf E_i.  A
# block's rank is its number of 'l' slots; the rank-0 blocks are (N,) arrays.
FRAME_BLOCKS: tuple[dict[str, str], ...] = (
    {"Rbar": "llll", "A": "1l0l", "B": "1lll", "R_i0k": "ll0l",
     "Ric00": "00", "Ric0i": "0l", "Ricij": "ll", "S": ""},
    {"Atil": "1l0l0", "Ahat": "1l0ll", "Btil": "1lll0", "Bhat": "1llll", "Rtil": "llll0",
     "gradRbar": "lllll"},
    {"ll_rbar": "llllll", "0l_rbar": "lllll0", "l0_rbar": "llll0l", "00_rbar": "llll00",
     "ll_b": "1lllll", "0l_b": "1llll0", "l0_b": "1lll0l", "00_b": "1lll00",
     "ll_a": "1l0lll", "0l_a": "1l0ll0", "l0_a": "1l0l0l", "00_a": "1l0l00"},
)


@dataclass
class FrameData:
    """Change-of-basis matrices between the coordinate basis and {E_alpha} at
    each point of a stack (the node axis leads every array)."""

    n: int
    e: np.ndarray      # e[..., alpha, mu]:   E_alpha = e[alpha, mu] d_mu
    theta: np.ndarray  # theta[..., alpha, mu]: theta^alpha = theta[alpha, mu] dx^mu
    g_leaf: np.ndarray


def frame_components(cj: ChartJets) -> FrameData:
    """The frame and coframe matrices from the values of H and W_i (the node
    axis leads, as in ``cj``)."""
    n = cj.spec.n
    leaf = np.arange(2, n)
    e = np.zeros((len(cj.point), n, n))
    theta = np.zeros((len(cj.point), n, n))
    e[..., 0, 0] = e[..., 1, 1] = theta[..., 0, 0] = theta[..., 1, 1] = 1.0
    e[..., leaf, leaf] = theta[..., leaf, leaf] = 1.0
    H0, W0 = cj.H.value(), cj.W.value()
    e[..., 0, 1] = -H0
    e[..., 2:, 1] = -W0
    theta[..., 1, 0] = H0
    theta[..., 1, 2:] = W0
    return FrameData(n, e, theta, cj.g.value())

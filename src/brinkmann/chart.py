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
    "node_subscripts",
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


class MetricDefinitenessError(ValueError):
    """The leaf metric g_ij failed to be positive definite at a sample point."""


def _delta(i: int, j: int) -> ExprAst:
    return expr.Num(1.0 if i == j else 0.0)


@dataclass(frozen=True)
class ChartPoint:
    """A point of the chart; v is omitted since nothing depends on it.

    With a 1-D array u of length N it is a stack of N points, the x
    coordinates broadcast to u's shape (N,), which is the point's ``shape``
    (``()`` for a single point).  ``eval_metric`` and the oracle evaluate a
    stack in one call and give every result a leading node axis.
    """

    u: float | np.ndarray
    x: tuple[float | np.ndarray, ...]

    def __post_init__(self):
        if not (isinstance(self.u, np.ndarray) and self.u.ndim):
            finite = math.isfinite(self.u) and all(math.isfinite(c) for c in self.x)
        else:
            u, *x = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in self.coords))
            if u.ndim != 1 or u.shape != self.u.shape:
                raise ValueError("a stack of chart points needs a 1-D u and x of its shape")
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "x", tuple(x))
            finite = all(np.isfinite(c).all() for c in self.coords)
        if not finite:
            raise ValueError("chart point has non-finite coordinates")

    @property
    def coords(self) -> tuple:
        return (self.u,) + tuple(self.x)

    @property
    def shape(self) -> tuple[int, ...]:
        """``(N,)`` for a stack of N points, ``()`` for a single point."""
        return self.u.shape if isinstance(self.u, np.ndarray) else ()

    def node(self, k: int) -> "ChartPoint":
        """Point k of a stack, with float coordinates."""
        return ChartPoint(float(self.u[k]), tuple(float(c[k]) for c in self.x))

    def rows(self, rows: slice) -> "ChartPoint":
        """The sub-stack ``rows`` of a stack."""
        return ChartPoint(self.u[rows], tuple(c[rows] for c in self.x))

    @staticmethod
    def stack(points: Sequence["ChartPoint"]) -> "ChartPoint":
        """The single points as one stack, in their order."""
        return ChartPoint(np.array([q.u for q in points]),
                          tuple(np.array(c) for c in zip(*(q.x for q in points))))


def node_blocks(p: ChartPoint):
    """(rows, p.rows(rows)) for each slice ``rows`` of ``NODE_BLOCK`` points of the stack p."""
    for start in range(0, p.shape[0], NODE_BLOCK):
        rows = slice(start, start + NODE_BLOCK)
        yield rows, p.rows(rows)


def first_failing_node(p: ChartPoint, evaluate):
    """``evaluate(p)``.  When p is a stack and that raises a ValueError, the
    error is the one ``evaluate`` raises on its own at the first node that
    fails, so a batch reports exactly what a loop over its nodes would."""
    try:
        return evaluate(p)
    except ValueError:
        for k in range(p.shape[0] if p.shape else 0):
            evaluate(p.node(k))
        raise


def node_subscripts(subscripts: str, nodes: tuple[int, ...]) -> str:
    """``jet_einsum`` subscripts with the node letter N leading every term when
    the operands carry a node axis (``nodes`` is their node shape)."""
    if not nodes:
        return subscripts
    return "N" + subscripts.replace(",", ",N").replace("->", "->N")


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
    def from_text(n: int, H: str = "0", W: dict[int, str] | None = None,
                  g: dict[tuple[int, int], str] | None = None,
                  box: Sequence[tuple[float, float]] | None = None) -> "MetricSpec":
        """Build a spec from expression strings; W defaults to 0, g to delta.

        W and g keys use chart labels (2 .. n-1), not 0-based slots.
        """
        m = n - 2
        W_asts = [expr.parse((W or {}).get(i + 2, "0"), n) for i in range(m)]
        g_entries: dict[tuple[int, int], ExprAst] = {}
        for (a, b), text in (g or {}).items():
            i, j = sorted((a - 2, b - 2))
            g_entries[(i, j)] = expr.parse(text, n)
        g_rows = []
        for i in range(m):
            row = []
            for j in range(m):
                key = (min(i, j), max(i, j))
                row.append(g_entries.get(key, _delta(i, j)))
            g_rows.append(tuple(row))
        return MetricSpec(
            n=n,
            H=expr.parse(H, n),
            W=tuple(W_asts),
            g=tuple(g_rows),
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
        mids = [(lo + hi) / 2.0 for lo, hi in self.box]
        return ChartPoint(mids[0], tuple(mids[1:]))


# -- metric evaluation -----------------------------------------------------------


@dataclass
class ChartJets:
    """Jets of all metric functions about one chart point, or about each point
    of a stack (then every jet and ``ginv0`` has a leading node axis)."""

    spec: MetricSpec
    point: ChartPoint
    order: int
    H: Jet          # scalar
    W: Jet          # (m,)
    g: Jet          # (m, m)
    ginv0: np.ndarray  # numeric inverse of the degree-0 part

    @functools.cached_property
    def ginv(self) -> Jet:
        """Jet inverse of g at order ``order - 1``, built on first use.

        Its consumers (t, h, the leaf Christoffel symbols and Ricci tensor)
        are all of order ``order - 1`` or lower, so no higher degree is read.
        """
        return jet_matrix_inverse(self.g.truncate(self.order - 1))

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
    """Inverse of a square jet matrix (or of each matrix of a stack, node axes
    leading) via the truncated Neumann series.

    Writing G = G0 (I - X) with X = -G0^{-1} (G - G0), the correction X has
    zero constant term, hence is nilpotent in the truncated ring and the
    series sum_k X^k terminates at the jet order.
    """
    nodes, m = G.shape[:-2], G.shape[-1]
    G0 = G.value()
    G0inv = np.linalg.inv(G0)
    nv, order = G.num_vars, G.order
    product = node_subscripts("ij,jk->ik", nodes)
    G0inv_jet = jets.const(G0inv, nv, order)
    X = -jet_einsum(product, G0inv_jet, G - jets.const(G0, nv, order))
    S = jets.const(np.eye(m), nv, order, shape=nodes + (m, m))
    for _ in range(order):
        S = jets.const(np.eye(m), nv, order) + jet_einsum(product, X, S)
    return jet_einsum(product, S, G0inv_jet)


def _run_tape(spec: MetricSpec, p: ChartPoint, run):
    """``run()``, with a tape domain error located at its field and p."""
    if len(p.x) != spec.m:
        raise ValueError("point dimension does not match the spec")
    try:
        return run()
    except expr.TapeDomainError as err:
        raise jets.JetDomainError(
            f"{err.reason} in {spec.field_name(err.output)} at {p.coords}") from None


def _check_leaf_metric(g0: np.ndarray, p: ChartPoint) -> None:
    """Raise MetricDefinitenessError unless the numeric g_ij at p is finite and
    positive definite, with its smallest Cholesky pivot above PIVOT_RATIO times
    the largest.  A non-finite entry is named in chart labels (x2 is leaf index 0).
    A stack is tested at once; ``first_failing_node`` then names the node."""
    finite = np.isfinite(g0)
    if not finite.all():
        i, j = np.argwhere(~finite)[0][-2:]
        raise MetricDefinitenessError(f"non-finite g_{i + 2}{j + 2} at {p.coords}")
    try:
        L = np.linalg.cholesky(g0)
    except np.linalg.LinAlgError:
        raise MetricDefinitenessError(f"leaf metric not positive definite at {p.coords}") from None
    pivots = np.diagonal(L, axis1=-2, axis2=-1) ** 2
    if (pivots.min(axis=-1, initial=np.inf)
            <= PIVOT_RATIO * pivots.max(axis=-1, initial=0.0)).any():
        raise MetricDefinitenessError(f"leaf metric nearly degenerate at {p.coords}")


def eval_metric(spec: MetricSpec, p: ChartPoint, order: int) -> ChartJets:
    """Jets of H, W_i and g_ij about p, plus the inverse leaf metric's value.

    All fields come from one run of the spec's tape.  Raises
    MetricDefinitenessError when the numeric g_ij at p is not positive
    definite (``_check_leaf_metric``), and JetDomainError naming the field
    and the point when a field leaves the domain of a jet function there
    (a pole, say).

    For a stack of N points the tape runs once on jets of batch shape (N,):
    every jet and ``ginv0`` gets a leading node axis (a field that is
    constant on the tape is broadcast to it), and a failure raises the error
    of the first failing node (``first_failing_node``).
    """
    return first_failing_node(p, lambda q: _eval_metric(spec, q, order))


def _eval_metric(spec: MetricSpec, p: ChartPoint, order: int) -> ChartJets:
    nv, m = spec.num_vars, spec.m
    fields = _run_tape(spec, p, lambda: expr.eval_jet(
        spec.tape, _seed_env(spec, p, order), nv, order))
    ctx = fields[0].ctx
    # a field constant on the tape has no node axis yet
    data = np.stack([np.broadcast_to(f.data, p.shape + (ctx.ncoeffs,)) for f in fields], axis=-2)
    H, W, g = (Jet(ctx, a) for a in (
        data[..., 0, :], data[..., 1:1 + m, :],
        data[..., 1 + m:, :].reshape(p.shape + (m, m, ctx.ncoeffs))))
    g0 = g.value()
    _check_leaf_metric(g0, p)
    return ChartJets(spec, p, order, H, W, g, np.linalg.inv(g0))


def metric_coefficients(spec: MetricSpec, p: ChartPoint) -> np.ndarray:
    """The order-1 jet coefficients of H, W_i and g_ij about p, from the compiled tape.

    Row k holds tape output k (H, then W_i, then g_ij row-major): the value,
    which is also the order-0 value, then the first partials.  The coefficients,
    the checks and the errors are those of ``eval_metric``, bit for bit.
    """
    run = spec.tape.compiled(spec.num_vars)
    rows = _run_tape(spec, p, lambda: run(p.coords))
    out = np.fromiter(itertools.chain.from_iterable(rows), float,
                      len(rows) * len(rows[0])).reshape(len(rows), -1)
    m = spec.m
    _check_leaf_metric(out[1 + m:, 0].reshape(m, m), p)
    return out


# -- first-layer derived objects ---------------------------------------------------


def compute_h_t(cj: ChartJets) -> tuple[Jet, Jet]:
    """The chart's extrinsic data: h_i = H_,i - dW_i/du and
    t_ij = (-dg_ij/du + W_i,j - W_j,i)/2 (node axes lead, as in ``cj``)."""
    leaf = tuple(range(1, cj.m + 1))
    h = cj.H.grad(leaf) - cj.W.du()
    dW = cj.W.grad(leaf)                                 # dW[..., i, j] = W_i,j
    t = 0.5 * (-cj.g.du() + dW - Jet(dW.ctx, np.swapaxes(dW.data, -3, -2)))
    return h, t


def christoffel_bar(cj: ChartJets) -> Jet:
    """Leaf Christoffel symbols Gamma^i_{jk} of g_ij at fixed u, as jets (node
    axes lead, as in ``cj``)."""
    dg = cj.g.grad(tuple(range(1, cj.m + 1)))            # dg[..., r, j, k] = g_rj,k
    sym = Jet(dg.ctx, dg.data + np.einsum("...rkjc->...rjkc", dg.data)
              - np.einsum("...jkrc->...rjkc", dg.data))
    # sym[r, j, k] = g_rj,k + g_rk,j - g_jk,r
    return 0.5 * jet_einsum(node_subscripts("ir,rjk->ijk", cj.H.shape),
                            cj.ginv.truncate(dg.order), sym)


# -- partly null frame -------------------------------------------------------------


# The frame blocks of R (4 slots), its Ricci tensor (2) and scalar (0), nabla R
# (5) and nabla nabla R (6), one dict per depth.  Each key maps to its slot
# signature, one letter per slot of R^a_{bcd} [a, b, c, d, inner derivative,
# outer derivative]: '0' for E_0, '1' for E_1 and 'l' for the leaf E_i.  A
# block's rank is its number of 'l' slots; the rank-0 blocks are floats.
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
    """Change-of-basis matrices between the coordinate basis and {E_alpha},
    at one point or at each point of a stack (node axes lead every array)."""

    n: int
    e: np.ndarray      # e[..., alpha, mu]:   E_alpha = e[alpha, mu] d_mu
    theta: np.ndarray  # theta[..., alpha, mu]: theta^alpha = theta[alpha, mu] dx^mu
    g_leaf: np.ndarray

    def frame_metric(self) -> np.ndarray:
        """Inner-product table g(E_alpha, E_beta) implied by the definitions."""
        out = np.zeros(self.e.shape)
        out[..., 0, 1] = out[..., 1, 0] = -1.0
        out[..., 2:, 2:] = self.g_leaf
        return out


def frame_components(cj: ChartJets) -> FrameData:
    """The frame and coframe matrices from the values of H and W_i (node axes
    lead, as in ``cj``)."""
    n, nodes = cj.spec.n, cj.H.shape
    leaf = np.arange(2, n)
    e = np.zeros(nodes + (n, n))
    theta = np.zeros(nodes + (n, n))
    e[..., 0, 0] = e[..., 1, 1] = theta[..., 0, 0] = theta[..., 1, 1] = 1.0
    e[..., leaf, leaf] = theta[..., leaf, leaf] = 1.0
    H0, W0 = cj.H.value(), cj.W.value()
    e[..., 0, 1] = -H0
    e[..., 2:, 1] = -W0
    theta[..., 1, 0] = H0
    theta[..., 1, 2:] = W0
    return FrameData(n, e, theta, cj.g.value())

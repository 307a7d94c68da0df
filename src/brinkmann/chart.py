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
    "compute_h_t",
    "christoffel_bar",
    "frame_components",
    "jet_matrix_inverse",
]

PIVOT_RATIO = 1e-10  # smallest/largest Cholesky pivot allowed for the leaf metric


class MetricDefinitenessError(ValueError):
    """The leaf metric g_ij failed to be positive definite at a sample point."""


def _delta(i: int, j: int) -> ExprAst:
    return expr.Num(1.0 if i == j else 0.0)


@dataclass(frozen=True)
class ChartPoint:
    """A point of the chart; v is omitted since nothing depends on it."""

    u: float
    x: tuple[float, ...]

    def __post_init__(self):
        if not np.isfinite(self.u) or not all(np.isfinite(c) for c in self.x):
            raise ValueError("chart point has non-finite coordinates")

    @property
    def coords(self) -> tuple[float, ...]:
        return (self.u,) + tuple(self.x)


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
    """Jets of all metric functions about one chart point."""

    spec: MetricSpec
    point: ChartPoint
    order: int
    H: Jet          # scalar
    W: Jet          # (m,)
    g: Jet          # (m, m)
    ginv0: np.ndarray  # numeric inverse of the degree-0 part

    @functools.cached_property
    def ginv(self) -> Jet:
        """Jet inverse of g, built on first use."""
        return jet_matrix_inverse(self.g)

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


def _jet_stack(items: list[Jet]) -> Jet:
    ctx = items[0].ctx
    return Jet(ctx, np.stack([j.data for j in items], axis=0))


def jet_matrix_inverse(G: Jet) -> Jet:
    """Inverse of a square jet matrix via the truncated Neumann series.

    Writing G = G0 (I - X) with X = -G0^{-1} (G - G0), the correction X has
    zero constant term, hence is nilpotent in the truncated ring and the
    series sum_k X^k terminates at the jet order.
    """
    m = G.shape[0]
    G0 = G.value().reshape(m, m) if m else np.zeros((0, 0))
    G0inv = np.linalg.inv(G0) if m else G0
    nv, order = G.num_vars, G.order
    G0inv_jet = jets.const(G0inv, nv, order)
    X = -jet_einsum("ij,jk->ik", G0inv_jet, G - jets.const(G0, nv, order))
    S = jets.const(np.eye(m), nv, order)
    for _ in range(order):
        S = jets.const(np.eye(m), nv, order) + jet_einsum("ij,jk->ik", X, S)
    return jet_einsum("ij,jk->ik", S, G0inv_jet)


def eval_metric(spec: MetricSpec, p: ChartPoint, order: int) -> ChartJets:
    """Jets of H, W_i and g_ij about p, plus the inverse leaf metric's value.

    All fields come from one run of the spec's tape.  Raises
    MetricDefinitenessError when the numeric g_ij at p is not positive
    definite (smallest Cholesky pivot below PIVOT_RATIO times the largest),
    and JetDomainError naming the field and the point when a field leaves
    the domain of a jet function there (a pole, say).
    """
    if len(p.x) != spec.m:
        raise ValueError("point dimension does not match the spec")
    nv, m = spec.num_vars, spec.m
    try:
        fields = expr.eval_jet(spec.tape, _seed_env(spec, p, order), nv, order)
    except expr.TapeDomainError as err:
        raise jets.JetDomainError(
            f"{err.reason} in {spec.field_name(err.output)} at {p.coords}") from None
    H = fields[0]
    if m:
        W = _jet_stack(fields[1:1 + m])
        g = Jet(H.ctx, np.stack([f.data for f in fields[1 + m:]]).reshape(m, m, -1))
    else:
        W = jets.zeros((0,), nv, order)
        g = jets.zeros((0, 0), nv, order)
    g0 = g.value().reshape(m, m)
    if m:
        try:
            L = np.linalg.cholesky(g0)
        except np.linalg.LinAlgError:
            raise MetricDefinitenessError(
                f"leaf metric not positive definite at {p.coords}") from None
        pivots = np.diag(L) ** 2
        if pivots.min() <= PIVOT_RATIO * pivots.max():
            raise MetricDefinitenessError(
                f"leaf metric nearly degenerate at {p.coords}")
    return ChartJets(spec, p, order, H, W, g, np.linalg.inv(g0) if m else g0)


# -- first-layer derived objects ---------------------------------------------------


def compute_h_t(cj: ChartJets) -> tuple[Jet, Jet]:
    """The chart's extrinsic data: h_i = H_,i - dW_i/du and
    t_ij = (-dg_ij/du + W_i,j - W_j,i)/2."""
    m = cj.m
    if m == 0:
        nv = cj.num_vars
        return jets.zeros((0,), nv, cj.order - 1), jets.zeros((0, 0), nv, cj.order - 1)
    h = _jet_stack([cj.H.diff(1 + i) for i in range(m)]) - cj.W.du()
    dW = _jet_stack([_jet_stack([cj.W[i].diff(1 + j) for j in range(m)]) for i in range(m)])
    # dW[i, j] = W_i,j
    t = 0.5 * (-cj.g.du() + dW - Jet(dW.ctx, np.swapaxes(dW.data, 0, 1)))
    return h, t


def christoffel_bar(cj: ChartJets) -> Jet:
    """Leaf Christoffel symbols Gamma^i_{jk} of g_ij at fixed u, as jets."""
    m = cj.m
    if m == 0:
        return jets.zeros((0, 0, 0), cj.num_vars, cj.order - 1)
    parts = [cj.g.diff(1 + k) for k in range(m)]  # parts[k][r, j] = g_rj,k
    dg = Jet(parts[0].ctx, np.stack([p.data for p in parts], axis=2))  # [r, j, k]
    sym = Jet(dg.ctx, dg.data + np.einsum("rkjc->rjkc", dg.data) - np.einsum("jkrc->rjkc", dg.data))
    # sym[r, j, k] = g_rj,k + g_rk,j - g_jk,r
    return 0.5 * jet_einsum("ir,rjk->ijk", cj.ginv.truncate(dg.order), sym)


# -- partly null frame -------------------------------------------------------------


@dataclass
class FrameData:
    """Change-of-basis matrices between the coordinate basis and {E_alpha}."""

    n: int
    e: np.ndarray      # e[alpha, mu]:   E_alpha = e[alpha, mu] d_mu
    theta: np.ndarray  # theta[alpha, mu]: theta^alpha = theta[alpha, mu] dx^mu
    g_leaf: np.ndarray

    def frame_metric(self) -> np.ndarray:
        """Inner-product table g(E_alpha, E_beta) implied by the definitions."""
        n = self.n
        out = np.zeros((n, n))
        out[0, 1] = out[1, 0] = -1.0
        out[2:, 2:] = self.g_leaf
        return out


def frame_components(cj: ChartJets) -> FrameData:
    n = cj.spec.n
    m = cj.m
    H0 = cj.H.value()
    W0 = cj.W.value().reshape(m)
    e = np.zeros((n, n))
    theta = np.zeros((n, n))
    e[0, 0] = 1.0
    e[0, 1] = -H0
    e[1, 1] = 1.0
    for i in range(m):
        e[2 + i, 1] = -W0[i]
        e[2 + i, 2 + i] = 1.0
    theta[0, 0] = 1.0
    theta[1, 0] = H0
    theta[1, 1] = 1.0
    for i in range(m):
        theta[1, 2 + i] = W0[i]
        theta[i + 2, i + 2] = 1.0
    return FrameData(n, e, theta, cj.g.value().reshape(m, m))

"""Generators for metric families, products and Brinkmann chart changes.

Chart changes follow the transformation triple for

    u' = u - u0,   v' = v + F(u, x),   x'^i = x'^i(u, x^j):

    H    = H' + dF/du + W'_i dx'^i/du - g'_ij (dx'^i/du)(dx'^j/du) / 2
    W_i  = W'_j dx'^j/dx^i + F_,i
           - g'_jk (dx'^j/dx^i dx'^k/du + dx'^k/dx^i dx'^j/du) / 2
    g_ij = g'_kl dx'^k/dx^i dx'^l/dx^j

applied forward: given a spec written in the primed chart and the map
x'(u, x), they produce the spec in the unprimed chart by symbolic
composition, so no Jacobian inversion is ever needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr
from .chart import MetricSpec
from .expr import Bin, Call, ExprAst, Neg, Num, Pow, Var

__all__ = [
    "CwParams",
    "ChartChange",
    "make_cw",
    "make_product",
    "apply_chart_change",
    "rotation_chart_change",
    "random_affine_change",
    "random_polynomial_spec",
    "fixture",
    "FIXTURE_NAMES",
]


# -- AST utilities (internal: the DSL itself deliberately has no calculus) --------


def simplify(node: ExprAst) -> ExprAst:
    """Constant folding and unit/zero elimination; exact arithmetic only."""
    if isinstance(node, (Num, Var)):
        return node
    if isinstance(node, Neg):
        a = simplify(node.arg)
        if isinstance(a, Num):
            return Num(-a.value)
        if isinstance(a, Neg):
            return a.arg
        return Neg(a)
    if isinstance(node, Pow):
        b = simplify(node.base)
        if node.exponent == 1:
            return b
        if node.exponent == 0:
            return Num(1.0)
        if isinstance(b, Num):
            return Num(b.value ** node.exponent)
        return Pow(b, node.exponent)
    if isinstance(node, Call):
        a = simplify(node.arg)
        if isinstance(a, Num):
            return Num(getattr(math, node.func)(a.value))
        return Call(node.func, a)
    if isinstance(node, Bin):
        a = simplify(node.left)
        b = simplify(node.right)
        an = a if isinstance(a, Num) else None
        bn = b if isinstance(b, Num) else None
        if an is not None and bn is not None and not (node.op == "/" and bn.value == 0.0):
            return Num(expr.eval_scalar(Bin(node.op, an, bn), {}))
        if node.op == "+":
            if an is not None and an.value == 0.0:
                return b
            if bn is not None and bn.value == 0.0:
                return a
        elif node.op == "-":
            if bn is not None and bn.value == 0.0:
                return a
            if an is not None and an.value == 0.0:
                return simplify(Neg(b))
        elif node.op == "*":
            if (an is not None and an.value == 0.0) or (bn is not None and bn.value == 0.0):
                return Num(0.0)
            if an is not None and an.value == 1.0:
                return b
            if bn is not None and bn.value == 1.0:
                return a
        elif node.op == "/":
            if an is not None and an.value == 0.0:
                return Num(0.0)
            if bn is not None and bn.value == 1.0:
                return a
        return Bin(node.op, a, b)
    raise TypeError(f"not an AST node: {node!r}")


def substitute(node: ExprAst, mapping: dict[str, ExprAst]) -> ExprAst:
    if isinstance(node, Num):
        return node
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    if isinstance(node, Neg):
        return Neg(substitute(node.arg, mapping))
    if isinstance(node, Pow):
        return Pow(substitute(node.base, mapping), node.exponent)
    if isinstance(node, Call):
        return Call(node.func, substitute(node.arg, mapping))
    if isinstance(node, Bin):
        return Bin(node.op, substitute(node.left, mapping), substitute(node.right, mapping))
    raise TypeError(f"not an AST node: {node!r}")


def differentiate(node: ExprAst, var: str) -> ExprAst:
    """Symbolic partial derivative (used only to build chart-change data)."""
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0 if node.name == var else 0.0)
    if isinstance(node, Neg):
        return Neg(differentiate(node.arg, var))
    if isinstance(node, Pow):
        db = differentiate(node.base, var)
        return Bin("*", Bin("*", Num(float(node.exponent)), Pow(node.base, node.exponent - 1)), db)
    if isinstance(node, Call):
        da = differentiate(node.arg, var)
        outer = {
            "sin": Call("cos", node.arg),
            "cos": Neg(Call("sin", node.arg)),
            "exp": Call("exp", node.arg),
            "sqrt": Bin("/", Num(0.5), Call("sqrt", node.arg)),
        }[node.func]
        return Bin("*", outer, da)
    if isinstance(node, Bin):
        da = differentiate(node.left, var)
        db = differentiate(node.right, var)
        if node.op in "+-":
            return Bin(node.op, da, db)
        if node.op == "*":
            return Bin("+", Bin("*", da, node.right), Bin("*", node.left, db))
        num = Bin("-", Bin("*", da, node.right), Bin("*", node.left, db))
        return Bin("/", num, Pow(node.right, 2))
    raise TypeError(f"not an AST node: {node!r}")


def _num(c: float) -> ExprAst:
    return Num(float(c))


def _add(terms: list[ExprAst]) -> ExprAst:
    terms = [t for t in terms if not (isinstance(t, Num) and t.value == 0.0)]
    if not terms:
        return Num(0.0)
    out = terms[0]
    for t in terms[1:]:
        out = Bin("+", out, t)
    return out


def _mul(*factors: ExprAst) -> ExprAst:
    out = factors[0]
    for f in factors[1:]:
        out = Bin("*", out, f)
    return out


def _u_poly(coeffs: Sequence[float]) -> ExprAst:
    """Polynomial sum_l coeffs[l] u^l as an AST."""
    terms = []
    for power, c in enumerate(coeffs):
        if c == 0.0:
            continue
        if power == 0:
            terms.append(_num(c))
        elif power == 1:
            terms.append(_mul(_num(c), Var("u")) if c != 1.0 else Var("u"))
        else:
            mono = Pow(Var("u"), power)
            terms.append(_mul(_num(c), mono) if c != 1.0 else mono)
    return _add(terms)


# -- generalized Cahen-Wallach plane waves ------------------------------------------


@dataclass(frozen=True)
class CwParams:
    """Plane-wave data: H = sum_ij P_ij(u) x^i x^j with P a matrix polynomial.

    ``coeffs[l]`` is the degree-l coefficient matrix, so the order of the
    space is len(coeffs) and properness requires coeffs[-1] != 0.
    """

    d: int
    coeffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("total dimension must be at least 2")
        m = self.d - 2
        for P in self.coeffs:
            P = np.asarray(P)
            if P.shape != (m, m):
                raise ValueError(f"coefficient matrices must be {m}x{m}")
            if not np.isfinite(P).all():
                raise ValueError("coefficient matrices must be finite")
            if not np.allclose(P, P.T, atol=0.0):
                raise ValueError("coefficient matrices must be symmetric")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def is_proper(self) -> bool:
        return bool(self.coeffs) and bool(np.any(self.coeffs[-1] != 0.0))

    def P(self, u: float) -> np.ndarray:
        m = self.d - 2
        out = np.zeros((m, m))
        for power, mat in enumerate(self.coeffs):
            out += np.asarray(mat, dtype=float) * u ** power
        return out


def make_cw(params: CwParams, box: Sequence[tuple[float, float]] | None = None) -> MetricSpec:
    """The plane wave -2du(dv + P_ij(u) x^i x^j du) + delta_ij dx^i dx^j."""
    m = params.d - 2
    terms: list[ExprAst] = []
    for i in range(m):
        for j in range(i, m):
            poly = [float(np.asarray(c)[i, j]) * (1.0 if i == j else 2.0) for c in params.coeffs]
            cu = _u_poly(poly)
            if isinstance(cu, Num) and cu.value == 0.0:
                continue
            if i == j:
                terms.append(_mul(cu, Pow(Var(f"x{i + 2}"), 2)))
            else:
                terms.append(_mul(cu, Var(f"x{i + 2}"), Var(f"x{j + 2}")))
    H = simplify(_add(terms))
    return MetricSpec(
        n=params.d,
        H=H,
        W=tuple(Num(0.0) for _ in range(m)),
        g=tuple(tuple(_num(1.0 if i == j else 0.0) for j in range(m)) for i in range(m)),
        box=tuple(box) if box is not None else (),
    )


SPHERE_BOX = (0.3, 2.8)  # colatitude range away from both poles


def make_product(base: MetricSpec, block: str, radius: float = 1.0, k: int = 2) -> MetricSpec:
    """Append a Riemannian block (sphere, hyperbolic or euclidean) to the leaf.

    Sphere and hyperbolic blocks are 2-dimensional in polar-style
    coordinates; ``k`` only applies to euclidean blocks.
    """
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    if block not in ("sphere", "hyperbolic", "euclidean"):
        raise ValueError(f"unknown block kind {block!r}")
    extra = k if block == "euclidean" else 2
    m_old = base.m
    n_new = base.n + extra
    m_new = m_old + extra
    W = tuple(base.W) + tuple(Num(0.0) for _ in range(extra))
    g_rows = []
    for i in range(m_new):
        row = []
        for j in range(m_new):
            if i < m_old and j < m_old:
                row.append(base.g[i][j])
            elif i == j:
                row.append(_num(1.0))
            else:
                row.append(_num(0.0))
        g_rows.append(row)
    box = list(base.box) + [(-1.0, 1.0)] * extra
    if block in ("sphere", "hyperbolic"):
        a = m_old  # first appended slot
        colat = Var(f"x{a + 2}")
        g_rows[a][a] = _num(radius ** 2)
        if block == "sphere":
            profile = Call("sin", colat)
        else:
            # sinh via exp, since the DSL keeps its function set minimal
            profile = Bin("/", Bin("-", Call("exp", colat), Call("exp", Neg(colat))), Num(2.0))
        g_rows[a + 1][a + 1] = simplify(_mul(_num(radius ** 2), Pow(profile, 2)))
        box[1 + a] = SPHERE_BOX
    return MetricSpec(
        n=n_new,
        H=base.H,
        W=W,
        g=tuple(tuple(row) for row in g_rows),
        box=tuple(box),
    )


# -- chart changes -------------------------------------------------------------------


@dataclass(frozen=True)
class ChartChange:
    """Data of a chart change: v shift F, maps x'^i(u, x^j) and a u shift."""

    F: ExprAst
    x_maps: tuple[ExprAst, ...]
    u_shift: float = 0.0


def apply_chart_change(spec: MetricSpec, change: ChartChange,
                       box: Sequence[tuple[float, float]] | None = None) -> MetricSpec:
    """Rewrite ``spec`` (read as the primed chart) in the unprimed chart.

    The resulting spec evaluates the primed expressions at u' = u - u0 and
    x' = x'(u, x), so the new admissible box must map into the old domain;
    it defaults to the old box, which is right for volume-preserving maps
    like rotations with small translations.
    """
    m = spec.m
    if len(change.x_maps) != m:
        raise ValueError("chart change needs one map per leaf coordinate")
    sub: dict[str, ExprAst] = {"u": Bin("-", Var("u"), Num(change.u_shift))
                               if change.u_shift else Var("u")}
    for i in range(m):
        sub[f"x{i + 2}"] = change.x_maps[i]

    def composed(node: ExprAst) -> ExprAst:
        return simplify(substitute(node, sub))

    Hp = composed(spec.H)
    Wp = [composed(w) for w in spec.W]
    gp = [[composed(spec.g[i][j]) for j in range(m)] for i in range(m)]
    xdot = [simplify(differentiate(xm, "u")) for xm in change.x_maps]
    jac = [[simplify(differentiate(change.x_maps[j], f"x{i + 2}")) for i in range(m)]
           for j in range(m)]  # jac[j][i] = dx'^j / dx^i

    H_terms: list[ExprAst] = [Hp, simplify(differentiate(change.F, "u"))]
    for j in range(m):
        H_terms.append(simplify(_mul(Wp[j], xdot[j])))
    for j in range(m):
        for l in range(m):
            H_terms.append(simplify(_mul(Num(-0.5), gp[j][l], xdot[j], xdot[l])))
    H = simplify(_add(H_terms))

    W_new: list[ExprAst] = []
    for i in range(m):
        terms = [simplify(_mul(Wp[j], jac[j][i])) for j in range(m)]
        terms.append(simplify(differentiate(change.F, f"x{i + 2}")))
        for j in range(m):
            for l in range(m):
                terms.append(simplify(_mul(Num(-0.5), gp[j][l],
                                           Bin("+", _mul(jac[j][i], xdot[l]),
                                               _mul(jac[l][i], xdot[j])))))
        W_new.append(simplify(_add(terms)))

    g_new = [[Num(0.0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            terms = []
            for k in range(m):
                for l in range(m):
                    terms.append(simplify(_mul(gp[k][l], jac[k][i], jac[l][j])))
            g_new[i][j] = g_new[j][i] = simplify(_add(terms))

    out = MetricSpec(
        n=spec.n,
        H=H,
        W=tuple(W_new),
        g=tuple(tuple(row) for row in g_new),
        box=tuple(box) if box is not None else spec.box,
    )
    _check_jacobian(out, change, spec)
    return out


def _check_jacobian(new_spec: MetricSpec, change: ChartChange, old_spec: MetricSpec) -> None:
    m = new_spec.m
    if m == 0:
        return
    for frac in (0.25, 0.5, 0.75):
        env = {"u": new_spec.box[0][0] + frac * (new_spec.box[0][1] - new_spec.box[0][0])}
        for k in range(m):
            lo, hi = new_spec.box[1 + k]
            env[f"x{k + 2}"] = lo + frac * (hi - lo)
        J = np.array([[expr.eval_scalar(differentiate(change.x_maps[j], f"x{i + 2}"), env)
                       for i in range(m)] for j in range(m)])
        if abs(np.linalg.det(J)) < 1e-10:
            raise ValueError("chart change has a numerically singular Jacobian in the box")


def rotation_chart_change(spec: MetricSpec, plane: tuple[int, int], omega: float,
                          translation: dict[int, ExprAst] | None = None,
                          F: ExprAst | None = None) -> ChartChange:
    """x' = R(omega u) x + D(u) rotating two leaf slots, identity elsewhere.

    ``plane`` uses 0-based leaf slots; ``translation`` maps a leaf slot to
    an AST D(u).
    """
    m = spec.m
    a, b = plane
    theta = simplify(_mul(_num(omega), Var("u")))
    maps: list[ExprAst] = []
    for i in range(m):
        xi = Var(f"x{i + 2}")
        if i == a:
            node = Bin("-", _mul(Call("cos", theta), xi), _mul(Call("sin", theta), Var(f"x{b + 2}")))
        elif i == b:
            node = Bin("+", _mul(Call("sin", theta), Var(f"x{a + 2}")), _mul(Call("cos", theta), xi))
        else:
            node = xi
        if translation and i in translation:
            node = Bin("+", node, translation[i])
        maps.append(simplify(node))
    return ChartChange(F=F if F is not None else Num(0.0), x_maps=tuple(maps))


AFFINE_TRANSLATION_SCALE = 0.1


def random_affine_change(spec: MetricSpec, rng: np.random.Generator) -> ChartChange:
    """Random constant rotation of all leaf coordinates plus a small translation.

    Draws the rotation, then the translation (scale AFFINE_TRANSLATION_SCALE).
    """
    m = spec.m
    M = np.linalg.qr(rng.normal(size=(m, m)))[0] if m else np.zeros((0, 0))
    d = rng.normal(scale=AFFINE_TRANSLATION_SCALE, size=m)
    maps = tuple(
        simplify(_add([_mul(_num(M[row, col]), Var(f"x{col + 2}")) for col in range(m)]
                      + [_num(d[row])]))
        for row in range(m))
    return ChartChange(F=Num(0.0), x_maps=maps)


# -- random polynomial specs ----------------------------------------------------------


def random_polynomial_spec(seed: int, n: int = 4, amplitude: float = 0.05) -> MetricSpec:
    """A generic analytic spec: low-degree random polynomials, g near delta.

    Amplitudes are kept small enough that g stays positive definite on the
    default box.
    """
    rng = np.random.default_rng(seed)
    m = n - 2
    names = ["u"] + [f"x{i + 2}" for i in range(m)]

    def poly(scale: float) -> ExprAst:
        terms: list[ExprAst] = []
        for a in names:
            for b in names:
                c = rng.normal(scale=scale)
                terms.append(_mul(_num(round(c, 6)), Var(a), Var(b)))
        for a in names:
            terms.append(_mul(_num(round(rng.normal(scale=scale), 6)), Var(a)))
        return simplify(_add(terms))

    H = poly(amplitude)
    W = tuple(poly(amplitude) for _ in range(m))
    g_rows = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            entry = poly(amplitude / 2)
            if i == j:
                entry = simplify(Bin("+", Num(1.0), entry))
            g_rows[i][j] = g_rows[j][i] = entry
    return MetricSpec(
        n=n,
        H=H,
        W=W,
        g=tuple(tuple(row) for row in g_rows),
        box=tuple(((-0.8, 0.8),) * (n - 1)),
    )


# -- named fixtures --------------------------------------------------------------------


def _cw4_r2_params() -> CwParams:
    return CwParams(4, (np.diag([0.0, 1.0]), np.diag([1.0, 0.0])))


def fixture(name: str) -> MetricSpec:
    """Bundled metrics used by the test suite and the CLI examples."""
    if name == "flat":
        return MetricSpec.from_text(4)
    if name == "cw2":
        return make_cw(CwParams(2, ()))
    if name == "cw4_r1":
        return make_cw(CwParams(4, (np.diag([1.0, -1.0]),)))
    if name == "cw4_r2":
        return make_cw(_cw4_r2_params())
    if name == "cw4_r3":
        return make_cw(CwParams(4, (np.diag([0.0, 1.0]), np.zeros((2, 2)), np.diag([1.0, 0.0]))))
    if name == "cw6_r2":
        P0 = np.array([[0.5, 0.1, 0.0, 0.0], [0.1, -0.3, 0.0, 0.0],
                       [0.0, 0.0, 0.2, 0.0], [0.0, 0.0, 0.0, 0.0]])
        P1 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.2, 0.0],
                       [0.0, 0.2, 0.5, 0.0], [0.0, 0.0, 0.0, 0.25]])
        return make_cw(CwParams(6, (P0, P1)))
    if name == "cw4_r2_x_sphere":
        return make_product(fixture("cw4_r2"), "sphere", radius=1.0)
    if name == "cw4_r1_x_hyperbolic":
        return make_product(fixture("cw4_r1"), "hyperbolic", radius=1.0)
    if name == "rotation_w":
        return MetricSpec.from_text(4, H="0", W={2: "x3", 3: "-x2"})
    if name == "scrambled_cw4":
        base = fixture("cw4_r2")
        change = rotation_chart_change(
            base, (0, 1), 0.3, translation={0: expr.parse("u^2", 4)})
        return apply_chart_change(base, change, box=((-0.8, 0.8),) * 3)
    if name == "poly1":
        return random_polynomial_spec(1, n=4)
    if name == "poly2":
        return random_polynomial_spec(2, n=5)
    raise KeyError(f"unknown fixture {name!r}")


FIXTURE_NAMES = (
    "flat", "cw4_r1", "cw4_r2", "cw6_r2", "cw4_r2_x_sphere",
    "cw4_r1_x_hyperbolic", "rotation_w", "scrambled_cw4", "poly1", "poly2",
)

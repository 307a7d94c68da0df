"""The .metric definition file: line-oriented key = value with [sections].

Example::

    # plane wave, H convention: g = -2 du (dv + H du + W_i dx^i) + g_ij dx^i dx^j
    schema = 1

    [metric]
    dimension = 4
    H = "u*x2^2 + x3^2"
    W2 = "0"              # defaults to 0
    g22 = "1"             # defaults to the Kronecker delta
    g23 = "0"

    [box]
    u = -1 1
    x2 = -1 1

Alternatively a [generator] section replaces the explicit expressions::

    [generator]
    kind = cw
    dimension = 4
    order = 2
    P0 = "0 0; 0 1"
    P1 = "1 0; 0 0"

and repeated [product] sections append Riemannian blocks (kind = sphere |
hyperbolic | euclidean).  A file must use exactly one of the explicit
expressions or the generator for its base block.

Errors carry file:line:col positions; expression syntax errors point at
the offending character inside the quoted string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .chart import MetricSpec
from .spaces import CwParams, make_cw, make_product

__all__ = ["MetricFileError", "MAX_DIMENSION", "check_dimension", "parse_metric_text",
           "parse_matrix", "load_metric_file", "spec_to_text", "generator_to_text"]

HEADER = ("# brinkmann metric definition\n"
          "# convention: g = -2 du (dv + H du + W_i dx^i) + g_ij dx^i dx^j\n")
MAX_DIMENSION = 10  # leaf indices are single digits: g keys run g22 .. g99


def check_dimension(n: int, name: str = "dimension") -> int:
    """``n``, refused unless in 2 .. MAX_DIMENSION, before anything of its size is built."""
    if not 2 <= n <= MAX_DIMENSION:
        raise ValueError(f"{name} must be in 2 .. {MAX_DIMENSION} (leaf indices are single "
                         f"digits), got {n}")
    return n


class MetricFileError(ValueError):
    def __init__(self, message: str, filename: str = "<metric>", line: int = 0, col: int = 0):
        super().__init__(f"{filename}:{line}:{col}: {message}")
        self.filename = filename
        self.line = line
        self.col = col
        self.reason = message


@dataclass
class _Entry:
    value: str
    line: int
    col: int          # column of the value (1-based)
    quoted: bool


def _tokenize_file(text: str, filename: str) -> dict[str, dict[str, _Entry]]:
    sections: dict[str, dict[str, _Entry]] = {"": {}}
    current = ""
    product_count = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise MetricFileError("malformed section header", filename, lineno, 1)
            name = stripped[1:-1].strip().lower()
            if name == "product":
                product_count += 1
                name = f"product:{product_count}"
            if name in sections:
                raise MetricFileError(f"duplicate section [{name}]", filename, lineno, 1)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise MetricFileError("expected key = value", filename, lineno, 1)
        key, _, value = line.partition("=")
        col = line.index("=") + 2 + (len(value) - len(value.lstrip()))
        value = value.strip()
        quoted = False
        if value.startswith('"'):
            if not value.endswith('"') or len(value) < 2:
                raise MetricFileError("unterminated string", filename, lineno, col)
            value = value[1:-1]
            quoted = True
            col += 1
        key = key.strip().lower()
        if key in sections[current]:
            raise MetricFileError(f"duplicate key {key!r}", filename, lineno, col)
        sections[current][key] = _Entry(value, lineno, col, quoted)
    return sections


def parse_matrix(text: str, size: int) -> np.ndarray:
    """The finite symmetric ``size`` x ``size`` matrix written as rows of numbers
    separated by ';'; "" is the 0x0 matrix, which generator_to_text writes for d = 2."""
    text = text.strip()
    try:
        mat = (np.array([[float(x) for x in row.split()] for row in text.split(";")], dtype=float)
               if text else np.zeros((0, 0)))
    except ValueError:
        raise ValueError("malformed matrix (rows of numbers separated by ';')") from None
    if mat.shape != (size, size):
        raise ValueError(f"matrix must be {size}x{size}, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    if not np.allclose(mat, mat.T, atol=0.0):
        raise ValueError("matrix must be symmetric")
    return mat


def _parse_expr(entry: _Entry, n: int, filename: str) -> expr.ExprAst:
    try:
        return expr.parse(entry.value, n)
    except expr.ParseError as err:
        raise MetricFileError(err.reason, filename, entry.line, entry.col + err.offset) from None


def _int(entry: _Entry, filename: str) -> int:
    try:
        return int(entry.value)
    except ValueError:
        raise MetricFileError(f"expected an integer, got {entry.value!r}",
                              filename, entry.line, entry.col) from None


def _dimension(entry: _Entry, filename: str) -> int:
    n = _int(entry, filename)
    try:
        return check_dimension(n)
    except ValueError as err:
        raise MetricFileError(str(err), filename, entry.line, entry.col) from None


def _float(entry: _Entry, filename: str, text: str | None = None) -> float:
    """The finite number ``text`` (by default the entry's value), located at the entry."""
    text = entry.value if text is None else text
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise MetricFileError(f"expected a finite number, got {text!r}", filename, entry.line, entry.col)


def parse_metric_text(text: str, filename: str = "<metric>") -> MetricSpec:
    sections = _tokenize_file(text, filename)
    metric = sections.get("metric", {})
    generator = sections.get("generator")
    explicit_keys = [k for k in metric if k != "dimension"]
    if generator is not None and explicit_keys:
        entry = metric[explicit_keys[0]]
        raise MetricFileError(
            "a file provides either explicit expressions or a [generator], not both",
            filename, entry.line, entry.col)
    if generator is None and "metric" not in sections:
        raise MetricFileError("missing [metric] or [generator] section", filename, 1, 1)

    if generator is not None:
        spec = _expand_generator(generator, filename)
    else:
        if "dimension" not in metric:
            raise MetricFileError("missing dimension", filename, 1, 1)
        n = _dimension(metric["dimension"], filename)
        H = "0"
        W: dict[int, str] = {}
        g: dict[tuple[int, int], str] = {}
        for key, entry in metric.items():
            if key == "dimension":
                continue
            if key == "h":
                H = entry.value
            elif key.startswith("w") and key[1:].isdigit():
                idx = int(key[1:])
                if not 2 <= idx <= n - 1:
                    raise MetricFileError(f"W index {idx} outside 2..{n - 1}",
                                          filename, entry.line, entry.col)
                W[idx] = entry.value
            elif key.startswith("g") and key[1:].isdigit() and len(key) == 3:
                i, j = int(key[1]), int(key[2])
                if not (2 <= i <= n - 1 and 2 <= j <= n - 1):
                    raise MetricFileError(f"g indices {i}{j} outside 2..{n - 1}",
                                          filename, entry.line, entry.col)
                prior = g.get((i, j), g.get((j, i)))
                if prior is not None and prior != entry.value:
                    raise MetricFileError(f"conflicting entries for g{i}{j}/g{j}{i}",
                                          filename, entry.line, entry.col)
                g[(i, j)] = entry.value
            else:
                raise MetricFileError(f"unknown metric key {key!r} (note: leaf indices "
                                      "are single digits, so dimension <= 10)",
                                      filename, entry.line, entry.col)
        # validate and build through the expression parser for positioned errors
        for key, entry in metric.items():
            if key == "dimension":
                continue
            _parse_expr(entry, n, filename)
        try:
            spec = MetricSpec.from_text(n, H=H, W=W, g=g)
        except ValueError as err:
            raise MetricFileError(str(err), filename, 1, 1) from None

    for name in sections:
        if name.startswith("product:"):
            spec = _expand_product(spec, sections[name], filename)

    box_section = sections.get("box", {})
    if box_section:
        names = ["u"] + [f"x{i}" for i in range(2, spec.n)]
        box = list(spec.box)
        for key, entry in box_section.items():
            if key not in names:
                raise MetricFileError(f"unknown box coordinate {key!r}", filename,
                                      entry.line, entry.col)
            parts = entry.value.split()
            if len(parts) != 2:
                raise MetricFileError("box entries are 'lo hi'", filename,
                                      entry.line, entry.col)
            lo, hi = (_float(entry, filename, part) for part in parts)
            if not lo < hi:
                raise MetricFileError("box interval must have lo < hi", filename,
                                      entry.line, entry.col)
            box[names.index(key)] = (lo, hi)
        spec = MetricSpec(spec.n, spec.H, spec.W, spec.g, tuple(box))
    return spec


def _expand_generator(gen: dict[str, _Entry], filename: str) -> MetricSpec:
    kind = gen.get("kind")
    if kind is None or kind.value.lower() != "cw":
        where = kind or _Entry("", 1, 1, False)
        raise MetricFileError("generator kind must be 'cw'", filename, where.line, where.col)
    if "dimension" not in gen or "order" not in gen:
        raise MetricFileError("cw generator needs dimension and order", filename,
                              gen["kind"].line, gen["kind"].col)
    d = _dimension(gen["dimension"], filename)
    r = _int(gen["order"], filename)
    if r < 1:
        raise MetricFileError("order must be >= 1", filename,
                              gen["order"].line, gen["order"].col)
    coeffs = []
    for level in range(r):
        key = f"p{level}"
        if key in gen:
            try:
                coeffs.append(parse_matrix(gen[key].value, d - 2))
            except ValueError as err:
                raise MetricFileError(str(err), filename, gen[key].line, gen[key].col) from None
        else:
            coeffs.append(np.zeros((d - 2, d - 2)))
    return make_cw(CwParams(d, tuple(coeffs)))


def _expand_product(spec: MetricSpec, section: dict[str, _Entry], filename: str) -> MetricSpec:
    kind = section.get("kind")
    if kind is None:
        raise MetricFileError("product section needs a kind", filename, 1, 1)
    name = kind.value.lower()
    radius = _float(section["radius"], filename) if "radius" in section else 1.0
    k = _int(section["k"], filename) if "k" in section else 2
    try:
        return make_product(spec, name, radius=radius, k=k)
    except ValueError as err:
        where = kind if radius > 0.0 else section["radius"]   # make_product tests radius first
        raise MetricFileError(str(err), filename, where.line, where.col) from None


def load_metric_file(path: str) -> MetricSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_metric_text(fh.read(), filename=path)


def spec_to_text(spec: MetricSpec, comment: str | None = None) -> str:
    """Serialize a spec with explicit expressions (defaults omitted)."""
    lines = [HEADER.rstrip()]
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines += ["schema = 1", "", "[metric]", f"dimension = {spec.n}"]
    H = expr.to_text(spec.H)
    if H != "0.0":
        lines.append(f'H = "{H}"')
    for i, w in enumerate(spec.W):
        text = expr.to_text(w)
        if text != "0.0":
            lines.append(f'W{i + 2} = "{text}"')
    for i in range(spec.m):
        for j in range(i, spec.m):
            text = expr.to_text(spec.g[i][j])
            default = "1.0" if i == j else "0.0"
            if text != default:
                lines.append(f'g{i + 2}{j + 2} = "{text}"')
    lines += ["", "[box]"]
    names = ["u"] + [f"x{i}" for i in range(2, spec.n)]
    for name, (lo, hi) in zip(names, spec.box):
        lines.append(f"{name} = {lo:.17g} {hi:.17g}")
    return "\n".join(lines) + "\n"


def generator_to_text(params: CwParams, products: list[tuple[str, float]] | None = None) -> str:
    """Serialize a cw generator (plus optional product blocks) as file text."""
    lines = [HEADER.rstrip(), "schema = 1", "", "[generator]", "kind = cw",
             f"dimension = {params.d}", f"order = {params.order}"]
    for level, mat in enumerate(params.coeffs):
        rows = "; ".join(" ".join(f"{v:.17g}" for v in row) for row in np.asarray(mat))
        lines.append(f'P{level} = "{rows}"')
    for kind, radius in products or []:
        lines += ["", "[product]", f"kind = {kind}", f"radius = {radius:.17g}"]
    return "\n".join(lines) + "\n"

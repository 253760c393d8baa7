"""Domain description language for parametric semialgebraic sets.

A domain is described by a small text format::

    dim 2
    params t in [0.05, 1]
    box [0, 1] x [0, 1]
    set: x > 0 and y > 0 and t*x^2 - y > 0

The ``set:`` formula is an and/or combination of strict polynomial
inequalities over the ambient variables (``x``, ``y``, ``z`` up to the
declared dimension) and the declared parameters.  Only strict relations
are allowed: ``<=``, ``>=`` and ``=`` are rejected, and ``p != q`` is
rewritten to ``(p - q)^2 > 0``.  Coefficients are kept as exact rationals;
evaluation happens in double precision with a Horner order fixed by the
normalizer, so membership tests are bit-reproducible.

Headers may also be written on a single line separated by `` / ``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegreeLimitError,
    MissingBoundingBoxError,
    NonStrictRelationError,
    ParamOutOfRangeError,
    SpecError,
    SpecSyntaxError,
)

AMBIENT_NAMES = ("x", "y", "z")
MAX_TOTAL_DEGREE = 12
_KEYWORDS = {"dim", "params", "box", "set", "in", "and", "or"}

# ---------------------------------------------------------------------------
# polynomial support
# ---------------------------------------------------------------------------

# A polynomial is a dict {exponent tuple -> Fraction}; exponent tuples run
# over ambient variables first, then parameters.


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, Fraction(0)) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _poly_neg(a: dict) -> dict:
    return {k: -v for k, v in a.items()}


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(i + j for i, j in zip(ka, kb))
            s = out.get(k, Fraction(0)) + va * vb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _poly_pow(a: dict, e: int) -> dict:
    nvars = len(next(iter(a))) if a else 0
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(e):
        out = _poly_mul(out, a)
    return out


def _monomial_key(exps: tuple) -> tuple:
    # graded lexicographic, used descending
    return (sum(exps),) + exps


def _compile_horner(coeffs: Sequence[tuple], var: int, nvars: int):
    """Build a nested Horner tree.  Nodes are (var, [(exp, sub), ...]) with
    exponents descending; leaves are plain floats."""
    if not coeffs:
        return 0.0
    if var == nvars:
        return float(coeffs[0][1])
    groups: dict[int, list] = {}
    for exps, c in coeffs:
        groups.setdefault(exps[var], []).append((exps, c))
    items = []
    for e in sorted(groups, reverse=True):
        items.append((e, _compile_horner(groups[e], var + 1, nvars)))
    if len(items) == 1 and items[0][0] == 0:
        return items[0][1]
    return (var, items)


def _eval_horner(node, coords):
    if isinstance(node, float):
        return node
    var, items = node
    xv = coords[var]
    e_prev, acc = items[0][0], _eval_horner(items[0][1], coords)
    for e, sub in items[1:]:
        acc = acc * xv ** (e_prev - e) + _eval_horner(sub, coords)
        e_prev = e
    if e_prev:
        acc = acc * xv**e_prev
    return acc


@dataclass(frozen=True)
class PolyAtom:
    """One strict polynomial inequality ``p > 0`` or ``p < 0``.

    ``coeffs`` maps exponent tuples (ambient variables first, then
    parameters) to rational coefficients; it is stored sorted in descending
    graded-lexicographic order, which also fixes the evaluation order.
    """

    ambient_dim: int
    nvars: int
    coeffs: tuple
    relation: str  # "GT" (p > 0) or "LT" (p < 0)
    _horner: object = field(init=False, repr=False, compare=False, default=None)
    _grad: object = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.relation not in ("GT", "LT"):
            raise SpecError(f"bad relation {self.relation!r}")
        if not self.coeffs:
            raise SpecError("atom polynomial has no nonzero coefficient")
        deg = max(sum(k) for k, _ in self.coeffs)
        if deg > MAX_TOTAL_DEGREE:
            raise DegreeLimitError(
                f"atom total degree {deg} exceeds the limit {MAX_TOTAL_DEGREE}"
            )
        object.__setattr__(
            self, "_horner", _compile_horner(self.coeffs, 0, self.nvars)
        )
        grads = []
        for i in range(self.ambient_dim):
            d: dict = {}
            for exps, c in self.coeffs:
                if exps[i] > 0:
                    k = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
                    d[k] = d.get(k, Fraction(0)) + c * exps[i]
            d = {k: v for k, v in d.items() if v}
            items = sorted(d.items(), key=lambda kv: _monomial_key(kv[0]), reverse=True)
            grads.append(_compile_horner(items, 0, self.nvars))
        object.__setattr__(self, "_grad", tuple(grads))

    @property
    def degree(self) -> int:
        return max(sum(k) for k, _ in self.coeffs)

    def values(self, coords) -> np.ndarray:
        """Evaluate the polynomial; ``coords`` is one array (or scalar) per
        variable, ambient variables first then parameters."""
        v = _eval_horner(self._horner, coords)
        if np.ndim(v) == 0:
            shape = np.broadcast(*[np.asarray(c) for c in coords]).shape
            v = np.broadcast_to(np.float64(v), shape).copy()
        return v

    def truth(self, coords) -> np.ndarray:
        v = self.values(coords)
        return v > 0.0 if self.relation == "GT" else v < 0.0

    def gradient_values(self, coords) -> np.ndarray:
        """Ambient-space gradient, shape ``(ambient_dim,) + point shape``."""
        parts = []
        shape = np.broadcast(*[np.asarray(c) for c in coords]).shape
        for g in self._grad:
            v = _eval_horner(g, coords)
            if np.ndim(v) == 0:
                v = np.broadcast_to(np.float64(v), shape).copy()
            parts.append(v)
        return np.array(parts)

    def value_scale(self, box, param_box) -> float:
        """Crude magnitude bound: sum of |coeff| * box-corner monomial size."""
        mags = [max(abs(lo), abs(hi), 1.0) for lo, hi in list(box) + list(param_box)]
        s = 0.0
        for exps, c in self.coeffs:
            m = abs(float(c))
            for e, mag in zip(exps, mags):
                m *= mag**e
            s += m
        return max(s, 1e-300)

    def poly_string(self, names: Sequence[str]) -> str:
        parts = []
        for exps, c in self.coeffs:
            mono = "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e
            )
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return "-" + text[2:] if text.startswith("- ") else text[2:]


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<NUMBER>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<NAME>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<OP>!=|<=|>=|==|[<>=+\-*/^(),:\[\]])
  | (?P<SKIP>[ \t]+)
  | (?P<NL>\n)
  | (?P<BAD>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    # one-line form: " / " separates headers; only applies before "set:"
    m = re.search(r"\bset\s*:", text)
    head_end = m.start() if m else len(text)
    head = text[:head_end].replace(" / ", "\n")
    text = head + text[head_end:]

    toks: list[_Tok] = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        s = m.group()
        if kind == "NL":
            toks.append(_Tok("NL", s, line, col))
            line += 1
            col = 1
            continue
        if kind == "SKIP":
            col += len(s)
            continue
        if kind == "BAD":
            if s == "#":  # comment to end of line
                rest = text[m.start():]
                eol = rest.find("\n")
                skip = len(rest) if eol < 0 else eol
                col += skip
                continue
            raise SpecSyntaxError(f"unexpected character {s!r}", line, col)
        toks.append(_Tok(kind, s, line, col))
        col += len(s)
    toks.append(_Tok("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# formula tree
# ---------------------------------------------------------------------------

# The formula is nested tuples: ("atom", index), ("and", (children,)),
# ("or", (children,)).  Same-operator nesting is flattened.


def _flatten(op: str, children: Iterable[tuple]) -> tuple:
    flat = []
    for c in children:
        if c[0] == op:
            flat.extend(c[1])
        else:
            flat.append(c)
    if len(flat) == 1:
        return flat[0]
    return (op, tuple(flat))


# ---------------------------------------------------------------------------
# the spec object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainSpec:
    """Immutable parsed domain description."""

    ambient_dim: int
    param_names: tuple
    param_box: tuple  # ((lo, hi), ...) per parameter
    bounding_box: tuple  # ((lo, hi), ...) per ambient axis
    atoms: tuple  # PolyAtom, deduplicated, in order of first appearance
    formula: tuple
    audit_warnings: tuple = field(default=(), compare=False)

    @property
    def var_names(self) -> tuple:
        return AMBIENT_NAMES[: self.ambient_dim] + self.param_names

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def check_params(self, t) -> tuple:
        t = _as_param_tuple(t, len(self.param_names))
        for name, val, (lo, hi) in zip(self.param_names, t, self.param_box):
            if not (lo <= val <= hi):
                raise ParamOutOfRangeError(
                    f"parameter {name}={val} outside [{lo}, {hi}]"
                )
        return t

    def _coords(self, t: tuple, pts: np.ndarray) -> list:
        coords = [pts[..., i] for i in range(self.ambient_dim)]
        coords.extend(np.float64(v) for v in t)
        return coords

    def member_points(self, t, pts: np.ndarray) -> np.ndarray:
        """Vectorized membership for an array of points, shape (..., dim)."""
        t = self.check_params(t)
        pts = np.asarray(pts, dtype=np.float64)
        coords = self._coords(t, pts)
        truths = {}

        def ev(node):
            if node[0] == "atom":
                i = node[1]
                if i not in truths:
                    truths[i] = self.atoms[i].truth(coords)
                return truths[i]
            parts = [ev(c) for c in node[1]]
            out = parts[0]
            for p in parts[1:]:
                out = (out & p) if node[0] == "and" else (out | p)
            return out

        return ev(self.formula)

    def margin_points(self, t, pts: np.ndarray) -> np.ndarray:
        """Signed margin field: min/max composition of atom values, positive
        exactly on the set.  Used for sub-cell boundary interpolation."""
        t = self.check_params(t)
        pts = np.asarray(pts, dtype=np.float64)
        coords = self._coords(t, pts)

        def ev(node):
            if node[0] == "atom":
                a = self.atoms[node[1]]
                v = a.values(coords)
                return v if a.relation == "GT" else -v
            parts = [ev(c) for c in node[1]]
            out = parts[0]
            for p in parts[1:]:
                out = np.minimum(out, p) if node[0] == "and" else np.maximum(out, p)
            return out

        return ev(self.formula)


def _as_param_tuple(t, k: int) -> tuple:
    if t is None:
        t = ()
    elif np.isscalar(t):
        t = (float(t),)
    else:
        t = tuple(float(v) for v in t)
    if len(t) != k:
        raise ParamOutOfRangeError(f"expected {k} parameter(s), got {len(t)}")
    return t


def member(spec: DomainSpec, t, x) -> bool:
    """Exact-formula membership of a single point in the fiber at ``t``."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != spec.ambient_dim:
        raise SpecError(
            f"point has {x.size} coordinates, domain is {spec.ambient_dim}-dimensional"
        )
    return bool(spec.member_points(t, x.reshape(1, -1))[0])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def err(self, msg: str, tok: _Tok | None = None):
        tok = tok or self.peek()
        raise SpecSyntaxError(msg, tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            self.err(f"expected {want!r}, found {t.text or t.kind!r}")
        return self.next()

    def skip_nl(self):
        while self.peek().kind == "NL":
            self.next()

    # -- numbers -----------------------------------------------------------

    def number(self) -> Fraction:
        sign = 1
        if self.peek().kind == "OP" and self.peek().text in "+-":
            if self.next().text == "-":
                sign = -1
        t = self.expect("NUMBER")
        try:
            return sign * Fraction(Decimal(t.text))
        except InvalidOperation:
            self.err(f"bad number {t.text!r}", t)

    # -- headers -----------------------------------------------------------

    def interval(self) -> tuple:
        self.expect("OP", "[")
        lo = self.number()
        self.expect("OP", ",")
        hi = self.number()
        self.expect("OP", "]")
        return float(lo), float(hi)

    # -- expressions -------------------------------------------------------

    def parse_expr(self, names: dict) -> dict:
        e = self.parse_term(names)
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.parse_term(names)
            e = _poly_add(e, rhs if op == "+" else _poly_neg(rhs))
        return e

    def parse_term(self, names: dict) -> dict:
        e = self.parse_factor(names)
        while self.peek().kind == "OP" and self.peek().text in "*/":
            tok = self.next()
            rhs = self.parse_factor(names)
            if tok.text == "*":
                e = _poly_mul(e, rhs)
            else:
                const = [v for v in rhs.values()]
                if any(sum(k) for k in rhs) or not const:
                    self.err("division is only allowed by a nonzero constant", tok)
                e = {k: v / const[0] for k, v in e.items()}
        return e

    def parse_factor(self, names: dict) -> dict:
        t = self.peek()
        if t.kind == "OP" and t.text in "+-":
            self.next()
            e = self.parse_factor(names)
            return e if t.text == "+" else _poly_neg(e)
        return self.parse_power(names)

    def parse_power(self, names: dict) -> dict:
        base = self.parse_base(names)
        if self.peek().kind == "OP" and self.peek().text == "^":
            tok = self.next()
            et = self.expect("NUMBER")
            if not re.fullmatch(r"\d+", et.text):
                self.err("exponent must be a nonnegative integer", et)
            return _poly_pow(base, int(et.text))
        return base

    def parse_base(self, names: dict) -> dict:
        t = self.peek()
        nvars = len(names)
        if t.kind == "NUMBER":
            self.next()
            try:
                c = Fraction(Decimal(t.text))
            except InvalidOperation:
                self.err(f"bad number {t.text!r}", t)
            return {(0,) * nvars: c} if c else {}
        if t.kind == "NAME":
            if t.text in names:
                self.next()
                k = [0] * nvars
                k[names[t.text]] = 1
                return {tuple(k): Fraction(1)}
            self.err(f"unknown variable {t.text!r}", t)
        if t.kind == "OP" and t.text == "(":
            self.next()
            e = self.parse_expr(names)
            self.expect("OP", ")")
            return e
        self.err(f"expected a polynomial term, found {t.text or t.kind!r}")

    # -- formulas ----------------------------------------------------------

    def group_is_formula(self) -> bool:
        """Look ahead from an opening paren: does the group contain a
        relation or a logical connective before its matching close paren?"""
        depth = 0
        for j in range(self.i, len(self.toks)):
            t = self.toks[j]
            if t.kind == "OP" and t.text == "(":
                depth += 1
            elif t.kind == "OP" and t.text == ")":
                depth -= 1
                if depth == 0:
                    return False
            elif t.kind == "OP" and t.text in ("<", ">", "!=", "<=", ">=", "=", "=="):
                return True
            elif t.kind == "NAME" and t.text in ("and", "or"):
                return True
            elif t.kind in ("EOF",):
                return False
        return False

    def parse_formula(self, names: dict, sink: "_AtomSink") -> tuple:
        children = [self.parse_conj(names, sink)]
        while self.peek().kind == "NAME" and self.peek().text == "or":
            self.next()
            children.append(self.parse_conj(names, sink))
        return _flatten("or", children)

    def parse_conj(self, names: dict, sink: "_AtomSink") -> tuple:
        children = [self.parse_atom_or_group(names, sink)]
        while self.peek().kind == "NAME" and self.peek().text == "and":
            self.next()
            children.append(self.parse_atom_or_group(names, sink))
        return _flatten("and", children)

    def parse_atom_or_group(self, names: dict, sink: "_AtomSink") -> tuple:
        t = self.peek()
        if t.kind == "OP" and t.text == "(" and self.group_is_formula():
            self.next()
            f = self.parse_formula(names, sink)
            self.expect("OP", ")")
            return f
        return self.parse_comparison(names, sink)

    def parse_comparison(self, names: dict, sink: "_AtomSink") -> tuple:
        lhs = self.parse_expr(names)
        t = self.peek()
        if t.kind != "OP" or t.text not in ("<", ">", "!=", "<=", ">=", "=", "=="):
            self.err("expected a relation '<', '>' or '!='")
        if t.text in ("<=", ">=", "=", "=="):
            raise NonStrictRelationError(
                f"non-strict relation {t.text!r} is not allowed; "
                "the set model is open (strict inequalities only)",
                t.line,
                t.col,
            )
        self.next()
        rhs = self.parse_expr(names)
        diff = _poly_add(lhs, _poly_neg(rhs))
        if not diff:
            self.err("relation compares identical polynomials", t)
        if t.text == "!=":
            poly, rel = _poly_mul(diff, diff), "GT"
        elif t.text == ">":
            poly, rel = diff, "GT"
        else:
            poly, rel = diff, "LT"
        return ("atom", sink.add(poly, rel))


class _AtomSink:
    def __init__(self, ambient_dim: int, nvars: int):
        self.ambient_dim = ambient_dim
        self.nvars = nvars
        self.atoms: list[PolyAtom] = []
        self._index: dict = {}

    def add(self, poly: dict, relation: str) -> int:
        items = tuple(
            sorted(poly.items(), key=lambda kv: _monomial_key(kv[0]), reverse=True)
        )
        key = (items, relation)
        if key in self._index:
            return self._index[key]
        atom = PolyAtom(self.ambient_dim, self.nvars, items, relation)
        self._index[key] = len(self.atoms)
        self.atoms.append(atom)
        return len(self.atoms) - 1


def parse_domain(text: str) -> DomainSpec:
    """Parse domain text into an immutable :class:`DomainSpec`.

    Raises :class:`SpecSyntaxError` (with line/column) on malformed input.
    The fiber-inside-box invariant is probed by seeded rejection sampling;
    violations are recorded as warnings on the spec
    rather than raised, because thickness queries legitimately detect
    fibers that escape through the bounding box.
    """
    p = _Parser(_tokenize(text))
    p.skip_nl()
    p.expect("NAME", "dim")
    dtok = p.expect("NUMBER")
    if dtok.text not in ("1", "2", "3"):
        p.err("dim must be 1, 2 or 3", dtok)
    dim = int(dtok.text)

    param_names: list[str] = []
    param_box: list[tuple] = []
    box = None

    p.skip_nl()
    while True:
        t = p.peek()
        if t.kind == "NAME" and t.text == "params":
            p.next()
            while True:
                nt = p.expect("NAME")
                name = nt.text
                if name in _KEYWORDS or name in AMBIENT_NAMES[:dim]:
                    p.err(f"parameter name {name!r} is reserved", nt)
                if name in param_names:
                    p.err(f"duplicate parameter {name!r}", nt)
                p.expect("NAME", "in")
                lo, hi = p.interval()
                if not lo <= hi:
                    p.err(f"empty parameter range for {name!r}", nt)
                param_names.append(name)
                param_box.append((lo, hi))
                if p.peek().kind == "OP" and p.peek().text == ",":
                    p.next()
                    continue
                break
            p.skip_nl()
        elif t.kind == "NAME" and t.text == "box":
            p.next()
            ivs = [p.interval()]
            while p.peek().kind == "NAME" and p.peek().text == "x" and (
                p.toks[p.i + 1].kind == "OP" and p.toks[p.i + 1].text == "["
            ):
                p.next()
                ivs.append(p.interval())
            if len(ivs) != dim:
                p.err(f"box has {len(ivs)} intervals for dim {dim}", t)
            for lo, hi in ivs:
                if not lo < hi:
                    p.err("box intervals must satisfy lo < hi", t)
            box = tuple(ivs)
            p.skip_nl()
        elif t.kind == "NAME" and t.text == "set":
            break
        elif t.kind == "EOF":
            break
        else:
            p.err(f"expected 'params', 'box' or 'set:', found {t.text or t.kind!r}")

    if box is None:
        raise MissingBoundingBoxError("missing bounding box ('box' line)")
    p.expect("NAME", "set")
    p.expect("OP", ":")
    p.skip_nl()

    names = {n: i for i, n in enumerate(AMBIENT_NAMES[:dim])}
    for j, n in enumerate(param_names):
        names[n] = dim + j
    sink = _AtomSink(dim, dim + len(param_names))
    formula = p.parse_formula(names, sink)
    p.skip_nl()
    if p.peek().kind != "EOF":
        p.err(f"trailing input {p.peek().text!r}")

    spec = DomainSpec(
        ambient_dim=dim,
        param_names=tuple(param_names),
        param_box=tuple(param_box),
        bounding_box=box,
        atoms=tuple(sink.atoms),
        formula=formula,
    )
    object.__setattr__(spec, "audit_warnings", tuple(_audit_box_containment(spec)))
    return spec


def parse_domain_file(path) -> DomainSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_domain(fh.read())


def _audit_box_containment(
    spec: DomainSpec, samples: int = 256, param_draws: int = 8, seed: int = 0
) -> list[str]:
    """Probe whether fibers leak outside the bounding box.

    Samples points in an inflated shell around the box plus parameter draws;
    any member hit is reported.  This is a statistical audit, not a proof.
    """
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in spec.bounding_box])
    hi = np.array([b[1] for b in spec.bounding_box])
    span = hi - lo
    pad = np.maximum(0.25 * span, 1e-3)
    big_lo, big_hi = lo - pad, hi + pad

    pts = []
    tries = 0
    while len(pts) < samples and tries < 50:
        cand = rng.uniform(big_lo, big_hi, size=(samples * 4, spec.ambient_dim))
        outside = np.any((cand < lo) | (cand > hi), axis=1)
        pts.extend(cand[outside][: samples - len(pts)])
        tries += 1
    if not pts:
        return []
    pts = np.array(pts)

    k = len(spec.param_names)
    draws = [()] if k == 0 else []
    if k:
        plo = np.array([b[0] for b in spec.param_box])
        phi = np.array([b[1] for b in spec.param_box])
        draws.append(tuple(plo))
        draws.append(tuple(phi))
        for _ in range(param_draws - 2):
            draws.append(tuple(rng.uniform(plo, phi)))

    warnings = []
    for t in draws:
        hit = spec.member_points(t, pts)
        if np.any(hit):
            i = int(np.argmax(hit))
            warnings.append(
                "fiber escapes the bounding box: member point "
                f"{pts[i].tolist()} at params {list(t)}"
            )
            break
    return warnings


# ---------------------------------------------------------------------------
# canonical printing
# ---------------------------------------------------------------------------


def _format_formula(spec: DomainSpec, node, parent: str) -> str:
    if node[0] == "atom":
        a = spec.atoms[node[1]]
        rel = ">" if a.relation == "GT" else "<"
        return f"{a.poly_string(spec.var_names)} {rel} 0"
    sep = f" {node[0]} "
    body = sep.join(_format_formula(spec, c, node[0]) for c in node[1])
    if node[0] == "or" and parent == "and":
        return f"({body})"
    return body


def print_domain(spec: DomainSpec) -> str:
    """Render the canonical text form.  ``parse_domain`` of the output
    yields a spec equal to the input."""
    lines = [f"dim {spec.ambient_dim}"]
    if spec.param_names:
        parts = [
            f"{n} in [{lo!r}, {hi!r}]"
            for n, (lo, hi) in zip(spec.param_names, spec.param_box)
        ]
        lines.append("params " + ", ".join(parts))
    lines.append(
        "box " + " x ".join(f"[{lo!r}, {hi!r}]" for lo, hi in spec.bounding_box)
    )
    lines.append("set: " + _format_formula(spec, spec.formula, ""))
    return "\n".join(lines) + "\n"

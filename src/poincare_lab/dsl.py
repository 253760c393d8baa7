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

``#`` starts a comment that runs to the end of its line.  Headers may also
be written on a single line separated by `` / ``.

Membership is one fold over the formula tree (``DomainSpec._fold``): each
atom is evaluated once, to truth values, and each connective reduces its
children left to right with ``&``/``|``.  The boundary is found on lines
(``raster.line_cuts``), not from a field of atom values.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import reduce
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
# every relation the lexer knows; the non-strict ones are rejected on parse
_RELATIONS = ("<", ">", "!=", "<=", ">=", "=", "==")

# ---------------------------------------------------------------------------
# polynomial support
# ---------------------------------------------------------------------------

# A polynomial is a dict {exponent tuple -> Fraction}; exponent tuples run
# over ambient variables first, then parameters.


def _accumulate(terms: Iterable[tuple]) -> dict:
    """Sum ``(exponents, coefficient)`` pairs into a polynomial, dropping
    terms that cancel."""
    out: dict = {}
    for k, v in terms:
        s = out.get(k, Fraction(0)) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _poly_add(a: dict, b: dict) -> dict:
    return _accumulate([*a.items(), *b.items()])


def _poly_neg(a: dict) -> dict:
    return {k: -v for k, v in a.items()}


def _poly_mul(a: dict, b: dict) -> dict:
    return _accumulate(
        (tuple(i + j for i, j in zip(ka, kb)), va * vb)
        for ka, va in a.items()
        for kb, vb in b.items()
    )


def _poly_pow(a: dict, e: int) -> dict:
    nvars = len(next(iter(a))) if a else 0
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(e):
        out = _poly_mul(out, a)
    return out


def _sorted_terms(poly: dict) -> tuple:
    """Terms in descending graded-lexicographic order of their exponents."""
    return tuple(sorted(poly.items(), key=lambda kv: (sum(kv[0]),) + kv[0], reverse=True))


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


def _eval_array(node, coords) -> np.ndarray:
    """Evaluate a Horner tree; a constant is broadcast to the points' shape."""
    v = _eval_horner(node, coords)
    if np.ndim(v) == 0:
        shape = np.broadcast(*[np.asarray(c) for c in coords]).shape
        v = np.broadcast_to(np.float64(v), shape).copy()
    return v


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
        if self.degree > MAX_TOTAL_DEGREE:
            raise DegreeLimitError(
                f"atom total degree {self.degree} exceeds the limit {MAX_TOTAL_DEGREE}"
            )
        object.__setattr__(
            self, "_horner", _compile_horner(self.coeffs, 0, self.nvars)
        )
        grads = []
        for i in range(self.ambient_dim):
            d = _accumulate(
                (exps[:i] + (exps[i] - 1,) + exps[i + 1 :], c * exps[i])
                for exps, c in self.coeffs
                if exps[i] > 0
            )
            grads.append(_compile_horner(_sorted_terms(d), 0, self.nvars))
        object.__setattr__(self, "_grad", tuple(grads))

    @property
    def degree(self) -> int:
        return max(sum(k) for k, _ in self.coeffs)

    def values(self, coords) -> np.ndarray:
        """Evaluate the polynomial; ``coords`` is one array (or scalar) per
        variable, ambient variables first then parameters."""
        return _eval_array(self._horner, coords)

    def truth(self, coords) -> np.ndarray:
        v = self.values(coords)
        return v > 0.0 if self.relation == "GT" else v < 0.0

    def gradient_values(self, coords) -> np.ndarray:
        """Ambient-space gradient, shape ``(ambient_dim,) + point shape``."""
        return np.array([_eval_array(g, coords) for g in self._grad])

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
    # dropping a comment leaves its newline, so line and column numbers hold
    text = re.sub(r"#[^\n]*", "", text)
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


def _reduce_formula(node: tuple, leaves: list):
    # not a closure: a recursive closure is a reference cycle, which keeps
    # the evaluated arrays alive until the next garbage collection
    if node[0] == "atom":
        return leaves[node[1]]
    children = (_reduce_formula(c, leaves) for c in node[1])
    return reduce(operator.and_ if node[0] == "and" else operator.or_, children)


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

    def _fold(self, t, pts, leaf) -> np.ndarray:
        """Evaluate the truth values ``leaf(atom, coords)`` once per atom at
        the points and reduce the formula tree with ``&``/``|``, left to
        right."""
        t = self.check_params(t)
        pts = np.asarray(pts, dtype=np.float64)
        coords = self._coords(t, pts)
        leaves = [leaf(atom, coords) for atom in self.atoms]
        return _reduce_formula(self.formula, leaves)

    def member_points(self, t, pts: np.ndarray) -> np.ndarray:
        """Vectorized membership for an array of points, shape (..., dim)."""
        return self._fold(t, pts, PolyAtom.truth)


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
                const = list(rhs.values())
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
            self.next()
            et = self.expect("NUMBER")
            if not re.fullmatch(r"\d+", et.text):
                self.err("exponent must be a nonnegative integer", et)
            e = int(et.text)
            # checked before expanding, which costs e multiplications
            degree = max((sum(k) for k in base), default=0) * e
            if degree > MAX_TOTAL_DEGREE:
                raise DegreeLimitError(
                    f"power of total degree {degree} exceeds the limit {MAX_TOTAL_DEGREE}"
                )
            return _poly_pow(base, e)
        return base

    def parse_base(self, names: dict) -> dict:
        t = self.peek()
        nvars = len(names)
        if t.kind == "NUMBER":
            c = self.number()
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
            elif t.kind == "OP" and t.text in _RELATIONS:
                return True
            elif t.kind == "NAME" and t.text in ("and", "or"):
                return True
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
        if t.kind != "OP" or t.text not in _RELATIONS:
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
        items = _sorted_terms(poly)
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

    return DomainSpec(
        ambient_dim=dim,
        param_names=tuple(param_names),
        param_box=tuple(param_box),
        bounding_box=box,
        atoms=tuple(sink.atoms),
        formula=formula,
    )


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

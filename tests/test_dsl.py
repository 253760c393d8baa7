import hashlib
import time

import numpy as np
import pytest

from poincare_lab import parse_domain, print_domain
from poincare_lab.errors import (
    DegreeLimitError,
    MissingBoundingBoxError,
    NonStrictRelationError,
    ParamOutOfRangeError,
    SpecSyntaxError,
)

DISK = "dim 2\nbox [-1.5,1.5]x[-1.5,1.5]\nset: x^2 + y^2 - 1 < 0\n"
CUSP = (
    "dim 2\nparams t in [0.05,1]\nbox [0,1]x[0,1]\n"
    "set: x > 0 and 1 - x > 0 and y > 0 and t*x^2 - y > 0\n"
)


def test_parse_disk():
    spec = parse_domain(DISK)
    assert spec.ambient_dim == 2
    assert spec.n_params == 0
    assert len(spec.atoms) == 1
    assert spec.bounding_box == ((-1.5, 1.5), (-1.5, 1.5))


def test_parse_cusp_family():
    spec = parse_domain(CUSP)
    assert spec.param_names == ("t",)
    assert spec.param_box == ((0.05, 1.0),)
    assert len(spec.atoms) == 4


def test_member_disk_center_and_boundary():
    spec = parse_domain(DISK)
    assert spec.member_points((), (0.0, 0.0))
    # boundary point excluded: the set is open
    assert not spec.member_points((), (1.0, 0.0))


def test_member_cusp_point():
    spec = parse_domain(CUSP)
    assert spec.member_points((0.5,), (0.5, 0.1))
    assert not spec.member_points((0.5,), (0.5, 0.2))


def test_param_out_of_range():
    spec = parse_domain(CUSP)
    with pytest.raises(ParamOutOfRangeError):
        spec.member_points((2.0,), (0.5, 0.1))


def test_nonstrict_rejected():
    with pytest.raises(NonStrictRelationError):
        parse_domain("dim 2\nbox [-2,2]x[-2,2]\nset: x^2 + y^2 - 1 <= 0\n")
    with pytest.raises(NonStrictRelationError):
        parse_domain("dim 1\nbox [0,1]\nset: x >= 0\n")
    with pytest.raises((NonStrictRelationError, SpecSyntaxError)):
        parse_domain("dim 1\nbox [0,1]\nset: x = 0\n")


def test_neq_rewritten_as_square_positivity():
    spec = parse_domain("dim 2\nbox [-2,2]x[-2,2]\nset: x^2+y^2-1 < 0 and y != 0\n")
    # y != 0 becomes y^2 > 0
    assert spec.member_points((), (0.0, 0.5))
    assert not spec.member_points((), (0.5, 0.0))


def test_degree_limit():
    with pytest.raises(DegreeLimitError):
        parse_domain("dim 1\nbox [0,1]\nset: x^13 - 1 < 0\n")
    # an over-cap power is rejected before it is expanded
    for term in ("x^100000000", "(x+y+1)^80", "(x^7)^2"):
        start = time.perf_counter()
        with pytest.raises(DegreeLimitError):
            parse_domain(f"dim 2\nbox [0,1]x[0,1]\nset: {term} > 0\n")
        assert time.perf_counter() - start < 1.0
    # constant bases carry no degree, whatever the exponent
    spec = parse_domain("dim 1\nbox [0,1]\nset: 2^64 * x - 1 > 0\n")
    assert spec.member_points((), (0.5,)) and not spec.member_points((), (2.0**-65,))


def test_missing_box():
    with pytest.raises(MissingBoundingBoxError):
        parse_domain("dim 1\nset: x > 0\n")


def test_syntax_error_has_position():
    with pytest.raises(SpecSyntaxError) as err:
        parse_domain("dim 2\nbox [0,1]x[0,1]\nset: x >< 1\n")
    assert "line" in str(err.value)


def test_atom_dedup():
    spec = parse_domain(
        "dim 1\nbox [0,1]\nset: x > 0 and (x > 0 or 1 - x > 0)\n"
    )
    # the repeated atom x > 0 is stored once
    assert len(spec.atoms) == 2


def test_print_parse_roundtrip(specs):
    for spec in specs.values():
        text = print_domain(spec)
        again = parse_domain(text)
        assert print_domain(again) == text
        assert again.atoms == spec.atoms
        assert again.formula == spec.formula


def test_membership_is_open(specs, rng):
    # every accepted point survives perturbations small relative to its
    # atom margins, witnessing openness of the accepted set
    spec = specs["annulus"]
    pts = rng.uniform(-1.2, 1.2, size=(400, 2))
    inside = [p for p in pts if spec.member_points((), p)]
    assert inside
    for p in inside:
        r2 = p[0] ** 2 + p[1] ** 2
        margin = min(1.0 - r2, r2 - 0.25)
        # |grad| of both atoms is 2|x| <= 3 on the box; keep a factor 2 spare
        delta = margin / (2.0 * 3.0)
        for shift in np.eye(2):
            assert spec.member_points((), p + delta * shift)
            assert spec.member_points((), p - delta * shift)


def test_member_points_matches_scalar(specs, rng):
    spec = specs["slit_disk"]
    pts = rng.uniform(-1.5, 1.5, size=(200, 2))
    vec = spec.member_points((), pts)
    scalar = np.array([spec.member_points((), p) for p in pts])
    assert np.array_equal(vec, scalar)


def test_comments_are_ignored():
    plain = print_domain(parse_domain(DISK))
    # a trailing comment is not part of the formula
    trailing = parse_domain(DISK.replace("< 0\n", "< 0 # and y > 0\n"))
    assert len(trailing.atoms) == 1
    assert print_domain(trailing) == plain
    # full-line comments before the header (one mentions set:), comments
    # after headers on the same line, and a last comment with no newline
    commented = (
        "# header: set: y > 0\n# unit disk\n"
        "dim 2 # plane\nbox [-1.5,1.5]x[-1.5,1.5]  # square box\n"
        "set: x^2 + y^2 - 1 < 0\n# end"
    )
    assert print_domain(parse_domain(commented)) == plain
    with pytest.raises(SpecSyntaxError) as err:
        parse_domain("# c\ndim 2 # c\nbox [0,1]x[0,1]\n# set: x > 0\nset: x >< 1 # c\n")
    assert (err.value.line, err.value.column) == (5, 9)


# Extra specs next to the corpus: nested and/or, a repeated atom, "!=",
# two parameters, the one-line header form, 3D and constant gradients.
GOLDEN_SPECS = {
    "nested": (
        "dim 2 / box [-1, 1] x [-1, 1] / set: (x > 0 or y > 0) and "
        "(x^2 + y^2 < 0.8 or (x - 0.5)*y > 0.1 and (y < 0.3 or x*y > 0.05))\n"
    ),
    "repeated": "dim 2\nbox [-1,1]x[-1,1]\nset: x > 0 and (x > 0 or 1 - y > 0) and (y^2 < 0.5 or x > 0)\n",
    "neq": "dim 2\nbox [-2,2]x[-2,2]\nset: x^2+y^2-1 < 0 and x*y != 0.25\n",
    "two_params": (
        "dim 2\nparams a in [0.5, 2], b in [-0.5, 0.5]\nbox [-2,2]x[-2,2]\n"
        "set: a*x^2 + y^2 < 1 and x - b*y > 0 or y > a\n"
    ),
    "oneline": (
        "dim 2 / params t in [0, 1] / box [-1, 1] x [-1, 1] / "
        "set: t - 0.25 - x^2 - y^2 > 0 or x^3 - t*y > 0.5\n"
    ),
    "ball3d": (
        "dim 3\nparams t in [0, 1]\nbox [-1,1]x[-1,1]x[-1,1]\n"
        "set: x^2 + y^2 + z^2 < 0.81 and z + t*x*y > -0.5\n"
    ),
    "linear": "dim 2\nbox [-1,1]x[-1,1]\nset: 2*x - 3*y + 1/4 > 0 and -(x - y)^2 + 7 > 0 and 3 > x\n",
}

# a change in any bit the dsl layer computes changes these digests
GOLDEN_DSL_DIGESTS = {
    "annulus": "739ab2cb4f32120840dc36842d8af8ec926ac233ec846e0b696cab75a9c6bc80",
    "cusp": "12290eab3858f0f6383ca1737514d7fcdcdc3c30793aaab231a63bb028153b1a",
    "disk": "a2d93d8d1f8e4b29397ce91352140ab080e59c87bed09235304ac2f3f81553ae",
    "ellipse": "2616ea7c2168fc3c2f075b6431f311a1a8ed79ea6f06d1c589340dad24743c67",
    "interval": "46eb34f73f797929320872c4f80bef0f05b33903257e3dc3e3a6fa22012e51dd",
    "rect2x1": "fafd2132ff95270a31ad225844a6d8e73dd4eef3787ff1b1b27f5e392967314a",
    "shrink_disk": "d51bb0ca66e88a6fc5c937d3fd0dbee19c849b798d438dfa2249551c6a0d8d28",
    "slit_disk": "30dade119d0b61909e30687f9282f480e5ffd6585d96343fee2788bd2cc16e7b",
    "split_disk": "69e6ff71aebd1f42d5d51378d486468c4913c6d311bb71812ce68c165d6ddc71",
    "square": "fcdb4020fae5eddfeee17958f15d47dc14a4d704bf1285c6466516728216fbfc",
    "strip": "f5d479c172c80699ea1d64dc2f0f53a9238e2f71f622cf2052b0b9f55175b646",
    "tiny_disk": "d8896dc7cf01520d2652de5c67b2f48cd2f80b425eb4f956d0907c313eb36480",
    "two_bars": "568fdd81adf872813842bd2e2eaf899c2ea45ac87b00e09fb3aea9adf8046dfa",
    "two_disks": "bad9b7bbe136b6aae134ae5ea718d6377f692b1a01548dccf9fd202c1ea3ee65",
    "nested": "a2aace881d85f5c7032eac97a78daa869714c9a1090d77794dd7e9c8133bac87",
    "repeated": "32fdd7eca8ea598ccb0b019fabc22a9a6a5305f5ee277fc51bda02aaa594dad2",
    "neq": "7e7647461ab2b6c150e5459010cce68f71dd57d95c0150d9902e4c5a7038c1f8",
    "two_params": "fb98ab1b63a06cd80771644b64d48ced944c7f2e5aafd66e42efec7777c54906",
    "oneline": "63fa33155eb4e840761c62d10222f52f63724dd81be5ea78a63dc2a24c60c546",
    "ball3d": "129082597e7f98fdd8c72eb10c0c4b8816c70c91f0ac9e4844d2250a50d0a409",
    "linear": "faa35f2ad563e6e13a62f0a26312a42d203bcf91643cf32986cf172905a5bead",
}


def _dsl_digest(spec) -> str:
    """sha256 of the canonical text and of membership, margins, atom values
    and gradients at seeded points, (4, 64, dim)-shaped and flat."""
    dim = spec.ambient_dim
    lo, hi = np.array(spec.bounding_box).T
    pad = 0.1 * (hi - lo)
    shaped = np.random.default_rng(5).uniform(lo - pad, hi + pad, size=(4, 64, dim))
    axes = [np.linspace(a, b, 9) for a, b in spec.bounding_box]
    flat = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, dim)
    h = hashlib.sha256(print_domain(spec).encode())

    def add(a):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())

    corner = tuple(lo_ for lo_, _ in spec.param_box)
    middle = tuple(0.5 * (a + b) for a, b in spec.param_box)
    for t in (corner, middle):
        for pts in (shaped, flat):
            add(spec.member_points(t, pts))
            add(spec.margin_points(t, pts))
            coords = [pts[..., i] for i in range(dim)] + [np.float64(v) for v in t]
            for atom in spec.atoms:
                add(atom.values(coords))
                add(atom.gradient_values(coords))
    return h.hexdigest()


def test_dsl_golden_bits(specs):
    parsed = dict(specs)
    parsed.update({name: parse_domain(text) for name, text in GOLDEN_SPECS.items()})
    assert set(parsed) == set(GOLDEN_DSL_DIGESTS)
    for name, spec in parsed.items():
        assert _dsl_digest(spec) == GOLDEN_DSL_DIGESTS[name], name

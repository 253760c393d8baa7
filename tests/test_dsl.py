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
    "annulus": "39cc6164ab8ded0f3e4de41a73b592a822d54c3ee8d9616dff3f5769ed9653d5",
    "cusp": "cc889e7ea20f60222d4171c2b7e865dca6424d8e4b83ec4eb9fdd259c1619d42",
    "disk": "52d5e405bd07a6769e153723340732abe0758cec8f33afaae48af405e3b39a66",
    "ellipse": "a25d22928f2899e3eb03ea1cb246aaef92a4f11bfee7d90e9bbc70590e96f6a4",
    "interval": "88d71a6bcc4d89495262e3588d79412c9eea6ad15b9cd7946569324d8dabee8a",
    "rect2x1": "d0114e6ae1638ae67be48eafa0d54a87eaf6795f6fb1fb5dcf77fb02d05d19d3",
    "shrink_disk": "730c8fba30eefcb1745f8779e708dd06df4f639fb8cb533245a4dc9715d492b4",
    "slit_disk": "269cd567ce599146321b058021503066a5a99ed3736af06d985fc3925d9b3e1f",
    "split_disk": "821e83c906f8f234254b3f52c04b14baf2e7eb2c8d74e3127761510210e339a5",
    "square": "a2f99ad5fe1c3d0fd6c2578cfe1539c0b603c25ab90ef9269f0ea6eac7d80903",
    "strip": "16593e1f0517dd613c66687ca0701806cbd9380f4c511089b8754260f8c6b7c0",
    "tiny_disk": "e2e74aac42a2198a2624eec42c08630353b958f0690914da2275e20c524b22bd",
    "two_bars": "2ec4813c82edb9e3e2b61c8a7dfea806c567e90a74875af208c9bd98ffb428cf",
    "two_disks": "9dd49cc158cfd5596542329133f0572a912ad3a7eba0e14ee5abfe7170b681e8",
    "nested": "cf74d63c558e4687e035eea5ca0137eccb5e0796e75f60fd94ab2c1e5043e09f",
    "repeated": "974ac6470e9af1bea77c40b6c6a939e2b4c67a2db68f53a3e56b4918660737f8",
    "neq": "e4bbbd845bedf4efec38b62f597605cdaf9e5939019f3401a953f9b13645ba03",
    "two_params": "61c79c7a6842e6b7b0c0bc24071d2bf558635516766348e31af2e6af03adbe93",
    "oneline": "d59d4426f2e87e8303afec7607dcccde886e568eda92197f29391a6a00405af0",
    "ball3d": "838e3bc070aaa8cd5e58c67cb04372de96474ae9118e8e0b1c822495349684c1",
    "linear": "fb2ce55de8ec4e17d2611340e45bd600a9871e5469c6ccef16b764699d7f85fe",
}


def _dsl_digest(spec) -> str:
    """sha256 of the canonical text and of membership, atom values and
    gradients at seeded points, (4, 64, dim)-shaped and flat."""
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

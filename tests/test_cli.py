import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from poincare_lab import load_corpus, sobolev
from poincare_lab.cli import (
    DEFAULTS,
    _build_parser,
    _out_dir,
    canonical_json,
    exit_code_from_report,
    main,
)


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    return code, report, out


def test_exit_code_mapping():
    assert exit_code_from_report({"status": "ok"}) == 0
    assert exit_code_from_report({"status": "fail"}) == 1
    assert exit_code_from_report({"status": "usage_error"}) == 2
    assert exit_code_from_report({"status": "solver_error"}) == 3


def test_canonical_json_is_sorted_and_finite():
    text = canonical_json({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    # non-finite values must be sanitized before serialization, not smuggled
    # through as bare Infinity tokens
    with pytest.raises(ValueError):
        canonical_json({"v": math.inf})


def test_check_disk(tmp_path):
    code, report, _ = run(
        tmp_path, "check", "--spec", "disk", "--res", "64"
    )
    assert code == 0
    assert report["status"] == "ok"
    kinds = [c["kind"] for c in report["checks"]]
    assert kinds == [
        "thickness-bound",
        "discrete-column-inequality",
        "discrete-column-inequality",
    ]
    assert all(c["passed"] for c in report["checks"])
    assert report["direction"] == [0.0, 1.0]


def test_check_cusp_bound_value(tmp_path):
    code, report, _ = run(
        tmp_path, "check", "--spec", "cusp", "--t", "0.5",
        "--res", "64",
    )
    assert code == 0
    bound = report["checks"][0]["data"]
    assert bound["thickness"] == pytest.approx(0.5, abs=5e-3)
    assert bound["bound"] == pytest.approx(math.sqrt(2.0) * 0.5, rel=0.01)


def test_check_param_out_of_range_is_usage_error(tmp_path):
    code, report, _ = run(
        tmp_path, "check", "--spec", "cusp", "--t", "7.0", "--res", "64"
    )
    assert code == 2
    assert report["status"] == "usage_error"
    assert report["error"]["type"] == "ParamOutOfRangeError"


def test_check_general_p_uses_route_tolerance(tmp_path, monkeypatch):
    seen = []

    def spy(raster, p, tol=1e-6):
        seen.append(tol)
        return sobolev.PoincareEstimate(
            p=p, constant=0.1, method="stub", iterations=0,
            residual=0.0, tol=tol, h=raster.h,
        )

    monkeypatch.setattr(sobolev, "poincare_general_p", spy)
    code, report, _ = run(
        tmp_path, "check", "--spec", "disk", "--p", "1", "--res", "16"
    )
    assert code == 0
    assert seen == [1e-6]


def test_check_nonfinite_constant_is_solver_error(tmp_path, monkeypatch):
    def nan_p2(raster, tol=1e-8):
        return sobolev.PoincareEstimate(
            p=2.0, constant=math.nan, method="stub", iterations=0,
            residual=0.0, tol=tol, h=raster.h,
        )

    monkeypatch.setattr(sobolev, "poincare_p2", nan_p2)
    code, report, _ = run(
        tmp_path, "check", "--spec", "disk", "--res", "16"
    )
    assert code == 3
    assert report["status"] == "solver_error"
    assert report["error"]["type"] == "SolverDivergedError"


def test_regdir_circle_fails(tmp_path):
    code, report, _ = run(tmp_path, "regdir", "--spec", "disk")
    assert code == 1
    assert report["status"] == "fail"
    assert report["search"]["status"] == "no_regular_direction"
    assert report["search"]["alpha"] < 1e-2


def test_regdir_cusp_found(tmp_path):
    code, report, _ = run(
        tmp_path, "regdir", "--spec", "cusp", "--grid", "3",
        "--dirs", "128", "--samples", "1024",
    )
    assert code == 0
    assert report["search"]["status"] == "ok"
    assert report["search"]["alpha"] >= 0.4


def test_sweep_missing_spec_usage_error(tmp_path):
    code, report, _ = run(tmp_path, "sweep", "--spec", "missing.dom")
    assert code == 2
    assert report["status"] == "usage_error"
    assert report["error"]["type"] == "FileNotFoundError"


def test_nonstrict_spec_usage_error(tmp_path):
    bad = tmp_path / "bad.dom"
    bad.write_text("dim 1\nbox [0,1]\nset: x >= 0\n")
    code, report, _ = run(tmp_path, "check", "--spec", str(bad), "--res", "64")
    assert code == 2
    assert report["error"]["type"] == "NonStrictRelationError"


def test_sweep_cusp_files(tmp_path):
    code, report, out = run(
        tmp_path, "sweep", "--spec", "cusp", "--grid", "4", "--res", "64",
        "--dir", "e2", "--samples", "1024",
    )
    assert code == 0
    sw = report["sweep"]
    assert sw["direction_mode"] == "explicit"
    assert len(sw["records"]) == 4
    assert sw["all_passed"] is True
    for name in ("fibers.csv", "plot_cp.dat", "plot_ratio.dat"):
        assert (out / name).is_file()
    csv = (out / "fibers.csv").read_text().strip().split("\n")
    assert len(csv) == 5
    assert csv[0].startswith("t0,empty,")


@pytest.mark.filterwarnings("ignore::poincare_lab.errors.StratumTooThinWarning")
def test_sweep_empty_fibers_ok(tmp_path):
    code, report, _ = run(
        tmp_path, "sweep", "--spec", "shrink_disk", "--ts", "0;0.25;0.6",
        "--res", "64", "--dir", "e1", "--samples", "512",
    )
    assert code == 0
    recs = report["sweep"]["records"]
    assert [r["empty"] for r in recs] == [True, True, False]
    assert recs[0]["passed"] is None


def test_lemma_cusp(tmp_path):
    code, report, _ = run(
        tmp_path, "lemma", "--spec", "cusp", "--grid", "4", "--res", "64",
        "--dir", "e2", "--samples", "1024", "--K", "2.0",
    )
    assert code == 0
    chk = report["check"]
    assert chk["kind"] == "thickness-volume-bound"
    assert chk["passed"] is True
    assert chk["data"]["K"] == 2.0
    assert chk["data"]["empirical_sup"] <= 2.0


@pytest.mark.filterwarnings("ignore::poincare_lab.errors.StratumTooThinWarning")
def test_lemma_not_applicable_is_fail(tmp_path):
    code, report, _ = run(
        tmp_path, "lemma", "--spec", "shrink_disk", "--ts", "0.1",
        "--res", "32", "--dir", "e1", "--samples", "512",
    )
    assert code == 1
    assert report["status"] == "fail"
    assert report["check"]["passed"] is None
    assert "not_applicable" in report["check"]["data"]


def test_uniform_cusp(tmp_path):
    code, report, out = run(
        tmp_path, "uniform", "--spec", "cusp", "--grid", "3",
        "--res", "48,96", "--dir", "e2", "--samples", "1024",
    )
    assert code == 0
    assert report["trend"]["passed"] is True
    assert report["trend"]["data"]["resolutions"] == [48, 96]
    assert len(report["sweeps"]) == 2
    assert (out / "fibers.csv").is_file()


def test_uniform_rejects_single_resolution(tmp_path):
    code, report, _ = run(
        tmp_path, "uniform", "--spec", "cusp", "--grid", "3", "--res", "64"
    )
    assert code == 2
    assert report["status"] == "usage_error"


def test_thickness_strip_unbounded(tmp_path):
    code, report, _ = run(
        tmp_path, "thickness", "--spec", "strip", "--dir", "e1", "--res", "64"
    )
    assert code == 0
    assert report["unbounded"] is True
    assert report["thickness"] is None  # inf is serialized as null
    assert report["discrete"]["axis0"] > 10.0


def test_thickness_disk_vector_direction(tmp_path):
    code, report, _ = run(
        tmp_path, "thickness", "--spec", "disk", "--dir", "1,1", "--res", "64"
    )
    assert code == 0
    assert report["thickness"] == pytest.approx(2.0, abs=1e-2)
    assert report["direction"] == pytest.approx([1 / math.sqrt(2)] * 2)


def test_cells_annulus(tmp_path):
    code, report, out = run(tmp_path, "cells", "--spec", "annulus")
    assert code == 0
    assert report["inside_cells_raw"] == 4
    assert report["inside_cells"] == 4
    assert report["merged"] is True
    exact = math.pi * 0.75
    assert report["volume_estimate"] == pytest.approx(exact, rel=1e-6)
    dot = (out / "cells.dot").read_text()
    assert dot.startswith("graph cells {")


def test_cells_split_disk_no_merge(tmp_path):
    code_m, rep_m, _ = run(tmp_path, "cells", "--spec", "split_disk")
    assert rep_m["inside_cells"] == 1 and rep_m["inside_cells_raw"] == 3
    code_r, rep_r, _ = run(
        tmp_path, "cells", "--spec", "split_disk", "--no-merge"
    )
    assert rep_r["inside_cells"] == 3
    assert rep_r["merged"] is False


def test_trace_disk(tmp_path):
    code, report, _ = run(
        tmp_path, "trace", "--spec", "disk", "--res", "128"
    )
    assert code == 0
    assert report["stable"] is True
    assert report["supremum"] == pytest.approx(math.sqrt(2.0), rel=0.05)
    assert "one" in report["ratios"]


def test_raster_disk(tmp_path):
    code, report, out = run(
        tmp_path, "raster", "--spec", "disk", "--res", "64"
    )
    assert code == 0
    assert report["files"] == ["mask.bin", "mask.json", "mask.pgm"]
    blob = (out / "mask.pgm").read_bytes()
    assert blob.startswith(b"P5\n")
    body = np.frombuffer(blob.split(b"\n", 3)[3], dtype=np.uint8)
    assert set(np.unique(body)) <= {0, 128, 255}
    sidecar = json.loads((out / "mask.json").read_text())
    mask = np.frombuffer((out / "mask.bin").read_bytes(), dtype=np.uint8)
    assert mask.size == sidecar["dims"][0] * sidecar["dims"][1]
    assert int(mask.sum()) == sidecar["interior_count"] == report["interior_cells"]
    assert report["volume"] == pytest.approx(math.pi, rel=0.01)


def test_unknown_flag_exits_2(tmp_path, capsys):
    code, report, _ = run(tmp_path, "check", "--spec", "disk", "--nonsense")
    assert "--nonsense" in capsys.readouterr().err
    assert code == 2
    assert report == {
        "command": "check",
        "error": {"type": "ArgumentError", "message": "unrecognized arguments: --nonsense"},
        "status": "usage_error",
    }


def test_unparsable_flag_value_writes_usage_report(tmp_path, capsys):
    code, report, _ = run(tmp_path, "check", "--spec", "disk", "--p", "abc")
    capsys.readouterr()
    assert code == 2
    assert report["status"] == "usage_error"
    assert report["command"] == "check"
    assert report["error"]["type"] == "ArgumentError"
    assert "abc" in report["error"]["message"]
    # without a known subcommand the report still lands in --out
    code, report, _ = run(tmp_path, "nonsense")
    capsys.readouterr()
    assert code == 2
    assert report["command"] is None
    assert report["status"] == "usage_error"


def test_tol_only_on_solver_commands(tmp_path, capsys):
    # only the commands that run a solver read --tol
    assert main(["trace", "--spec", "disk", "--res", "16", "--tol", "1e-3",
                 "--out", str(tmp_path)]) == 2
    assert "--tol" in capsys.readouterr().err
    parser = _build_parser()
    for command in ("check", "sweep", "lemma", "uniform"):
        args = parser.parse_args([command, "--spec", "disk", "--tol", "1e-3"])
        assert args.tol == 1e-3
    for argv in (["thickness", "--dir", "e1"], ["regdir"], ["cells"], ["raster"]):
        parser.parse_args(argv + ["--spec", "disk"])
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--spec", "disk", "--tol", "1e-3"])
    capsys.readouterr()


def test_byte_determinism(tmp_path):
    argv = [
        "sweep", "--spec", "cusp", "--grid", "3", "--res", "48",
        "--dir", "e2", "--samples", "512", "--seed", "0",
    ]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        main(argv + ["--out", str(out), "--jobs", "1"])
        outs.append(out)
    # a parallel run must produce the same bytes as the serial one
    out_par = tmp_path / "c"
    main(argv + ["--out", str(out_par), "--jobs", "2"])
    outs.append(out_par)
    ref = (outs[0] / "report.json").read_bytes()
    for out in outs[1:]:
        assert (out / "report.json").read_bytes() == ref
    for name in ("fibers.csv", "plot_cp.dat", "plot_ratio.dat"):
        ref = (outs[0] / name).read_bytes()
        for out in outs[1:]:
            assert (out / name).read_bytes() == ref


def test_defaults_complete():
    expected = {
        "tol", "samples", "dirs", "seed", "jobs", "resolution",
        "grid", "samples_per_column", "p",
    }
    assert set(DEFAULTS) == expected


# Exit code and sha256 of every output file, per command, at --seed 0
# --jobs 1.  The first nine are the acceptance suite's determinism commands;
# the rest reach the report's null, empty, not-applicable and error paths.
GOLDEN = {
    "check": (
        ["check", "--spec", "disk", "--p", "2", "--res", "64"],
        0,
        {
            "report.json": "42bbdd4b4396851648e9d7f9cc8af7157aa0cece08f8f268b805a436c5d73341",
        },
    ),
    "sweep": (
        ["sweep", "--spec", "cusp", "--grid", "3", "--p", "2", "--res", "64", "--dir", "0,1"],
        0,
        {
            "fibers.csv": "5b95e9ad22334e10da520ebf662b7b9deea9364f97e41689f870f56692363cfc",
            "plot_cp.dat": "4c90c377e24a86a1fb015d22bce858601a6a597fcb2f55c0b3103471b1b68573",
            "plot_ratio.dat": "b80f217c437a310370de77656005a72ed84c1d4a0b53f54a4b72bed51cb22b07",
            "report.json": "f60a4b0f348e783b863ad14a1a7b3e4d8f0352e3f79bc29fd7c6e5063ef51c55",
        },
    ),
    "lemma": (
        ["lemma", "--spec", "cusp", "--grid", "3", "--res", "64", "--dir", "0,1"],
        0,
        {
            "fibers.csv": "5b95e9ad22334e10da520ebf662b7b9deea9364f97e41689f870f56692363cfc",
            "plot_cp.dat": "4c90c377e24a86a1fb015d22bce858601a6a597fcb2f55c0b3103471b1b68573",
            "plot_ratio.dat": "b80f217c437a310370de77656005a72ed84c1d4a0b53f54a4b72bed51cb22b07",
            "report.json": "2a2603e7163d19b867b8895b99805b5767a0535c47ab69c3f65fddbea0f10451",
        },
    ),
    "uniform": (
        ["uniform", "--spec", "cusp", "--grid", "3", "--res", "48,96", "--dir", "0,1"],
        0,
        {
            "fibers.csv": "3382dc4965bd093d0aba50264cb571f456d6d113500edaadc4667f7db821819f",
            "plot_cp.dat": "0c8ae1a5317f8162bb6f774591a3874e6f636e5d92ecf4fe4e78e97a34af03bd",
            "plot_ratio.dat": "5e227414ecd0a63d717a17c74617bcd3df2cf40960321fff88ee9af0d270e8a0",
            "report.json": "c14a361b4c244c12932bb571217348d73e39796f113f95931fe54e26bb909c92",
        },
    ),
    "thickness": (
        ["thickness", "--spec", "disk", "--dir", "0,1", "--res", "64"],
        0,
        {
            "report.json": "641adf7141f73c36a8b824acb9c5974e51aa4fcb70a5d8c616716a566ca5a99a",
        },
    ),
    "regdir": (
        ["regdir", "--spec", "cusp", "--grid", "3"],
        0,
        {
            "report.json": "fa22533d27d49c81caa93332ae14bc663a3cf15a4907a5040ef2b7ad00877dc7",
        },
    ),
    "cells": (
        ["cells", "--spec", "annulus"],
        0,
        {
            "cells.dot": "2fdf5b6868f2b3ecb47951631d45e9823e7f66c7a27410a37fee2399651f782a",
            "report.json": "0a13e037793573f7a85bb05b17300ba70d304a05606e15cc9cc15697cca2e0e0",
        },
    ),
    "trace": (
        ["trace", "--spec", "disk", "--res", "64"],
        0,
        {
            "report.json": "5d8cf85acf1853b6c227588147738349e4c499b1511d71920f3c5883f0439202",
        },
    ),
    "raster": (
        ["raster", "--spec", "disk", "--res", "64"],
        0,
        {
            "mask.bin": "fa443cf5841ee8e4efae5e427e265ef7fd7edfcfc321b2bdfdd8a75df0f3a906",
            "mask.json": "5754e7092ad0e63a2ccaa6508855202eea7bcf130fbf6307751e75a8b978149f",
            "mask.pgm": "caf539cde8410e3812d92329fc3ec2b5d622964b4ad83f80edd37b6686d35a73",
            "report.json": "f33aac780b767d44fabd9e99347517dea30a4b0c0066a5c483793fb1f27b7e58",
        },
    ),
    "thickness-unbounded": (
        ["thickness", "--spec", "strip", "--dir", "e1", "--res", "64"],
        0,
        {
            "report.json": "8889ebe35a6a4c7c3cd69595e35257020375cdcd9c60c22de28e4d4067402da3",
        },
    ),
    "sweep-unbounded": (
        ["sweep", "--spec", "strip", "--res", "32", "--dir", "e1", "--samples", "512"],
        1,
        {
            "fibers.csv": "affbbb7d7cb03f1ae9667e5f9f7ced9dc6559b6700acdc0ac581a4753c8a777b",
            "plot_cp.dat": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "plot_ratio.dat": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "report.json": "6688e0eca7c5c39bdf2a0794c3b5c96f2e82db5702820a580dc0e3c1bbac2258",
        },
    ),
    "sweep-empty-fibers": (
        ["sweep", "--spec", "shrink_disk", "--ts", "0;0.25;0.6", "--res", "32",
         "--dir", "e1", "--samples", "512"],
        0,
        {
            "fibers.csv": "6a3e089addcfc20262cf1b4408ffc09896022cb8d5a2afebe1bdb2c5e17354cd",
            "plot_cp.dat": "638eade677314f68c1807fff1831c2a84933a0aa492a7397809242aa27dcbca5",
            "plot_ratio.dat": "11130fd6b05c8484b760febb6972a23c814218d5035418b8c7e30af43f16e65c",
            "report.json": "89302281463a420a1519475cbcc576f08712cec01214907b8822a58da630392c",
        },
    ),
    "lemma-not-applicable": (
        ["lemma", "--spec", "shrink_disk", "--ts", "0.1", "--res", "32",
         "--dir", "e1", "--samples", "512"],
        1,
        {
            "fibers.csv": "2a64ddc52d4eec432f6c2ce60f14eaf473fc1d77069c81466c4d02b549102191",
            "plot_cp.dat": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "plot_ratio.dat": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "report.json": "6dd4a4f27fa413088bd3a4b22a34333653d352c17bb37f4dee4dab9b7dc2617d",
        },
    ),
    "cells-no-merge": (
        ["cells", "--spec", "split_disk", "--no-merge"],
        0,
        {
            "cells.dot": "fa8894b1dafc6061b8aa43c1f225bc99713f63619a7fff7e1c0810478177bcc5",
            "report.json": "b59773b5cd38b02eb2e48c2a9d16fe11f6c04ea6220770c55cfdd76a306cc3f8",
        },
    ),
    "trace-bump": (
        ["trace", "--spec", "disk", "--res", "32", "--battery", "bump"],
        0,
        {
            "report.json": "8482fb3cf543a7f3f6d3f45c604a3b78d2a677d9124a80c06dd00c5f25de8052",
        },
    ),
    "trace-1d": (
        ["trace", "--spec", "interval", "--res", "64"],
        0,
        {
            "report.json": "cd339087cc14727959ecc424f42c92831b271ae5f3ebe986b0f92157cd00db0f",
        },
    ),
    "check-p3": (
        ["check", "--spec", "disk", "--p", "3", "--res", "12"],
        0,
        {
            "report.json": "7f02ef75fd4526b8a9183d114fa57bbe8bcee8f705ed4995220cca4029d8f33e",
        },
    ),
    "unknown-spec": (
        ["check", "--spec", "nosuch"],
        2,
        {
            "report.json": "97e0261e72085fc6a668f8cdc2cc2f27408c8fdc80fa77421b0b709b2c9a7450",
        },
    ),
    "t-out-of-range": (
        ["check", "--spec", "cusp", "--t", "7.0", "--res", "16"],
        2,
        {
            "report.json": "41f8b49164898588d5e3ac5496cc9bc27d0506a85e7829c5043655018c2cc7a7",
        },
    ),
    "check-dir-auto": (
        ["check", "--spec", "ellipse", "--t", "1.5", "--res", "32", "--dir", "auto"],
        0,
        {
            "report.json": "0e9e25fb66412379e40b2331657c2254f738be25dadf6045c68d20075fa0b89a",
        },
    ),
}


@pytest.mark.filterwarnings("ignore::poincare_lab.errors.StratumTooThinWarning")
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_golden_bytes(tmp_path, name):
    argv, code, digests = GOLDEN[name]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out), "--seed", "0", "--jobs", "1"]) == code
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert got == digests


# In one process main reuses its parser, its --out pre-parser and the
# bundled specs, and nothing else: these tests hold it to that.


@pytest.mark.filterwarnings("ignore::poincare_lab.errors.StratumTooThinWarning")
def test_golden_reports_back_to_back(tmp_path):
    names = list(GOLDEN)
    for k, name in enumerate(names + names[::-1]):
        argv, code, digests = GOLDEN[name]
        out = tmp_path / f"{k}-{name}"
        assert main(argv + ["--out", str(out), "--seed", "0", "--jobs", "1"]) == code, name
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
        assert got == digests, name


def test_parser_and_bundled_spec_are_built_once():
    assert _build_parser() is _build_parser()
    assert load_corpus("disk") is load_corpus("disk")


def test_spec_file_is_read_on_every_call(tmp_path):
    path = tmp_path / "disk.dom"
    got = []
    for k in ("1", "4"):
        path.write_text(f"dim 2\nbox [-1.5, 1.5] x [-1.5, 1.5]\nset: 1 - {k}*x^2 - {k}*y^2 > 0\n")
        code, report, _ = run(tmp_path, "thickness", "--spec", str(path), "--dir", "e1",
                              "--res", "16")
        assert code == 0
        got.append(report["thickness"])
    assert got == pytest.approx([2.0, 1.0], abs=1e-9)


@pytest.mark.parametrize("bad", [["--nonsense"], ["--res", "abc"]])
def test_usage_error_between_calls_leaves_the_report(tmp_path, capsys, bad):
    argv = ["check", "--spec", "disk", "--res", "16"]
    reports = []
    for sub, extra in (("a", []), ("bad", bad), ("b", [])):
        main(argv + extra + ["--out", str(tmp_path / sub)])
        reports.append((tmp_path / sub / "report.json").read_bytes())
    capsys.readouterr()
    assert json.loads(reports[1])["status"] == "usage_error"
    assert reports[2] == reports[0]


def test_help_after_other_calls_is_a_fresh_process_help(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the wrap width, here and in the subprocess
    run(tmp_path, "thickness", "--spec", "disk", "--dir", "e1", "--res", "16")
    run(tmp_path, "check", "--spec", "disk", "--nonsense")
    capsys.readouterr()
    for argv in (["--help"], ["thickness", "--help"]):
        assert main(argv) == 0
        fresh = subprocess.run([sys.executable, "-m", "poincare_lab.cli", *argv],
                               capture_output=True, text=True, check=True)
        assert capsys.readouterr().out == fresh.stdout, argv


@pytest.mark.parametrize("command", ["check", "trace"])
@pytest.mark.parametrize("p", ["nan", "inf"])
def test_nonfinite_p_is_usage_error(tmp_path, command, p):
    code, report, _ = run(tmp_path, command, "--spec", "disk", "--res", "16", "--p", p)
    assert code == 2
    assert report["status"] == "usage_error"
    assert report["error"]["type"] == "ValueError"


@pytest.fixture
def no_fiber_work(monkeypatch):
    """Fail the test if a sweep reaches its direction step or any fiber."""
    from poincare_lab import harness

    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep ran past its input checks")

    monkeypatch.setattr(harness, "sample_boundary", forbidden)
    monkeypatch.setattr(harness, "find_regular_direction", forbidden)
    monkeypatch.setattr(harness, "rasterize", forbidden)


@pytest.mark.parametrize("p", ["nan", "inf"])
def test_sweep_nonfinite_p_recorded_per_fiber(tmp_path, p, no_fiber_work):
    # a non-finite p is one usage error now, no longer one error per fiber
    code, report, _ = run(
        tmp_path, "sweep", "--spec", "disk", "--res", "16", "--dir", "e2",
        "--samples", "256", "--p", p,
    )
    assert code == 2
    assert report["status"] == "usage_error"
    assert report["error"]["type"] == "ValueError"
    assert "sweep" not in report


@pytest.mark.parametrize("command", ["sweep", "lemma", "uniform"])
@pytest.mark.parametrize("p", ["0.5", "nan", "inf"])
def test_family_bad_p_is_usage_error(tmp_path, command, p, no_fiber_work):
    res = "16,32" if command == "uniform" else "16"
    code, report, _ = run(
        tmp_path, command, "--spec", "cusp", "--grid", "3", "--res", res,
        "--dir", "auto", "--p", p,
    )
    assert code == 2
    assert report["status"] == "usage_error"
    assert report["error"] == {
        "type": "ValueError",
        "message": f"p must be finite and at least 1, got {float(p)}",
    }


@pytest.mark.parametrize("direction", ["nan,1", "0,0", "1,0,0"])
def test_sweep_bad_direction_is_usage_error(tmp_path, direction, no_fiber_work):
    code, report, _ = run(
        tmp_path, "sweep", "--spec", "cusp", "--grid", "3", "--res", "32",
        f"--dir={direction}",
    )
    assert code == 2
    assert report["status"] == "usage_error"
    assert report["error"]["type"] == "ValueError"
    assert "sweep" not in report


@pytest.mark.parametrize("flag", ["--jobs=0", "--jobs=-3", "--tol=-1", "--tol=0"])
def test_sweep_bad_flag_is_usage_error(tmp_path, flag, no_fiber_work):
    code, report, _ = run(
        tmp_path, "sweep", "--spec", "cusp", "--grid", "3", "--res", "32", flag
    )
    assert code == 2
    assert report["status"] == "usage_error"
    assert report["error"]["type"] == "ValueError"
    assert "sweep" not in report


@pytest.mark.parametrize("argv", [
    ["check", "--spec", "disk", "--res", "16", "--jobs=0"],
    ["check", "--spec", "disk", "--res", "16", "--jobs=-3"],
    ["raster", "--spec", "disk", "--res", "16", "--jobs=0"],
])
def test_bad_jobs_is_usage_error_on_every_command(tmp_path, argv):
    code, report, out = run(tmp_path, *argv)
    assert code == 2
    jobs = argv[-1].split("=")[1]
    assert report["error"] == {
        "type": "ValueError", "message": f"jobs must be at least 1, got {jobs}"
    }
    assert "checks" not in report
    assert not (out / "mask.bin").exists()


def test_trace_3d_ball_report(tmp_path):
    ball = tmp_path / "ball.dom"
    ball.write_text(
        "dim 3\nbox [-1.5,1.5]x[-1.5,1.5]x[-1.5,1.5]\nset: 1 - x^2 - y^2 - z^2 > 0\n"
    )
    code, report, _ = run(tmp_path, "trace", "--spec", str(ball), "--res", "8")
    assert report["error"] is None
    assert code == 0
    assert set(report["ratios"]) >= {"one", "x2", "x2^2"}


def test_cli_import_loads_no_scipy():
    # nor the process pool, which only a sweep with jobs > 1 loads, nor
    # numpy.polynomial, since every Chebyshev fit comes from the line kernel
    probe = (
        "import sys, poincare_lab.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy.polynomial'))"
        " or m in ('concurrent.futures.process', 'multiprocessing')))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# The parse matrix: every command bare, then with each of the 18 flags
# given a valid value and, when the flag takes one, the value "abc", then
# with an unknown flag; plus a missing and an unknown subcommand.  Each
# outcome is the parsed namespace or argparse's error message, together
# with the --out directory read ahead of the parse.  The messages are
# argparse's own (Python 3.11).
PARSE_COMMANDS = ["check", "sweep", "lemma", "uniform", "thickness", "regdir", "cells",
                  "trace", "raster"]
PARSE_VALUES = {
    "--spec": "cusp", "--out": "o", "--seed": "3", "--jobs": "2", "--tol": "1e-3",
    "--t": "0.5", "--ts": "0.5;1", "--grid": "3", "--p": "3", "--res": "64",
    "--dir": "e1", "--dirs": "128", "--samples": "1024",
    "--samples-per-column": "33", "--no-merge": None,
    "--battery": "bump", "--no-doubling": None, "--K": "2",
}
PARSE_DIGEST = "6342782886db896104a1ef843cde616d77dd4b099f81cfc88572f5d169823075"


def _parse_outcome(parser, argv):
    try:
        got = {"args": vars(parser.parse_args(argv))}
    except SystemExit as exc:
        got = {"error": str(exc.__cause__)}
    got["out"] = str(_out_dir(argv))
    return got


def test_parse_matrix_golden(capsys):
    cases = [[], ["nonsense"]]
    for command in PARSE_COMMANDS:
        cases.append([command])
        for flag, value in PARSE_VALUES.items():
            base = [command] + (["--spec", "disk"] if flag != "--spec" else [])
            cases.append(base + [flag] + ([] if value is None else [value]))
            if value is not None:
                cases.append(base + [flag, "abc"])
        cases.append([command, "--spec", "disk", "--nonsense"])
    assert len(cases) == 326

    def parse_all(order):
        return {tuple(argv): (_parse_outcome(_build_parser(), argv), capsys.readouterr())
                for argv in order}

    first = parse_all(cases)
    # every main call reuses the one parser: a second pass in reverse order
    # reproduces every outcome, usage text included
    assert parse_all(reversed(cases)) == first
    outcomes = [[argv, first[tuple(argv)][0]] for argv in cases]
    text = json.dumps(outcomes, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PARSE_DIGEST


# --dir texts through main at --res 16 on the disk: exit code, direction and
# error message.  Axis names and auto take any case and blanks around them;
# anything else is comma-separated components.
_NOT_FLOAT = "could not convert string to float: "
_NO_AUTO = ("direction 'auto' is not an axis name like e1 or a vector; "
            "auto applies only where a direction search runs")
DIR_GRAMMAR = [
    ("thickness", "E2", 0, [0.0, 1.0], None),
    ("thickness", " e1 ", 0, [1.0, 0.0], None),
    ("thickness", "0, 1", 0, [0.0, 1.0], None),
    ("thickness", "-1,0", 0, [-1.0, 0.0], None),
    ("thickness", "e3", 2, None, "axis name 'e3' out of range for dim 2"),
    ("thickness", "abc", 2, None, _NOT_FLOAT + "'abc'"),
    ("thickness", "0,0", 2, None, "direction must be a nonzero finite vector"),
    ("thickness", "auto", 2, None, _NO_AUTO),
    ("thickness", " AUTO ", 2, None, _NO_AUTO),
    ("thickness", "e", 2, None, _NOT_FLOAT + "'e'"),
    ("thickness", "e1.5", 2, None, _NOT_FLOAT + "'e1.5'"),
    ("thickness", "", 2, None, _NOT_FLOAT + "''"),
    ("thickness", "1,2,3", 2, None, "direction has 3 components, expected 2"),
    ("thickness", "nan,1", 2, None, "direction must be a nonzero finite vector"),
    ("check", "E2", 0, [0.0, 1.0], None),
    ("check", " auto ", 0, [-0.6715589548470186, 0.7409511253549591], None),
    ("check", "0,1", 0, [0.0, 1.0], None),
    ("check", "e0", 2, None, "axis name 'e0' out of range for dim 2"),
    ("check", "", 2, None, _NOT_FLOAT + "''"),
]


@pytest.mark.parametrize("command,text,code,direction,message", DIR_GRAMMAR)
def test_dir_grammar(tmp_path, command, text, code, direction, message):
    got, report, _ = run(tmp_path, command, "--spec", "disk", "--res", "16", f"--dir={text}")
    assert got == code
    assert report.get("direction") == direction
    expected = None if message is None else {"type": "ValueError", "message": message}
    assert report["error"] == expected


def test_thickness_dir_auto_is_usage_error(tmp_path):
    code, report, _ = run(tmp_path, "thickness", "--spec", "disk", "--dir", "auto", "--res", "16")
    assert code == 2
    assert report["status"] == "usage_error"
    assert report["error"]["type"] == "ValueError"
    assert "auto applies only where a direction search runs" in report["error"]["message"]


def test_unbounded_message_has_plain_numbers(tmp_path):
    code, report, _ = run(
        tmp_path, "check", "--spec", "cusp", "--t", "0.5", "--res", "32", "--dir", "0.3,0.9"
    )
    assert code == 1
    message = report["error"]["message"]
    assert message.startswith("fiber unbounded along direction [")
    assert "np.float64" not in message


def test_check_dir_auto_keeps_off_a_closing_box_face(tmp_path):
    # the box face x = 1 closes every cusp fiber, so a chord along any
    # direction with a component along e1 leaves through it
    code, report, _ = run(
        tmp_path, "check", "--spec", "cusp", "--t", "0.5", "--res", "32", "--dir", "auto"
    )
    assert code == 0
    assert report["direction"] == [0.0, 1.0]


def test_bad_samples_per_column_is_usage_error(tmp_path):
    code, report, _ = run(tmp_path, "cells", "--spec", "disk", "--samples-per-column", "2")
    assert code == 2
    assert report["error"] == {
        "type": "ValueError", "message": "samples_per_column must be at least 3, got 2"
    }


@pytest.mark.parametrize(
    "command,res", [("sweep", "2"), ("lemma", "2"), ("uniform", "2,16"), ("uniform", "16,2")]
)
def test_family_bad_resolution_is_usage_error(tmp_path, command, res, no_fiber_work):
    code, report, _ = run(
        tmp_path, command, "--spec", "cusp", "--grid", "3", "--res", res, "--dir", "e2"
    )
    assert code == 2
    assert report["error"] == {"type": "ValueError", "message": "resolution must be at least 4"}
    assert "sweep" not in report and "sweeps" not in report

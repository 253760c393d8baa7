import hashlib
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from poincare_lab import sobolev
from poincare_lab.cli import (
    DEFAULTS,
    _build_parser,
    _out_dir,
    canonical_json,
    exit_code_from_report,
    main,
)
from poincare_lab.raster import MAX_MARCH_SAMPLES


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
        tmp_path, "check", "--spec", "disk", "--res", "64", "--trials", "20"
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
        "--res", "64", "--trials", "10",
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
        tmp_path, "check", "--spec", "disk", "--p", "1", "--res", "16", "--trials", "5"
    )
    assert code == 0
    assert seen == [1e-6]


def test_check_nonfinite_constant_is_solver_error(tmp_path, monkeypatch):
    def nan_p2(raster, tol=1e-8, max_outer=200):
        return sobolev.PoincareEstimate(
            p=2.0, constant=math.nan, method="stub", iterations=0,
            residual=0.0, tol=tol, h=raster.h,
        )

    monkeypatch.setattr(sobolev, "poincare_p2", nan_p2)
    code, report, _ = run(
        tmp_path, "check", "--spec", "disk", "--res", "16", "--trials", "5"
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
    assert report["volume_estimate"] == pytest.approx(exact, rel=1e-3)
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
        "tol", "step", "samples", "dirs", "seed", "resolution",
        "grid", "samples_per_column", "trials", "p",
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
            "report.json": "4b93fa65d810eb23e4c8b5447032da78d1084240f2fd517f928fc901e97580da",
        },
    ),
    "sweep": (
        ["sweep", "--spec", "cusp", "--grid", "3", "--p", "2", "--res", "64", "--dir", "0,1"],
        0,
        {
            "fibers.csv": "af1f9efdaaff52c8bae4ebcadc982049c914bb7f777c22aa1cc58b5dfcc93899",
            "plot_cp.dat": "8935fd7008706063fa538bea3bad65cab3dcfd2bfe74174eb3b536ade5518108",
            "plot_ratio.dat": "0c9cab6e2014ff18f4a33a1492526e70765036b5456a6b6ed0efdb2c5b6eaa74",
            "report.json": "d23609aec7d4570fd0fa7d95cfaaa168e167ad2a17249537f41607e09c69608d",
        },
    ),
    "lemma": (
        ["lemma", "--spec", "cusp", "--grid", "3", "--res", "64", "--dir", "0,1"],
        0,
        {
            "fibers.csv": "af1f9efdaaff52c8bae4ebcadc982049c914bb7f777c22aa1cc58b5dfcc93899",
            "plot_cp.dat": "8935fd7008706063fa538bea3bad65cab3dcfd2bfe74174eb3b536ade5518108",
            "plot_ratio.dat": "0c9cab6e2014ff18f4a33a1492526e70765036b5456a6b6ed0efdb2c5b6eaa74",
            "report.json": "ac9a1272ea6311a4c8965068e407699bfe0c1e0fbbe9aff0e63b812117ba0783",
        },
    ),
    "uniform": (
        ["uniform", "--spec", "cusp", "--grid", "3", "--res", "48,96", "--dir", "0,1"],
        0,
        {
            "fibers.csv": "899fc66020da4734b12c2d910e4ea40f8d29cfba94b5d499bb2799ad9232425a",
            "plot_cp.dat": "061b37601df1b689163d77d8618cb793874b5818238c07bdd0cb7940556a43cb",
            "plot_ratio.dat": "e4e25ded80640b3ef3008065059eed8dd081aa9f594192806c1e13de2a196de3",
            "report.json": "5ac60fa427c2f26aab21cf506b4db9c95c07e9a63a6766ed9ea6d7bf16f75d0b",
        },
    ),
    "thickness": (
        ["thickness", "--spec", "disk", "--dir", "0,1", "--res", "64"],
        0,
        {
            "report.json": "a59141b65e33ed42f6bc08ce322e320caa219386ee745eccbee319fbf218c33c",
        },
    ),
    "regdir": (
        ["regdir", "--spec", "cusp", "--grid", "3"],
        0,
        {
            "report.json": "2003bef5a541bda0442438b800d84e34426df1200585f88f0b7ccfcf3a075d49",
        },
    ),
    "cells": (
        ["cells", "--spec", "annulus"],
        0,
        {
            "cells.dot": "8e85e28001c646f1421bddabf226734bb71c892cff740a7433ad0b4a343331a4",
            "report.json": "8556b1f468523c52f23ab70c3647e0102d7471feb7bb787e3203ecc2aacb95bc",
        },
    ),
    "trace": (
        ["trace", "--spec", "disk", "--res", "64"],
        0,
        {
            "report.json": "6466303dbbf301c1b9f8a01b06ca46c53116e7eec5ef5f0f333c97c5654731ac",
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
            "fibers.csv": "0639e69dece6556dc9be5d2c1e7a271ea5c55ad64797ae924537b3971835c51e",
            "plot_cp.dat": "156468fa096befa69d08b92130c8a026995952be602a1131fe8ae7738fbf16ad",
            "plot_ratio.dat": "7400eb72c99cd34e28691ac6bd99634563e14f8428e6cc64481136e6d0bdd39b",
            "report.json": "f0a1e304ae8802619dda00fb1417cb5bc067c05c23a45cec8c1fe84bdc689692",
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
            "cells.dot": "44d1707ddd50d222fae0156e7ba6c2a759d2d31695bdcaa62d816cbfca8ccfc7",
            "report.json": "e02cc9f5d867f1822cc03c0676f31a8c30600b2bdbf104d9f84d0ed5f1900aca",
        },
    ),
    "trace-bump": (
        ["trace", "--spec", "disk", "--res", "32", "--battery", "bump"],
        0,
        {
            "report.json": "800782cdf63bd779cd79faa6dfc4956b7ccc9769a94d194f720ff5921bc8dd29",
        },
    ),
    "trace-1d": (
        ["trace", "--spec", "interval", "--res", "64"],
        0,
        {
            "report.json": "5fdbe926775dc96adf4ec28b7e8e63eb8119d39c3bb6e521668b16ea6a15e3cb",
        },
    ),
    "check-p3": (
        ["check", "--spec", "disk", "--p", "3", "--res", "12", "--trials", "5"],
        0,
        {
            "report.json": "b70d248f6df0ed6806eb94428f449c2d2882fb2738d8548f4a5c5895a53c6a1c",
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
        ["check", "--spec", "ellipse", "--t", "1.5", "--res", "32", "--dir", "auto",
         "--trials", "5"],
        0,
        {
            "report.json": "b03e741613ab6621a946c5aede5b8c841cfcaee39276edc960d22ce06e5988ce",
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


def test_trace_3d_is_usage_error(tmp_path):
    ball = tmp_path / "ball.dom"
    ball.write_text(
        "dim 3\nbox [-1.5,1.5]x[-1.5,1.5]x[-1.5,1.5]\nset: 1 - x^2 - y^2 - z^2 > 0\n"
    )
    code, report, _ = run(tmp_path, "trace", "--spec", str(ball), "--res", "8")
    assert code == 2
    assert report["status"] == "usage_error"
    assert report["error"]["type"] == "NotImplementedError"


def test_cli_import_loads_no_scipy():
    probe = (
        "import sys, poincare_lab.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# The parse matrix: every command bare, then with each of the 20 flags
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
    "--dir": "e1", "--dirs": "128", "--samples": "1024", "--step": "0.01",
    "--trials": "5", "--samples-per-column": "33", "--no-merge": None,
    "--battery": "bump", "--no-doubling": None, "--K": "2",
}
PARSE_DIGEST = "8afad33ab9921f74e442bcbfbf897a20fe190b24471d6ebe5c9d1ee89e743002"


def _parse_outcome(argv):
    try:
        got = {"args": vars(_build_parser().parse_args(argv))}
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
    assert len(cases) == 362
    outcomes = [[argv, _parse_outcome(argv)] for argv in cases]
    capsys.readouterr()
    text = json.dumps(outcomes, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PARSE_DIGEST


def test_thickness_dir_auto_is_usage_error(tmp_path):
    code, report, _ = run(tmp_path, "thickness", "--spec", "disk", "--dir", "auto", "--res", "16")
    assert code == 2
    assert report["status"] == "usage_error"
    assert report["error"]["type"] == "ValueError"
    assert "auto applies only where a direction search runs" in report["error"]["message"]


@pytest.mark.parametrize("step", ["0", "-0.01", "nan", "inf"])
def test_bad_step_is_usage_error(tmp_path, step):
    code, report, _ = run(
        tmp_path, "thickness", "--spec", "disk", "--dir", "e1", "--res", "32", "--step", step
    )
    assert code == 2
    assert report["error"] == {
        "type": "ValueError",
        "message": f"step must be positive and finite, got {float(step)}",
    }


@pytest.fixture
def no_solve(monkeypatch):
    """Fail the test if a command reaches either solver route."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the command ran past its input checks")

    monkeypatch.setattr(sobolev, "poincare_p2", forbidden)
    monkeypatch.setattr(sobolev, "poincare_general_p", forbidden)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_bad_trials_is_usage_error(tmp_path, trials, no_solve):
    code, report, _ = run(
        tmp_path, "check", "--spec", "disk", "--res", "256", "--trials", trials
    )
    assert code == 2
    assert report["error"] == {
        "type": "ValueError", "message": f"trials must be at least 1, got {trials}"
    }


def test_oversized_march_is_usage_error(tmp_path):
    # a step of 1e-9 would ask numpy for about 22 GiB of march samples; the
    # march is refused before any of it is allocated
    tracemalloc.start()
    try:
        code, report, _ = run(
            tmp_path, "thickness", "--spec", "disk", "--dir", "e1", "--res", "32",
            "--step", "1e-9",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert report["error"]["type"] == "ValueError"
    assert report["error"]["message"].endswith(f"samples, over {MAX_MARCH_SAMPLES}")
    assert peak < 64 << 20


def test_unbounded_message_has_plain_numbers(tmp_path):
    code, report, _ = run(
        tmp_path, "check", "--spec", "cusp", "--t", "0.5", "--res", "32", "--dir", "auto"
    )
    assert code == 1
    message = report["error"]["message"]
    assert message.startswith("fiber unbounded along direction [")
    assert "np.float64" not in message


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

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from poincare_lab import sobolev
from poincare_lab.cli import (
    DEFAULTS,
    _build_parser,
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

    def spy(raster, p, tol=1e-6, seed=0):
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
    code = main(["check", "--spec", "disk", "--nonsense"])
    capsys.readouterr()
    assert code == 2


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
            "report.json": "1ca7266e73fdcf1b733f8d3c19c0188acec48345b69f22befaae17196c6b717e",
        },
    ),
    "sweep": (
        ["sweep", "--spec", "cusp", "--grid", "3", "--p", "2", "--res", "64", "--dir", "0,1"],
        0,
        {
            "fibers.csv": "feb037c427d8b325e1d6947ff7e00f1de6d7f02d1e9fd9c06a314913a76bf66a",
            "plot_cp.dat": "bf7a5eb2f21842540e9ea370b67fb02d1d656aac4c45bc3e4d188004e2614391",
            "plot_ratio.dat": "0c9cab6e2014ff18f4a33a1492526e70765036b5456a6b6ed0efdb2c5b6eaa74",
            "report.json": "21d6d7191cc26085534d2e6a0e31866e2314e37e83a6c41900d5517ea8290105",
        },
    ),
    "lemma": (
        ["lemma", "--spec", "cusp", "--grid", "3", "--res", "64", "--dir", "0,1"],
        0,
        {
            "fibers.csv": "feb037c427d8b325e1d6947ff7e00f1de6d7f02d1e9fd9c06a314913a76bf66a",
            "plot_cp.dat": "bf7a5eb2f21842540e9ea370b67fb02d1d656aac4c45bc3e4d188004e2614391",
            "plot_ratio.dat": "0c9cab6e2014ff18f4a33a1492526e70765036b5456a6b6ed0efdb2c5b6eaa74",
            "report.json": "132cb9edde7050c2cd2f635468d7e15e75ce1ec85d9e9a62307cf0e3e7513688",
        },
    ),
    "uniform": (
        ["uniform", "--spec", "cusp", "--grid", "3", "--res", "48,96", "--dir", "0,1"],
        0,
        {
            "fibers.csv": "dbb5aec749ed63f63f49fb53e341d09973025130c9a3aecb165806d874f2d4c5",
            "plot_cp.dat": "93950c73ca3a66fc783c9259fca4d60cf0b5ece73f12cb90fb9798518f0da7b1",
            "plot_ratio.dat": "e4e25ded80640b3ef3008065059eed8dd081aa9f594192806c1e13de2a196de3",
            "report.json": "44840eda87d7cbf942b49efbd056957478115ade9d080949a341b47c7e235211",
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
            "fibers.csv": "313be7cc9310432310e519a2fabfa2d56289dacbaa9a7049a6b3e2b6a9703a13",
            "plot_cp.dat": "42d6ce78a79a74cc9024a36062967c638f74515ee667fe73c56581f4e01490a9",
            "plot_ratio.dat": "7400eb72c99cd34e28691ac6bd99634563e14f8428e6cc64481136e6d0bdd39b",
            "report.json": "3d110e14176911c2d571af4489b6ba977d1968615920821fbd34ffd79ef4859d",
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
            "report.json": "ebcf4ec89419c680a5b2291c6e90c83bd52e62461a5372a4ef1d651bfb0f16e9",
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


@pytest.mark.parametrize("p", ["nan", "inf"])
def test_sweep_nonfinite_p_recorded_per_fiber(tmp_path, p):
    code, report, _ = run(
        tmp_path, "sweep", "--spec", "disk", "--res", "16", "--dir", "e2",
        "--samples", "256", "--p", p,
    )
    assert code == 1
    sw = report["sweep"]
    assert sw["p"] is None
    assert [r["error"].split(":")[0] for r in sw["records"]] == ["ValueError"]


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

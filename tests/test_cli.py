import json
import math

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

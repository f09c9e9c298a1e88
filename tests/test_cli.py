import json

import pytest

from trimreg.cli import build_parser, main
from trimreg.harness import COMPARISON_COLUMNS


def test_run_setup_a_writes_outputs(tmp_path, capsys):
    out = tmp_path / "runA"
    code = main(
        [
            "run-setup-a",
            "--n", "30", "--d", "3",
            "--eps-grid", "0,0.1",
            "--methods", "OLS,TM-PlugIn",
            "--trials", "3",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    for name in ("trials.csv", "summary.csv", "metadata.json"):
        assert (out / name).exists()
    lines = (out / "trials.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 2 * 3  # header + eps x methods x trials
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["trim_rule"] == "k = floor(eps*n) + 5"
    assert meta["initializer"] == "random"
    assert meta["outlier_response"] == 10000.0
    assert meta["mom_blocks"] is None  # min(n, 2*floor(eps*n) + 5) per cell
    assert any("infeasible" in note for note in meta["notes"])
    # both settings change the results, so the metadata records them
    out = tmp_path / "runA-set"
    argv = [
        "run-setup-a", "--n", "30", "--d", "3", "--eps-grid", "0.1",
        "--methods", "OLS,MoM", "--trials", "2", "--out", str(out),
        "--outlier-y", "500", "--mom-blocks", "7",
    ]
    assert main(argv) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["outlier_response"] == 500.0
    assert meta["mom_blocks"] == 7


def test_run_setup_b_json_format(tmp_path):
    out = tmp_path / "runB"
    code = main(
        [
            "run-setup-b",
            "--n", "40", "--d", "3", "--p", "0.5",
            "--eps-grid", "0.1",
            "--methods", "OLS",
            "--trials", "2",
            "--out", str(out),
            "--format", "json",
        ]
    )
    assert code == 0
    rows = json.loads((out / "trials.json").read_text())
    assert len(rows) == 2
    assert rows[0]["setup"] == "B"
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["mom_blocks"] is None
    assert "outlier_response" not in meta  # a Setup-A setting


def test_config_file_argument(tmp_path):
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(
        "# benchmark settings\n"
        "n = 30\n"
        "d = 3\n"
        "eps-grid = 0,0.1\n"
        "methods = OLS\n"
        "trials = 2\n"
        f"out = {tmp_path / 'cfgrun'}\n"
    )
    code = main(["run-setup-a", f"@{cfg}"])
    assert code == 0
    assert (tmp_path / "cfgrun" / "trials.csv").exists()


def test_config_file_flag_override(tmp_path):
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text("n = 30\ntrials = 2\n")
    out = tmp_path / "override"
    code = main(
        [
            "run-setup-a", f"@{cfg}",
            "--d", "2", "--eps-grid", "0", "--methods", "OLS",
            "--trials", "1", "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "trials.csv").read_text().strip().split("\n")
    assert len(lines) == 2  # the command-line trial count wins


def test_config_file_compare_algs(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("trials = 2\nseed = 5  # base seed\nformat = json\n")
    args = build_parser().parse_args(
        ["compare-algs", f"@{cfg}", "--out", str(tmp_path)]
    )
    assert (args.trials, args.seed, args.format) == (2, 5, "json")


def test_config_file_bounds(tmp_path):
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text(
        "eps_step = 0.1\n"
        "n-max = 1000\n"
        "slice-nu = 2:1,4:1.5  # moment profile\n"
        f"out = {tmp_path / 'b'}\n"
    )
    assert main(["bounds", f"@{cfg}"]) == 0
    ce = (tmp_path / "b" / "c_epsilon_curve.csv").read_text().strip().split("\n")
    assert [ln.split(",")[0] for ln in ce[1:]] == ["0", "0.10000000000000001",
                                                   "0.20000000000000001",
                                                   "0.29999999999999999",
                                                   "0.40000000000000002"]
    slice_u = (tmp_path / "b" / "phi_p_uniform_slice.csv").read_text().split("\n")
    assert slice_u[-2].startswith("1000,")


@pytest.mark.parametrize(
    "argv",
    [
        ["run-setup-b", "--n", "20", "--d", "2", "--eps-grid", "0",
         "--methods", "OLS", "--trials", "1"],
        ["bounds", "--n-max", "100"],
    ],
)
def test_out_is_a_regular_file_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "taken"
    target.write_text("")
    assert main(argv + ["--out", str(target)]) == 2
    assert "error:" in capsys.readouterr().err
    assert target.read_text() == ""


def test_identical_runs_are_byte_identical(tmp_path):
    args = [
        "run-setup-a", "--n", "25", "--d", "2", "--eps-grid", "0,0.2",
        "--methods", "OLS,MoM", "--trials", "4", "--seed", "7",
    ]
    assert main(args + ["--out", str(tmp_path / "x")]) == 0
    assert main(args + ["--out", str(tmp_path / "y"), "--workers", "2"]) == 0
    for name in ("trials.csv", "summary.csv", "metadata.json"):
        assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()


@pytest.mark.parametrize("negative", [["--eps-grid=-0,0.1"], ["--rho=-0"]])
def test_negative_zero_runs_the_zero_cell(tmp_path, negative):
    # "-0" once went into the eps and rho_or_p columns, the metadata and
    # the trial seeds, so the cell drew other data than 0's
    zero, neg = tmp_path / "zero", tmp_path / "neg"
    args = [
        "run-setup-a", "--n", "40", "--d", "3", "--eps-grid", "0,0.1",
        "--methods", "OLS", "--trials", "2",
    ]
    assert main(args + ["--out", str(zero)]) == 0
    assert main(args + negative + ["--out", str(neg)]) == 0
    for name in ("trials.csv", "summary.csv", "metadata.json"):
        assert (neg / name).read_bytes() == (zero / name).read_bytes()


def test_compare_algs_emits_delta_table(tmp_path):
    out = tmp_path / "cmp"
    code = main(["compare-algs", "--trials", "2", "--seed", "5", "--out", str(out)])
    assert code == 0
    lines = (out / "comparison.csv").read_text().strip().split("\n")
    assert lines[0] == (
        "n,eps,error_dist,aasd_mean,aasd_std,plugin_mean,plugin_std,"
        "delta_mean_pct,delta_std_pct"
    )
    assert len(lines) == 1 + 16  # {120,360} x {0.05,0.2} x 4 error dists


def test_compare_algs_json_writes_comparison_as_json(tmp_path):
    args = ["compare-algs", "--trials", "2", "--seed", "0", "--out"]
    assert main(args + [str(tmp_path / "csv")]) == 0
    assert main(args + [str(tmp_path / "json"), "--format", "json"]) == 0
    assert not (tmp_path / "json" / "comparison.csv").exists()
    objects = json.loads((tmp_path / "json" / "comparison.json").read_text())
    header, *rows = (tmp_path / "csv" / "comparison.csv").read_text().splitlines()
    assert header.split(",") == list(COMPARISON_COLUMNS)
    assert len(objects) == len(rows) == 16
    for obj, row in zip(objects, rows):
        assert list(obj) == sorted(COMPARISON_COLUMNS)
        for column, text in zip(COMPARISON_COLUMNS, row.split(",")):
            value = obj[column]
            assert value == (text if isinstance(value, str) else float(text))


def test_compare_algs_one_trial_exits_2_before_running(tmp_path, capsys):
    # one trial per cell makes every std 0, and delta_std_pct divides by it
    out = tmp_path / "cmp"
    assert main(["compare-algs", "--trials", "1", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_bounds_subcommand(tmp_path):
    out = tmp_path / "bounds"
    code = main(["bounds", "--out", str(out), "--eps-step", "0.01", "--n-max", "10000"])
    assert code == 0
    ce = (out / "c_epsilon_curve.csv").read_text().strip().split("\n")
    assert ce[0] == "eps,c_epsilon"
    eps, vals = zip(*(map(float, ln.split(",")) for ln in ce[1:]))
    flat = [v for e, v in zip(eps, vals) if e <= 0.25]
    assert all(v == pytest.approx(768.0) for v in flat)
    rising = [v for e, v in zip(eps, vals) if 0.25 < e < 0.5]
    assert all(b > a for a, b in zip(rising, rising[1:]))

    cj = (out / "c_j_epsilon_curve.csv").read_text().strip().split("\n")
    assert cj[0] == "eps,c_j_epsilon"

    slice_u = (out / "phi_p_uniform_slice.csv").read_text().strip().split("\n")
    assert slice_u[0] == "n,phi_p_uniform"
    ns, phis = zip(*(map(float, ln.split(",")) for ln in slice_u[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(phis, phis[1:]))

    slice_r = (out / "phi_p_regression_slice.csv").read_text().strip().split("\n")
    assert slice_r[0] == "n,r_q,r_m_bound,phi_p_regression"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n-max", "3"], "--n-max"),  # below the grid's first n, 10
        (["--n-max", "0"], "--n-max"),
        (["--eps-step", "0"], "--eps-step"),
        (["--slice-eps", "0.6"], "eps must lie in"),  # checked per slice row
        (["--slice-eps", "nan"], "eps must lie in"),
        (["--slice-emp", "nan"], "empirical-process expectation"),
    ],
)
def test_bad_bounds_setting_exits_2_with_no_output(tmp_path, capsys, flags, message):
    out = tmp_path / "bad"
    assert main(["bounds", "--out", str(out)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "profile, message",
    [
        ("2:nan", "moment values must be nonnegative"),
        ("nan:1,2:1", "moment exponents must be >= 1"),
        ("2:-1", "moment values must be nonnegative"),
        ("", "moment profile must be nonempty"),
    ],
)
def test_bad_moment_profile_exits_2_with_no_output(tmp_path, capsys, profile, message):
    out = tmp_path / "bad"
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--out", str(out), "--slice-nu", profile])
    assert exc.value.code == 2
    assert f"argument --slice-nu: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--outlier-y", "inf"], "outlier_response"),
        (["--plugin-iters", "0"], "plugin_iters"),
        (["--mom-blocks", "0"], "mom_blocks"),
        (["--mom-blocks", "31"], "mom_blocks"),  # n = 30
        (["--workers", "0"], "--workers"),
        (["--methods", ","], "methods"),
        (["--trim-extra", "-1"], "trim_extra"),
    ],
)
def test_bad_run_setting_exits_2_with_no_output(tmp_path, capsys, flags, message):
    out = tmp_path / "bad"
    argv = [
        "run-setup-a", "--n", "30", "--d", "3", "--eps-grid", "0.1",
        "--methods", "OLS,TM-PlugIn,MoM", "--trials", "2", "--out", str(out),
    ]
    assert main(argv + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--eps-grid", "0.1,0.1", "--methods", "OLS"], "eps_grid repeats"),
        (["--eps-grid", "0,-0", "--methods", "OLS"], "eps_grid repeats"),
        (["--eps-grid", "0.1", "--methods", "OLS,OLS"], "methods repeats"),
    ],
)
def test_repeated_grid_entry_exits_2_with_no_output(tmp_path, capsys, flags, message):
    # a repeated entry once wrote each trial twice, with one seed, and
    # summarized the doubled losses
    out = tmp_path / "repeat"
    argv = ["run-setup-a", "--n", "40", "--d", "3", "--trials", "2", "--out", str(out)]
    assert main(argv + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_value_exits_nonzero(capsys):
    code = main(
        [
            "run-setup-a", "--n", "10", "--eps-grid", "0.7",
            "--methods", "OLS", "--trials", "1", "--out", "/tmp/never",
        ]
    )
    assert code != 0
    assert "error" in capsys.readouterr().err


def test_unknown_method_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["run-setup-a", "--n", "10", "--methods", "LASSO", "--out", "/tmp/never"])
    assert exc.value.code == 2


def test_help_documents_columns(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "eps,c_epsilon" in text
    assert "phi_p_uniform" in text

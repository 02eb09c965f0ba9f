import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from irsbeam.cli import main

SCENARIOS = ["convergence", "srr-sweep", "rate-vs-n", "single", "oracle-check"]


def write_config(tmp_path, **doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_single_run_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=4, master_seed=2, n_values=[4])
    out = tmp_path / "single.csv"
    assert main(["single", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,method,mean_rate_bits,std_rate_bits,trials"
    assert len(lines) == 7
    assert "wrote 6 rows" in capsys.readouterr().out


def test_single_is_rate_vs_n_at_the_same_n(tmp_path):
    cfg = write_config(tmp_path, trials=3, master_seed=2, n_values=[8])
    out_s, out_r = tmp_path / "single.csv", tmp_path / "rate.csv"
    assert main(["single", "--config", cfg, "--out", str(out_s), "--verbose-trials"]) == 0
    assert main(["rate-vs-n", "--config", cfg, "--out", str(out_r), "--verbose-trials"]) == 0
    assert out_s.read_bytes() == out_r.read_bytes()
    assert (tmp_path / "single.trials.csv").read_bytes() == \
        (tmp_path / "rate.trials.csv").read_bytes()
    assert (tmp_path / "rate.trials.csv").read_text().splitlines()[0] == \
        "n,method,trial,seed,rate_bits"


def test_trial_log_of_an_out_path_without_csv_suffix(tmp_path):
    # The log goes to "<out>.trials.csv"; only a ".csv" suffix is replaced.
    cfg = write_config(tmp_path, trials=2, n_values=[4])
    out = tmp_path / "run.out"
    assert main(["single", "--config", cfg, "--out", str(out), "--verbose-trials"]) == 0
    assert out.exists() and (tmp_path / "run.out.trials.csv").exists()


def test_single_writes_a_block_per_n_value(tmp_path):
    cfg = write_config(tmp_path, trials=2, n_values=[4, 8])
    out = tmp_path / "single.csv"
    assert main(["single", "--config", cfg, "--out", str(out)]) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == \
        ["4"] * 6 + ["8"] * 6


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, trials=4, master_seed=2, n_values=[4])
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["rate-vs-n", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["rate-vs-n", "--config", cfg, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_convergence_headers(tmp_path):
    cfg = write_config(tmp_path, trials=3, n_values=[4])
    out = tmp_path / "conv.csv"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "seed,iteration,lambda,rate_bits"


def test_srr_sweep_headers_and_trial_log(tmp_path):
    cfg = write_config(tmp_path, trials=3, n_values=[8], k_values=[2, 8],
                       p_s_dbm_values=[15.0])
    out = tmp_path / "sweep.csv"
    assert main(["srr-sweep", "--config", cfg, "--out", str(out),
                 "--verbose-trials"]) == 0
    assert out.read_text().splitlines()[0] == \
        "k,p_s_dbm,method,mean_rate_bits,std_rate_bits,trials"
    log = tmp_path / "sweep.trials.csv"
    assert log.exists()
    assert log.read_text().splitlines()[0] == "k,p_s_dbm,method,trial,seed,rate_bits"


def test_oracle_check_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=2)
    out = tmp_path / "oracle.csv"
    assert main(["oracle-check", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == \
        "seed,n,method,rate_bits,best_rate_bits,gap_bits"
    assert capsys.readouterr().out.splitlines() == [
        f"wrote 24 rows to {out}", "max-asnr: 0 of 4 runs did not converge"]


def test_seed_and_trials_flags_override(tmp_path):
    cfg = write_config(tmp_path, trials=4, master_seed=2, n_values=[4])
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["single", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["single", "--config", cfg, "--out", str(out_b),
                 "--seed", "99", "--trials", "5"]) == 0
    assert out_a.read_bytes() != out_b.read_bytes()
    assert out_b.read_text().splitlines()[1].endswith(",5")


def test_trials_flag_above_the_bound_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["convergence", "--trials", str(2**32 + 1), "--out", str(out)]) == 2
    assert "config error: trials:" in capsys.readouterr().err
    assert not out.exists()


# Not N = 1: there the direction is a single phase and the scale update
# returns the scale it started from, so even a 1e-300 tolerance stops it.
@pytest.mark.parametrize("scenario, n_values", [
    ("rate-vs-n", [2, 4]), ("single", [4]), ("oracle-check", [2])])
def test_summary_scenarios_count_unconverged_max_asnr_runs(tmp_path, capsys, scenario,
                                                          n_values):
    runs = 3 * len(n_values)
    out = tmp_path / "out.csv"
    for solver, unconverged in (({}, 0), ({"tolerance": 1e-300, "max_iterations": 2}, runs)):
        cfg = write_config(tmp_path, trials=3, n_values=n_values, **solver)
        assert main([scenario, "--config", cfg, "--out", str(out)]) == 0
        note = f"max-asnr: {unconverged} of {runs} runs did not converge"
        assert note in capsys.readouterr().out.splitlines()
        assert "converge" not in out.read_text()


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=0)
    assert main(["single", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    (tmp_path / "config.json").write_text("[]")
    assert main(["single", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 2
    assert "config error: config document must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("scenario, doc, key", [
    ("rate-vs-n", {"n_values": [4, 4]}, "n_values"),
    ("srr-sweep", {"n_values": [8], "k_values": [4, 4]}, "k_values"),
    ("srr-sweep", {"n_values": [8], "p_s_dbm_values": [0, 0.0]}, "p_s_dbm_values"),
])
def test_repeated_grid_entry_exit_code(tmp_path, capsys, scenario, doc, key):
    cfg = write_config(tmp_path, trials=2, **doc)
    out = tmp_path / "out.csv"
    assert main([scenario, "--config", cfg, "--out", str(out), "--verbose-trials"]) == 2
    assert f"config error: {key}: entries must be distinct" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_setup_does_not_import_numpy_random():
    # Setup, what a run does before its first trial, leaves numpy.random,
    # a large import, to the first draw.
    code = ("import sys, irsbeam, irsbeam.cli; irsbeam.parse_config('{}'); "
            "sys.exit('numpy.random' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_unknown_key_exit_code(tmp_path):
    cfg = write_config(tmp_path, bogus=1)
    assert main(["single", "--config", cfg]) == 2


NAN, INF = float("nan"), float("inf")
BIG = 10**400  # 401 digits: a JSON integer with no float value


@pytest.mark.parametrize("scenario, doc, key", [
    ("single", {"pos_irs": [NAN, 30]}, "pos_irs"),
    ("single", {"alpha_bi": NAN}, "alpha_bi"),
    ("single", {"ref_loss_db": INF}, "ref_loss_db"),
    ("single", {"p_s_dbm": -INF}, "p_s_dbm"),
    ("srr-sweep", {"p_s_dbm_values": [NAN]}, "p_s_dbm_values"),
    # Finite in the document, but overflowing or underflowing once converted.
    ("single", {"p_s_dbm": 4000}, "p_s_dbm"),
    ("single", {"p_s_dbm": BIG}, "p_s_dbm"),
    ("single", {"alpha_bi": BIG}, "alpha_bi"),
    ("single", {"pos_bs": [BIG, 0]}, "pos_bs"),
    ("srr-sweep", {"p_s_dbm_values": [BIG]}, "p_s_dbm_values"),
    ("srr-sweep", {"p_s_dbm_values": [4000]}, "p_s_dbm_values"),
    ("single", {"ref_loss_db": 4000}, "ref_loss_db"),
    ("single", {"ref_loss_db": -4000}, "ref_loss_db"),
    ("single", {"alpha_bi": 1e6}, "alpha_bi"),
    ("single", {"pos_irs": [1e300, 0]}, "pos_irs"),
    ("srr-sweep", {"n_values": [8, 64]}, "n_values"),
    ("oracle-check", {"n_values": [3]}, "n_values"),
    ("single", {"n_values": [10**30]}, "n_values"),
    # Finite link variances whose products overflow or underflow the designs.
    ("single", {"ref_loss_db": 3000}, "ref_loss_db"),
    ("single", {"ref_loss_db": -3000}, "ref_loss_db"),
    ("convergence", {"ref_loss_db": 3000}, "ref_loss_db"),
    ("convergence", {"ref_loss_db": -3000}, "ref_loss_db"),
])
def test_non_finite_value_is_a_config_error(tmp_path, capsys, scenario, doc, key):
    cfg = write_config(tmp_path, **{"trials": 2, "n_values": [4], **doc})
    assert main([scenario, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 2
    assert f"config error: {key}:" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


# Power levels and noise floors that pass each key's own check but whose
# products with the link scales break the designs: each used to exit 3 at
# trial 0 (underflowed or overflowed products, a zero or NaN scale).
@pytest.mark.parametrize("scenario, doc, key", [
    *((scenario, doc, key) for scenario in ("single", "convergence", "oracle-check")
      for doc, key in (({"p_s_dbm": 3000}, "p_s_dbm"), ({"p_i_dbm": -3000}, "p_i_dbm"),
                       ({"sigma_i_sq_dbm": 3000}, "sigma_i_sq_dbm"),
                       ({"sigma_u_sq_dbm": 3000}, "sigma_u_sq_dbm"))),
    ("single", {"sigma_i_sq_dbm": -3000, "sigma_u_sq_dbm": -3000}, "sigma_i_sq_dbm"),
    ("convergence", {"sigma_i_sq_dbm": -3000, "sigma_u_sq_dbm": -3000}, "sigma_i_sq_dbm"),
    ("single", {"p_s_dbm": 3000, "ref_loss_db": 1000}, "p_s_dbm"),
    ("convergence", {"p_s_dbm": 3000, "ref_loss_db": 1000}, "p_s_dbm"),
    ("srr-sweep", {"ref_loss_db": 500, "p_s_dbm_values": [3000]}, "p_s_dbm_values"),
])
def test_power_products_that_break_the_designs_are_config_errors(tmp_path, capsys, scenario,
                                                                 doc, key):
    n = 2 if scenario == "oracle-check" else 4      # oracle-check's grid holds N <= 2
    cfg = write_config(tmp_path, **{"trials": 3, "n_values": [n], **doc})
    out = tmp_path / "out.csv"
    assert main([scenario, "--config", cfg, "--out", str(out)]) == 2
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ref_loss_db", [290, -290, 1030, -1440])
@pytest.mark.parametrize("scenario", ["single", "convergence"])
def test_link_scales_inside_the_bound_run(tmp_path, scenario, ref_loss_db):
    # +-290 dB, and values just inside the config-time bound on both sides.
    cfg = write_config(tmp_path, ref_loss_db=ref_loss_db, n_values=[4, 64], trials=3)
    assert main([scenario, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0


@pytest.mark.parametrize("scenario", ["convergence", "oracle-check"])
def test_verbose_trials_is_a_config_error_without_a_trial_log(tmp_path, capsys, scenario):
    cfg = write_config(tmp_path, trials=2)
    out = tmp_path / "out.csv"
    assert main([scenario, "--config", cfg, "--out", str(out), "--verbose-trials"]) == 2
    err = capsys.readouterr().err
    assert f"config error: --verbose-trials: not used by the {scenario} scenario" in err
    assert not out.exists()


@pytest.mark.parametrize("doc, flags, key", [
    ({"p_s_dbm": 40}, [], "p_s_dbm"),
    ({"tolerance": 0.5, "max_iterations": 1}, [], "tolerance"),
    ({"max_iterations": 1}, [], "max_iterations"),
])
def test_srr_sweep_rejects_what_it_does_not_read(tmp_path, capsys, doc, flags, key):
    # srr-sweep takes P_S from p_s_dbm_values and runs no iterative method.
    cfg = write_config(tmp_path, trials=2, n_values=[8], **doc)
    out = tmp_path / "out.csv"
    assert main(["srr-sweep", "--config", cfg, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key}: not used by the srr-sweep scenario" in err
    assert not out.exists()


def test_subcommand_and_out_flag_override_null_document_values(tmp_path):
    cfg = write_config(tmp_path, scenario=None, output_path=None, trials=2, n_values=[4])
    out = tmp_path / "out.csv"
    assert main(["single", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().startswith("n,method,")


def test_missing_config_file_exit_code(tmp_path):
    assert main(["single", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("data, message", [
    (b'{"trials": 2\xff}', "config: cannot read {path}: 'utf-8' codec can't decode byte 0xff"),
    (b'\xef\xbb\xbf{"trials": 2}', "invalid JSON config: Unexpected UTF-8 BOM"),
])
def test_config_file_that_is_not_plain_utf8_exit_code(tmp_path, capsys, data, message):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    out = tmp_path / "out.csv"
    assert main(["single", "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: {message.format(path=path)}" in capsys.readouterr().err
    assert not out.exists()


def test_scenario_may_follow_the_options(tmp_path):
    out = tmp_path / "out.csv"
    assert main(["--trials", "2", "--out", str(out), "single"]) == 0
    assert len(out.read_text().splitlines()) == 7


def test_unknown_scenario_exit_code(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["warp-speed"])
    assert exit_.value.code == 2
    assert "invalid choice: 'warp-speed'" in capsys.readouterr().err


def test_runtime_error_exit_code(tmp_path, capsys, monkeypatch):
    # A trial fails after the config has been accepted.
    cfg = write_config(tmp_path, trials=2, n_values=[4])
    from irsbeam import cli

    def failing_trial(*args, **kwargs):
        raise RuntimeError("trial 0 failed: injected")

    monkeypatch.setitem(cli._RUNNERS, cli.Scenario.SINGLE, failing_trial)
    out = tmp_path / "out.csv"
    assert main(["single", "--config", cfg, "--out", str(out)]) == 3
    assert "error: trial 0 failed: injected" in capsys.readouterr().err
    assert not out.exists()


_OUTPUT_CASES = [
    ("no/such/dir/sweep.csv", None, "no/such/dir"),
    ("config.json/sweep.csv", None, "config.json"),
    ("sweep.csv", "sweep.csv", "csv-is-a-directory"),
    ("sweep.csv", "sweep.trials.csv", "trial-log-is-a-directory"),
]


@pytest.mark.parametrize("source, out_name, directory", [
    *(pytest.param(source, out_name, directory, id=f"{source}-{case}")
      for source in ("flag", "document") for out_name, directory, case in _OUTPUT_CASES),
    # Without a path, the CSV is <scenario>.csv in the working directory.
    pytest.param("default", "srr-sweep.csv", "srr-sweep.csv", id="default-csv-is-a-directory"),
    pytest.param("default", "srr-sweep.csv", "srr-sweep.trials.csv",
                 id="default-trial-log-is-a-directory"),
])
def test_output_path_outside_an_existing_directory_is_a_config_error(tmp_path, capsys,
                                                                     monkeypatch, out_name,
                                                                     directory, source):
    # A missing parent, a file as parent, or a directory where the CSV or
    # its trial log goes fails before any trial runs.
    monkeypatch.chdir(tmp_path)
    out = tmp_path / out_name
    if directory is not None:
        (tmp_path / directory).mkdir()
    doc = {"trials": 2, "n_values": [8], "k_values": [4]}
    if source == "document":
        doc["output_path"] = str(out)
    cfg = write_config(tmp_path, **doc)
    from irsbeam import cli

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setitem(cli._RUNNERS, cli.Scenario.SRR_SWEEP, no_trials)
    argv = ["srr-sweep", "--config", cfg, "--verbose-trials"]
    assert main(argv + (["--out", str(out)] if source == "flag" else [])) == 2
    assert "config error: output_path: " in capsys.readouterr().err
    made = ["config.json"] + ([directory] if directory else [])
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(made)


def test_a_run_without_out_writes_the_scenario_csv_in_the_working_directory(tmp_path,
                                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["single", "--trials", "2"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["single.csv"]
    assert (tmp_path / "single.csv").read_text().startswith("n,method,")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_sign_mode_is_an_unknown_key(tmp_path, capsys, scenario):
    # Max-ASNR has one sign convention: its direction adds in phase with h*.
    cfg = write_config(tmp_path, trials=2, n_values=[2], sign_mode="paper-literal")
    out = tmp_path / "out.csv"
    assert main([scenario, "--config", cfg, "--out", str(out)]) == 2
    assert "config error: unknown config key(s): sign_mode" in capsys.readouterr().err
    assert not out.exists()


def test_sign_mode_flag_is_gone(tmp_path, capsys):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_:
        main(["single", "--trials", "2", "--out", str(out), "--sign-mode", "aligned"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --sign-mode aligned" in capsys.readouterr().err
    assert not out.exists()

import json

import pytest

from irsbeam.cli import main


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
    assert "sign adjudication" in capsys.readouterr().out


def test_seed_and_trials_flags_override(tmp_path):
    cfg = write_config(tmp_path, trials=4, master_seed=2, n_values=[4])
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["single", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["single", "--config", cfg, "--out", str(out_b),
                 "--seed", "99", "--trials", "5"]) == 0
    assert out_a.read_bytes() != out_b.read_bytes()
    assert out_b.read_text().splitlines()[1].endswith(",5")


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=0)
    assert main(["single", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_key_exit_code(tmp_path):
    cfg = write_config(tmp_path, bogus=1)
    assert main(["single", "--config", cfg]) == 2


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("scenario, doc, key", [
    ("single", {"pos_irs": [NAN, 30]}, "pos_irs"),
    ("single", {"alpha_bi": NAN}, "alpha_bi"),
    ("single", {"ref_loss_db": INF}, "ref_loss_db"),
    ("single", {"p_s_dbm": -INF}, "p_s_dbm"),
    ("srr-sweep", {"p_s_dbm_values": [NAN]}, "p_s_dbm_values"),
])
def test_non_finite_value_is_a_config_error(tmp_path, capsys, scenario, doc, key):
    cfg = write_config(tmp_path, trials=2, n_values=[4], **doc)
    assert main([scenario, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 2
    assert f"config error: {key}:" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_missing_config_file_exit_code(tmp_path):
    assert main(["single", "--config", str(tmp_path / "nope.json")]) == 2


def test_runtime_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=2, n_values=[4])
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["single", "--config", cfg, "--out", str(missing_dir)]) == 3
    assert "error" in capsys.readouterr().err


def test_sign_mode_flag(tmp_path):
    cfg = write_config(tmp_path, trials=3, n_values=[4])
    out_a = tmp_path / "aligned.csv"
    out_l = tmp_path / "literal.csv"
    assert main(["single", "--config", cfg, "--out", str(out_a),
                 "--sign-mode", "aligned"]) == 0
    assert main(["single", "--config", cfg, "--out", str(out_l),
                 "--sign-mode", "paper-literal"]) == 0
    rate_a = out_a.read_text().splitlines()[1]
    rate_l = out_l.read_text().splitlines()[1]
    assert rate_a.split(",")[1] == rate_l.split(",")[1] == "max-asnr"
    assert rate_a != rate_l

import subprocess
import sys
from fractions import Fraction

import pytest

from misinfosim import (
    ConfigError,
    DataError,
    MisinfoSimError,
    NumericalError,
    load_dataset,
)
from misinfosim.cli import main
from misinfosim.dataset import STATS_CSV_HEADER
from misinfosim.experiment import REPORT_CSV_HEADER


SYNTH_INI = """\
[synth]
users = 30
items = 60
mean_profile_size = 6
misinfo_item_fraction = 0.2
misinfo_popularity_boost = 4
seed = 3
"""


@pytest.fixture()
def synth_files(tmp_path):
    cfg = tmp_path / "synth.ini"
    cfg.write_text(SYNTH_INI)
    inter = tmp_path / "interactions.tsv"
    labels = tmp_path / "labels.tsv"
    assert main(["synth", "--config", str(cfg), "--interactions", str(inter), "--labels", str(labels)]) == 0
    return inter, labels


def test_synth_writes_dataset_and_provenance(tmp_path, capsys):
    cfg = tmp_path / "synth.ini"
    cfg.write_text(SYNTH_INI)
    inter, labels, prov = tmp_path / "i.tsv", tmp_path / "l.tsv", tmp_path / "p.ini"
    code = main(
        ["synth", "--config", str(cfg), "--interactions", str(inter),
         "--labels", str(labels), "--provenance", str(prov)]
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().err
    ds = load_dataset(str(inter), str(labels))
    assert ds.n_users == 30
    assert ds.n_items == 60
    assert ds.item_misinfo.sum() == 12
    assert "user_count = 30" in prov.read_text()


def test_stats_csv_and_text(synth_files, tmp_path, capsys):
    inter, labels = synth_files
    out = tmp_path / "stats.csv"
    assert main(["stats", "--interactions", str(inter), "--labels", str(labels), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == STATS_CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "30" and fields[4] == "12"

    assert main(["stats", "--interactions", str(inter), "--labels", str(labels), "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0].startswith("users")


def test_ratio_build_produces_exact_shares(synth_files, tmp_path, capsys):
    inter, labels = synth_files
    out_i, out_l = tmp_path / "r_i.tsv", tmp_path / "r_l.tsv"
    code = main(
        ["ratio-build", "--interactions", str(inter), "--labels", str(labels),
         "--ratio", "1/2", "--out-interactions", str(out_i), "--out-labels", str(out_l)]
    )
    assert code == 0
    assert "ratio 1/2" in capsys.readouterr().err
    rebuilt = load_dataset(str(out_i), str(out_l))
    assert rebuilt.n_users > 0
    for u in range(rebuilt.n_users):
        prof = rebuilt.profile(u)
        mis = int(rebuilt.item_misinfo[prof].sum())
        assert Fraction(mis, len(prof)) == Fraction(1, 2)


def test_run_reports_typical_grid(synth_files, tmp_path):
    inter, labels = synth_files
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        f"[dataset]\ninteractions = {inter}\nlabels = {labels}\n\n"
        "[ratios]\nratios = none, 1/2\n\n[metrics]\ncutoffs = 3, 5\n"
    )
    out = tmp_path / "report.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == REPORT_CSV_HEADER
    assert len(lines) == 1 + 2 * 5 * 2  # ratios x typical configs x cutoffs
    kinds = {line.split(",")[1] for line in lines[1:]}
    assert kinds == {"MF", "UB", "IB", "Rnd", "Pop"}


def test_sweep_with_restricted_grid_and_aggregate(synth_files, tmp_path):
    inter, labels = synth_files
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        f"[dataset]\ninteractions = {inter}\nlabels = {labels}\n\n"
        "[ratios]\nratios = none\n\n[metrics]\ncutoffs = 10\n\n"
        "[grid.mf]\nfactors = 4\nlambda = 0.1\niters = 2\n\n"
        "[grid.ub]\nk = 10, 100\nsim = jac\nq = 1\n\n"
        "[grid.ib]\nk = 10\nsim = jac\nq = 1\n"
    )
    out, agg = tmp_path / "sweep.csv", tmp_path / "agg.csv"
    code = main(
        ["sweep", "--config", str(cfg), "--out", str(out), "--aggregate-out", str(agg)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    # 1 MF + 2 UB + 1 IB + Rnd + Pop = 6 configs, one ratio, one cutoff
    assert len(lines) == 1 + 6
    agg_lines = agg.read_text().splitlines()
    assert agg_lines[0] == "rec,level,ratio,MC@10"
    assert [line.split(",")[:2] for line in agg_lines[1:]] == [["UB", "High"], ["UB", "Low"], ["IB", "Low"]]


def test_sweep_aggregate_needs_cutoff_ten(synth_files, tmp_path, capsys):
    inter, labels = synth_files
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        f"[dataset]\ninteractions = {inter}\nlabels = {labels}\n\n"
        "[ratios]\nratios = none\n\n[metrics]\ncutoffs = 3\n\n"
        "[grid.mf]\nfactors = 4\nlambda = 0.1\niters = 2\n\n"
        "[grid.ub]\nk = 10\nsim = jac\nq = 1\n\n[grid.ib]\nk = 10\nsim = jac\nq = 1\n"
    )
    code = main(
        ["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv"),
         "--aggregate-out", str(tmp_path / "a.csv")]
    )
    assert code == 1
    assert "cutoff 10" in capsys.readouterr().err


def test_simulate_reports_probe_metrics(tmp_path):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(
        SYNTH_INI + "\n[sim]\ncycles = 1\naccept = 2\nschedule = Pop\nprobes = Rnd\n\n"
        "[metrics]\ncutoffs = 3\n"
    )
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "cycle,rec,params,cutoff,MC,MRD,MG"
    assert len(lines) == 3  # cycles 0 and 1, one probe, one cutoff
    assert all(line.split(",")[1] == "Rnd" for line in lines[1:])
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]


# -- failure modes -------------------------------------------------------------------


def test_usage_error_exits_one(capsys):
    assert main(["stats"]) == 1
    assert "usage" in capsys.readouterr().err
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "stats" in capsys.readouterr().out


def test_missing_data_file_exits_two(tmp_path, capsys):
    assert main(["stats", "--interactions", str(tmp_path / "no.tsv"), "--labels", str(tmp_path / "no2.tsv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_unattainable_ratio_exits_two(synth_files, tmp_path):
    inter, labels = synth_files
    code = main(
        ["ratio-build", "--interactions", str(inter), "--labels", str(labels),
         "--ratio", "99/100", "--out-interactions", str(tmp_path / "x.tsv"),
         "--out-labels", str(tmp_path / "y.tsv")]
    )
    assert code == 2


def test_config_errors_exit_one(synth_files, tmp_path, capsys):
    inter, labels = synth_files
    both = tmp_path / "both.ini"
    both.write_text(SYNTH_INI + f"\n[dataset]\ninteractions = {inter}\nlabels = {labels}\n")
    assert main(["run", "--config", str(both), "--out", str(tmp_path / "r.csv")]) == 1
    assert "pick one" in capsys.readouterr().err

    bad = tmp_path / "bad.ini"
    bad.write_text("[synth]\nusers = frog\nitems = 10\nmean_profile_size = 2\nmisinfo_item_fraction = 0.2\n")
    assert main(["synth", "--config", str(bad), "--interactions", str(tmp_path / "i.tsv"),
                 "--labels", str(tmp_path / "l.tsv")]) == 1
    assert "users" in capsys.readouterr().err

    assert main(["run", "--config", str(tmp_path / "missing.ini"), "--out", str(tmp_path / "r.csv")]) == 1

    nosim = tmp_path / "nosim.ini"
    nosim.write_text(SYNTH_INI)
    assert main(["simulate", "--config", str(nosim), "--out", str(tmp_path / "s.csv")]) == 1
    assert "[sim]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section",
    [
        "[grid.ub]\nk = 10, 50, 10\nsim = jac\nq = 1\n",
        "[grid.ib]\nk = 10\nsim = jac, JAC\nq = 1\n",
        "[metrics]\ncutoffs = 5, 10, 5\n",
        "[ratios]\nratios = 1/5, 0.2\n",
    ],
    ids=["grid-k", "grid-sim", "cutoffs", "ratios"],
)
def test_repeated_list_values_exit_one(synth_files, tmp_path, capsys, section):
    inter, labels = synth_files
    cfg = tmp_path / "repeat.ini"
    cfg.write_text(f"[dataset]\ninteractions = {inter}\nlabels = {labels}\n\n{section}")
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert "more than once" in capsys.readouterr().err
    assert not out.exists()


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "misinfosim.cli", *args], capture_output=True, text=True
    )


def test_unwritable_outputs_exit_two(synth_files, tmp_path):
    inter, labels = synth_files
    missing = tmp_path / "no" / "such" / "dir"
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        f"[dataset]\ninteractions = {inter}\nlabels = {labels}\n\n[ratios]\nratios = none\n"
    )
    run = _cli("run", "--config", str(cfg), "--out", str(missing / "x.csv"))
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert "error: cannot write" in run.stderr

    synth_ini = tmp_path / "synth.ini"
    synth_ini.write_text(SYNTH_INI)
    synth = _cli("synth", "--config", str(synth_ini), "--interactions", str(missing / "i.tsv"),
                 "--labels", str(tmp_path / "l.tsv"))
    assert synth.returncode == 2
    assert "Traceback" not in synth.stderr
    assert "error: cannot write" in synth.stderr


def test_workers_below_one_exits_one(synth_files, tmp_path, capsys):
    inter, labels = synth_files
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[dataset]\ninteractions = {inter}\nlabels = {labels}\n")
    assert main(["run", "--config", str(cfg), "--workers", "0", "--out", str(tmp_path / "r.csv")]) == 1
    assert "workers must be at least 1" in capsys.readouterr().err


def test_exit_code_attributes():
    assert MisinfoSimError("x").exit_code == 1
    assert ConfigError("x").exit_code == 1
    assert DataError("x").exit_code == 2
    assert NumericalError("x").exit_code == 3


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "misinfosim.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "stats" in proc.stdout


def test_sweep_prints_offgrid_rows_as_cli_warnings(synth_files, tmp_path):
    inter, labels = synth_files
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        f"[dataset]\ninteractions = {inter}\nlabels = {labels}\n\n"
        "[ratios]\nratios = none\n\n[metrics]\ncutoffs = 10\n\n"
        "[grid.mf]\nfactors = 4\nlambda = 0.1\niters = 2\n\n"
        "[grid.ub]\nk = 10\nsim = jac\nq = 1\n\n[grid.ib]\nk = 10\nsim = jac\nq = 1\n"
    )
    proc = _cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv"),
                "--aggregate-out", str(tmp_path / "a.csv"))
    assert proc.returncode == 0
    assert "warning: row (MF, factors=4;" in proc.stderr
    assert "outside the known grid levels; skipped" in proc.stderr
    assert "UserWarning" not in proc.stderr
    assert "cli.py:" not in proc.stderr

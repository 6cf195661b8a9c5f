"""Tests for the command-line interface."""

import json
import shlex
from pathlib import Path

import pytest

import quadnet.cli as cli
from quadnet.calibration import packaged_dataset, synthetic_dataset
from quadnet.criteria import GainVector, combination_forms
from quadnet.errors import PhysicalityError
from quadnet.network import (
    ExperimentConfig,
    packaged_network,
    serialize_network,
    simulate_experiment,
)
from quadnet.states import variance_db


def run_cli(*argv):
    return cli.main(list(argv))


def test_simulate_writes_expected_csv_row(tmp_path):
    rc = run_cli(
        "--out", str(tmp_path), "--no-timestamp",
        "simulate", "--family", "cluster", "--r", "0.402",
    )
    assert rc == 0
    csv_text = (tmp_path / "simulate_cluster.csv").read_text()
    assert "Y1-Y2,0.2238,0.5,-3.49" in csv_text
    payload = json.loads((tmp_path / "simulate_cluster.json").read_text())
    assert len(payload["cov"]) == 8
    assert len(payload["cov"][0]) == 8
    assert payload["units"]["variance"] == "snu"
    assert "generated_at" not in payload


def test_simulate_zero_squeezing_sits_at_shot_noise(tmp_path):
    rc = run_cli(
        "--out", str(tmp_path), "--no-timestamp",
        "simulate", "--family", "ghz", "--r", "0",
    )
    assert rc == 0
    rows = [
        line
        for line in (tmp_path / "simulate_ghz.csv").read_text().splitlines()
        if line and not line.startswith(("#", "combination"))
    ]
    assert len(rows) == 6
    assert all(row.endswith(",0.00") or row.endswith(",-0.00") for row in rows)


def test_simulate_rejects_unknown_family(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "simulate", "--family", "w", "--r", "0.1")
    assert rc == 1
    assert "usage" in capsys.readouterr().err


def test_timestamp_present_by_default(tmp_path):
    rc = run_cli(
        "--out", str(tmp_path), "simulate", "--family", "cluster", "--r", "0.402"
    )
    assert rc == 0
    payload = json.loads((tmp_path / "simulate_cluster.json").read_text())
    assert "generated_at" in payload


def test_reruns_are_byte_identical_without_timestamp(tmp_path):
    for sub in ("a", "b"):
        rc = run_cli(
            "--out", str(tmp_path / sub), "--no-timestamp",
            "simulate", "--family", "cluster", "--r", "0.402",
        )
        assert rc == 0
        rc = run_cli(
            "--out", str(tmp_path / sub), "--no-timestamp",
            "criteria", "--family", "cluster", "--r", "0.402",
        )
        assert rc == 0
    for name in ("simulate_cluster.csv", "simulate_cluster.json", "criteria_cluster.json"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second


def test_gains_table_matches_analytic(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "gains", "--family", "ghz", "--r", "0.402")
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.6662670551" in out
    for line in out.splitlines():
        if line.startswith("g "):
            assert float(line.split()[-1]) < 1e-8


def test_gains_zero_squeezing_gives_zero(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "gains", "--family", "cluster", "--r", "0")
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.0000000000" in out


def test_gains_rejects_negative_r(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "gains", "--family", "cluster", "--r", "-0.1")
    assert rc == 1
    assert ">= 0" in capsys.readouterr().err


def test_criteria_ideal_cluster(tmp_path):
    rc = run_cli(
        "--out", str(tmp_path), "--no-timestamp",
        "criteria", "--family", "cluster", "--r", "0.402",
    )
    assert rc == 0
    payload = json.loads((tmp_path / "criteria_cluster.json").read_text())
    assert payload["verdict"] == "fully-inseparable"
    assert payload["fully_inseparable"] is True
    assert payload["uncovered"] == []
    assert payload["sums"]["I"]["value"] == pytest.approx(0.6711017221, abs=1e-9)
    assert payload["bounds"]["I"]["1|234"] == 1.0
    assert payload["bounds"]["III"]["12|34"] == 2.0
    assert len(payload["bounds"]["II"]) == 7


def test_criteria_zero_squeezing_not_inseparable(tmp_path):
    rc = run_cli(
        "--out", str(tmp_path), "--no-timestamp",
        "criteria", "--family", "cluster", "--r", "0",
    )
    assert rc == 0
    payload = json.loads((tmp_path / "criteria_cluster.json").read_text())
    assert payload["verdict"] == "separable-possible"
    assert payload["uncovered"]


def test_criteria_from_measured(tmp_path):
    data_path = tmp_path / "measured.json"
    data_path.write_text(json.dumps(packaged_dataset("cluster").to_json_dict()))
    rc = run_cli(
        "--out", str(tmp_path), "--no-timestamp",
        "criteria", "--from-measured", str(data_path),
    )
    assert rc == 0
    payload = json.loads((tmp_path / "criteria_cluster.json").read_text())
    assert payload["source"] == "measured"
    assert payload["sums"]["I"]["value"] == 0.828
    assert payload["sums"]["I"]["uncertainty"] == 0.014
    assert payload["verdict"] == "fully-inseparable"


def test_criteria_from_network_file(tmp_path):
    net_path = tmp_path / "cluster.net"
    net_path.write_text(serialize_network(packaged_network("cluster")))
    rc = run_cli(
        "--out", str(tmp_path), "--no-timestamp",
        "criteria", "--family", "cluster", "--r", "0.402", "--net", str(net_path),
    )
    assert rc == 0
    payload = json.loads((tmp_path / "criteria_cluster.json").read_text())
    assert payload["source"] == "net"
    assert payload["sums"]["I"]["value"] == pytest.approx(0.6711017221, abs=1e-9)


def test_criteria_net_rejects_r_other_than_the_files(tmp_path, capsys):
    """--r picks the gains, so it must match a file whose squeezers share one r."""
    net_path = tmp_path / "cluster.net"
    net_path.write_text(serialize_network(packaged_network("cluster")))
    out = tmp_path / "out"
    rc = run_cli("--out", str(out), "criteria", "--family", "cluster", "--r", "1.0",
                 "--net", str(net_path))
    assert rc == 1
    err = capsys.readouterr().err
    assert "1.0" in err and "0.402" in err
    assert list(out.iterdir()) == []

    text = serialize_network(packaged_network("cluster"))
    mixed = text.replace("Y 0.402", "Y 0.5", 1)
    assert mixed != text
    net_path.write_text(mixed)
    rc = run_cli("--out", str(out), "--no-timestamp", "criteria", "--family", "cluster",
                 "--r", "1.0", "--net", str(net_path))
    assert rc == 0
    payload = json.loads((out / "criteria_cluster.json").read_text())
    assert payload["gains"] == list(GainVector.optimal("cluster", 1.0).as_tuple())


def test_criteria_requires_family_and_r(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "criteria")
    assert rc == 1
    assert "--family" in capsys.readouterr().err


def test_criteria_physicality_failure_exits_2(tmp_path, capsys, monkeypatch):
    def explode(config):
        raise PhysicalityError("covariance failed the uncertainty check")

    monkeypatch.setattr(cli, "simulate_experiment", explode)
    rc = run_cli(
        "--out", str(tmp_path), "criteria", "--family", "cluster", "--r", "0.402"
    )
    assert rc == 2
    assert "physicality" in capsys.readouterr().err


def test_sweep_monotone_and_row_count(tmp_path):
    rc = run_cli(
        "--out", str(tmp_path), "--no-timestamp",
        "sweep", "--family", "cluster", "--r-min", "0", "--r-max", "2",
        "--steps", "21",
    )
    assert rc == 0
    rows = [
        line.split(",")
        for line in (tmp_path / "sweep_cluster.csv").read_text().splitlines()
        if line and not line.startswith(("#", "r,"))
    ]
    assert len(rows) == 21
    for column in (1, 2, 3):
        values = [float(row[column]) for row in rows]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_sweep_single_step(tmp_path):
    rc = run_cli(
        "--out", str(tmp_path), "--no-timestamp",
        "sweep", "--family", "ghz", "--r-min", "0.3", "--r-max", "0.9", "--steps", "1",
    )
    assert rc == 0
    rows = [
        line
        for line in (tmp_path / "sweep_ghz.csv").read_text().splitlines()
        if line and not line.startswith(("#", "r,"))
    ]
    assert len(rows) == 1
    assert rows[0].startswith("0.3,")


def test_sweep_rejects_inverted_range(tmp_path, capsys):
    rc = run_cli(
        "--out", str(tmp_path),
        "sweep", "--family", "ghz", "--r-min", "1", "--r-max", "0", "--steps", "5",
    )
    assert rc == 1
    assert "r-min" in capsys.readouterr().err


def test_trace_creates_missing_directories(tmp_path):
    nested = tmp_path / "deep" / "down"
    rc = run_cli(
        "--out", str(nested), "--no-timestamp", "--seed", "5",
        "trace", "--family", "cluster", "--r", "0.402",
        "--duration", "0.000666667",
    )
    assert rc == 0
    lines = (nested / "trace_cluster_c0.csv").read_text().splitlines()
    data_rows = [line for line in lines if line and not line.startswith(("#", "time_s"))]
    assert len(data_rows) == 20


def test_trace_accepts_combination_label(tmp_path):
    rc = run_cli(
        "--out", str(tmp_path), "--no-timestamp", "--seed", "5",
        "trace", "--family", "cluster", "--r", "0.402",
        "--combination", "X3-X4", "--duration", "0.000666667",
    )
    assert rc == 0
    assert (tmp_path / "trace_cluster_c1.csv").exists()


@pytest.mark.parametrize("r", [8.5, 10.0])
def test_trace_mean_matches_analytic_at_strong_squeezing(tmp_path, r):
    """Traces stay on the analytic level up to MAX_SQUEEZING."""
    rc = run_cli(
        "--out", str(tmp_path), "--no-timestamp",
        "trace", "--family", "ghz", "--r", repr(r), "--samples-per-point", "5000",
    )
    assert rc == 0
    lines = (tmp_path / "trace_ghz_c0.csv").read_text().splitlines()
    power = [float(line.split(",")[1]) for line in lines
             if line and not line.startswith(("#", "time_s"))]
    state = simulate_experiment(ExperimentConfig("ghz", r))
    form = combination_forms("ghz", GainVector.optimal("ghz", r))[0]
    assert sum(power) / len(power) == pytest.approx(variance_db(state, form), abs=0.05)


def test_trace_rejects_bad_combination(tmp_path, capsys):
    rc = run_cli(
        "--out", str(tmp_path),
        "trace", "--family", "cluster", "--r", "0.402", "--combination", "7",
    )
    assert rc == 1
    assert "0-5" in capsys.readouterr().err


def test_trace_unwritable_output_exits_1(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    rc = run_cli(
        "--out", str(blocker / "sub"),
        "trace", "--family", "cluster", "--r", "0.402",
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_seed_env_var_controls_trace(tmp_path, monkeypatch):
    monkeypatch.setenv("QUADNET_SEED", "99")
    for sub in ("a", "b"):
        rc = run_cli(
            "--out", str(tmp_path / sub), "--no-timestamp",
            "trace", "--family", "ghz", "--r", "0.3", "--duration", "0.000666667",
        )
        assert rc == 0
    same = (tmp_path / "a" / "trace_ghz_c0.csv").read_bytes()
    assert same == (tmp_path / "b" / "trace_ghz_c0.csv").read_bytes()

    rc = run_cli(
        "--out", str(tmp_path / "c"), "--no-timestamp", "--seed", "100",
        "trace", "--family", "ghz", "--r", "0.3", "--duration", "0.000666667",
    )
    assert rc == 0
    assert same != (tmp_path / "c" / "trace_ghz_c0.csv").read_bytes()


def test_invalid_seed_env_var_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QUADNET_SEED", "not-a-number")
    rc = run_cli(
        "--out", str(tmp_path), "trace", "--family", "ghz", "--r", "0.3"
    )
    assert rc == 1
    assert "QUADNET_SEED" in capsys.readouterr().err


def test_fit_packaged_dataset(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "--no-timestamp", "fit", "--family", "cluster")
    assert rc == 0
    out = capsys.readouterr().out
    assert "co-fit" in out
    payload = json.loads((tmp_path / "fit_cluster.json").read_text())
    assert payload["co_fit"]["eta"] == pytest.approx(0.4464435930, abs=1e-6)
    assert payload["fixed_gains"]["eta"] == pytest.approx(0.4585253881, abs=1e-6)
    report_text = (tmp_path / "fit_cluster_report.txt").read_text()
    assert "unpublished" in report_text
    assert "implied gain" in report_text


def test_fit_dataset_file(tmp_path):
    data_path = tmp_path / "synthetic.json"
    data_path.write_text(
        json.dumps(synthetic_dataset("ghz", 0.402, 0.7).to_json_dict())
    )
    rc = run_cli("--out", str(tmp_path), "--no-timestamp", "fit", "--dataset", str(data_path))
    assert rc == 0
    payload = json.loads((tmp_path / "fit_ghz.json").read_text())
    assert payload["co_fit"]["eta"] == pytest.approx(0.7, abs=1e-3)


def test_fit_malformed_json_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    rc = run_cli("--out", str(tmp_path), "fit", "--dataset", str(bad))
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 1" in err
    assert "column" in err


def test_fit_flat_objective_exits_3(tmp_path, capsys):
    data_path = tmp_path / "flat.json"
    data_path.write_text(
        json.dumps(synthetic_dataset("cluster", 0.0, 0.5).to_json_dict())
    )
    rc = run_cli("--out", str(tmp_path), "fit", "--dataset", str(data_path))
    assert rc == 3
    assert "converge" in capsys.readouterr().err


def test_fit_requires_a_source(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "fit")
    assert rc == 1
    assert "--dataset" in capsys.readouterr().err


def test_missing_subcommand_exits_1(capsys):
    rc = run_cli()
    assert rc == 1
    assert "usage" in capsys.readouterr().err


def test_help_exits_0(capsys):
    rc = run_cli("--help")
    assert rc == 0
    assert "simulate" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ("gains", "--family", "cluster", "--r", "nan"),
        ("gains", "--family", "ghz", "--r", "inf"),
        ("simulate", "--family", "cluster", "--r", "0.402", "--gains", "nan,1,1,1"),
        ("simulate", "--family", "ghz", "--r", "0.402", "--gains", "1,1,inf,1"),
        ("criteria", "--family", "cluster", "--r", "0.402", "--gains", "1,nan,1,1"),
    ],
)
def test_non_finite_input_exits_1_without_artifacts(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = run_cli("--out", str(out), "--no-timestamp", *argv)
    assert rc == 1
    assert "finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("simulate", "--family", "cluster", "--r", "9.8"),
    ("trace", "--family", "cluster", "--r", "9.8", "--combination", "0"),
])
def test_round_off_variance_exits_1_with_named_combination(tmp_path, capsys, argv):
    """At r = 9.8 the cluster covariance's e^{2r} entries cancel to a zero
    Y1-Y2 variance; the error names it instead of 'math domain error'."""
    out = tmp_path / "out"
    rc = run_cli("--out", str(out), "--no-timestamp", *argv)
    assert rc == 1
    assert "combination Y1-Y2 has computed variance 0, not positive" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_fit_non_finite_dataset_exits_1_without_artifacts(tmp_path, capsys):
    data = packaged_dataset("ghz").to_json_dict()
    data["squeezing"]["r"] = float("nan")
    data_path = tmp_path / "nan.json"
    data_path.write_text(json.dumps(data))  # writes the NaN literal
    out = tmp_path / "out"
    rc = run_cli("--out", str(out), "fit", "--dataset", str(data_path))
    assert rc == 1
    assert "finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--family", "cluster", "--r", "0.402"),
        ("fit", "--family", "ghz"),
    ],
)
def test_failed_render_writes_no_artifact(tmp_path, monkeypatch, argv):
    """Every artifact of a command is rendered before the first is written."""

    def refuse(payload):
        raise ValueError("Out of range float values are not JSON compliant")

    monkeypatch.setattr(cli, "_render_json", refuse)
    out = tmp_path / "out"
    assert run_cli("--out", str(out), *argv) == 1
    assert list(out.iterdir()) == []


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    """Every command of README's CLI example block exits 0, user files being
    copies of the packaged cluster dataset."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) == 8 and all(argv[0] == "quadnet" for argv in commands)
    dataset = json.dumps(packaged_dataset("cluster").to_json_dict())
    (tmp_path / "results").mkdir()
    for user_file in ("results/my_dataset.json", "mine.json"):
        (tmp_path / user_file).write_text(dataset)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run_cli(*argv[1:]) == 0, argv

"""Tests for the command-line interface."""

import dataclasses
import hashlib
import json
import math
import shlex
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadnet.cli as cli
from quadnet import calibration
from quadnet.calibration import packaged_dataset, synthetic_dataset
from quadnet import network
from quadnet.criteria import GainVector, closed_form, combination_forms, criterion_totals
from quadnet.network import (
    ExperimentConfig,
    _experiment_variances,
    build_experiment_network,
    packaged_network,
    serialize_network,
)
from quadnet.states import db_rel_snl


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


def test_gains_creates_no_out_directory(tmp_path, capsys):
    """gains writes no artifact, so a missing --out is not created."""
    out = tmp_path / "new" / "dir"
    assert run_cli("--out", str(out), "gains", "--family", "ghz", "--r", "0.402") == 0
    assert "analytic" in capsys.readouterr().out
    assert not (tmp_path / "new").exists()


def test_gains_rejects_negative_r(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "gains", "--family", "cluster", "--r", "-0.1")
    assert rc == 1
    assert ">= 0" in capsys.readouterr().err


def _rejects_out_of_range_r(capsys, out, r):
    """Exit 1 was returned; the message names r and [0, MAX_SQUEEZING]; no file."""
    err = capsys.readouterr().err
    assert f"got {r!r}" in err and "[0, MAX_SQUEEZING] = [0, 10.0]" in err
    assert not out.exists()


@pytest.mark.parametrize("r", [400.0, 11.0])
def test_gains_rejects_r_above_max_squeezing(tmp_path, capsys, r):
    out = tmp_path / "out"
    assert run_cli("--out", str(out), "gains", "--family", "cluster", "--r", repr(r)) == 1
    _rejects_out_of_range_r(capsys, out, r)


@pytest.mark.parametrize("r, argv", [
    (200.0, ("criteria", "--from-measured")),
    (11.0, ("fit", "--dataset")),
])
def test_measured_dataset_rejects_r_above_max_squeezing(tmp_path, capsys, r, argv):
    data = packaged_dataset("cluster").to_json_dict()
    data["squeezing"]["r"] = r
    data_path = tmp_path / "strong.json"
    data_path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert run_cli("--out", str(out), *argv, str(data_path)) == 1
    _rejects_out_of_range_r(capsys, out, r)


@pytest.mark.parametrize("r", [400.0, -1.0])
def test_criteria_net_rejects_r_outside_range_with_mixed_squeezing(tmp_path, capsys, r):
    """--r picks the gains even when the file's squeezers differ, so it is
    range-checked like every other r."""
    text = serialize_network(packaged_network("cluster")).replace("Y 0.402", "Y 0.5", 1)
    net_path = tmp_path / "mixed.net"
    net_path.write_text(text)
    out = tmp_path / "out"
    assert run_cli("--out", str(out), "criteria", "--family", "cluster", "--r", repr(r),
                   "--net", str(net_path)) == 1
    _rejects_out_of_range_r(capsys, out, r)


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
    assert not out.exists()

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


def _contraction(r):
    """The stack of 0.5 * identity 2 x 2 blocks, one per parameter of ``r``."""
    return np.broadcast_to(0.5 * np.eye(2), (*np.shape(r), 2, 2))


@pytest.mark.parametrize("argv", [
    ("simulate", "--family", "cluster", "--r", "0.402"),
    ("gains", "--family", "ghz", "--r", "0.402"),
    ("criteria", "--family", "cluster", "--r", "0.402"),
    ("sweep", "--family", "ghz", "--r-min", "0", "--r-max", "1", "--steps", "5"),
    ("trace", "--family", "cluster", "--r", "0.402", "--duration", "0.000666667"),
    ("fit", "--family", "cluster"),
], ids=lambda argv: argv[0])
def test_criteria_physicality_failure_exits_2(tmp_path, capsys, monkeypatch, argv):
    """A contracting squeezer block fails the block check that every command's
    variances pass through: exit 2 naming the first squeezer, nothing written.
    A sweep's squeezers take its r-points as one stack, whose first r is named."""
    at = " at r = 0.0" if argv[0] == "sweep" else ""
    contraction = dataclasses.replace(
        network._KINDS["sq"], block=lambda r, axis: (_contraction(r), None))
    monkeypatch.setitem(network._KINDS, "sq", contraction)
    out = tmp_path / "out"
    rc = run_cli("--out", str(out), *argv)
    assert rc == 2
    assert (f"physicality violation: element 1 (sq a1){at} violates"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("simulate", "--family", "cluster", "--r", "0.402"),
    ("gains", "--family", "ghz", "--r", "0.402"),
    ("criteria", "--family", "cluster", "--r", "0.402", "--efficiencies", "0.9,0.8,0.7,0.95"),
    ("sweep", "--family", "ghz", "--r-min", "0", "--r-max", "1", "--steps", "5"),
    ("trace", "--family", "cluster", "--r", "0.402", "--duration", "0.000666667"),
    ("fit", "--family", "ghz"),
], ids=lambda argv: argv[0])
def test_patched_passive_builder_reaches_the_compiled_tail(tmp_path, capsys, monkeypatch,
                                                         argv):
    """The experiment's passive tail is compiled once per family and builder: a
    contracting phase-shift block patched into _KINDS after a command compiled
    the tail fails the tail's check, exit 2 naming the first phase shift,
    nothing written.  A tail cached per family alone would exit 0 here."""
    assert run_cli("--out", str(tmp_path / "before"), *argv) == 0
    contraction = dataclasses.replace(
        network._KINDS["ps"], block=lambda phi: (_contraction(phi), None))
    monkeypatch.setitem(network._KINDS, "ps", contraction)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli("--out", str(out), *argv) == 2
    assert "physicality violation: element 5 (ps a2) violates" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, element", [
    ("sq", "element 1 (sq a1)"),
    ("ps", "element 5 (ps a2)"),
    ("loss", "element 12 (loss a1)"),
], ids=["sq", "ps", "loss"])
def test_experiment_faults_are_named_without_a_stepwise_pass(tmp_path, capsys, monkeypatch,
                                                              kind, element):
    """A contracting squeezer, phase-shift or loss block in a lossy experiment,
    built by ``criteria`` or parsed from its ``.net`` file, is named, in network
    order, by the layered pass itself: _backward never runs."""
    net = tmp_path / "cluster.net"
    net.write_text(serialize_network(build_experiment_network(
        ExperimentConfig("cluster", 0.402, (0.9, 0.8, 0.7, 0.95)))))
    noise = {"sq": None, "ps": None, "loss": lambda x: np.zeros((*np.shape(x), 2))}[kind]
    monkeypatch.setitem(network._KINDS, kind, dataclasses.replace(
        network._KINDS[kind],
        block=lambda x, *axis: (_contraction(x), noise and noise(x))))
    calls = []
    monkeypatch.setattr(network, "_backward", lambda *a: calls.append(a))
    state = ("--family", "cluster", "--r", "0.402")
    out = tmp_path / "out"
    for source in (("--efficiencies", "0.9,0.8,0.7,0.95"), ("--net", str(net))):
        assert run_cli("--out", str(out), "criteria", *state, *source) == 2
        assert f"physicality violation: {element} violates" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()


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


def test_sweep_rows_are_computed_as_they_are_written(tmp_path, monkeypatch):
    """cmd_sweep returns its CSV before any r-point is evaluated; drawing it runs
    one stacked pass per chunk of _STACK r-points and gives the bytes main writes."""
    calls = []
    propagate = network._propagate
    monkeypatch.setattr(network, "_propagate", lambda *a: calls.append(a) or propagate(*a))
    monkeypatch.setattr(cli, "_STACK", 4)
    argv = ("sweep", "--family", "ghz", "--r-min", "0", "--r-max", "1", "--steps", "10",
            "--efficiencies", "0.9,0.8,0.7,0.95")
    artifacts, summary = cli.cmd_sweep(cli.build_parser().parse_args(argv))
    assert calls == [] and summary == ["10 rows"]
    text = "".join(cli._render(artifacts["sweep_ghz.csv"], None))
    assert len(calls) == 3
    assert run_cli("--out", str(tmp_path), "--no-timestamp", *argv) == 0
    assert (tmp_path / "sweep_ghz.csv").read_text() == text


def test_sweep_failing_in_a_later_chunk_writes_nothing(tmp_path, capsys, monkeypatch):
    """A sweep whose r leaves the range only in its third chunk fails while its
    rows are written: exit 1 naming that r, the earlier file of the same name
    unchanged, no temporary left, and a new --out directory removed."""
    monkeypatch.setattr(cli, "_STACK", 4)
    argv = ("sweep", "--family", "cluster", "--r-min", "0", "--r-max", "11", "--steps", "12")
    (tmp_path / "sweep_cluster.csv").write_text("before\n")
    assert run_cli("--out", str(tmp_path), *argv) == 1
    assert "got 11.0" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["sweep_cluster.csv"]
    assert (tmp_path / "sweep_cluster.csv").read_text() == "before\n"
    out = tmp_path / "new" / "dir"
    assert run_cli("--out", str(out), *argv) == 1
    assert not (tmp_path / "new").exists()


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


@pytest.mark.parametrize("family", ["cluster", "ghz"])
@pytest.mark.parametrize("losses", [(), ("--efficiencies", "0.9,0.8,0.7,0.95")])
def test_vacuum_ties_exclude_nothing(tmp_path, capsys, family, losses):
    """At r = 0 the state is vacuum, a product state: every sum ties its bound
    up to round-off, so no bipartition is excluded."""
    argv = ("criteria", "--family", family, "--r", "0", *losses)
    assert run_cli("--out", str(tmp_path), "--no-timestamp", *argv) == 0
    assert "verdict: separable-possible" in capsys.readouterr().out
    payload = json.loads((tmp_path / f"criteria_{family}.json").read_text())
    assert payload["excluded"] == {"I": [], "II": [], "III": []}
    assert payload["verdict"] == "separable-possible"
    assert len(payload["uncovered"]) == 7


@pytest.mark.parametrize("family", ["cluster", "ghz"])
def test_sweep_at_strong_squeezing_matches_closed_forms(tmp_path, family):
    """From r = 8.5 c^t V c cancels to round-off; the backward pass keeps the
    sums within 1e-12 of the factored closed forms up to r = 10."""
    argv = ("sweep", "--family", family, "--r-min", "8", "--r-max", "10", "--steps", "9")
    assert run_cli("--out", str(tmp_path), "--no-timestamp", *argv) == 0
    lines = (tmp_path / f"sweep_{family}.csv").read_text().splitlines()
    rows = {line.split(",", 1)[0]: line for line in lines[5:]}
    assert len(rows) == 9
    rs = [8.0 + k * 0.25 for k in range(9)]
    variances = _experiment_variances(ExperimentConfig(family, 8.0), rs)
    for r, row in zip(rs, variances.tolist()):
        if r not in (8.5, 9.75, 10.0):
            continue
        exact = criterion_totals(family, closed_form(family, r, GainVector.optimal(family, r)))
        assert criterion_totals(family, row) == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert rows[f"{r:g}"] == f"{r:g}," + ",".join(f"{s:.10f}" for s in exact)


# sha256 of --no-timestamp sweep CSVs (997 steps), recorded from the per-r
# implementation that the array code replaced: the CSV bytes are the contract.
_SWEEP_SHA256 = {
    ("cluster", "0", "1.2", "1"):
        "ed3df8cd209204a4f62283217b76689bed3f9026d1db2a73692c3c904875940b",
    ("cluster", "0", "1.2", "0.9,0.8,0.7,0.95"):
        "ff791a5e2eb44fdb8abc5438fa321abd30851a1cba212850438642a92922d0f0",
    ("cluster", "8", "10", "1"):
        "57a87bfbb8b42cbfae541b27914b47506859e091d2c665d5c4371ccefd493f82",
    ("ghz", "0", "1.2", "1"):
        "37efebd35769ba42e9434be5ef848bf80887dba73438d73a296c8048639f08b3",
    ("ghz", "0", "1.2", "0.9,0.8,0.7,0.95"):
        "ffb47959ee97b3af742e7fbba003074b73f0ff59b7710d261e82472bcce980ff",
    ("ghz", "8", "10", "1"):
        "2ccbda757b820966c6487922562c343375e51d999f3230cfeab5d1a9cd688b67",
}


@pytest.mark.parametrize("family, r_min, r_max, efficiencies", list(_SWEEP_SHA256))
def test_sweep_csv_bytes_are_frozen(tmp_path, family, r_min, r_max, efficiencies):
    argv = ("sweep", "--family", family, "--r-min", r_min, "--r-max", r_max,
            "--steps", "997", "--efficiencies", efficiencies)
    assert run_cli("--out", str(tmp_path), "--no-timestamp", *argv) == 0
    digest = hashlib.sha256((tmp_path / f"sweep_{family}.csv").read_bytes()).hexdigest()
    assert digest == _SWEEP_SHA256[family, r_min, r_max, efficiencies]


@pytest.mark.parametrize("argv, named", [
    (("sweep", "--family", "ghz", "--r-min", "0", "--r-max", "1", "--steps", "2",
      "--gains", "1,1,1,1e160"), "1e+160"),
    (("criteria", "--family", "cluster", "--r", "0.402", "--gains", "1e200,1,1,1"), "1e+200"),
    (("simulate", "--family", "cluster", "--r", "0.402", "--gains", "1e200,1,1,1"), "1e+200"),
    (("trace", "--family", "ghz", "--r", "0.402", "--gains", "1,1,1,1e160"), "1e+160"),
])
def test_overflowing_gains_exit_1_naming_them(tmp_path, capsys, argv, named):
    """Gains whose variance overflows exit 1 with a message naming them, write
    nothing and warn nothing (the suite turns every warning into an error)."""
    out = tmp_path / "out"
    assert run_cli("--out", str(out), "--no-timestamp", *argv) == 1
    err = capsys.readouterr().err
    assert "is inf" in err and named in err and "Warning" not in err
    assert not out.exists()


def test_overflowing_squeezers_exit_1_naming_the_element_count(tmp_path, capsys):
    """Forty r = 10 squeezers on one mode take its covariance past double
    precision: the command exits 1 naming the element count, writes nothing
    and warns nothing (the suite turns every warning into an error)."""
    text = "".join(f"mode {m}\n" for m in "abcd") + "sq a X 10\n" * 40 + "out a b c d\n"
    net_path = tmp_path / "many.net"
    net_path.write_text(text)
    out = tmp_path / "out"
    assert run_cli("--out", str(out), "criteria", "--family", "ghz", "--r", "10",
                   "--net", str(net_path)) == 1
    err = capsys.readouterr().err
    assert "network output after 40 elements overflows double precision" in err
    assert "Warning" not in err
    assert not out.exists()
    with pytest.raises(ValueError, match="after 40 elements overflows double precision"):
        network.elaborate(network.parse_network(text))


def test_sweep_rejects_inverted_range(tmp_path, capsys):
    rc = run_cli(
        "--out", str(tmp_path),
        "sweep", "--family", "ghz", "--r-min", "1", "--r-max", "0", "--steps", "5",
    )
    assert rc == 1
    assert "r-min" in capsys.readouterr().err


def _run_recording_warnings(*argv):
    """Exit code of ``run_cli(*argv)`` and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(*argv)
    return code, [str(w.message) for w in caught]


@pytest.mark.parametrize("r_max, first", [("200", 100.0), ("1e308", 5e307)])
def test_sweep_checks_its_r_grid_before_any_exp(tmp_path, capsys, r_max, first):
    """An r grid beyond MAX_SQUEEZING exits 1 naming its first r at fault,
    before the optimal gains take exp(4r): no overflow and no warning."""
    out = tmp_path / "out"
    code, caught = _run_recording_warnings(
        "--out", str(out), "--no-timestamp",
        "sweep", "--family", "cluster", "--r-min", "0", "--r-max", r_max, "--steps", "3")
    assert code == 1 and caught == []
    _rejects_out_of_range_r(capsys, out, first)


def test_trace_rejects_an_overflowing_point_count(tmp_path, capsys):
    """duration * rbw = inf has no point count: exit 1, nothing written."""
    out = tmp_path / "out"
    argv = ("trace", "--family", "cluster", "--r", "0.4",
            "--duration", "1e300", "--rbw", "1e300", "--vbw", "30")
    assert run_cli("--out", str(out), "--no-timestamp", *argv) == 1
    _fails_without_artifacts(capsys, out, "duration * rbw must be finite")


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
    """Traces stay on the closed-form level up to MAX_SQUEEZING."""
    rc = run_cli(
        "--out", str(tmp_path), "--no-timestamp",
        "trace", "--family", "ghz", "--r", repr(r), "--samples-per-point", "5000",
    )
    assert rc == 0
    lines = (tmp_path / "trace_ghz_c0.csv").read_text().splitlines()
    power = [float(line.split(",")[1]) for line in lines
             if line and not line.startswith(("#", "time_s"))]
    gains = GainVector.optimal("ghz", r)
    exact = db_rel_snl(closed_form("ghz", r, gains)[0], combination_forms("ghz", gains)[0])
    assert sum(power) / len(power) == pytest.approx(exact, abs=0.05)


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


@pytest.mark.parametrize("seed, code", [
    ("0", 0), (str(2**64 - 1), 0), ("-1", 1), (str(2**64), 1),
])
def test_trace_seed_range(tmp_path, capsys, seed, code):
    """A trace takes any seed in [0, 2**64); one outside names the range and
    the seed."""
    out = tmp_path / "out"
    assert run_cli("--out", str(out), "--seed", seed, "trace", "--family", "ghz",
                   "--r", "0.3", "--duration", "0.001", "--samples-per-point", "50") == code
    if code:
        _fails_without_artifacts(capsys, out, f"seed must lie in [0, 2**64), got {seed}")


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


@pytest.mark.parametrize("family", ["cluster", "ghz"])
@pytest.mark.parametrize("r", [8.5, 9.3, 9.8, 10.0])
def test_fit_recovers_efficiency_at_strong_squeezing(tmp_path, family, r):
    """Both branches recover the efficiency of a synthetic dataset up to
    r = 10, and reproduce a lossless one to round-off."""
    for eta in (0.5, 0.9, 1.0):
        data_path = tmp_path / f"synthetic_{eta}.json"
        data_path.write_text(json.dumps(synthetic_dataset(family, r, eta).to_json_dict()))
        out = tmp_path / str(eta)
        rc = run_cli("--out", str(out), "--no-timestamp", "fit", "--dataset", str(data_path))
        assert rc == 0
        payload = json.loads((out / f"fit_{family}.json").read_text())
        for branch in ("fixed_gains", "co_fit"):
            assert payload[branch]["eta"] == pytest.approx(eta, abs=1e-3)
            if eta == 1.0:
                assert payload[branch]["rms_db"] < 1e-6


def _perturbed(dataset):
    """``dataset`` as JSON with its dB values moved off the model and its sums
    scaled, so that neither branch fits it exactly."""
    data = dataset.to_json_dict()
    for c, shift in zip(data["components"], (0.2, -0.15, 0.1, -0.05, 0.3, -0.25)):
        c["db_below_snl"] += shift
    for s in data["sums"]:
        s["value"] *= 1.03
    return data


# sha256 of the --no-timestamp fit JSON and report, recorded from the per-branch,
# per-combination grid scan that the stacked pass replaced: the bytes are the
# contract.  The packaged co-fits take the no-root fallback on part of the grid.
_FIT_SHA256 = {
    ("packaged", "cluster"): (
        "b44dfa91bcbf96d4c231036c7e250d0d94083fd32aae6c2a60b68eb3a04cd9a6",
        "ceefad3a4edd1a9661dfa509136a5253e066347bc6dfabf80da786caf3a6e626"),
    ("packaged", "ghz"): (
        "001a70d1321fbb3fdcaa4e78d97e602e91b8b4165a4f019700a988a4849dff11",
        "e8aa6565876979a140dce89b1fab6a1ccebf0de2098ecb36fc7f2ffd778a65ca"),
    ("synthetic", "cluster", 0.402, 0.5): (
        "6e90e4e4e7be81a6163581e769a0c95fc89b9bb3c008ad4567c3373cc652c4cb",
        "503ce7bbf3980e318344cb4b972733aa22a35ec071785d4689de907fa3e93666"),
    ("synthetic", "cluster", 0.402, 0.9): (
        "a32aaa91467f2dd251ef06825d01399d0f35d7ebca07396452a432af040e3e7a",
        "975a940ee4e24f6693106c96ee33f6de02de3b8f4e71a03b19ae852d1a718ee5"),
    ("synthetic", "cluster", 2.0, 0.5): (
        "e9e022c097443b17e017fd3bb08b31a2db36c79b1359dcd750177993208a95f2",
        "243689eb55ab176fdd3b7dc30f71df520ffd7f641834ca509918ce2f3d1156cc"),
    ("synthetic", "cluster", 2.0, 0.9): (
        "04a3a106175c7c75548a996beed3747f76ec4f35a9dc3a2adcb7571e227d6a9f",
        "709ba97a134b99e733ee5ba7cee5d21236e1298020b6ca1e8408f7bb961aa453"),
    ("synthetic", "cluster", 9.8, 0.5): (
        "39145caa058e15d0a2201ef28fd66fbd17769de9868d2b24b2622e9cd109000f",
        "665f84b1496702a05b73c6534193a127197e2548f176d98bc27d770201487879"),
    ("synthetic", "cluster", 9.8, 0.9): (
        "4651ec17e36b4b22d84e7dbd6ab8ca3d50b9ec764b9fe2b74fd9bfe0fc0226ff",
        "962d7c517dc3b2830f3e7aac2ffd308d6c92e7a27268185ac96ea2f162a1e649"),
    ("synthetic", "ghz", 0.402, 0.5): (
        "456a19490f232b4669646a70419fe4208968ecb10943d6c84c6055557d8c6f91",
        "ee3366f79540fdbd0cfe615172945d285c1e67fec0e6a605d42fbb75861bd2cd"),
    ("synthetic", "ghz", 0.402, 0.9): (
        "a06ff4b62e0e31b67b54aeb39c9b0e68e5a63ffc2457933b3df2c2057b59b4f1",
        "df2ada62937a14679074107b1bc198ceb4339d8e71078db7766ac106928c0287"),
    ("synthetic", "ghz", 2.0, 0.5): (
        "9429361e3cfb1979344a580f82c0745375281e02fc261f965740e3f55bf05324",
        "9e2ae7dcdecd70c370b6d85d5e9789d570e23007b388e4509991eaf110f74970"),
    ("synthetic", "ghz", 2.0, 0.9): (
        "9dda2f0ba2a36489803963b3d8a0ef8c9c0e5ee33f5553beeec6690111738791",
        "e41a06567eaa40a2a436f411fdb32bd992e0e9a305df35404ff69e3dd5b7cc6e"),
    ("synthetic", "ghz", 9.8, 0.5): (
        "8920abb506bfc7b9ebbf9ebe462811cbc85349be9cfa8ea3e7eda3430e3baa90",
        "3c4635b25b9af918fa56bf1aa36e15c1fa24814e1a9c5a1797c99e39f787ccf2"),
    ("synthetic", "ghz", 9.8, 0.9): (
        "9998b24492985672da8ecfa322878cbc45932baeaaf4255836a9e077007dd472",
        "8528213ce855029bbf0def66ecd686dedc2cfef48efdeb44ff5ab32ea424bbd3"),
    ("perturbed", "cluster", 1.0, 0.8): (
        "b91a68faff2303a028a7a660dabcdbb454cae4209dd8563230068d68293439b2",
        "1cda95bec3717fe130011dff7b0b6b9c19f79bbb979239c011aa50a42eb039ab"),
}


@pytest.mark.parametrize("case", list(_FIT_SHA256), ids=lambda case: "-".join(map(str, case)))
def test_fit_artifact_bytes_are_frozen(tmp_path, case):
    kind, family, *point = case
    if kind == "packaged":
        argv = ("fit", "--family", family)
    else:
        dataset = synthetic_dataset(family, *point)
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(
            dataset.to_json_dict() if kind == "synthetic" else _perturbed(dataset)))
        argv = ("fit", "--dataset", str(path))
    assert run_cli("--out", str(tmp_path), "--no-timestamp", *argv) == 0
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in (f"fit_{family}.json", f"fit_{family}_report.txt"))
    assert digests == _FIT_SHA256[case]


def _random_net(seed):
    """A seeded ``.net`` text of 4-16 modes and 15-150 elements of all four kinds,
    with four outputs, and the ``--r`` that picks its gains.  Half the networks
    squeeze every mode at that one r; the others draw each squeezer's own r."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 17))
    size = int(rng.integers(max(15, n + 3), 151))
    names = [f"m{k}" for k in range(n)]
    r = float(rng.uniform(0.0, 1.2))
    shared = seed % 2 == 0
    lines = [f"mode {name}" for name in names]
    for name in names:
        lines.append(f"sq {name} {rng.choice(['X', 'Y'])} "
                     f"{r if shared else float(rng.uniform(0.0, 1.2))!r}")
    kinds = ["bs", "ps", "loss", *rng.choice(["bs", "bs", "ps", "loss", "sq"], size - n - 3)]
    for kind in rng.permutation(kinds):
        first, second = (names[k] for k in rng.permutation(n)[:2])
        lines.append({
            "bs": f"bs {first} {second} {float(rng.uniform(0.0, 2.0 * np.pi))!r}",
            "ps": f"ps {first} {float(rng.uniform(-np.pi, np.pi))!r}",
            "loss": f"loss {first} {float(rng.uniform(0.5, 1.0))!r}",
            "sq": f"sq {first} Y {float(rng.uniform(0.0, 1.2))!r}",
        }[kind])
    lines.append("out " + " ".join(names[k] for k in rng.permutation(n)[:4]))
    return "\n".join(lines) + "\n", r


# sha256 of the --no-timestamp criteria_<family>.json of ``criteria --net`` on
# ``_random_net(seed)``, the family alternating with the seed: the bytes are the
# contract for the parser, the block builders and the backward pass.
_NET_CRITERIA_SHA256 = {
    0: "e8a15d728541de7818be8fb05e2fcd8d9b65be655fb87129e21605cbbe8bbf67",
    1: "b7ae54120b6e6d57d8edf7820df80496d8375b28ff9bb53ac040206a078859c8",
    2: "ec4c89c3ae80a9f35a7903658bf449a61f74dce5feb7a757bacba4ad23e63eb5",
    3: "938ac5adffc8d41b9a1d531b4458faf3cfc33b591139c993862788d7ca4065d0",
    4: "3f59744d12418f38d7a769fa9d1ad657ed3983a105ff2d4159654b64f94cd40d",
    5: "c4c43cf42e19051d080ac61efa407ce603a25906cfa33a16870ab6b01e083ef0",
    6: "e85f04acb725540cb5c286badd885115d53a5e74ee04315389708b3c49453e0c",
    7: "dc696eb4315b9f48dd6a96f89a082f5d8113b2a7e16c858127bbb923d2c97d22",
    8: "a04304dadced12d458d0f9e223205e56606cd4fbce8caec8e74d758711d66c5a",
    9: "a2f330a7c2b29b53406f96105ce9d3bd2d9fcae33a275523efa79393047bd6d0",
    10: "2a3135bd0663a5b0e88c97aca3759846551013bc941f55bd925fb7d7ee871925",
    11: "7e5f94b1ad66f8008711a51da634a38a3cf6a7d283e08903a48b330a46d931ba",
    12: "348193038cbf0e4dc2288d44143a69d2e1a030778b18d0da4dceaa9d3c736ee0",
    13: "9d3713d821f66505f0939e3c022b5dbac942be722fdf138ecf9ede0f47d8da08",
    14: "3884a91fbd893f5505504c7d6504eb7cb9c9ca69f38325709b2409b6b389bb2c",
    15: "723463c67b699e80577fe2a239e521f583172302acdcabe1bfe9ef71e036c870",
    16: "b192575685867f6489e0c6e7fa7a45310e3d005f05c4d1bb568ac0fa0dca01ca",
    17: "746e46286a9210e7541f4ac62075d00b600cbae3378985cf37eee032efd4d306",
    18: "14c238b2b21211619b3cd0bf0de532ef6e8353504d24130734d2664773a076d9",
    19: "6f172adc59f7d43b6681376a80f0c1f9e3db1986c749633af286218b9df3024c",
    20: "95b8b0a9699b954c9b3382e5097883c48d312207951aa682c578d18aebc3b880",
    21: "05903e8db9abcd98150d177e60d27e677c396b100bc4fc54913a175842420444",
    22: "4c3eb07aa6c67e595ec7e1325498b2b69f6ab46bbcecdfa6368316bb112a0550",
    23: "bd0e5cfac51318aee8f7f4c804554eea92d6382cd53142048c2d81b073429983",
    24: "7822c943870fccfa4c3f1db60daf6ad9b63b52a6d2f5c6ecbc927b08860cd1ed",
    25: "e0e4533c302c8bbb9fb3271d1d414fba3ee40b39d192d5caa579cecaafc07a75",
    26: "bb004734d2d1befa0b14a7d6e0e4e2b2b6009a24458aa43d8d97b98f25272ab8",
    27: "bb86af38ef7bc82cd92ac6c723a7ca012862135aaac30d64162470b92074455c",
    28: "ae177bc2ace36eec6a0dda0f69d28920a2c8c8e6a97db1831143c784b91c9dee",
    29: "06747515ec7a44027de37956fd12c262dbbd79bce7cd3c56cbc83e1992803dd5",
}


@pytest.mark.parametrize("seed", range(30))
def test_criteria_net_artifact_bytes_are_frozen(tmp_path, seed):
    text, r = _random_net(seed)
    path = tmp_path / "random.net"
    path.write_text(text)
    family = ("cluster", "ghz")[seed % 2]
    assert run_cli("--out", str(tmp_path), "--no-timestamp", "criteria", "--family", family,
                   "--r", repr(r), "--net", str(path)) == 0
    digest = hashlib.sha256((tmp_path / f"criteria_{family}.json").read_bytes()).hexdigest()
    assert digest == _NET_CRITERIA_SHA256[seed]


# sha256 of the --no-timestamp simulate JSON and CSV, the one command that writes
# a covariance, lossless or with per-port losses.
_SIMULATE_SHA256 = {
    ("cluster", "0", "lossless"): (
        "163aeefff343f4777b798bb1729f49c622de76f880dd088514fa15dbb4eac2e1",
        "fa9b95d87dfe9b1578a1e8186275204c9ca4604a019274e5b69b05661b25e415"),
    ("cluster", "0", "0.95,0.9,0.85,0.8"): (
        "3f546071dcb24fb2f58ab7da2cda3316a788f1c2758ec5916fee008cf951881f",
        "27bc31c832883b9c260fcd883c00bab1c906af83d9805ea9a59d1cea00c3e6e5"),
    ("cluster", "0.402", "lossless"): (
        "0933d6057bc07261a77cf128a5e614f067cab391580c56522c30c74902410f8a",
        "7b71a87f1af5648ed29b1bf42a9e63bc4b733de75e2c2011e77743c979b8ee15"),
    ("cluster", "0.402", "0.95,0.9,0.85,0.8"): (
        "1cb2780ca7c97a6465b1e15df614aa4ef17bd5e8a8311a1ea8e5c392819cfe93",
        "f74a65b8140047f6e551cd67be5d5b8be39fd12019b7983a75e068bab6514b70"),
    ("cluster", "5", "lossless"): (
        "c2ef46b5ecf239ee1c2f571fc13e38b58bcad228489308b49a2c2c83c6d0c06d",
        "9bc5f030b2dab771f8ef27cf52f3569f221f227f7833422bd8f5d5ccd956426c"),
    ("cluster", "5", "0.95,0.9,0.85,0.8"): (
        "e628c11b34552de70bc2bb3fca6abe2559c6d6f551c6b998fbeb0bca6d4c81b1",
        "e91df0656bbfb961c730d6efa903733d16a3fb66d5355f11e2382a44464a10d9"),
    ("cluster", "10", "lossless"): (
        "70a1241c9f6c644222d7a7b10685c4eaf3acfe34a9b641c1540570fd53665466",
        "154607c972e1347f04ae66adb80fc2f2601fb4c5331571cbb73a80fa69f40e6f"),
    ("cluster", "10", "0.95,0.9,0.85,0.8"): (
        "3ead241244b68272d5f8ec0f955e004727216557cfa53794b24880bc4f1e8aaa",
        "ef7ce4397b5cb0fa1e0cd3fc9a1cbbd46ed167a3f3526aeb2fb76f2b30c91e8d"),
    ("ghz", "0", "lossless"): (
        "d1b4c0edcea9bfe1e316b6a2896ed9f5f14fec494a8da29c0655a3f5e3531899",
        "d54f6909cc484b42483f29bb3c3e2e82f8dfc1f7af45e2f684ac3e08cabc396d"),
    ("ghz", "0", "0.95,0.9,0.85,0.8"): (
        "ce6f9a96369e866cea28cae7b75425775f276540be19d1604e6ee6ec02e1a613",
        "42eff89d1aa1f197a7cf8f570998eaeb927b7bb98a1d37228690a6712ebe89ce"),
    ("ghz", "0.402", "lossless"): (
        "b904a55adc229d2d6de798158ab6eca70afb5c283710309c026ff755a242d435",
        "318609823d7b6796241c42526f89c276084ea058c36be6dd9cc32be752e5b9d8"),
    ("ghz", "0.402", "0.95,0.9,0.85,0.8"): (
        "028fef8cb5ce0cea915f8b2bee84e43d1b1148595f74537ceea3ac5a1159e07e",
        "3dec36fb7f6ce58b9076948ddf310b1ae211b9cb26d62164e95be5210dd9e757"),
    ("ghz", "5", "lossless"): (
        "4f5c185183f7ad7f87add7cb099c58effce00b93ff44a6116c581f0c6bc26132",
        "e305dea928a20e4fba0ca922748ed58c943552a71318a229e3442387d26fc419"),
    ("ghz", "5", "0.95,0.9,0.85,0.8"): (
        "ec677047c9851e04c5ce2d98bdcac5332ff8d16c8c39ef9e45c4580fefc25a77",
        "6709f8330da7e798dcf1d0e8004bb8c9b73670595469c56a5f1ba7ca96686d14"),
    ("ghz", "10", "lossless"): (
        "9ea6b1d05fc0f972602993db2fdfe7be29214b3720c12356da0ea8c3f35d15f5",
        "4c14e5a3cbcdecc1b411c13af3bf774c23d3ac0e65e43bff2597aff6596a92d4"),
    ("ghz", "10", "0.95,0.9,0.85,0.8"): (
        "828ad6214902028ccdeace3ee7c9ac2fb90c731c27510ee0b8895c3fa7cc6524",
        "14cce498c3b05e791abacde5bf8f53cd2af8339d473631096c1414834845c215"),
}


@pytest.mark.parametrize("case", list(_SIMULATE_SHA256), ids=lambda case: "-".join(case))
def test_simulate_artifact_bytes_are_frozen(tmp_path, case):
    family, r, efficiencies = case
    losses = () if efficiencies == "lossless" else ("--efficiencies", efficiencies)
    assert run_cli("--out", str(tmp_path), "--no-timestamp", "simulate", "--family", family,
                   "--r", r, *losses) == 0
    digests = tuple(hashlib.sha256((tmp_path / f"simulate_{family}.{ext}").read_bytes())
                    .hexdigest() for ext in ("json", "csv"))
    assert digests == _SIMULATE_SHA256[case]


# sha256 of the --no-timestamp artifact each command writes, or of its stdout
# where it writes none (gains), for the commands the tables above leave out: the
# preset and measured criteria, gains, and one short trace per family at the
# default seed.  A measured_*.json argument names the packaged dataset.
_OUTPUT_SHA256 = {
    "criteria --family cluster --r 0":
        "a3b99327b1705b1f277611a14da9ff3354a6206413c083e701e110a26c5c12d4",
    "criteria --family cluster --r 0 --efficiencies 0.9,0.8,0.7,0.95":
        "a3b99327b1705b1f277611a14da9ff3354a6206413c083e701e110a26c5c12d4",
    "criteria --family cluster --r 0.402":
        "0e6da4b8ab8fae8308353dc89efab00924203b2360a5dfac68336d6693709d03",
    "criteria --family cluster --r 0.402 --efficiencies 0.9,0.8,0.7,0.95":
        "8fae7c489456c96d2771ad08458f5e220705c2cfec85823bcf1f37ee9721648b",
    "criteria --family cluster --r 10":
        "e397f395ea5105190aa8be557ce22064d67192b5ff36bc71ca13ca437659409d",
    "criteria --family cluster --r 10 --efficiencies 0.9,0.8,0.7,0.95":
        "0d4ad0ebe6ea1c29a7f11113664af50555513ee8867dcb51459fa126de90ca02",
    "criteria --family ghz --r 0":
        "7859285a9b460c45b6e15d969a27b91ab7cb63c8e26dd2ec8eef5128f9cf1867",
    "criteria --family ghz --r 0 --efficiencies 0.9,0.8,0.7,0.95":
        "6d61370e23e2b462efc02e178666bf8df4a8b203c2e10c5cbebf1f74aecf0e21",
    "criteria --family ghz --r 0.402":
        "03fce333f9d90f4011bc0ee29c932d257e7449321f561c59a538d18680ad2060",
    "criteria --family ghz --r 0.402 --efficiencies 0.9,0.8,0.7,0.95":
        "63c8b494ac51dbbfb8fd000708484da013205ed579152f4ab4168815fcad4d34",
    "criteria --family ghz --r 10":
        "a96d1c32979d65ff4ac587a0f76491fa6d079dc1940588141fb10dffbc0cc6a1",
    "criteria --family ghz --r 10 --efficiencies 0.9,0.8,0.7,0.95":
        "bd81a9cb3d60f5feaebdb0b2567ba396bf5b1baa58c72da2035b9d93d4249220",
    "criteria --from-measured measured_cluster.json":
        "714bcae5e77176a210b5413b1a44d1a2911ed221b483f629ccee64d58bf32e6e",
    "criteria --from-measured measured_ghz.json":
        "a22cd10a30091cf5fad78b7b668695c0aa005578d1f59a7cb2c8b2e95eb7f5c2",
    "gains --family cluster --r 0.402":
        "78df20585fb2d137b761f8d76ae1afade201e78a0660d93c26fff487240c75cb",
    "gains --family cluster --r 10":
        "1cdbf0a5ae12883768e275a80ab5f0f9f9c23d75374e782e0cc6dfa0e02e5dad",
    "gains --family ghz --r 0.402":
        "c60c515717deae67b4ee9bf90491ddc5e0a2f01c12eb11302a8919724b468d46",
    "gains --family ghz --r 10":
        "9cdd35c6bac59a5972d3e58a8e8e4b1a9161ae12549da9b408694e56e10ff93c",
    "trace --family cluster --r 0.402 --duration 0.001 --samples-per-point 500":
        "9e75d5e9e067bbb7a7fe10430ab0de194ecb38c441ba93b7146e79c126df19bb",
    "trace --family ghz --r 0.402 --duration 0.001 --samples-per-point 500":
        "16ad0b112868f26dc75d59f7920b59963820d8b45f61f12a5778399f6393a209",
}


@pytest.mark.parametrize("command", list(_OUTPUT_SHA256))
def test_command_output_bytes_are_frozen(tmp_path, capsys, monkeypatch, command):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    argv = [str(_DATA / token) if token.startswith("measured_") else token
            for token in command.split()]
    capsys.readouterr()
    assert run_cli("--out", str(tmp_path), "--no-timestamp", *argv) == 0
    stdout = capsys.readouterr().out
    written = list(tmp_path.iterdir())
    assert len(written) <= 1
    data = written[0].read_bytes() if written else stdout.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == _OUTPUT_SHA256[command]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_JSON_TEXT = st.text(max_size=6) | st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é✓😀'), max_size=6)
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _FINITE, _FINITE.map(np.float64),
    st.sampled_from([-0.0, 5e-324, 1e308, -1e308]), _JSON_TEXT)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.dictionaries(_JSON_TEXT, st.recursive(
    _JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=12), max_size=4))
def test_json_artifacts_render_as_json_dumps_does(payload):
    """The artifact renderer gives the bytes of the stdlib encoder on nested
    containers, escape-heavy and non-ASCII strings, -0.0, extreme floats and
    np.float64."""
    want = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert cli._render_json(payload) == want


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_json_artifacts_refuse_non_finite_floats_as_json_dumps_does(value):
    payload = {"a": [1.0, {"b": value}]}
    with pytest.raises(ValueError) as want:
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with pytest.raises(ValueError) as got:
        cli._render_json(payload)
    assert str(got.value) == str(want.value)


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


def test_fit_dataset_refuses_family(tmp_path, capsys):
    """The dataset sets its family, so --family is refused rather than ignored."""
    out = tmp_path / "out"
    argv = ("fit", "--dataset", str(_DATA / "measured_cluster.json"), "--family", "ghz")
    assert run_cli("--out", str(out), *argv) == 1
    _fails_without_artifacts(
        capsys, out, "--dataset takes no --family: the dataset sets its family")


def _dataset_with(tmp_path, family, edit):
    """Path of the packaged dataset after ``edit``, which changes it in place or
    returns the JSON value that replaces it."""
    data = packaged_dataset(family).to_json_dict()
    replaced = edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data if replaced is None else replaced))
    return str(path)


@pytest.mark.parametrize("command", [("fit", "--dataset"), ("criteria", "--from-measured")])
def test_measured_db_beyond_double_precision_exits_1(tmp_path, capsys, command):
    """A dB value whose variance ratio 10^(-dB/10) underflows to 0 is refused
    when the dataset loads: exit 1, no warning, nothing written."""
    path = _dataset_with(tmp_path, "cluster",
                         lambda d: d["components"][0].update(db_below_snl=1e200))
    out = tmp_path / "out"
    code, caught = _run_recording_warnings("--out", str(out), *command, path)
    assert code == 1 and caught == []
    _fails_without_artifacts(capsys, out, "Y1-Y2: dB below SNL must leave a variance ratio")


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["squeezing"].update(r=True), "field squeezing.r must be a number, got True"),
    (lambda d: d["components"][3].update(uncertainty=False),
     "field components[3].uncertainty must be a number, got False"),
    (lambda d: d["sums"][2].update(value="1.936"),
     "field sums[2].value must be a number, got '1.936'"),
    (lambda d: d["components"][0].update(db_below_snl=None),
     "field components[0].db_below_snl must be a number, got None"),
    (lambda d: d["squeezing"].update(uncertainty=10 ** 400),
     "field squeezing.uncertainty is out of range"),
    # containers of the wrong JSON type, at each of the six container paths
    (lambda d: [], "must be an object, got []"),
    (lambda d: d.update(squeezing=0), "field squeezing must be an object, got 0"),
    (lambda d: d.update(components={"a": 1}),
     "field components must be an array, got {'a': 1}"),
    (lambda d: d["components"].__setitem__(4, [1, 2]),
     "field components[4] must be an object, got [1, 2]"),
    (lambda d: d.update(sums=None), "field sums must be an array, got None"),
    (lambda d: d["sums"].__setitem__(1, "II"), "field sums[1] must be an object, got 'II'"),
], ids=["bool-r", "bool-uncertainty", "string-sum", "null-db", "huge-int", "list-dataset",
        "number-squeezing", "object-components", "list-component", "null-sums",
        "string-sum-entry"])
@pytest.mark.parametrize("command", [("fit", "--dataset"), ("criteria", "--from-measured")],
                         ids=["fit", "criteria"])
def test_measured_dataset_takes_only_json_numbers(tmp_path, capsys, command, edit, message):
    """A numeric dataset field that is a JSON bool, string or null, or an int
    beyond double range, and a dataset, object or array of the wrong JSON type,
    exit 1 naming the field, and nothing is written."""
    out = tmp_path / "out"
    path = _dataset_with(tmp_path, "cluster", edit)
    assert run_cli("--out", str(out), *command, path) == 1
    _fails_without_artifacts(capsys, out, f"error: measured dataset {message}")


@pytest.mark.parametrize("command", [("fit", "--dataset"), ("criteria", "--from-measured")],
                         ids=["fit", "criteria"])
def test_measured_dataset_with_a_too_long_integer_exits_1(tmp_path, capsys, command):
    """An integer literal of 5001 digits, past Python's int-conversion digit
    limit where there is one, exits 1 without Python's own advice and writes
    nothing; without the limit it is a number beyond double range."""
    text = json.dumps(packaged_dataset("cluster").to_json_dict())
    assert text.count('"r": 0.402') == 1
    path = tmp_path / "long.json"
    path.write_text(text.replace('"r": 0.402', '"r": ' + "1" * 5001))
    out = tmp_path / "out"
    assert run_cli("--out", str(out), *command, str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: measured dataset ")
    assert "set_int_max_str_digits" not in err
    if hasattr(sys, "set_int_max_str_digits"):
        assert f"{path}: a number in it is too long (5001 digits)" in err
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda d: 10 ** 400, "must be an object, got an integer of 401 digits"),
    (lambda d: d["squeezing"].update(r=-10 ** 400),
     "field squeezing.r is out of range, got an integer of 401 digits"),
], ids=["number-dataset", "huge-r"])
def test_oversized_dataset_numbers_are_named_by_digit_count(tmp_path, capsys, edit, message):
    """An integer beyond double range is named by its digit count in an error
    message, not echoed digit by digit."""
    out = tmp_path / "out"
    assert run_cli("--out", str(out), "fit", "--dataset", _dataset_with(tmp_path, "ghz", edit)) == 1
    assert capsys.readouterr().err == f"error: measured dataset {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(family=10 ** 400), "unknown family an integer of 401 digits"),
    (lambda d: d["components"][1].update(label=-10 ** 400),
     "got ('X1+X2+g3*X3+g4*X4', 'an integer of 401 digits', 'g1*X1+g2*X2+X3+X4', 'Y1-Y2', "
     "'Y2-Y3', 'Y3-Y4')"),
    (lambda d: d["sums"][2].update(label=10 ** 400),
     "unknown criterion label 'an integer of 401 digits'"),
], ids=["huge-family", "huge-component-label", "huge-sum-label"])
def test_oversized_dataset_text_fields_are_named_by_digit_count(tmp_path, capsys, edit,
                                                                message):
    """An integer beyond double range in the family or a label is named by its
    digit count in the error message, not echoed digit by digit."""
    out = tmp_path / "out"
    assert run_cli("--out", str(out), "fit", "--dataset", _dataset_with(tmp_path, "ghz", edit)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n") and len(err) < 300
    assert not out.exists()


@pytest.mark.parametrize("family, edit, criterion", [
    ("cluster", lambda d: d["sums"][0].update(value=1e308), "I"),
    ("ghz", lambda d: d["sums"][2].update(value=1e308), "III"),
    # p * 10^(-dB/10) underflows to 0 on a gain-bearing combination of sum I
    ("cluster", lambda d: d["components"][2].update(db_below_snl=3230.0), "I"),
], ids=["huge-sum-I", "huge-sum-III", "underflowing-ratio"])
def test_fit_with_a_non_finite_implied_gain_exits_1(tmp_path, capsys, family, edit,
                                                   criterion):
    """A sum whose implied g^2 is not finite exits 1 naming its criterion,
    with no warning and nothing written."""
    out = tmp_path / "out"
    code, caught = _run_recording_warnings(
        "--out", str(out), "fit", "--dataset", _dataset_with(tmp_path, family, edit))
    assert code == 1 and caught == []
    _fails_without_artifacts(capsys, out, f"sum {criterion}: the gain implied by the "
                                          f"measured sum is not finite")


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
        ("trace", "--family", "cluster", "--r", "0.402", "--duration", "inf"),
        ("trace", "--family", "cluster", "--r", "0.402", "--duration", "nan"),
        ("trace", "--family", "ghz", "--r", "0.402", "--rbw", "inf"),
        ("trace", "--family", "ghz", "--r", "0.402", "--rbw", "nan"),
        ("trace", "--family", "cluster", "--r", "0.402", "--vbw", "inf"),
        ("trace", "--family", "cluster", "--r", "0.402", "--vbw", "nan"),
    ],
)
def test_non_finite_input_exits_1_without_artifacts(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = run_cli("--out", str(out), "--no-timestamp", *argv)
    assert rc == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family", ["cluster", "ghz"])
@pytest.mark.parametrize("r", [8.5, 9.8, 10.0])
def test_strong_squeezing_commands_match_closed_forms(tmp_path, family, r):
    """simulate, criteria (model and --net) and trace take their variances from
    the backward pass, so they hold the factored closed forms up to r = 10,
    where c^t V c cancels to round-off."""
    gains = GainVector.optimal(family, r)
    exact = closed_form(family, r, gains)
    sums = criterion_totals(family, exact)
    net_path = tmp_path / "experiment.net"
    net_path.write_text(serialize_network(build_experiment_network(ExperimentConfig(family, r))))
    state = ("--family", family, "--r", repr(r))
    runs = {"simulate": ("simulate", *state), "criteria": ("criteria", *state),
            "net": ("criteria", *state, "--net", str(net_path)), "trace": ("trace", *state)}
    for name, argv in runs.items():
        assert run_cli("--out", str(tmp_path / name), "--no-timestamp", *argv) == 0, argv
    simulated = json.loads((tmp_path / "simulate" / f"simulate_{family}.json").read_text())
    assert [c["variance_snu"] for c in simulated["combinations"]] == pytest.approx(
        exact, rel=1e-12, abs=0.0)
    forms = combination_forms(family, gains)
    assert [c["db_rel_SNL"] for c in simulated["combinations"]] == pytest.approx(
        [db_rel_snl(v, f) for v, f in zip(exact, forms)], rel=0.0, abs=1e-10)
    for name in ("criteria", "net"):
        payload = json.loads((tmp_path / name / f"criteria_{family}.json").read_text())
        assert [payload["sums"][label]["value"] for label in ("I", "II", "III")] == \
            pytest.approx(sums, rel=1e-12, abs=0.0)
    lines = (tmp_path / "trace" / f"trace_{family}_c0.csv").read_text().splitlines()
    power = [float(line.split(",")[1]) for line in lines
             if line and not line.startswith(("#", "time_s"))]
    assert sum(power) / len(power) == pytest.approx(db_rel_snl(exact[0], forms[0]), abs=0.05)


@pytest.mark.parametrize("argv", [
    ("simulate", "--family", "cluster", "--r", "9.8"),
    ("trace", "--family", "cluster", "--r", "9.8", "--combination", "0"),
])
def test_cancelling_cluster_variance_exits_0_at_closed_form(tmp_path, capsys, argv):
    """At r = 9.8 the cluster covariance's e^{2r} entries cancel to 0 in
    c^T V c for Y1-Y2; the backward pass gives the positive closed form."""
    out = tmp_path / "out"
    assert run_cli("--out", str(out), "--no-timestamp", *argv) == 0
    assert "variance" not in capsys.readouterr().err
    gains = GainVector.optimal("cluster", 9.8)
    exact = closed_form("cluster", 9.8, gains)[0]
    expected_db = db_rel_snl(exact, combination_forms("cluster", gains)[0])
    if argv[0] == "simulate":
        first = json.loads((out / "simulate_cluster.json").read_text())["combinations"][0]
        assert first["label"] == "Y1-Y2"
        assert first["variance_snu"] == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert first["db_rel_SNL"] == pytest.approx(expected_db, rel=0.0, abs=1e-10)
    else:
        lines = (out / "trace_cluster_c0.csv").read_text().splitlines()
        power = [float(line.split(",")[1]) for line in lines
                 if line and not line.startswith(("#", "time_s"))]
        assert sum(power) / len(power) == pytest.approx(expected_db, abs=0.05)


def test_fit_non_finite_dataset_exits_1_without_artifacts(tmp_path, capsys):
    data = packaged_dataset("ghz").to_json_dict()
    data["squeezing"]["r"] = float("nan")
    data_path = tmp_path / "nan.json"
    data_path.write_text(json.dumps(data))  # writes the NaN literal
    out = tmp_path / "out"
    rc = run_cli("--out", str(out), "fit", "--dataset", str(data_path))
    assert rc == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


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
    assert not out.exists()


def test_unwritable_artifact_path_keeps_existing_artifacts(tmp_path, capsys):
    """When one artifact cannot be written, none is: an older simulate CSV
    keeps its content and no fit JSON appears."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "simulate_cluster.csv").write_text("older run\n")
    (out / "simulate_cluster.json").mkdir()
    (out / "fit_ghz_report.txt").mkdir()
    assert run_cli("--out", str(out), "simulate", "--family", "cluster", "--r", "0.402") == 1
    assert "Is a directory" in capsys.readouterr().err
    assert run_cli("--out", str(out), "fit", "--family", "ghz") == 1
    assert "Is a directory" in capsys.readouterr().err
    assert (out / "simulate_cluster.csv").read_text() == "older run\n"
    assert sorted(p.name for p in out.iterdir()) == [
        "fit_ghz_report.txt", "simulate_cluster.csv", "simulate_cluster.json"]


@pytest.mark.parametrize("argv", [
    ("simulate", "--family", "cluster", "--r", "0.402"),
    ("fit", "--family", "cluster"),
])
def test_write_failing_midway_leaves_no_file(tmp_path, monkeypatch, capsys, argv):
    """A disk that fills up on the second artifact leaves no file behind, no
    temporary either, and removes the --out directory the write created."""
    out = tmp_path / "out"
    real_open = open
    opened = []

    def open_filling_up(path, *args, **kwargs):
        handle = real_open(path, *args, **kwargs)
        if Path(path).parent == out:
            opened.append(path)
            if len(opened) == 2:
                def full(text):
                    raise OSError(28, "No space left on device")
                handle.write = full
        return handle

    monkeypatch.setattr("builtins.open", open_filling_up)
    monkeypatch.setattr("io.open", open_filling_up)  # what Path.write_text calls
    assert run_cli("--out", str(out), *argv) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert len(opened) == 2
    assert not out.exists()


def _fails_without_artifacts(capsys, out, message):
    """Exit 1 was returned; stderr holds the message; --out was not created."""
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (("--gains", "1,2"), "gains must be 'optimal' or four comma-separated values"),
    (("--gains", "1,a,1,1"), "gains must be numeric, got '1,a,1,1'"),
    (("--efficiencies", "0.9,0.8"), "efficiencies need one common value or four"),
    (("--efficiencies", "high"), "efficiencies must be numeric, got 'high'"),
])
def test_malformed_gains_and_efficiencies_exit_1(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    argv = ("simulate", "--family", "cluster", "--r", "0.402", *flags)
    assert run_cli("--out", str(out), *argv) == 1
    _fails_without_artifacts(capsys, out, message)


@pytest.mark.parametrize("argv, flag, value, code, message", [
    (("criteria", "--family", "ghz", "--r", "0.4"), "--gains", "-0.5,1,1,1", 0,
     "verdict: separable-possible"),
    (("criteria", "--family", "cluster"), "--r", "-1e-3", 1, "; got -0.001"),
    (("gains", "--family", "ghz"), "--r", "-.5e-1", 1, "; got -0.05"),
    (("trace", "--family", "cluster", "--r", "0.4"), "--duration", "-2e-3", 1,
     "duration must be positive"),
], ids=["gains", "r-exponent", "r-leading-dot", "duration"])
def test_negative_flag_values_are_read_as_values(tmp_path, capsys, argv, flag, value,
                                                 code, message):
    """A flag value that starts with '-' and a digit, or '-.' and a digit, is the
    flag's value as in the --flag=value form, not an unknown option: it reaches
    its own check."""
    runs = []
    for given in ((flag, value), (f"{flag}={value}",)):
        runs.append((run_cli("--out", str(tmp_path), "--no-timestamp", *argv, *given),
                     *capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == code
    assert message in runs[0][code + 1]  # stdout on success, stderr on failure


@pytest.mark.parametrize("argv, message", [
    (("sweep", "--family", "ghz", "--r-min", "0", "--r-max", "1", "--steps", "0"),
     "--steps must be >= 1"),
    (("trace", "--family", "cluster", "--r", "0.402", "--combination", "X9"),
     "combination must be an index 0-5 or one of"),
    # 3e17 trace points (2.08 EiB) and 1e17 sweep rows (711 PiB) exceed any
    # 64-bit address space, so the first allocation fails before touching memory
    (("trace", "--family", "cluster", "--r", "0.4", "--duration", "1e13"),
     "Unable to allocate"),
    (("sweep", "--family", "ghz", "--r-min", "0", "--r-max", "1",
      "--steps", "100000000000000000"), "Unable to allocate"),
])
def test_bad_steps_and_combination_exit_1(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run_cli("--out", str(out), *argv) == 1
    _fails_without_artifacts(capsys, out, message)


@pytest.mark.parametrize("text, message", [
    ("mode a\nsq a Y\nout a\n",
     "network file error: line 2, column 1: sq takes 3 arguments, got 2"),
    ("mode a\nmode b\nmode c\nsq a Y 0.402\nout a b c\n",
     "criteria are defined for four-mode states"),
])
def test_criteria_net_rejects_bad_network_file(tmp_path, capsys, text, message):
    """A malformed file names its line and column; a three-output file is
    refused because the criteria need four modes."""
    net_path = tmp_path / "bad.net"
    net_path.write_text(text)
    out = tmp_path / "out"
    argv = ("criteria", "--family", "cluster", "--r", "0.402", "--net", str(net_path))
    assert run_cli("--out", str(out), *argv) == 1
    _fails_without_artifacts(capsys, out, message)


_DATA = Path(cli.__file__).parent / "data"


@pytest.mark.parametrize("flags, named", [
    (("--net", str(_DATA / "ghz.net")), "--net"),
    (("--family", "ghz"), "--family"),
    (("--r", "3"), "--r"),
    (("--gains", "1,1,1,1"), "--gains"),
    (("--efficiencies", "0.5"), "--efficiencies"),
    (("--net", str(_DATA / "ghz.net"), "--family", "ghz", "--r", "3", "--gains", "1,1,1,1",
      "--efficiencies", "0.5"), "--net, --family, --r, --gains, --efficiencies"),
])
def test_criteria_from_measured_rejects_state_flags(tmp_path, capsys, flags, named):
    """The dataset fixes the family, r and the sums, so the flags that would
    set them are refused rather than ignored."""
    out = tmp_path / "out"
    argv = ("criteria", "--from-measured", str(_DATA / "measured_cluster.json"), *flags)
    assert run_cli("--out", str(out), *argv) == 1
    _fails_without_artifacts(capsys, out, f"--from-measured takes no {named}:")


def test_criteria_net_rejects_efficiencies(tmp_path, capsys):
    """The network file sets its own losses, so --efficiencies is refused
    rather than ignored."""
    out = tmp_path / "out"
    argv = ("criteria", "--family", "cluster", "--r", "0.402",
            "--net", str(_DATA / "cluster.net"), "--efficiencies", "0.5")
    assert run_cli("--out", str(out), *argv) == 1
    _fails_without_artifacts(capsys, out, "--net takes no --efficiencies:")


@pytest.mark.parametrize("source, argv", [
    ("cluster.net", ("criteria", "--family", "cluster", "--r", "0.402", "--net")),
    ("measured_cluster.json", ("fit", "--dataset")),
    ("measured_cluster.json", ("criteria", "--from-measured")),
], ids=["criteria-net", "fit-dataset", "criteria-from-measured"])
def test_an_input_file_that_is_not_utf8_exits_1_naming_it(tmp_path, capsys, source, argv):
    """A raw 0xff byte in an input file exits 1 naming the file, the byte and its
    offset, without the codec's wording, and nothing is written."""
    data = (_DATA / source).read_bytes()
    path = tmp_path / f"bad-{source}"
    path.write_bytes(data[:10] + b"\xff" + data[10:])
    out = tmp_path / "out"
    assert run_cli("--out", str(out), *argv, str(path)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path} is not UTF-8 text: byte 0xff at offset 10\n"
    assert "codec" not in err
    assert not out.exists()


def test_a_network_file_with_a_bom_gives_the_packaged_files_output(tmp_path):
    """A UTF-8 byte-order mark before the first line is skipped."""
    path = tmp_path / "bom.net"
    path.write_bytes(b"\xef\xbb\xbf" + (_DATA / "cluster.net").read_bytes())
    artifacts = []
    for net in (_DATA / "cluster.net", path):
        out = tmp_path / net.stem
        assert run_cli("--out", str(out), "--no-timestamp", "criteria", "--family", "cluster",
                       "--r", "0.402", "--net", str(net)) == 0
        artifacts.append((out / "criteria_cluster.json").read_bytes())
    assert artifacts[1] == artifacts[0]


@pytest.mark.parametrize("family", ["cluster", "ghz"])
def test_a_measured_dataset_with_a_bom_gives_the_plain_files_artifacts(tmp_path, family):
    """A UTF-8 byte-order mark before a measured dataset is skipped, by fit and
    by criteria alike."""
    plain = _DATA / f"measured_{family}.json"
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    artifacts = []
    for path in (plain, bom):
        out = tmp_path / path.stem
        for argv in (("fit", "--dataset"), ("criteria", "--from-measured")):
            assert run_cli("--out", str(out), "--no-timestamp", *argv, str(path)) == 0
        artifacts.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert sorted(artifacts[0]) == [f"criteria_{family}.json", f"fit_{family}.json",
                                    f"fit_{family}_report.txt"]
    assert artifacts[1] == artifacts[0]


def test_timestamp_stamps_json_and_csv_but_not_the_report(tmp_path):
    """generated_at is a JSON key and a first CSV comment line; the plain-text
    report carries none."""
    assert run_cli("--out", str(tmp_path), "fit", "--family", "cluster") == 0
    assert "generated_at" in json.loads((tmp_path / "fit_cluster.json").read_text())
    assert "generated_at" not in (tmp_path / "fit_cluster_report.txt").read_text()
    argv = ("trace", "--family", "cluster", "--r", "0.402", "--duration", "0.000666667")
    assert run_cli("--out", str(tmp_path), *argv) == 0
    first = (tmp_path / "trace_cluster_c0.csv").read_text().splitlines()[0]
    assert first.startswith("# generated_at = ")


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


def test_readme_library_tour_runs(capsys):
    """README's Python block runs and prints what its comments say."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library tour\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    db, verdict = capsys.readouterr().out.splitlines()
    assert round(float(db), 2) == -3.49
    assert verdict == "True"


def _texts(out: Path) -> dict[str, str]:
    """Each artifact in ``out`` by name, its timestamp lines dropped."""
    if not out.exists():
        return {}
    return {path.name: "\n".join(line for line in path.read_text().splitlines()
                                  if "generated_at" not in line)
            for path in sorted(out.iterdir())}


def test_main_reuses_one_parser_without_carrying_state(tmp_path, monkeypatch):
    """Many commands in one process share one parser, and each gives the
    artifacts of the same command run with a parser built afresh: a usage
    error, a --seed, a --net or a --no-timestamp does not carry over to the
    next call, and QUADNET_SEED is read on every call."""
    net = tmp_path / "ghz.net"
    net.write_text(serialize_network(packaged_network("ghz")))
    trace = ("trace", "--family", "cluster", "--r", "0.402", "--duration", "0.000666667")
    criteria = ("criteria", "--family", "ghz", "--r", "0.402")
    sweep = ("sweep", "--family", "cluster", "--r-min", "0", "--r-max", "1", "--steps", "5")
    calls = [  # (QUADNET_SEED, exit code, argv)
        (None, 1, ("simulate", "--family", "w", "--r", "0.1")),
        (None, 0, ("--no-timestamp", "simulate", "--family", "cluster", "--r", "0.402")),
        (None, 0, ("--seed", "7", "--no-timestamp", *trace)),
        (None, 0, ("--no-timestamp", *trace)),
        ("11", 0, ("--no-timestamp", *trace)),
        ("11", 0, ("--seed", "7", "--no-timestamp", *trace)),
        (None, 0, ("--no-timestamp", *criteria, "--net", str(net))),
        (None, 0, ("--no-timestamp", *criteria)),
        (None, 1, ("--no-timestamp", "sweep", "--family", "ghz", "--steps", "3")),
        (None, 0, sweep),
        (None, 0, ("--no-timestamp", *sweep)),
        (None, 0, criteria),
        (None, 0, ("--no-timestamp", *criteria, "--net", str(net))),
    ]

    def run_all(root, fresh):
        texts = []
        for k, (seed, code, argv) in enumerate(calls):
            if seed is None:
                monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(cli.SEED_ENV_VAR, seed)
            if fresh:
                cli.build_parser.cache_clear()
            parser = cli.build_parser()
            assert run_cli("--out", str(root / str(k)), *argv) == code, argv
            assert cli.build_parser() is parser
            texts.append(_texts(root / str(k)))
        return texts, parser

    expected, _ = run_all(tmp_path / "fresh", fresh=True)
    cli.build_parser.cache_clear()
    shared = cli.build_parser()
    assert shared is cli.build_parser()
    got, parser = run_all(tmp_path / "shared", fresh=False)
    assert parser is shared
    assert got == expected
    assert "generated_at" in (tmp_path / "shared" / "9" / "sweep_cluster.csv").read_text()
    assert "generated_at" not in (tmp_path / "shared" / "10" / "sweep_cluster.csv").read_text()
    seeded, default, from_env, seeded_again = got[2:6]
    assert len({str(default), str(from_env), str(seeded)}) == 3
    assert seeded_again == seeded
    assert got[6]["criteria_ghz.json"].count('"source": "net"') == 1
    assert got[7]["criteria_ghz.json"].count('"source": "model"') == 1


@pytest.mark.parametrize("argv, passes", [
    (("gains", "--family", "cluster", "--r", "0.402"), 1),
    (("gains", "--family", "ghz", "--r", "0.402"), 1),
    (("simulate", "--family", "cluster", "--r", "0.402"), 1),
    (("criteria", "--family", "ghz", "--r", "0.402"), 1),
    (("trace", "--family", "cluster", "--r", "0.402", "--duration", "0.000666667"), 1),
    # one pass per chunk of cli._STACK r-points
    (("sweep", "--family", "ghz", "--r-min", "0", "--r-max", "1", "--steps", "5000"),
     -(-5000 // cli._STACK)),
    (("fit", "--family", "cluster"), 1),
    (("fit", "--family", "ghz"), 1),
], ids=lambda v: " ".join(v[:3]) if isinstance(v, tuple) else None)
def test_each_command_elaborates_its_network_once(tmp_path, monkeypatch, argv, passes):
    """Every command takes its variances from one _propagate call (one per
    chunk in a sweep), and only simulate, which writes a covariance, elaborates
    its network, once."""
    calls = {"_propagate": [], "elaborate": []}

    def counting(name):
        function = getattr(network, name)

        def counted(*args, **kwargs):
            calls[name].append(args)
            return function(*args, **kwargs)
        return counted

    propagate, elaborate = counting("_propagate"), counting("elaborate")
    for module in (network, cli, calibration):
        monkeypatch.setattr(module, "_propagate", propagate)
    for module in (network, cli):
        monkeypatch.setattr(module, "elaborate", elaborate)
    assert run_cli("--out", str(tmp_path), *argv) == 0
    assert len(calls["_propagate"]) == passes
    assert len(calls["elaborate"]) == (argv[0] == "simulate")


@pytest.mark.parametrize("family", ["cluster", "ghz"])
def test_fit_reconciles_the_sums_once(tmp_path, monkeypatch, family):
    """A fit command solves the sum reconciliation once: its report reads the
    fit's own."""
    calls = []
    infer = calibration.infer_sum_gains

    def counted(dataset):
        calls.append(dataset)
        return infer(dataset)
    monkeypatch.setattr(calibration, "infer_sum_gains", counted)
    assert run_cli("--out", str(tmp_path), "fit", "--family", family) == 0
    assert calls == [packaged_dataset(family)]


def test_criteria_skips_an_overflowing_traced_out_mode(tmp_path):
    """Forty r = 10 squeezers on a fifth mode that is traced out overflow a
    covariance, but criteria never forms one: it reports the sums of ghz.net,
    and elaborate traces the mode out before checking the output block."""
    packaged = (Path(network.__file__).parent / "data" / "ghz.net").read_text()
    text = packaged.replace("out ", "mode extra\n" + "sq extra X 10\n" * 40 + "out ")
    paths = {}
    for name, net in (("packaged", packaged), ("extra", text)):
        paths[name] = tmp_path / f"{name}.net"
        paths[name].write_text(net)
        assert run_cli("--out", str(tmp_path / name), "--no-timestamp", "criteria",
                       "--family", "ghz", "--r", "0.402", "--net", str(paths[name])) == 0
    assert ((tmp_path / "extra" / "criteria_ghz.json").read_text()
            == (tmp_path / "packaged" / "criteria_ghz.json").read_text())
    states = [network.elaborate(network.parse_network(net)) for net in (packaged, text)]
    assert np.array_equal(states[1].cov, states[0].cov)


def test_main_runs_the_command_function_current_at_the_call(tmp_path, monkeypatch):
    """A cmd_sweep patched after the parser was built still takes effect."""
    argv = ("--out", str(tmp_path), "--no-timestamp",
            "sweep", "--family", "ghz", "--r-min", "0", "--r-max", "1", "--steps", "3")
    assert run_cli(*argv) == 0
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "cmd_sweep",
                        lambda args: ({"patched.csv": [f"steps={args.steps}\n"]}, []))
    assert run_cli(*argv) == 0
    assert (tmp_path / "patched.csv").read_text() == "steps=3\n"
    assert cli.build_parser() is parser

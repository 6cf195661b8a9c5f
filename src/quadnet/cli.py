"""Command-line front end.

Subcommands tie the simulator, the criteria evaluation, the noise-trace
generator, and the loss calibration together and write deterministic CSV
and JSON artifacts:

* ``simulate`` — covariance matrix (JSON) and combination-variance table
  (CSV) for one configuration.
* ``gains`` — analytic versus numerically minimized gains.
* ``criteria`` — criterion sums, bound table, excluded bipartitions, and
  the separability verdict (JSON), from a simulated state, a network
  file, or a measured dataset.
* ``sweep`` — criterion sums versus squeezing strength (CSV).
* ``trace`` — simulated spectrum-analyzer noise trace (CSV).
* ``fit`` — efficiency calibration against a measured dataset (JSON plus
  a plain-text consistency report).

Every command is deterministic given its flags and seed; rerunning with
``--no-timestamp`` produces byte-identical files.  The random seed
defaults to 20260816, overridden by the ``QUADNET_SEED`` environment
variable, overridden in turn by ``--seed``.

Exit codes: 0 success, 1 usage or configuration error, 2 physicality
violation, 3 fit non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from .calibration import (
    consistency_report,
    fit_uniform_efficiency,
    load_measured_dataset,
    packaged_dataset,
    predict_measured,
)
from .criteria import (
    CRITERION_LABELS,
    FAMILIES,
    GainVector,
    _family,
    closed_form,
    combination_forms,
    combination_labels,
    evaluate_criteria,
    full_inseparability,
    numeric_optimal_gain,
    results_from_totals,
    uncovered_bipartitions,
)
from .errors import FitNonConvergenceError, NetworkParseError, PhysicalityError
from .network import ExperimentConfig, elaborate, parse_network, simulate_experiment
from .sampling import ANALYSIS_FREQUENCY_HZ, TraceConfig, emit_trace, trace_to_csv
from .states import combination_variance, db_rel_snl, snl, variance_db

DEFAULT_SEED = 20260816
SEED_ENV_VAR = "QUADNET_SEED"


@dataclass(frozen=True)
class RunConfig:
    """Cross-command execution parameters resolved from flags."""

    out_dir: Path
    seed: int
    timestamp: bool


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadnet",
        description="Simulate and analyze four-mode squeezed-light networks.",
    )
    parser.add_argument(
        "--out", default=".", help="output directory (created if missing)"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"random seed (default {DEFAULT_SEED}, or ${SEED_ENV_VAR} if set)",
    )
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the generation timestamp so reruns are byte-identical",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def family_flag(p, required=True):
        p.add_argument("--family", choices=FAMILIES, required=required)

    def common_state_flags(p):
        p.add_argument("--r", type=float, required=True, help="squeezing parameter")
        p.add_argument(
            "--gains",
            default="optimal",
            help="'optimal' or four comma-separated values g1,g2,g3,g4",
        )
        p.add_argument(
            "--efficiencies",
            default="1",
            help="detection efficiency: one value for all ports or four comma-separated",
        )

    p = sub.add_parser("simulate", help="covariance matrix and variance table")
    family_flag(p)
    common_state_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gains", help="analytic vs numerically minimized gains")
    family_flag(p)
    p.add_argument("--r", type=float, required=True)
    p.set_defaults(func=cmd_gains)

    p = sub.add_parser("criteria", help="criterion sums, bounds, and verdict")
    family_flag(p, required=False)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--gains", default="optimal")
    p.add_argument("--efficiencies", default="1")
    p.add_argument(
        "--from-measured", default=None, help="measured-dataset JSON file to evaluate"
    )
    p.add_argument("--net", default=None, help="network file to elaborate")
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("sweep", help="criterion sums versus squeezing strength")
    family_flag(p)
    p.add_argument("--r-min", type=float, required=True)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--gains", default="optimal")
    p.add_argument("--efficiencies", default="1")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trace", help="simulated spectrum-analyzer noise trace")
    family_flag(p)
    common_state_flags(p)
    p.add_argument(
        "--combination",
        default="0",
        help="canonical combination index (0-5) or exact label",
    )
    p.add_argument("--duration", type=float, default=1.0 / 300.0, help="seconds")
    p.add_argument("--samples-per-point", type=int, default=10_000)
    p.add_argument("--rbw", type=float, default=30e3, help="resolution bandwidth, Hz")
    p.add_argument("--vbw", type=float, default=30.0, help="video bandwidth, Hz")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("fit", help="fit detection efficiency to measured data")
    p.add_argument("--dataset", default=None, help="measured-dataset JSON file")
    family_flag(p, required=False)
    p.set_defaults(func=cmd_fit)

    return parser


# ---------------------------------------------------------------------------
# helpers


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _run_config(args) -> RunConfig:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return RunConfig(out_dir, _resolve_seed(args.seed), not args.no_timestamp)


def _parse_gains(text: str) -> GainVector | str:
    if text == "optimal":
        return "optimal"
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("gains must be 'optimal' or four comma-separated values")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"gains must be numeric, got {text!r}") from None
    return GainVector(*values)


def _parse_efficiencies(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) not in (1, 4):
        raise ValueError("efficiencies need one common value or four comma-separated")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"efficiencies must be numeric, got {text!r}") from None
    if len(values) == 1:
        values = values * 4
    return tuple(values)  # type: ignore[return-value]


def _meta(run: RunConfig) -> dict:
    if not run.timestamp:
        return {}
    return {"generated_at": datetime.now(timezone.utc).isoformat()}


def _timestamp_comment(run: RunConfig) -> list[str]:
    if not run.timestamp:
        return []
    return [f"# generated_at = {datetime.now(timezone.utc).isoformat()}"]


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args, run: RunConfig) -> int:
    config = ExperimentConfig(
        args.family,
        args.r,
        efficiencies=_parse_efficiencies(args.efficiencies),
        gains=_parse_gains(args.gains),
    )
    state = simulate_experiment(config)
    gains = config.resolved_gains()
    forms = combination_forms(args.family, gains)
    labels = combination_labels(args.family)

    rows = []
    combos = []
    for label, form in zip(labels, forms):
        variance = combination_variance(state, form)
        level = snl(form)
        db = db_rel_snl(variance, form)
        rows.append(f"{label},{variance:.4f},{level:.6g},{db:.2f}")
        combos.append(
            {
                "label": label,
                "variance_snu": variance,
                "snl_snu": level,
                "db_rel_SNL": db,
            }
        )

    csv_lines = _timestamp_comment(run) + [
        f"# family = {args.family}",
        f"# r = {args.r!r}",
        f"# gains = {','.join(f'{g:.10g}' for g in gains.as_tuple())}",
        f"# efficiencies = {','.join(f'{e:.10g}' for e in config.efficiencies)}",
        "# units: variance snu, snl snu, dB relative to the SNL",
        "combination,variance_snu,snl_snu,db_rel_SNL",
        *rows,
    ]
    payload = {
        "family": args.family,
        "r": args.r,
        "gains": list(gains.as_tuple()),
        "efficiencies": list(config.efficiencies),
        "analysis_frequency_hz": ANALYSIS_FREQUENCY_HZ,
        "mean": state.mean.tolist(),
        "cov": state.cov.tolist(),
        "combinations": combos,
        "units": {"variance": "snu", "db": "dB_rel_SNL"},
        **_meta(run),
    }
    json_text = _render_json(payload)
    csv_path = run.out_dir / f"simulate_{args.family}.csv"
    json_path = run.out_dir / f"simulate_{args.family}.json"
    _write_text(csv_path, "\n".join(csv_lines) + "\n")
    _write_text(json_path, json_text)

    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    print("combination,variance_snu,snl_snu,db_rel_SNL")
    for row in rows:
        print(row)
    return 0


def cmd_gains(args, run: RunConfig) -> int:
    if not (math.isfinite(args.r) and args.r >= 0.0):
        raise ValueError(f"squeezing parameter must be finite and >= 0, got {args.r}")
    analytic = GainVector.optimal(args.family, args.r).as_tuple()
    print(f"family={args.family} r={args.r:g}")
    print(f"{'gain':<6} {'analytic':>14} {'numeric':>14} {'difference':>12}")
    for name, combo_index, slots in _family(args.family).gain_rows():

        def objective(g: float) -> float:
            values = list(analytic)
            for slot in slots:
                values[slot] = g
            return closed_form(args.family, args.r, GainVector(*values))[combo_index]

        numeric = numeric_optimal_gain(objective)
        reference = analytic[slots[0]]
        print(
            f"{name:<6} {reference:>14.10f} {numeric:>14.10f} "
            f"{abs(numeric - reference):>12.3e}"
        )
    return 0


def cmd_criteria(args, run: RunConfig) -> int:
    if args.from_measured is not None:
        dataset = load_measured_dataset(args.from_measured)
        family = dataset.family
        r = dataset.r
        gains = GainVector.optimal(family, r)
        results = results_from_totals(
            family, gains, dataset.sum_values, dataset.sum_uncertainties
        )
        source = "measured"
    else:
        if args.family is None or args.r is None:
            raise ValueError("--family and --r are required without --from-measured")
        family, r = args.family, args.r
        if args.net is not None:
            spec = parse_network(Path(args.net).read_text(encoding="utf-8"))
            squeezings = {e.params[0] for e in spec.elements if e.kind == "sq"}
            if len(squeezings) == 1 and r not in squeezings:  # --r only picks the gains
                raise ValueError(f"--r {r!r} differs from r = {squeezings.pop()!r} "
                                 f"of every squeezer in {args.net}")
            state = elaborate(spec)
            source = "net"
            gains_arg = _parse_gains(args.gains)
            gains = (
                GainVector.optimal(family, r)
                if isinstance(gains_arg, str)
                else gains_arg
            )
        else:
            config = ExperimentConfig(
                family,
                r,
                efficiencies=_parse_efficiencies(args.efficiencies),
                gains=_parse_gains(args.gains),
            )
            state = simulate_experiment(config)
            gains = config.resolved_gains()
            source = "model"
        results = evaluate_criteria(state, family, gains)

    verdict = (
        "fully-inseparable" if full_inseparability(results) else "separable-possible"
    )
    uncovered = [b.label for b in uncovered_bipartitions(results)]

    sums = {}
    bounds = {}
    excluded = {}
    for result in results:
        label = result.pair.label
        entry = {"value": result.total, "unit": "snu"}
        if result.uncertainty is not None:
            entry["uncertainty"] = result.uncertainty
        sums[label] = entry
        bounds[label] = {
            b.label: v
            for b, v in sorted(result.bounds.items(), key=lambda item: item[0].label)
        }
        excluded[label] = sorted(b.label for b in result.excluded)

    payload = {
        "family": family,
        "r": r,
        "source": source,
        "gains": list(gains.as_tuple()),
        "sums": sums,
        "bounds": bounds,
        "bound_unit": "snu",
        "excluded": excluded,
        "uncovered": uncovered,
        "fully_inseparable": verdict == "fully-inseparable",
        "verdict": verdict,
        **_meta(run),
    }
    json_path = run.out_dir / f"criteria_{family}.json"
    _write_text(json_path, _render_json(payload))
    print(f"wrote {json_path}")
    for label in CRITERION_LABELS:
        print(f"{label}: {sums[label]['value']:.6f} snu")
    print(f"verdict: {verdict}")
    return 0


def cmd_sweep(args, run: RunConfig) -> int:
    if args.r_min > args.r_max:
        raise ValueError("--r-min must not exceed --r-max")
    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    if args.steps == 1:
        r_values = [args.r_min]
    else:
        step = (args.r_max - args.r_min) / (args.steps - 1)
        r_values = [args.r_min + i * step for i in range(args.steps)]

    gains_arg = _parse_gains(args.gains)
    efficiencies = _parse_efficiencies(args.efficiencies)
    rows = []
    for r in r_values:
        predicted = predict_measured(args.family, r, efficiencies, gains_arg)
        rows.append(f"{r:.6g}," + ",".join(f"{s:.10f}" for s in predicted.sums))

    csv_lines = _timestamp_comment(run) + [
        f"# family = {args.family}",
        f"# gains = {args.gains}",
        f"# efficiencies = {','.join(f'{e:.10g}' for e in efficiencies)}",
        "# unit: snu",
        "r,I,II,III",
        *rows,
    ]
    csv_path = run.out_dir / f"sweep_{args.family}.csv"
    _write_text(csv_path, "\n".join(csv_lines) + "\n")
    print(f"wrote {csv_path}")
    print(f"{len(rows)} rows")
    return 0


def cmd_trace(args, run: RunConfig) -> int:
    config = ExperimentConfig(
        args.family,
        args.r,
        efficiencies=_parse_efficiencies(args.efficiencies),
        gains=_parse_gains(args.gains),
    )
    state = simulate_experiment(config)
    labels = combination_labels(args.family)
    token = args.combination
    if token in labels:
        index = labels.index(token)
    else:
        try:
            index = int(token)
        except ValueError:
            raise ValueError(
                f"combination must be an index 0-5 or one of {labels}"
            ) from None
        if not 0 <= index < 6:
            raise ValueError("combination index must lie in 0-5")
    form = combination_forms(args.family, config.resolved_gains())[index]

    trace_config = TraceConfig(
        duration=args.duration,
        seed=run.seed,
        samples_per_point=args.samples_per_point,
        rbw=args.rbw,
        vbw=args.vbw,
    )
    trace = emit_trace(state, form, trace_config)
    text = trace_to_csv(trace)
    stamp = _timestamp_comment(run)
    if stamp:
        text = stamp[0] + "\n" + text
    csv_path = run.out_dir / f"trace_{args.family}_c{index}.csv"
    _write_text(csv_path, text)
    mean_db = sum(trace.power_db) / len(trace.power_db)
    print(f"wrote {csv_path}")
    print(f"points: {len(trace.power_db)}")
    print(f"mean power: {mean_db:.3f} dB_rel_SNL")
    print(f"analytic: {variance_db(state, form):.3f} dB_rel_SNL")
    return 0


def cmd_fit(args, run: RunConfig) -> int:
    if args.dataset is not None:
        dataset = load_measured_dataset(args.dataset)
    elif args.family is not None:
        dataset = packaged_dataset(args.family)
    else:
        raise ValueError("provide --dataset FILE or --family")

    fit = fit_uniform_efficiency(dataset)
    report = consistency_report(dataset, fit.co_fit)

    payload = {**fit.to_json_dict(), "report": report.to_json_dict(), **_meta(run)}
    json_text = _render_json(payload)
    report_text = report.to_text() + "\n"
    json_path = run.out_dir / f"fit_{dataset.family}.json"
    report_path = run.out_dir / f"fit_{dataset.family}_report.txt"
    _write_text(json_path, json_text)
    _write_text(report_path, report_text)

    print(f"wrote {json_path}")
    print(f"wrote {report_path}")
    print(
        f"fixed-gains: eta = {fit.fixed_gains.eta:.4f}, "
        f"rms = {fit.fixed_gains.rms_db:.4f} dB"
    )
    print(f"co-fit: eta = {fit.co_fit.eta:.4f}, rms = {fit.co_fit.rms_db:.4f} dB")
    flagged = len(report.flagged_rows)
    print(f"flagged observables: {flagged}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        run = _run_config(args)
        return args.func(args, run)
    except PhysicalityError as exc:
        print(f"physicality violation: {exc}", file=sys.stderr)
        return 2
    except FitNonConvergenceError as exc:
        print(f"fit did not converge: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 1
    except NetworkParseError as exc:
        print(f"network file error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands tie the simulator, the criteria evaluation, the noise-trace
generator, and the loss calibration together into deterministic CSV and
JSON artifacts:

* ``simulate`` — covariance matrix (JSON) and combination-variance table
  (CSV) for one configuration.
* ``gains`` — analytic gains versus the simulator's numeric minimum.
* ``criteria`` — criterion sums, bound table, excluded bipartitions, and
  the separability verdict (JSON), from a simulated state, a network
  file, or a measured dataset.
* ``sweep`` — criterion sums versus squeezing strength (CSV).
* ``trace`` — simulated spectrum-analyzer noise trace (CSV).
* ``fit`` — efficiency calibration against a measured dataset (JSON plus
  a plain-text consistency report).

Each command is a function of the parsed arguments alone.  It writes and
prints nothing: it returns its artifacts in write order (file name to JSON
payload dict, CSV lines or report text) and its summary lines.  ``sweep``'s
CSV is an iterator of text, each chunk of r-points computed as it is written.
:func:`main` alone reads ``--out`` and ``--no-timestamp`` and stamps, renders
and writes the artifacts, all or none, so a failed command, even one that fails
while its lines are drawn, leaves no new or changed file; it then prints
``wrote <path>`` per artifact and the summary.

``main`` may be called repeatedly in one process.  It builds its parser
once, on the first call, and :func:`build_parser` returns that shared parser,
which callers must not mutate.  Each call resolves ``args.seed`` in place,
reading ``QUADNET_SEED`` afresh, before it runs the module's current
``cmd_<command>``.

Every command is deterministic given its flags and seed; rerunning with
``--no-timestamp`` produces byte-identical files.  The random seed
defaults to 20260816, overridden by the ``QUADNET_SEED`` environment
variable, overridden in turn by ``--seed``.

Exit codes: 0 success, 1 usage or configuration error, 2 an element's block
is not a Gaussian channel (a physicality violation), 3 fit non-convergence.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import re
import sys
from datetime import datetime, timezone
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .criteria import (
    CRITERION_LABELS,
    FAMILIES,
    GainVector,
    _GAIN_SAMPLES,
    _family,
    combination_forms,
    combination_labels,
    criterion_totals,
    evaluate_criteria,
    numeric_optimal_gain,
    results_from_totals,
    uncovered_bipartitions,
)
from .errors import FitNonConvergenceError, NetworkParseError, PhysicalityError, read_text
from .network import (
    ExperimentConfig,
    _experiment_variances,
    _propagate,
    build_experiment_network,
    elaborate,
    parse_network,
)
from .states import db_rel_snl, snl

# ``calibration`` and ``sampling`` are imported by the commands that use them,
# so that a cold start of any other command does not load them.

DEFAULT_SEED = 20260816
SEED_ENV_VAR = "QUADNET_SEED"

# A command's result: artifacts by file name in write order, and summary lines.
Output = tuple[dict[str, dict | Iterable[str] | str], list[str]]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, and which reads a
    token starting with ``-`` or ``-.`` and a digit as a value (``--r -1e-3``,
    ``--gains -0.5,1,1,1``): no option starts with a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: callers must not mutate it.  It names each subcommand in
    ``command`` and holds no command function, so :func:`main` runs the
    module's current ``cmd_<command>``."""
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

    def common_state_flags(p, required=True):
        # None (optimal, lossless) lets criteria tell which flags were given.
        family_flag(p, required)
        p.add_argument("--r", type=float, required=required, help="squeezing parameter")
        p.add_argument(
            "--gains", help="'optimal' (default) or four comma-separated values g1,g2,g3,g4"
        )
        p.add_argument(
            "--efficiencies",
            help="detection efficiency: one value for all ports or four "
            "comma-separated (default 1)",
        )

    p = sub.add_parser("simulate", help="covariance matrix and variance table")
    common_state_flags(p)

    p = sub.add_parser("gains", help="analytic vs numerically minimized gains")
    family_flag(p)
    p.add_argument("--r", type=float, required=True)

    p = sub.add_parser("criteria", help="criterion sums, bounds, and verdict")
    common_state_flags(p, required=False)
    p.add_argument(
        "--from-measured", default=None, help="measured-dataset JSON file to evaluate"
    )
    p.add_argument("--net", default=None, help="network file to elaborate")

    p = sub.add_parser("sweep", help="criterion sums versus squeezing strength")
    family_flag(p)
    p.add_argument("--r-min", type=float, required=True)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--gains", default="optimal")
    p.add_argument("--efficiencies", default="1")

    p = sub.add_parser("trace", help="simulated spectrum-analyzer noise trace")
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

    p = sub.add_parser("fit", help="fit detection efficiency to measured data")
    p.add_argument("--dataset", default=None, help="measured-dataset JSON file")
    family_flag(p, required=False)

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


def _parse_gains(text: str | None) -> GainVector | str:
    if text is None or text == "optimal":
        return "optimal"
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("gains must be 'optimal' or four comma-separated values")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"gains must be numeric, got {text!r}") from None
    return GainVector(*values)


def _parse_efficiencies(text: str | None) -> tuple[float, float, float, float]:
    parts = ["1"] if text is None else text.split(",")
    if len(parts) not in (1, 4):
        raise ValueError("efficiencies need one common value or four comma-separated")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"efficiencies must be numeric, got {text!r}") from None
    if len(values) == 1:
        values = values * 4
    return tuple(values)  # type: ignore[return-value]


def _experiment_config(args) -> ExperimentConfig:
    """The --family, --r, --gains and --efficiencies flags as one configuration."""
    return ExperimentConfig(
        args.family,
        args.r,
        efficiencies=_parse_efficiencies(args.efficiencies),
        gains=_parse_gains(args.gains),
    )


def _reject_flags(source: str, reason: str, **flags) -> None:
    """Refuse each flag, keyed by its option name, that was given."""
    given = [f"--{name}" for name, value in flags.items() if value is not None]
    if given:
        raise ValueError(f"{source} takes no {', '.join(given)}: {reason}")


def _render_json(payload: dict) -> str:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    + "\\n"``, built without json's pure-Python encoder, which ``dumps`` runs
    whenever it indents."""
    return _json(payload, "\n") + "\n"


def _json(value, newline: str) -> str:
    """``value`` as indented JSON whose nested lines start with ``newline`` plus
    two spaces, tested in json's own order: a float subclass such as ``np.float64``
    is a float.  Strings are escaped to ASCII; dict keys, all strings, are sorted."""
    if isinstance(value, str):
        return _json_string(value)
    if value is None or value is True or value is False:
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_json_string(key)}: {_json(value[key], inner)}" for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render(artifact: dict | Iterable[str] | str, stamp: str | None) -> Iterable[str]:
    """Text of one artifact, in pieces: a JSON payload is a dict, a report a
    string, and a CSV an iterable of the pieces of its text, passed on to be
    written as they are drawn.  ``stamp`` goes into JSON and CSV, not into
    reports."""
    if isinstance(artifact, dict):
        return [_render_json(artifact if stamp is None else {**artifact, "generated_at": stamp})]
    if isinstance(artifact, str):
        return [artifact]
    return chain([] if stamp is None else [f"# generated_at = {stamp}\n"], artifact)


def _write_all(out_dir: Path, texts: dict[str, Iterable[str]]) -> list[Path]:
    """Write each text, its pieces as they are drawn, to ``out_dir/name`` through
    a temporary file, all or none: a piece that fails to be made fails the
    write.  ``out_dir`` and its missing parents are created only when there is a
    text to write and ``out_dir`` is not a directory yet.  A move within one
    directory fails only onto a directory, which is checked before the first
    move; on failure the temporaries and the directories created here are
    removed."""
    if not texts:
        return []
    created: list[Path] = []
    missing = out_dir
    while not missing.is_dir() and missing != missing.parent:
        created.append(missing)
        missing = missing.parent
    staged: list[tuple[Path, Path]] = []
    try:
        if created:
            out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            temporary = out_dir / f".{name}.{os.urandom(6).hex()}.tmp"
            with open(temporary, "x", encoding="utf-8") as fh:
                staged.append((temporary, out_dir / name))
                fh.writelines(text)
        for _, target in staged:
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for temporary, target in staged:
            temporary.replace(target)
    except BaseException:
        for temporary, _ in staged:
            temporary.unlink(missing_ok=True)
        for directory in created:
            if directory.is_dir():
                directory.rmdir()
        raise
    return [target for _, target in staged]


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args) -> Output:
    from .sampling import ANALYSIS_FREQUENCY_HZ

    config = _experiment_config(args)
    gains = config.resolved_gains()
    spec = build_experiment_network(config)
    state = elaborate(spec)
    variances = _propagate(spec, _family(args.family).coefficients(gains))
    forms = combination_forms(args.family, gains)
    labels = combination_labels(args.family)

    rows = []
    combos = []
    for label, form, variance in zip(labels, forms, variances.tolist()):
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

    table = ["combination,variance_snu,snl_snu,db_rel_SNL", *rows]
    csv_lines = [
        f"# family = {args.family}",
        f"# r = {args.r!r}",
        f"# gains = {','.join(f'{g:.10g}' for g in gains.as_tuple())}",
        f"# efficiencies = {','.join(f'{e:.10g}' for e in config.efficiencies)}",
        "# units: variance snu, snl snu, dB relative to the SNL",
        *table,
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
    }
    name = f"simulate_{args.family}"
    return {f"{name}.csv": ["\n".join(csv_lines) + "\n"], f"{name}.json": payload}, table


def cmd_gains(args) -> Output:
    config = ExperimentConfig(args.family, args.r)
    fam = _family(args.family)
    analytic = config.resolved_gains().as_tuple()
    named = fam.gain_rows()
    # each named gain's combination at every gain numeric_optimal_gain samples,
    # the other gains at their optima: all rows in one pass
    rows = []
    for _, combo_index, slots in named:
        for g in _GAIN_SAMPLES:
            gains = list(analytic)
            for slot in slots:
                gains[slot] = g
            rows.append(fam.coefficients(np.array(gains))[combo_index])
    samples = _propagate(build_experiment_network(config), np.array(rows))
    lines = [
        f"family={args.family} r={args.r:g}",
        f"{'gain':<6} {'analytic':>14} {'numeric':>14} {'difference':>12}",
    ]
    for (name, _, slots), values in zip(named, samples.reshape(len(named), -1).tolist()):
        numeric = numeric_optimal_gain(dict(zip(_GAIN_SAMPLES, values)).__getitem__)
        reference = analytic[slots[0]]
        lines.append(
            f"{name:<6} {reference:>14.10f} {numeric:>14.10f} "
            f"{abs(numeric - reference):>12.3e}"
        )
    return {}, lines


def cmd_criteria(args) -> Output:
    if args.from_measured is not None:
        _reject_flags("--from-measured", "the dataset sets the state and its sums",
                      net=args.net, family=args.family, r=args.r, gains=args.gains,
                      efficiencies=args.efficiencies)
        from .calibration import load_measured_dataset

        dataset = load_measured_dataset(args.from_measured)
        family = dataset.family
        r = dataset.r
        gains = GainVector.optimal(family, r)  # reported only: no bound depends on it
        results = results_from_totals(family, dataset.sum_values, dataset.sum_uncertainties)
        source = "measured"
    else:
        if args.family is None or args.r is None:
            raise ValueError("--family and --r are required without --from-measured")
        family, r = args.family, args.r
        if args.net is not None:
            _reject_flags("--net", "the network file sets its own losses",
                          efficiencies=args.efficiencies)
            config = _experiment_config(args)
            spec = parse_network(read_text(args.net, "utf-8-sig"))
            squeezings = {e.params[0] for e in spec.elements if e.kind == "sq"}
            if len(squeezings) == 1 and r not in squeezings:  # --r only picks the gains
                raise ValueError(f"--r {r!r} differs from r = {squeezings.pop()!r} "
                                 f"of every squeezer in {args.net}")
            if len(spec.outputs) != 4:
                raise ValueError("criteria are defined for four-mode states")
            source = "net"
        else:
            config = _experiment_config(args)
            spec = build_experiment_network(config)
            source = "model"
        gains = config.resolved_gains()
        variances = _propagate(spec, _family(family).coefficients(gains))
        results = evaluate_criteria(family, variances.tolist())

    uncovered = [b.label for b in uncovered_bipartitions(results)]
    verdict = "separable-possible" if uncovered else "fully-inseparable"

    sums = {}
    bounds = {}
    excluded = {}
    for result in results:
        label = result.label
        entry = {"value": result.total, "unit": "snu"}
        if result.uncertainty is not None:
            entry["uncertainty"] = result.uncertainty
        sums[label] = entry
        bounds[label] = {b.label: v for b, v in result.bounds.items()}
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
    }
    summary = [f"{label}: {sums[label]['value']:.6f} snu" for label in CRITERION_LABELS]
    return {f"criteria_{family}.json": payload}, [*summary, f"verdict: {verdict}"]


def cmd_sweep(args) -> Output:
    if args.r_min > args.r_max:
        raise ValueError("--r-min must not exceed --r-max")
    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    if args.steps == 1:
        r_values = np.array([args.r_min])
    else:
        step = (args.r_max - args.r_min) / (args.steps - 1)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as in Python
            r_values = args.r_min + np.arange(args.steps) * step

    efficiencies = _parse_efficiencies(args.efficiencies)
    config = ExperimentConfig(args.family, float(r_values[0]), efficiencies=efficiencies,
                              gains=_parse_gains(args.gains))
    header = [
        f"# family = {args.family}",
        f"# gains = {args.gains}",
        f"# efficiencies = {','.join(f'{e:.10g}' for e in efficiencies)}",
        "# unit: snu",
        "r,I,II,III",
    ]
    text = chain(["\n".join(header) + "\n"], _sweep_rows(config, r_values))
    return {f"sweep_{args.family}.csv": text}, [f"{r_values.size} rows"]


# r-points propagated as one stack, and the rows a sweep writes at a time: a long
# sweep's working set stays under 3 MB (its (m, 6, 8) rows are 0.4 MB, and the
# pass holds a few arrays of that size).
_STACK = 1024


def _sweep_rows(config: ExperimentConfig, r_values: np.ndarray) -> Iterator[str]:
    """The text of a sweep's CSV rows, one stacked pass of ``_STACK`` r-points at
    a time, so that a long sweep is written as it is computed and never held
    whole."""
    for start in range(0, r_values.size, _STACK):
        chunk = r_values[start:start + _STACK]
        sums = criterion_totals(config.target, _experiment_variances(config, chunk).T)
        yield "".join(map("{:.6g},{:.10f},{:.10f},{:.10f}\n".format, chunk.tolist(),
                          *[s.tolist() for s in sums]))


def cmd_trace(args) -> Output:
    from .sampling import TraceConfig, emit_trace, trace_to_csv

    config = _experiment_config(args)
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
    gains = config.resolved_gains()
    form = combination_forms(args.family, gains)[index]

    trace_config = TraceConfig(
        duration=args.duration,
        seed=args.seed,
        samples_per_point=args.samples_per_point,
        rbw=args.rbw,
        vbw=args.vbw,
    )
    variance = float(_propagate(build_experiment_network(config), form.coeffs[None])[0])
    trace = emit_trace(variance, form, trace_config)
    mean_db = sum(trace.power_db) / len(trace.power_db)
    return {f"trace_{args.family}_c{index}.csv": [trace_to_csv(trace)]}, [
        f"points: {len(trace.power_db)}",
        f"mean power: {mean_db:.3f} dB_rel_SNL",
        f"analytic: {db_rel_snl(variance, form):.3f} dB_rel_SNL",
    ]


def cmd_fit(args) -> Output:
    from .calibration import (
        consistency_report,
        fit_uniform_efficiency,
        load_measured_dataset,
        packaged_dataset,
    )

    if args.dataset is not None:
        _reject_flags("--dataset", "the dataset sets its family", family=args.family)
        dataset = load_measured_dataset(args.dataset)
    elif args.family is not None:
        dataset = packaged_dataset(args.family)
    else:
        raise ValueError("provide --dataset FILE or --family")

    fit = fit_uniform_efficiency(dataset)
    report = consistency_report(fit)
    name = f"fit_{dataset.family}"
    return {
        f"{name}.json": {**fit.to_json_dict(), "report": report.to_json_dict()},
        f"{name}_report.txt": report.to_text() + "\n",
    }, [
        f"fixed-gains: eta = {fit.fixed_gains.eta:.4f}, "
        f"rms = {fit.fixed_gains.rms_db:.4f} dB",
        f"co-fit: eta = {fit.co_fit.eta:.4f}, rms = {fit.co_fit.rms_db:.4f} dB",
        f"flagged observables: {len(report.flagged_rows)}",
    ]


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        args.seed = _resolve_seed(args.seed)
        artifacts, summary = globals()[f"cmd_{args.command}"](args)
        stamp = None if args.no_timestamp else datetime.now(timezone.utc).isoformat()
        texts = {name: _render(a, stamp) for name, a in artifacts.items()}
        paths = _write_all(Path(args.out), texts)
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in [f"wrote {path}" for path in paths] + summary:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

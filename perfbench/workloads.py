"""Seeded job decks and output oracles for the four benchmark workloads.

A workload is a list of decks.  A deck is a fixed multiset of job shapes
(command and size); the seed draws every parameter value and the order of
the jobs within each deck.  Runs execute whole decks, so every run sees the
same mix of sizes and the latency percentiles sit at the same place in it.

A job is a JSON-ready dict:

* ``argv``: the list handed to ``quadnet.cli.main``;
* ``items``: work units the job completes (see ``ITEMS``);
* ``check``: name of the oracle in ``CHECKS`` and ``expect``, its data;
* ``files``: artifacts the command writes, deleted before it runs so a
  stale file can never pass the check.

Squeezing is drawn from r in [0, 1.2], the experimental range.  The
calibrate workload uses r >= 0.2: below that the dB values hardly depend
on the efficiency, and at r = 0 the fit raises FitNonConvergenceError
(exit 3) by design.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from pathlib import Path

import numpy as np

R_MAX = 1.2
RBW = 30e3  # the CLI's default resolution bandwidth; points = duration * RBW
SUM_TOL = 1e-9  # relative; artifacts print sums with >= 10 decimals
ETA_TOL = 1e-3  # the package's own round-trip tolerance on the fitted efficiency
TRACE_SIGMAS = 6.0
TRACE_TAIL = 1e-12  # chance that a correct trace fails its variance check
VACUUM_VARIANCE = 0.25

ITEMS = {
    "scan": "one evaluated r-point (a sweep row or a criteria command)",
    "trace": "one emitted trace point",
    "calibrate": "one processed dataset (a fit or a criteria --from-measured command)",
    "netfile": "one elaborated network element",
}

# 32 sweeps per deck with distinct step counts from 2 to 37, so that command
# times form a near continuum: with a few sizes in equal numbers, the median
# and the 90th percentile fell on the gap between two sizes and spread widely.
SWEEP_STEPS = tuple(2 + round(35 * k / 31) for k in range(32))
# (points, samples per point) of the twelve traces in a deck; None is the CLI
# default a plain `quadnet trace` runs: duration 1/300 s at the 30 kHz RBW, i.e.
# 100 points of 10^4 samples.  With 3, 2, 4 and 3 of each size, the median
# falls among the 64-point traces and the 90th percentile among the defaults.
TRACE_SIZES = ((8, 500),) * 3 + ((24, 1500),) * 2 + ((64, 3000),) * 4 + (None,) * 3
TRACE_DEFAULT = (100, 10_000)
TRACE_VBWS = (30.0, 300.0, 3000.0)
NET_MODES = (4, 6, 8, 10, 12, 14, 16)
NET_ELEMENTS = (15, 40, 80, 150)
NET_OUTPUTS = 4

# --- frozen reference ---------------------------------------------------------
# The oracles compute every expected value from the paper's combinations,
# criterion pairing, optimal gains and closed-form variances as written out
# here, not from quadnet, so that a wrong rewrite of quadnet's own tables
# cannot move the program and its check together.

FAMILIES = ("cluster", "ghz")
CRITERIA = ("I", "II", "III")
LABELS = {
    "cluster": ("Y1-Y2", "X3-X4", "X1+X2+g3*X3", "-g2*Y2+Y3+Y4", "g1*X1+X2+2*X3",
                "-2*Y2+Y3+g4*Y4"),
    "ghz": ("X1+X2+g3*X3+g4*X4", "g1*X1+X2+X3+g4*X4", "g1*X1+g2*X2+X3+X4", "Y1-Y2",
            "Y2-Y3", "Y3-Y4"),
}
# (X1..X4, Y1..Y4) coefficients of the six combinations; "gK" is gain K.
_O = (0, 0, 0, 0)
COEFFICIENTS = {
    "cluster": ((_O, (1, -1, 0, 0)), ((0, 0, 1, -1), _O), ((1, 1, "g3", 0), _O),
                (_O, (0, "-g2", 1, 1)), (("g1", 1, 2, 0), _O), (_O, (0, -2, 1, "g4"))),
    "ghz": (((1, 1, "g3", "g4"), _O), (("g1", 1, 1, "g4"), _O), (("g1", "g2", 1, 1), _O),
            (_O, (1, -1, 0, 0)), (_O, (0, 1, -1, 0)), (_O, (0, 0, 1, -1))),
}
# Combination indices summed by criteria I, II, III.
PAIRS = {"cluster": ((0, 2), (1, 3), (4, 5)), "ghz": ((3, 0), (4, 1), (5, 2))}


def optimal_gains(family: str, r: float) -> tuple[float, float, float, float]:
    e4 = math.exp(4.0 * r)
    if family == "ghz":
        return ((e4 - 1.0) / (e4 + 1.0),) * 4
    outer = (3.0 * e4 - 3.0) / (3.0 * e4 + 1.0)
    inner = (2.0 * e4 - 2.0) / (e4 + 3.0)
    return (outer, inner, inner, outer)


def coefficients(family: str, r: float) -> list[np.ndarray]:
    """The six combinations at optimal gains, as length-8 coefficient vectors."""
    gains = dict(zip(("g1", "g2", "g3", "g4"), optimal_gains(family, r)))

    def value(c):
        if isinstance(c, str):
            return -gains[c[1:]] if c.startswith("-") else gains[c]
        return float(c)
    return [np.array([value(c) for c in x + y]) for x, y in COEFFICIENTS[family]]


def ideal_variances(family: str, r: float) -> list[float]:
    """Closed-form variances of the six combinations at optimal gains."""
    g1, g2, g3, g4 = optimal_gains(family, r)
    e2, em2 = math.exp(2.0 * r), math.exp(-2.0 * r)
    diff = 0.5 * em2
    if family == "ghz":
        def x(ga, gb):
            s, d = ga + gb, ga - gb
            return (((2.0 - s) ** 2 + 2.0 * d * d) * e2 + (2.0 + s) ** 2 * em2) / 16.0
        return [x(g3, g4), x(g1, g4), x(g1, g2), diff, diff, diff]

    def inner(g):
        return ((g * g - 4.0 * g + 4.0) * e2 + (3.0 * g * g + 4.0 * g + 4.0) * em2) / 16.0

    def outer(g):
        return ((3.0 * g * g - 6.0 * g + 3.0) * e2 + (g * g + 6.0 * g + 17.0) * em2) / 16.0
    return [diff, diff, inner(g3), inner(g2), outer(g1), outer(g4)]


def snl_levels(family: str, r: float) -> list[float]:
    """Shot-noise level of each combination: its variance on vacuum."""
    return [float(c @ c) * VACUUM_VARIANCE for c in coefficients(family, r)]


def totals(family: str, variances) -> list[float]:
    return [variances[u] + variances[v] for u, v in PAIRS[family]]


def _job(argv, items, check, expect, files):
    return {"argv": argv, "items": items, "check": check, "expect": expect,
            "files": files}


def _eff(eta: float) -> str:
    return "1" if eta == 1.0 else repr(eta)


def lossy_variances(family: str, r: float, eta: float) -> list[float]:
    """Six combination variances at optimal gains under uniform loss eta."""
    return [eta * v + (1.0 - eta) * level
            for v, level in zip(ideal_variances(family, r), snl_levels(family, r))]


def lossy_sums(family: str, r: float, eta: float) -> list[float]:
    """Criterion sums from the closed forms under the map eta*V + (1-eta)*SNL."""
    return totals(family, lossy_variances(family, r, eta))


def _snl_ratios(family: str, r: float) -> list[float]:
    """Lossless variance over shot noise of each combination at optimal gains."""
    return [v / level for v, level in zip(ideal_variances(family, r), snl_levels(family, r))]


# --- scan ------------------------------------------------------------------


def scan_deck(rng: np.random.Generator, out: str, inputs: Path, deck: int) -> list[dict]:
    """Sweeps of every size plus single-point criteria, both families, eta = 1 or < 1.

    Sweep k runs family k mod 2, lossy when k // 2 is odd, so each of the
    four (family, loss) pairs gets eight sizes spread over the range.
    """
    shapes = [("sweep", steps, FAMILIES[k % 2], (k // 2) % 2 == 1)
              for k, steps in enumerate(SWEEP_STEPS)]
    shapes += [("criteria", 1, family, lossy)
               for family in FAMILIES for lossy in (False, True) for _ in range(2)]
    jobs = []
    for index in rng.permutation(len(shapes)):
        command, steps, family, lossy = shapes[index]
        eta = float(rng.uniform(0.5, 0.99)) if lossy else 1.0
        flags = ["--family", family, "--efficiencies", _eff(eta)]
        if command == "criteria":
            r = float(rng.uniform(0.0, R_MAX))
            jobs.append(_job(
                ["--out", out, "--no-timestamp", "criteria", "--r", repr(r), *flags],
                1, "sums", {"file": f"criteria_{family}.json",
                            "family": family, "sums": lossy_sums(family, r, eta)},
                [f"criteria_{family}.json"]))
            continue
        r_min = float(rng.uniform(0.0, 0.6))
        r_max = float(rng.uniform(0.6, R_MAX))
        step = (r_max - r_min) / (steps - 1)  # the CLI's own grid arithmetic
        rows = [[r, *lossy_sums(family, r, eta)]
                for r in (r_min + i * step for i in range(steps))]
        jobs.append(_job(
            ["--out", out, "--no-timestamp", "sweep", "--r-min", repr(r_min),
             "--r-max", repr(r_max), "--steps", str(steps), *flags],
            steps, "sweep", {"file": f"sweep_{family}.csv", "rows": rows},
            [f"sweep_{family}.csv"]))
    return jobs


# --- trace -----------------------------------------------------------------


def raw_point_stats(samples: int) -> tuple[float, float]:
    """Bias and variance, in dB, of one raw trace point.

    A raw point is 10*log10 of a block variance over ``samples`` draws,
    distributed as sigma^2 * chi2(n-1)/(n-1); its log has a known bias and
    spread (digamma and trigamma at (n-1)/2, asymptotic series, exact to
    ~1e-12 for n >= 500).
    """
    x = 0.5 * (samples - 1)
    scale = 10.0 / math.log(10.0)
    bias = scale * (-1.0 / (2 * x) - 1.0 / (12 * x**2) + 1.0 / (120 * x**4))
    var = scale**2 * (1.0 / x + 1.0 / (2 * x**2) + 1.0 / (6 * x**3) - 1.0 / (30 * x**5))
    return bias, var


def trace_deck(rng: np.random.Generator, out: str, inputs: Path, deck: int) -> list[dict]:
    """All twelve (family, combination) traces.

    Each deck runs every size slot of TRACE_SIZES once, and each (family,
    combination) cycles through the slots over twelve decks.
    """
    jobs = []
    for f, family in enumerate(FAMILIES):
        for combination in range(6):
            size = TRACE_SIZES[(6 * f + combination + deck) % len(TRACE_SIZES)]
            points, samples = size or TRACE_DEFAULT
            eta = float(rng.uniform(0.5, 0.99)) if (combination + deck) % 2 else 1.0
            r = float(rng.uniform(0.0, R_MAX))
            vbw = float(TRACE_VBWS[rng.integers(len(TRACE_VBWS))])
            bias, var = raw_point_stats(samples)
            v = lossy_variances(family, r, eta)[combination]
            level = snl_levels(family, r)[combination]
            name = f"trace_{family}_c{combination}.csv"
            shape = [] if size is None else [
                "--duration", repr(points / RBW), "--samples-per-point", str(samples)]
            jobs.append(_job(
                ["--out", out, "--no-timestamp", "--seed", str(int(rng.integers(2**63))),
                 "trace", "--family", family, "--r", repr(r), "--efficiencies", _eff(eta),
                 "--combination", str(combination), *shape, "--vbw", repr(vbw)],
                points, "trace",
                {"file": name, "points": points,
                 "power_db": 10.0 * math.log10(v / level) + bias, "snl_db": bias,
                 "var_db2": var, "alpha": 1.0 - math.exp(-2.0 * math.pi * vbw / RBW)},
                [name]))
    return [jobs[i] for i in rng.permutation(len(jobs))]


# --- calibrate -------------------------------------------------------------


def synthetic_dataset(family: str, r: float, eta: float) -> dict:
    """Dataset JSON of the lossy closed forms, in quadnet's measured-data format."""
    components = []
    for label, v, level in zip(LABELS[family], lossy_variances(family, r, eta),
                               snl_levels(family, r)):
        below = -10.0 * math.log10(v / level)
        components.append({"label": label, "db_below_snl": max(below, 0.0),
                           "uncertainty": 0.05})
    sums = [{"label": label, "value": value, "uncertainty": 0.02}
            for label, value in zip(CRITERIA, lossy_sums(family, r, eta))]
    return {"family": family, "squeezing": {"r": r, "uncertainty": 0.012},
            "components": components, "sums": sums}


def _perturbed(rng, data: dict) -> dict:
    """Copy of a dataset with Gaussian noise on every component and sum."""
    noisy = copy.deepcopy(data)
    for c in noisy["components"]:
        c["db_below_snl"] += float(rng.normal(0.0, 0.03))
        if c["db_below_snl"] < 0.0:
            raise ValueError("noisy component fell below shot noise")
    for total in noisy["sums"]:
        total["value"] += float(rng.normal(0.0, 0.005))
    return noisy


def _fit_job(out: str, family: str, source: list[str], data: dict, eta) -> dict:
    files = [f"fit_{family}.json", f"fit_{family}_report.txt"]
    expect = {"family": family, "files": files,
              "ratios": _snl_ratios(family, data["squeezing"]["r"]),
              "measured_db": [c["db_below_snl"] for c in data["components"]],
              "eta": eta}
    return _job(["--out", out, "--no-timestamp", "fit", *source], 1, "fit", expect, files)


def _measured_job(out: str, family: str, path: Path, data: dict) -> dict:
    name = f"criteria_{family}.json"
    return _job(["--out", out, "--no-timestamp", "criteria", "--from-measured", str(path)],
                1, "sums",
                {"file": name, "family": family, "sums": [s["value"] for s in data["sums"]]},
                [name])


def calibrate_deck(rng: np.random.Generator, out: str, inputs: Path, deck: int) -> list[dict]:
    """Per family: fits of a synthetic dataset, two noisy copies of it and the
    packaged dataset, and criteria --from-measured on the synthetic and the
    packaged one.

    Fits are two thirds of the commands, so both percentiles fall among
    them; the short commands' times vary more between runs.
    """
    data_dir = Path(__file__).resolve().parents[1] / "src" / "quadnet" / "data"
    jobs = []
    for family in FAMILIES:
        r, eta = float(rng.uniform(0.2, R_MAX)), float(rng.uniform(0.5, 0.98))
        clean = synthetic_dataset(family, r, eta)
        for k, data in enumerate([clean, _perturbed(rng, clean), _perturbed(rng, clean)]):
            path = inputs / f"d{deck}-{family}-{k}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            jobs.append(_fit_job(out, family, ["--dataset", str(path)], data,
                                 None if k else eta))
            if k == 0:
                jobs.append(_measured_job(out, family, path, data))
        packaged = data_dir / f"measured_{family}.json"
        data = json.loads(packaged.read_text(encoding="utf-8"))
        jobs.append(_fit_job(out, family, ["--family", family], data, None))
        jobs.append(_measured_job(out, family, packaged, data))
    return [jobs[i] for i in rng.permutation(len(jobs))]


# --- netfile ---------------------------------------------------------------


def _element(kind: str, modes: list[int], value: float, axis: str, n: int):
    """Quadrature indices one element touches, its matrix there, and added noise.

    Built from the element definitions in the README, not from quadnet.
    """
    m, j = modes[0], modes[-1]
    if kind == "sq":
        squeeze, stretch = math.exp(-value), math.exp(value)
        x, y = (stretch, squeeze) if axis == "Y" else (squeeze, stretch)
        return [m, m + n], np.array([[x, 0.0], [0.0, y]]), 0.0
    if kind == "loss":
        t = math.sqrt(value)
        return [m, m + n], np.array([[t, 0.0], [0.0, t]]), (1.0 - value) / 4.0
    c, s = math.cos(value), math.sin(value)
    if kind == "ps":
        return [j, j + n], np.array([[c, s], [-s, c]]), 0.0
    # bs: the phase shift on the second input, then (sum, difference) per axis;
    # order X_m, X_j, Y_m, Y_j
    h = 1.0 / math.sqrt(2.0)
    local = h * np.array([[1.0, c, 0.0, s], [1.0, -c, 0.0, -s],
                          [0.0, -s, 1.0, c], [0.0, s, 1.0, -c]])
    return [m, j, m + n, j + n], local, 0.0


def netfile_deck(rng: np.random.Generator, out: str, inputs: Path, deck: int) -> list[dict]:
    """Random networks: squeezers, a bs/ps interferometer, losses on four outputs.

    The expected sums come from a covariance composed here, element by
    element, independently of quadnet's elaborator.
    """
    jobs = []
    for index, (n, size) in enumerate(
            (n, size) for n in NET_MODES for size in NET_ELEMENTS):
        size = max(size, n + NET_OUTPUTS + 4)
        family = FAMILIES[(index + deck) % 2]
        r = float(rng.uniform(0.0, R_MAX))
        names = [f"m{k}" for k in range(n)]
        elements = [("sq", [k], r, axis) for k, axis in enumerate(rng.choice(["X", "Y"], n))]
        mixers = size - n - NET_OUTPUTS
        n_bs = round(2 * mixers / 3)
        is_bs = rng.permutation(np.arange(mixers) < n_bs)
        angles = rng.uniform(0.0, 2.0 * math.pi, mixers)
        pairs = rng.random((mixers, n)).argsort(axis=1)[:, :2].tolist()
        for bs, angle, pair in zip(is_bs, angles.tolist(), pairs):
            elements.append(("bs", pair, angle, "") if bs else ("ps", pair[:1], angle, ""))
        outputs = rng.permutation(n)[:NET_OUTPUTS].tolist()
        elements += [("loss", [k], eta, "")
                     for k, eta in zip(outputs, rng.uniform(0.5, 1.0, NET_OUTPUTS).tolist())]

        lines = [f"mode {name}" for name in names]
        cov = np.eye(2 * n) / 4.0
        for kind, modes, value, axis in elements:
            labels = " ".join(names[k] for k in modes)
            lines.append(f"{kind} {labels} {axis} {value!r}" if axis
                         else f"{kind} {labels} {value!r}")
            touched, local, noise = _element(kind, modes, value, axis, n)
            cov[touched, :] = local @ cov[touched, :]
            cov[:, touched] = cov[:, touched] @ local.T
            if noise:
                cov[touched, touched] += noise
        lines.append("out " + " ".join(names[k] for k in outputs))
        path = inputs / f"d{deck}-n{n}-e{size}.net"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        keep = outputs + [k + n for k in outputs]
        state = cov[np.ix_(keep, keep)]
        sums = totals(family, [float(c @ state @ c) for c in coefficients(family, r)])
        name = f"criteria_{family}.json"
        jobs.append(_job(
            ["--out", out, "--no-timestamp", "criteria", "--family", family,
             "--r", repr(r), "--net", str(path)],
            size, "sums", {"file": name, "family": family, "sums": sums}, [name]))
    return [jobs[i] for i in rng.permutation(len(jobs))]


DECKS = {"scan": scan_deck, "trace": trace_deck, "calibrate": calibrate_deck,
         "netfile": netfile_deck}


# --- oracles ---------------------------------------------------------------


def _close(got: float, want: float, tol: float = SUM_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def load_bounds(root: Path) -> dict:
    """(family, criterion) -> {bipartition: bound}, from the shipped bound table."""
    bounds: dict = {}
    path = root / "src" / "quadnet" / "data" / "bound_table.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (row["family"], row["criterion"])
            bounds.setdefault(key, {})[row["bipartition"]] = float(row["bound"])
    return bounds


def check_sums(expect: dict, out: Path, bounds: dict) -> str | None:
    """Criterion sums match, and the exclusions follow the bound table."""
    data = json.loads((out / expect["file"]).read_text(encoding="utf-8"))
    for label, want in zip(CRITERIA, expect["sums"]):
        got = data["sums"][label]["value"]
        if not _close(got, want):
            return f"sum {label} = {got!r}, expected {want!r}"
        excluded = set(data["excluded"][label])
        for part, bound in bounds[(expect["family"], label)].items():
            if abs(want - bound) <= SUM_TOL * max(1.0, bound):
                continue  # a tie with the bound may go either way
            if (want < bound) != (part in excluded):
                return f"criterion {label}: bipartition {part} exclusion is wrong"
    return None


def check_sweep(expect: dict, out: Path, bounds: dict) -> str | None:
    """Every sweep row holds the closed-form lossy sums at its r."""
    lines = (out / expect["file"]).read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines if line and not line.startswith("#")][1:]
    if len(rows) != len(expect["rows"]):
        return f"{len(rows)} rows, expected {len(expect['rows'])}"
    for row, want in zip(rows, expect["rows"]):
        got = [float(v) for v in row]
        if not _close(got[0], want[0], 1e-5) or not all(
                _close(g, w) for g, w in zip(got[1:], want[1:])):
            return f"row {row} differs from {want}"
    return None


def _chi2_quantile_factors(dof: int, tail: float) -> tuple[float, float]:
    """Factors z_lo < 1 < z_hi with P(chi2_dof <= dof*z_lo) and P(chi2_dof >= dof*z_hi)
    each below ``tail``, from the Chernoff bound (z * e^(1-z))^(dof/2)."""
    target = math.log(tail) / (0.5 * dof)

    def root(lo, hi):  # of ln z + 1 - z = target, which is monotone on [lo, hi]
        rising = lo < 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (math.log(mid) + 1.0 - mid < target) == rising:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    return root(1e-300, 1.0), root(1.0, 1e6)


def _unfilter(trace: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Raw points behind a video-filtered column, and a bound on their rounding error.

    The filter is y_k = (1 - alpha) y_(k-1) + alpha x_k, precharged with
    y_(-1) = mean(x); the CSV rounds y to 6 decimals (error <= h).
    """
    h = 5e-7
    p = trace.size
    raw = np.empty(p)
    raw[1:] = (trace[1:] - (1.0 - alpha) * trace[:-1]) / alpha
    rest = float(raw[1:].sum())
    mean = (trace[0] + alpha * rest) / (1.0 - alpha + alpha * p)
    raw[0] = p * mean - rest
    err = np.full(p, (2.0 - alpha) * h / alpha)
    err_rest = (p - 1) * err[1]
    err[0] = p * (h + alpha * err_rest) / (1.0 - alpha + alpha * p) + err_rest
    return raw, err


def check_trace(expect: dict, out: Path, bounds: dict) -> str | None:
    """Point count; the raw points behind each column have the expected mean and spread.

    Undoing the video filter recovers the raw points, which are independent
    with known mean and variance; their sample mean must lie within six
    sigma, and their sample variance within chi-square tail bounds of
    probability TRACE_TAIL, both widened by the rounding of the CSV.
    """
    text = (out / expect["file"]).read_text(encoding="utf-8")
    rows = [line for line in text.splitlines() if line and not line.startswith("#")][1:]
    values = np.array([[float(v) for v in line.split(",")] for line in rows])
    p = expect["points"]
    if values.shape != (p, 3) or not np.isfinite(values).all():
        return f"trace shape {values.shape}, expected ({p}, 3) finite"
    z_lo, z_hi = _chi2_quantile_factors(p - 1, TRACE_TAIL)
    sigma = math.sqrt(expect["var_db2"])
    for column, key in ((1, "power_db"), (2, "snl_db")):
        raw, err = _unfilter(values[:, column], expect["alpha"])
        mean_slack = float(err.mean())
        std_slack = math.sqrt(float((err**2).sum()) / (p - 1))
        mean, std = float(raw.mean()), float(raw.std(ddof=1))
        bound = TRACE_SIGMAS * sigma / math.sqrt(p) + mean_slack
        if abs(mean - expect[key]) > bound:
            return (f"{key}: raw mean {mean:.4f} dB is more than {bound:.4f} dB "
                    f"from {expect[key]:.4f} dB")
        lo, hi = sigma * math.sqrt(z_lo) - std_slack, sigma * math.sqrt(z_hi) + std_slack
        if not lo <= std <= hi:
            return f"{key}: raw spread {std:.4f} dB outside [{lo:.4f}, {hi:.4f}] dB"
    return None


def check_fit(expect: dict, out: Path, bounds: dict) -> str | None:
    """The fixed-gains fit reports the model at its efficiency and minimizes it.

    Noiseless datasets must also return their generating efficiency.
    """
    json_name, report_name = expect["files"]
    data = json.loads((out / json_name).read_text(encoding="utf-8"))
    report = (out / report_name).read_text(encoding="utf-8")
    if not report.startswith(f"consistency report: family={expect['family']} "):
        return "consistency report header is missing"
    ratios = np.asarray(expect["ratios"])
    measured = np.asarray(expect["measured_db"])

    def model(eta):
        return 10.0 * np.log10(eta * ratios + 1.0 - eta)

    def objective(eta):
        return float(((model(eta) + measured) ** 2).sum())

    eta = data["fixed_gains"]["eta"]
    if not np.allclose(data["fixed_gains"]["predicted_db_rel_SNL"], model(eta),
                       rtol=0.0, atol=1e-9):
        return f"predicted dB at eta={eta!r} differ from the lossy closed forms"
    for neighbour in (max(0.0, eta - ETA_TOL), min(1.0, eta + ETA_TOL)):
        if objective(neighbour) < objective(eta) - 1e-12:
            return f"eta={eta!r} does not minimize the fit objective"
    if expect["eta"] is not None and abs(eta - expect["eta"]) > ETA_TOL:
        return f"fitted eta={eta!r}, generated with {expect['eta']!r}"
    return None


CHECKS = {"sums": check_sums, "sweep": check_sweep, "trace": check_trace,
          "fit": check_fit}

"""The library is what the commands run: every function in ``src/quadnet``
is reached by a fixed matrix of ``quadnet`` commands, or is listed in
:data:`ALLOWED` with the reason it stays.

The matrix runs in a child process that installs ``sys.setprofile`` before
``import quadnet``, so work done at import counts.  A reached code object is
matched to its ``def`` by file, first line and name: a decorated function's
first line is its first decorator's (Python 3.10 has no ``co_qualname``).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import quadnet

PACKAGE = Path(quadnet.__file__).resolve().parent

# Functions no command reaches, each with the reason it stays: the worklist for
# moving the references the tests compare against out of the package.
_REFERENCE = "a reference the tests compare the commands against"
_TRACED = "; perfbench's TRACED table names it"
ALLOWED = {
    # closed forms
    "criteria.closed_form": _REFERENCE,
    "criteria.closed_form_cluster": _REFERENCE,
    "criteria.closed_form_cluster.<locals>.inner": "helper of closed_form_cluster",
    "criteria.closed_form_cluster.<locals>.outer": "helper of closed_form_cluster",
    "criteria.closed_form_ghz": _REFERENCE,
    "criteria.closed_form_ghz.<locals>.xcombo": "helper of closed_form_ghz",
    # Monte-Carlo sampler
    "sampling.sample_quadratures": _REFERENCE,
    "sampling.estimate_variance": _REFERENCE,
    # dense channel layer
    "states.GaussianChannel.__post_init__": "checks the dense channels below",
    "states.vacuum": "input state of the dense channel layer",
    "states._embed": "builds the dense channels below",
    "states.squeezer": _REFERENCE + _TRACED,
    "states.phase_shift": _REFERENCE + _TRACED,
    "states.beam_splitter": _REFERENCE + _TRACED,
    "states.loss_channel": _REFERENCE + _TRACED,
    "states.apply": _REFERENCE + _TRACED,
    "states.is_physical": _REFERENCE + _TRACED,
    "states.is_symplectic": _REFERENCE,
    "states.combination_variance": _REFERENCE + _TRACED,
    # public names that only README and the tests call
    "calibration.predict_measured": "README's library tour" + _TRACED,
    "calibration.synthetic_dataset": "public; the tests' exact datasets",
    "network.serialize_network": "README; the round-trip tests",
    "network.simulate_experiment": "README's library tour" + _TRACED,
    "criteria.full_inseparability": "README's library tour",
    "criteria.Bipartition.from_label": "public; inverse of Bipartition.label",
    "criteria.GainVector.scaled": "public; the tests scale gains",
    "states.QuadForm.scaled": "public; the tests scale forms",
    "states.QuadForm.single_axis": "public; the tests build forms",
    "network.NetworkSpec.__post_init__": "checks a NetworkSpec built in code; the parser "
                                         "and build_experiment_network build theirs checked",
    # the package's lazy surface
    "__init__.__getattr__": "resolves quadnet.<name> for library callers; the commands "
                            "import the submodules directly",
    # error paths that no valid input reaches
    "network._require_channels.<locals>.name": "names the element of a block that fails "
                                                "its check",
    "states._require_physical": "runs only when a block fails the Gershgorin check",
    "states._uncertainty_eigenvalue": "run by _require_physical and is_physical",
    "states._eigenvalue_floor": "run by _require_physical and is_physical",
    "states._check_mode": "a parsed network's modes are checked when it is parsed, "
                          "so only Elements built in code reach it",
}

_CHILD = r"""
import json, sys
from pathlib import Path

codes = {}


def profile(frame, event, arg):
    if event == "call":
        codes[id(frame.f_code)] = frame.f_code


sys.setprofile(profile)
import quadnet.cli
exits = [quadnet.cli.main(argv) for argv in json.loads(sys.stdin.read())]
sys.setprofile(None)
package = Path(quadnet.__file__).resolve().parent
reached = [[path.name, code.co_firstlineno, code.co_name] for code in codes.values()
           for path in [Path(code.co_filename).resolve()] if path.parent == package]
print(json.dumps({"exits": exits, "reached": reached}))
"""

def _matrix(tmp_path: Path) -> list[tuple[int, list[str]]]:
    """Each command with its expected exit code, writing under ``tmp_path``,
    where the inputs of the error exits are written too."""
    data = PACKAGE / "data"
    dataset = json.loads((data / "measured_cluster.json").read_text(encoding="utf-8"))
    inputs = {
        "undeclared.net": "mode a\nsq b Y 0.402\nout a\n",
        "keyword.net": "mode a\nsqueeze a Y 0.402\nout a\n",
        # a squeezer after a splitter: not the layered shape, so the stepwise pass
        "stepwise.net": "".join(f"mode a{k}\n" for k in range(1, 5))
        + "sq a1 Y 0.402\nsq a2 X 0.402\nbs a1 a2 0.7\nsq a3 X 0.402\nsq a4 Y 0.402\n"
          "bs a2 a3 0.7\nout a1 a2 a3 a4\n",
        "integer_r.json": json.dumps({**dataset, "squeezing": {**dataset["squeezing"], "r": 1}}),
        "huge_r.json": json.dumps({**dataset, "squeezing": {**dataset["squeezing"],
                                                            "r": 10 ** 400}}),
    }
    for name, text in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    commands = []
    for family in ("cluster", "ghz"):
        for r in ("0", "0.402", "5", "10"):
            state = ["--family", family, "--r", r]
            for losses in ([], ["--efficiencies", "0.9,0.8,0.7,0.95"]):
                commands += [(0, ["simulate", *state, *losses]),
                             (0, ["criteria", *state, *losses])]
            commands += [(0, ["gains", *state]),
                         (0, ["trace", *state, "--duration", "0.001",
                              "--samples-per-point", "500"])]
        commands += [
            (0, ["sweep", "--family", family, "--r-min", "0", "--r-max", "10", "--steps", "11"]),
            (0, ["fit", "--family", family]),
            (0, ["criteria", "--from-measured", str(data / f"measured_{family}.json")]),
            (0, ["criteria", "--net", str(data / f"{family}.net"), "--family", family,
                 "--r", "0.402"]),
        ]
    net = ["--family", "cluster", "--r", "0.402", "--net"]
    for command in (["fit", "--dataset"], ["criteria", "--from-measured"]):
        commands += [(0, [*command, str(tmp_path / "integer_r.json")]),
                     (1, [*command, str(tmp_path / "huge_r.json")])]
    commands += [
        (0, ["criteria", *net, str(tmp_path / "stepwise.net")]),
        (1, ["criteria", *net, str(tmp_path / "undeclared.net")]),
        (1, ["criteria", *net, str(tmp_path / "keyword.net")]),
        (1, ["sweep", "--family", "ghz", "--r-min", "0", "--r-max", "1"]),
    ]
    out = str(tmp_path / "out")
    return [(code, ["--out", out, "--no-timestamp", *argv]) for code, argv in commands]


def _functions() -> dict[tuple[str, int, str], str]:
    """Every function defined in the package, keyed by (file name, first line,
    name), to its qualified name ``module.qualname``."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                found[path.name, first, child.name] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return found


def test_every_function_is_reached_by_a_command_or_allowed(tmp_path):
    """Every package function is reached by the matrix or listed in ALLOWED, and
    no ALLOWED name is reached or gone."""
    matrix = _matrix(tmp_path)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    child = subprocess.run([sys.executable, "-c", _CHILD],
                           input=json.dumps([argv for _, argv in matrix]),
                           capture_output=True, text=True, env=env, cwd=tmp_path, check=True)
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["exits"] == [code for code, _ in matrix]
    functions = _functions()
    reached = {functions[tuple(key)] for key in result["reached"] if tuple(key) in functions}
    unreached = set(functions.values()) - reached
    assert sorted(unreached - ALLOWED.keys()) == []
    assert sorted(reached & ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - set(functions.values())) == []

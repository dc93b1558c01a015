"""Property tests of the command line: any input exits 0, 1 or 2, and never
with a traceback or a stray warning.

Configs and flags are drawn from the keys the CLI knows, unknown keys, wrong
types and extreme numbers.  Sizes that make a valid but long run (many
steps, many trials, a large n) are not drawn.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from volflow.cli import CONFIG_KEYS, ORACLE_ALPHAS, main
from volflow.systems import SYSTEM_BUILDERS, _parameters

# Numbers that are 0, negative, huge or not finite, beside a few ordinary
# ones; every integer here is small or too large for an int64 array size.
EXTREMES = [0, 1, 2, 3, -1, 0.5, -0.5, 1e-300, 1e308, -1e308, 2 ** 64, 10 ** 400,
            float("nan"), float("inf")]
SCALARS = st.one_of(st.none(), st.booleans(), st.sampled_from(EXTREMES),
                    st.sampled_from(["", "2", "zero"]))
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=4),
                   st.lists(st.lists(SCALARS, max_size=3), max_size=3),
                   st.dictionaries(st.sampled_from(["n", "k", "x"]), SCALARS, max_size=2))
POINTS = st.lists(st.sampled_from([0.0, 0.1, -1.0, 1e308]), min_size=2, max_size=6)
STEPS = st.one_of(st.integers(-2, 50), st.sampled_from([None, True, 2.5, "ten", [5]]))
FILES = st.sampled_from(["out.csv", "out.json", "", None, 3, ".", "missing/out.csv"])
UNKNOWN = ["stpes", "params", "name", ""]


@st.composite
def simulate_configs(draw):
    """(config, flags): a runnable config of a named system with up to three
    keys, known or not, set to drawn values; steps <= 50 in any case."""
    name = draw(st.sampled_from(sorted(SYSTEM_BUILDERS)))
    params = {"k": [[1.0, 0.5], [0.0, 2.0]]} if name == "linear" else {}
    config = {"system": {"name": name, "params": params}, "dt": 0.01,
              "steps": draw(st.integers(1, 50)), "sample_every": draw(st.integers(1, 5)),
              "outputs": {"trajectory": "out.csv", "diagnostics": "out.json"}}
    places = {"config": (config, CONFIG_KEYS["config"]),
              "config.system": (config["system"], CONFIG_KEYS["config.system"]),
              "config.system.params": (params, _parameters(name)),
              "config.outputs": (config["outputs"], CONFIG_KEYS["config.outputs"])}
    for _ in range(draw(st.integers(0, 3))):
        where, keys = places[draw(st.sampled_from(sorted(places)))]
        known = keys and draw(st.integers(0, 4)) > 0
        key = draw(st.sampled_from(list(keys) if known else UNKNOWN))
        value = FILES if keys is CONFIG_KEYS["config.outputs"] else {
            "x0": POINTS, "steps": STEPS,
            "system": VALUES | st.sampled_from(sorted(SYSTEM_BUILDERS) + ["not-a-system"]),
        }.get(key, VALUES)
        where[key] = draw(value)
    flags = draw(st.sampled_from([[], [], ["--steps", "0"], ["--steps", "50"], ["--dt", "0.1"],
                                  ["--dt", "0"], ["--dt", "nan"], ["--dt", "1e308"]]))
    return config, flags


# Values of check's flags out of range or of the wrong type.
BAD_CHECK_FLAGS = {"--n": ["1", "5", "", "x"], "--trials": ["-1", "x", "1.5"],
                   "--seed": ["-1", "x"], "--dt": ["0", "-1", "nan", "inf", "1e-300"],
                   "--horizon": ["0", "-1", "nan", "inf", "1e-4", "1e308"]}


@st.composite
def check_flags(draw):
    """check's flags, at most 2 trials and 100 volume steps, with at most one
    flag out of range; a large step makes the volume flow leave the finite domain."""
    dt = draw(st.sampled_from([1e-3, 0.1, 1.0, 50.0]))
    flags = {"--n": draw(st.sampled_from(["2", "3", "4", "2,3,4"])),
             "--trials": draw(st.sampled_from(["0", "1", "2"])),
             "--seed": draw(st.sampled_from(["0", "7", str(2 ** 64)])),
             "--dt": repr(dt), "--horizon": repr(dt * draw(st.integers(1, 100)))}
    if draw(st.booleans()):
        flag = draw(st.sampled_from(sorted(flags)))
        flags[flag] = draw(st.sampled_from(BAD_CHECK_FLAGS[flag]))
    return [token for item in flags.items() for token in item]


@st.composite
def oracle_args(draw):
    """oracle's arguments: a named 2-form at a point of 4, 6 or 8 entries,
    some huge, maybe with --n and --seed.  About half the draws have one
    fault: an unknown alpha, an entry nan or x, a point of 2 or an odd
    number of entries, or --n or --seed -1."""
    alpha = draw(st.sampled_from(ORACLE_ALPHAS))
    # the coupled 2-form is defined for n = 2 only
    n = draw(st.sampled_from([2, 2, 3] if alpha == "coupled" else [2, 3, 4]))
    point = draw(st.lists(st.sampled_from(["0", "0.1", "-1", "1e154", "1e200", "1e308"]),
                          min_size=2 * n, max_size=2 * n))
    flags = {"--n": draw(st.sampled_from([None, str(n)])),
             "--seed": draw(st.sampled_from([None, "0", "1"]))}
    fault = draw(st.one_of(st.none(), st.sampled_from(["alpha", "entry", "length",
                                                       "--n", "--seed"])))
    if fault == "alpha":
        alpha = "not-an-alpha"
    elif fault == "entry":
        point[draw(st.integers(0, 2 * n - 1))] = draw(st.sampled_from(["nan", "x"]))
    elif fault == "length":
        point = point[:draw(st.sampled_from([2, 2 * n - 1]))]
    elif fault:
        flags[fault] = "-1"
    return (["oracle", "--alpha", alpha, "--point=" + ",".join(point)]
            + [f"{flag}={value}" for flag, value in flags.items() if value is not None])


def _run(argv, workdir):
    """(exit code, stderr, warnings) of main(argv) run in workdir."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(argv)
    finally:
        os.chdir(here)
    return rc, err.getvalue(), [str(w.message) for w in caught]


def _assert_exit(rc, err, caught, written, finite_domain_line=None):
    assert rc in (0, 1, 2)
    assert not caught, caught
    assert "Traceback" not in err
    lines = err.splitlines()
    if rc == 2:
        errors = [line for line in lines if "error:" in line]
        assert len(errors) == 1 and lines[-1] == errors[0], err
        assert len(lines) == 1 or lines[0].startswith("usage:"), err  # argparse's
        assert written == [], written
    elif rc == 1:
        assert lines in ([], [finite_domain_line]), err
    else:
        assert err == ""


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(simulate_configs())
def test_any_simulate_config_exits_0_1_or_2_with_one_message(drawn):
    config, flags = drawn
    with tempfile.TemporaryDirectory() as workdir:
        with open(os.path.join(workdir, "config.json"), "w") as fh:
            json.dump(config, fh)
        rc, err, caught = _run(["simulate", "--config", "config.json"] + flags, workdir)
        written = sorted(set(os.listdir(workdir)) - {"config.json"})
    outputs = config.get("outputs") if isinstance(config.get("outputs"), dict) else {}
    csv = outputs.get("trajectory", "trajectory.csv")
    _assert_exit(rc, err, caught, written,
                 f"integration left the finite domain; partial trajectory in {csv}")


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(check_flags())
def test_any_check_flags_exit_0_1_or_2_with_one_message(flags):
    with tempfile.TemporaryDirectory() as workdir:
        rc, err, caught = _run(["check"] + flags + ["--report", "report.json"], workdir)
        written = os.listdir(workdir)
    _assert_exit(rc, err, caught, written)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(oracle_args())
def test_any_oracle_arguments_exit_0_1_or_2_with_one_message(argv):
    with tempfile.TemporaryDirectory() as workdir:
        rc, err, caught = _run(argv, workdir)
    assert rc in (0, 1, 2)
    assert not caught, caught
    assert "Traceback" not in err
    lines = err.splitlines()
    if rc:
        errors = [line for line in lines if line.startswith("error:")]
        assert len(errors) == 1 and lines[-1] == errors[0], err
    else:
        assert err == ""

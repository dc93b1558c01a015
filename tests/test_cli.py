"""Command-line interface: exit codes, file formats, determinism."""

import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from volflow.cli import main
from volflow.systems import _parameters


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _zero_config(tmp_path, **overrides):
    payload = {
        "system": {"name": "zero", "params": {"n": 2}},
        "dt": 0.1,
        "steps": 10,
        "sample_every": 2,
        "x0": [1.0, 2.0, 3.0, 4.0],
        "outputs": {
            "trajectory": str(tmp_path / "traj.csv"),
            "diagnostics": str(tmp_path / "diag.json"),
        },
    }
    payload.update(overrides)
    return _write_config(tmp_path, "config.json", payload)


# -------------------------------------------------------------------- simulate


def test_simulate_zero_system_rows(tmp_path):
    cfg = _zero_config(tmp_path)
    assert main(["simulate", "--config", cfg]) == 0
    lines = (tmp_path / "traj.csv").read_text().strip().split("\n")
    assert lines[0] == "t,q1,q2,p1,p2"
    assert len(lines) - 1 == 10 // 2 + 1
    # the zero field never moves: every state row identical
    states = {line.split(",", 1)[1] for line in lines[1:]}
    assert states == {"1,2,3,4"}
    diag = json.loads((tmp_path / "diag.json").read_text())
    assert diag["failed"] is False
    assert diag["rows_written"] == 6
    assert diag["symplectic"] is True


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = _zero_config(tmp_path)
    main(["simulate", "--config", cfg])
    first_csv = (tmp_path / "traj.csv").read_bytes()
    first_diag = (tmp_path / "diag.json").read_bytes()
    main(["simulate", "--config", cfg])
    assert (tmp_path / "traj.csv").read_bytes() == first_csv
    assert (tmp_path / "diag.json").read_bytes() == first_diag


def test_simulate_flag_overrides(tmp_path):
    cfg = _zero_config(tmp_path)
    out = str(tmp_path / "other.csv")
    assert main(["simulate", "--config", cfg, "--steps", "4", "--dt", "0.5",
                 "--out", out]) == 0
    lines = Path(out).read_text().strip().split("\n")
    assert len(lines) - 1 == 4 // 2 + 1
    assert lines[-1].split(",")[0] == "2"  # 4 steps of 0.5


def test_simulate_coupled_diagnostics(tmp_path):
    cfg = _write_config(tmp_path, "coupled.json", {
        "system": {"name": "coupled-oscillators"},
        "dt": 1e-2,
        "steps": 200,
        "outputs": {
            "trajectory": str(tmp_path / "c.csv"),
            "diagnostics": str(tmp_path / "c.json"),
        },
    })
    assert main(["simulate", "--config", cfg]) == 0
    diag = json.loads((tmp_path / "c.json").read_text())
    assert diag["system"] == "coupled-oscillators"
    assert diag["volume_det_max_abs_err"] < 1e-6
    assert diag["dets_positive"] is True
    assert diag["divergence_max_abs"] < 1e-5
    # volume-preserving but not symplectic
    assert diag["symplectic"] is False
    assert diag["lie_omega_max_abs"] > 0.4
    assert diag["energy_drift"] > 1e-4
    # one integration: four X-map calls per step
    assert diag["field_evaluations"] == 4 * 200


def test_simulate_random_alpha_seed_env(tmp_path, monkeypatch):
    payload = {
        "system": {"name": "random-alpha", "params": {"n": 2}},
        "dt": 1e-2,
        "steps": 20,
        "outputs": {
            "trajectory": str(tmp_path / "r.csv"),
            "diagnostics": str(tmp_path / "r.json"),
        },
    }
    cfg = _write_config(tmp_path, "rand.json", payload)
    monkeypatch.setenv("VOLFLOW_SEED", "11")
    assert main(["simulate", "--config", cfg]) == 0
    first = (tmp_path / "r.csv").read_bytes()
    assert main(["simulate", "--config", cfg]) == 0
    assert (tmp_path / "r.csv").read_bytes() == first
    monkeypatch.setenv("VOLFLOW_SEED", "12")
    assert main(["simulate", "--config", cfg]) == 0
    assert (tmp_path / "r.csv").read_bytes() != first


def test_simulate_blowup_fails_with_partial_csv(tmp_path):
    cfg = _write_config(tmp_path, "blow.json", {
        "system": {"name": "random-alpha", "params": {"n": 3, "seed": 9, "scale": 1.0}},
        "dt": 1.0,
        "steps": 40,
        "sample_every": 4,
        "x0": [0.5] * 6,
        "outputs": {
            "trajectory": str(tmp_path / "b.csv"),
            "diagnostics": str(tmp_path / "b.json"),
        },
    })
    assert main(["simulate", "--config", cfg]) == 1
    diag = json.loads((tmp_path / "b.json").read_text())
    assert diag["failed"] is True
    assert "last_valid_time" in diag
    lines = (tmp_path / "b.csv").read_text().strip().split("\n")
    assert lines[0] == "t,q1,q2,q3,p1,p2,p3"
    assert 1 <= len(lines) - 1 < 41


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("scale", [1e308, 1e307, 1e306, 1e300, -1e308])
def test_simulate_a_huge_coefficient_scale_fails_without_a_warning(tmp_path, capsys, n, scale):
    # compiling the field's partials overflows some coefficients to inf: the
    # run is a documented integration failure, and no RuntimeWarning escapes
    csv = tmp_path / "big.csv"
    cfg = _write_config(tmp_path, "big.json", {
        "system": {"name": "random-alpha", "params": {"n": n, "scale": scale}},
        "steps": 5,
        "outputs": {"trajectory": str(csv), "diagnostics": str(tmp_path / "diag.json")},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err == f"integration left the finite domain; partial trajectory in {csv}\n"


@pytest.mark.parametrize("system, err", [
    # 0.5 * k + 0.5 * k.T stays finite: the run leaves the finite domain
    ({"name": "linear", "params": {"k": [[1e308, 0.0], [0.0, 1.0]]}}, None),
    ({"name": "linear", "params": {"k": [[float("inf"), 0.0], [0.0, 1.0]]}},
     "error: k must be finite (NaN and Infinity are not allowed)"),
    ({"name": "linear", "params": {"k": [[1.0, float("nan")], [0.0, 1.0]]}},
     "error: k must be finite (NaN and Infinity are not allowed)"),
    ({"name": "harmonic", "params": {"omega_freqs": [1e200, 1.0]}},
     "error: omega_freqs must be n positive reals below 1e154"),
])
def test_simulate_a_huge_linear_coefficient_exits_without_a_warning(tmp_path, capsys,
                                                                    system, err):
    csv = tmp_path / "big.csv"
    cfg = _write_config(tmp_path, "big.json", {
        "system": system, "steps": 3,
        "outputs": {"trajectory": str(csv), "diagnostics": str(tmp_path / "diag.json")},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg]) == (1 if err is None else 2)
    want = f"integration left the finite domain; partial trajectory in {csv}"
    assert capsys.readouterr().err == (want if err is None else err) + "\n"
    assert csv.exists() == (err is None)


@pytest.mark.parametrize("source, command", [
    (source, command) for source in ("env", "flag") for command in ("check", "oracle", "simulate")
] + [("params", "simulate")])
def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, monkeypatch, command, source):
    # numpy's generators refuse a negative seed: it is refused first, by name,
    # from the flag, the config's top level, the system's params or VOLFLOW_SEED
    flag = ["--seed", "-1"] if source == "flag" else []
    if source == "env":
        monkeypatch.setenv("VOLFLOW_SEED", "-3")
    else:
        monkeypatch.delenv("VOLFLOW_SEED", raising=False)
    outputs = {"trajectory": str(tmp_path / "traj.csv"),
               "diagnostics": str(tmp_path / "diag.json")}
    params = {"n": 2, **({"seed": -1} if source == "params" else {})}
    cfg = _write_config(tmp_path, "seed.json", {
        "system": {"name": "random-alpha", "params": params}, "steps": 5,
        "outputs": outputs, **({"seed": -1} if source == "flag" else {})})
    argv = {"check": ["check", "--n", "2", "--trials", "1",
                      "--report", str(tmp_path / "report.json")] + flag,
            "oracle": ["oracle", "--alpha", "random", "--point", "0.1,0.2,0.3,0.4"] + flag,
            "simulate": ["simulate", "--config", cfg]}[command]
    assert main(argv) == 2
    out = capsys.readouterr()
    name, seed = ("VOLFLOW_SEED", -3) if source == "env" else ("seed", -1)
    assert out.out == ""
    assert out.err == f"error: {name} must be a non-negative integer, got {seed}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["seed.json"]


def test_simulate_usage_errors(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    bad = _zero_config(tmp_path, dt=-1.0)
    assert main(["simulate", "--config", bad]) == 2
    short_x0 = _zero_config(tmp_path, x0=[1.0, 2.0])
    assert main(["simulate", "--config", short_x0]) == 2
    unknown = _write_config(tmp_path, "u.json", {
        "system": {"name": "not-a-system"}, "dt": 0.1, "steps": 2})
    assert main(["simulate", "--config", unknown]) == 2
    mismatch = _zero_config(tmp_path, n=3)
    assert main(["simulate", "--config", mismatch]) == 2
    capsys.readouterr()
    no_freedom = _write_config(tmp_path, "n0.json", {"system": "harmonic", "n": 0})
    assert main(["simulate", "--config", no_freedom]) == 2
    assert capsys.readouterr().err == "error: harmonic oscillators need n >= 1\n"


@pytest.mark.parametrize("key, bad", [
    ("steps", 10.7), ("steps", True), ("steps", "ten"), ("steps", None),
    ("sample_every", 2.5), ("sample_every", False),
    ("n", 2.5), ("n", True), ("seed", 0.5), ("seed", False),
])
def test_simulate_rejects_a_config_number_that_is_not_an_integer(tmp_path, capsys,
                                                                 key, bad):
    cfg = _zero_config(tmp_path, **{key: bad})
    assert main(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {key} must be an integer, got {bad!r}\n"
    assert not (tmp_path / "traj.csv").exists()


def test_simulate_takes_integral_config_numbers(tmp_path, capsys):
    cfg = _zero_config(tmp_path, steps=10.0, sample_every=2.0, n=2.0, seed=7.0,
                       system={"name": "zero", "params": {"n": 2.0}})
    assert main(["simulate", "--config", cfg]) == 0
    assert json.loads((tmp_path / "diag.json").read_text())["rows_written"] == 6
    bad = _zero_config(tmp_path, system={"name": "random-alpha", "params": {"n": 2.5}},
                       x0=None)
    assert main(["simulate", "--config", bad]) == 2
    assert capsys.readouterr().err == "error: system.params.n must be an integer, got 2.5\n"


@pytest.mark.parametrize("system, bad", [
    ({"name": "random-alpha", "params": {"n": 2, "sed": 3}}, "sed"),
    ({"name": "coupled-oscillators", "params": {"k": [[1.0, 0.0], [0.0, 1.0]]}}, "k"),
])
def test_simulate_rejects_a_parameter_the_system_does_not_take(tmp_path, capsys,
                                                               system, bad):
    cfg = _zero_config(tmp_path, system=system, x0=None)
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(bad) in err
    assert not (tmp_path / "traj.csv").exists()


def test_simulate_top_level_n_only_cross_checks_a_system_without_n(tmp_path, capsys):
    cfg = _zero_config(tmp_path, system={"name": "coupled-oscillators"}, x0=None, n=2)
    assert main(["simulate", "--config", cfg]) == 0
    cfg = _zero_config(tmp_path, system={"name": "coupled-oscillators"}, x0=None, n=3)
    assert main(["simulate", "--config", cfg]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_simulate_rejects_non_finite_x0(tmp_path, capsys, bad):
    cfg = _zero_config(tmp_path, x0=[float(bad), 0.5, -0.2, 0.3])
    assert bad in (tmp_path / "config.json").read_text()  # a token json.load accepts
    assert main(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("flag", ["nan", "inf"])
def test_simulate_rejects_a_non_finite_dt_flag(tmp_path, capsys, flag):
    cfg = _zero_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--dt", flag]) == 2
    assert capsys.readouterr().err.startswith("error: dt must be finite")
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_simulate_rejects_a_non_finite_dt_in_the_config(tmp_path, capsys, bad):
    cfg = _zero_config(tmp_path, dt=float(bad))
    assert bad in (tmp_path / "config.json").read_text()
    assert main(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: dt must be finite")


def test_simulate_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path)]) == 2


@pytest.mark.parametrize("overrides, where, key", [
    ({"stpes": 3}, "config", "stpes"),
    # n inside `system` used to be dropped, and this ran n = 2 for 10 steps
    ({"system": {"name": "harmonic", "n": 0}, "steps": 10, "stpes": 3}, "config", "stpes"),
    ({"system": {"name": "zero", "n": 2}}, "config.system", "n"),
    ({"system": {"name": "zero", "parameters": {"n": 2}}}, "config.system", "parameters"),
    ({"outputs": {"diag": "d.json"}}, "config.outputs", "diag"),
])
def test_simulate_names_the_unknown_key(tmp_path, capsys, monkeypatch, overrides, where, key):
    monkeypatch.chdir(tmp_path)
    cfg = _zero_config(tmp_path, **overrides)
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where} has an unknown key {key!r}; known keys: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "traj.csv").exists()
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("overrides, message", [
    ({"system": {"name": "zero", "params": 5}}, "config.system.params must be a JSON object"),
    ({"system": {"name": 5}}, "config.system must name a system"),
    ({"system": ["zero"]}, "config.system must be a JSON object"),
    ({"outputs": "out.csv"}, "config.outputs must be a JSON object"),
    ({"dt": None}, "dt must be a number, got None"),
    ({"dt": [1]}, "dt must be a number, got [1]"),
    ({"dt": "0.1"}, "dt must be a number, got '0.1'"),
    ({"dt": True}, "dt must be a number, got True"),
    ({"x0": {"q1": 1.0}}, "x0 must be a list of numbers, got {'q1': 1.0}"),
    ({"x0": [True, 2.0, 3.0, 4.0]}, "x0 must be a list of numbers, got [True, 2.0, 3.0, 4.0]"),
    ({"x0": ["1", 2.0, 3.0, 4.0]}, "x0 must be a list of numbers, got ['1', 2.0, 3.0, 4.0]"),
    ({"outputs": {"trajectory": None}}, "config.outputs.trajectory must be a file name, got None"),
    ({"outputs": {"diagnostics": 3}}, "config.outputs.diagnostics must be a file name, got 3"),
    ({"outputs": {"trajectory": ""}}, "config.outputs.trajectory must be a file name, got ''"),
])
def test_simulate_rejects_a_config_value_of_the_wrong_type(tmp_path, capsys, monkeypatch,
                                                           overrides, message):
    monkeypatch.chdir(tmp_path)
    cfg = _zero_config(tmp_path, **overrides)
    assert main(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]  # no file named None


@pytest.mark.parametrize("overrides", [{"dt": 10 ** 400}, {"x0": [10 ** 400, 0.0, 0.0, 0.0]}])
def test_simulate_rejects_an_integer_too_large_for_a_float(tmp_path, capsys, overrides):
    cfg = _zero_config(tmp_path, **overrides)
    assert main(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: int too large to convert to float\n"
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("params", [{"scale": None}, {"n": 2, "scale": [0.1]}])
def test_simulate_rejects_a_parameter_its_builder_cannot_take(tmp_path, capsys, params):
    cfg = _zero_config(tmp_path, system={"name": "random-alpha", "params": params}, x0=None)
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: system.params.scale must be a finite number, got ")
    assert err.count("\n") == 1
    assert not (tmp_path / "traj.csv").exists()


# (system, key, value): a value of a system's parameter that its builder
# refuses, naming the key, where numpy or float() would have spoken
BAD_PARAMETERS = [
    ("random-alpha", "degree", -1), ("random-alpha", "degree", 2 ** 64),
    ("random-alpha", "scale", "x"), ("random-alpha", "scale", None),
    ("random-alpha", "scale", float("inf")), ("random-alpha", "scale", 10 ** 400),
    ("random-alpha", "scale", True),
    ("drift", "coupling", "x"), ("drift", "coupling", float("nan")),
    ("drift", "coupling", [0.25]), ("drift", "a", [[0.0, float("inf")], [0.0, 0.0]]),
    ("drift", "a", [[0.0, "x"], [0.0, 0.0]]), ("drift", "q0", [float("nan"), 0.0]),
    ("linear", "k", [["x", 0.0], [0.0, 1.0]]), ("linear", "k", [[1.0, 0.0], [1.0]]),
    ("harmonic", "omega_freqs", ["x", 1.0]), ("harmonic", "omega_freqs", 2.0),
] + [(name, "n", n) for name in ("harmonic", "drift", "random-alpha", "zero")
     for n in (2 ** 64, 10 ** 400)]


@pytest.mark.parametrize("system, key, value", BAD_PARAMETERS,
                         ids=[f"{name}-{key}-{i}" for i, (name, key, _) in enumerate(BAD_PARAMETERS)])
def test_a_bad_system_parameter_is_named_in_one_line(tmp_path, capsys, system, key, value):
    assert key in _parameters(system)
    params = {"k": [[1.0, 0.0], [0.0, 1.0]]} if system == "linear" else {}
    cfg = _zero_config(tmp_path, system={"name": system, "params": {**params, key: value}},
                       x0=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: system.params.{key} must be ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_the_readme_simulate_config_runs(tmp_path, capsys):
    """The config shown under `simulate` in the README is one the parser takes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### simulate", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    config = json.loads(block)
    config["outputs"] = {key: str(tmp_path / name) for key, name in config["outputs"].items()}
    assert main(["simulate", "--config", _write_config(tmp_path, "readme.json", config)]) == 0
    diag = json.loads(Path(config["outputs"]["diagnostics"]).read_text())
    assert diag["failed"] is False and diag["steps"] == config["steps"]
    assert diag["rows_written"] == config["steps"] // config["sample_every"] + 1
    capsys.readouterr()


@pytest.mark.parametrize("params, message", [
    ({"name": 3}, "system 'zero' has no parameter 'name'; it takes: n"),
    ({"n": 2 ** 64}, None),  # numpy's own message: no array of 2n entries exists
])
def test_simulate_refuses_a_system_it_cannot_build_in_one_line(tmp_path, capsys,
                                                              params, message):
    cfg = _zero_config(tmp_path, system={"name": "zero", "params": params}, x0=None)
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message is None or err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("where", ["config", "flag", "report"])
@pytest.mark.parametrize("path", ["missing/out.csv", "."])
def test_an_output_path_that_cannot_be_written_is_a_usage_error(tmp_path, capsys,
                                                                monkeypatch, where, path):
    monkeypatch.chdir(tmp_path)
    outputs = {"outputs": {"trajectory": path}} if where == "config" else {}
    cfg = _zero_config(tmp_path, **outputs)
    argv = {"config": ["simulate", "--config", cfg],
            "flag": ["simulate", "--config", cfg, "--diag", path],
            "report": ["check", "--n", "2", "--trials", "1", "--report", path]}[where]
    assert main(argv) == 2
    name = {"config": "config.outputs.trajectory", "flag": "config.outputs.diagnostics",
            "report": "--report"}[where]
    assert capsys.readouterr().err == (
        f"error: {name} must name a file in an existing directory, got {path!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


# ----------------------------------------------------------------------- check


def test_check_report_structure_and_determinism(tmp_path, capsys):
    report = str(tmp_path / "rep.json")
    rc = main(["check", "--n", "2", "--trials", "4", "--seed", "3",
               "--horizon", "0.5", "--report", report])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pass" in out and "oracle_equivalence" in out
    data = json.loads(Path(report).read_text())
    assert data["_meta"]["n"] == [2]
    assert data["_meta"]["trials"] == 4
    for name, entry in data.items():
        if name == "_meta":
            continue
        assert set(entry) >= {"max_residual", "tolerance", "pass"}
        assert entry["pass"] is True
    first = Path(report).read_bytes()
    main(["check", "--n", "2", "--trials", "4", "--seed", "3",
          "--horizon", "0.5", "--report", report])
    assert Path(report).read_bytes() == first


def test_check_skips_suites_without_a_supported_n(tmp_path, capsys):
    # n = 4 is covered only by oracle_equivalence and lemmas; feng_shang
    # checks its witness but its sampled half draws nothing, so it is
    # skipped too; the flow suites do not depend on n
    report = str(tmp_path / "rep.json")
    rc = main(["check", "--n", "4", "--trials", "1", "--horizon", "0.5",
               "--report", report])
    assert rc == 0
    out = capsys.readouterr().out
    data = json.loads(Path(report).read_text())
    skipped = {"hamiltonian_reduction", "divergence_free", "gauge_invariance",
               "observable_derivative", "poisson_trace", "trace_closed_form",
               "decomposition", "feng_shang"}
    for name, entry in data.items():
        if name == "_meta":
            continue
        line = next(l for l in out.splitlines() if f" {name} " in l)
        if name in skipped:
            assert line.startswith("skip ") and entry["skipped"] is True
            assert entry["pass"] is False
        else:
            assert line.startswith("pass ") and "skipped" not in entry
            assert entry["pass"] is True
    assert skipped < set(data)


def test_check_a_volume_flow_that_leaves_the_finite_domain_fails_its_suite(tmp_path,
                                                                         capsys):
    # at dt = 1 the random n = 3 instance overflows before step 50: the suite
    # fails with an inf residual, and the run still reports every suite
    report = tmp_path / "report.json"
    assert main(["check", "--n", "2", "--trials", "1", "--dt", "1", "--horizon", "50",
                 "--report", str(report)]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    data = json.loads(report.read_text())
    lines = out.out.splitlines()
    assert len(lines) == len(data) and lines[-1] == f"report written to {report}"
    assert "FAIL  volume_preservation      max_residual inf  tolerance 1e-06" in lines
    volume = data["volume_preservation"]
    assert volume["pass"] is False and volume["max_residual"] == np.inf
    assert volume["detail"]["random-alpha-n3"] == np.inf


def test_check_zero_trials_empty_report(tmp_path):
    report = str(tmp_path / "empty.json")
    assert main(["check", "--trials", "0", "--report", report]) == 0
    data = json.loads(Path(report).read_text())
    assert [k for k in data if k != "_meta"] == []


def test_check_usage_errors(capsys):
    assert main(["check", "--n", "9"]) == 2
    # no n-dependent suite supports n = 1, so it is refused rather than skipped
    for n in ("1", "1,2"):
        capsys.readouterr()
        assert main(["check", "--n", n, "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "pass" not in captured.out
    assert main(["check", "--n", "abc"]) == 2
    assert main(["check", "--trials", "-1"]) == 2
    assert main(["check", "--horizon", "-2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flags", [
    ["--dt", "nan"], ["--horizon", "nan"], ["--horizon", "inf"], ["--dt", "inf"],
    ["--dt", "20"],  # horizon 10 / dt 20 rounds to 0 steps
    ["--dt", "1e-320", "--horizon", "1e10"],  # an infinite step count
    ["--dt", "1e-300"],  # a finite step count far above _MAX_CHECK_STEPS
])
def test_check_rejects_step_settings_that_check_nothing(tmp_path, capsys, flags):
    report = tmp_path / "r.json"
    assert main(["check", "--n", "2", "--trials", "1", "--report", str(report)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "pass" not in captured.out and not report.exists()


def test_check_seed_env_fallback(tmp_path, monkeypatch, capsys):
    r1 = str(tmp_path / "r1.json")
    r2 = str(tmp_path / "r2.json")
    monkeypatch.setenv("VOLFLOW_SEED", "99")
    main(["check", "--n", "2", "--trials", "3", "--horizon", "0.5", "--report", r1])
    monkeypatch.delenv("VOLFLOW_SEED")
    main(["check", "--n", "2", "--trials", "3", "--seed", "99",
          "--horizon", "0.5", "--report", r2])
    assert json.loads(Path(r1).read_text()) == json.loads(Path(r2).read_text())
    capsys.readouterr()


# ---------------------------------------------------------------------- oracle


def test_oracle_named_alphas(capsys):
    assert main(["oracle", "--alpha", "zero", "--point", "0.1,0.2,0.3,0.4"]) == 0
    out = capsys.readouterr().out
    assert "max residual" in out

    assert main(["oracle", "--alpha", "unit-a12", "--point", "1,0,0,0"]) == 0
    out = capsys.readouterr().out
    assert "pdot2" in out

    assert main(["oracle", "--alpha", "hamiltonian-p1", "--point", "0,0,0.5,0"]) == 0
    out = capsys.readouterr().out
    assert "qdot1" in out


def test_oracle_component_values(capsys):
    main(["oracle", "--alpha", "unit-a12", "--point", "0.3,-0.2,0.7,0.1"])
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.strip().startswith(("q", "p"))]
    assert len(rows) == 4
    # field is exactly d/dp_2 regardless of the point
    vals = [float(r.split()[1]) for r in rows]
    assert vals == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-12)


def test_oracle_random_alpha_seeded(capsys, monkeypatch):
    monkeypatch.setenv("VOLFLOW_SEED", "4")
    assert main(["oracle", "--alpha", "random", "--point", "0.1,0.1,0.1,0.1,0.1,0.1"]) == 0
    first = capsys.readouterr().out
    assert main(["oracle", "--alpha", "random", "--point", "0.1,0.1,0.1,0.1,0.1,0.1"]) == 0
    assert capsys.readouterr().out == first


def test_oracle_usage_errors(capsys):
    assert main(["oracle", "--alpha", "zero", "--point", "1,2,3"]) == 2
    assert main(["oracle", "--alpha", "nope", "--point", "1,2,3,4"]) == 2
    assert main(["oracle", "--alpha", "coupled", "--point", "1,2,3,4,5,6"]) == 2
    assert main(["oracle", "--alpha", "zero", "--point", "a,b,c,d"]) == 2
    assert main(["oracle", "--alpha", "zero", "--point", "1,2,3,4", "--n", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("point", ["nan,0,0,0", "0,inf,0,0", "0,0,-inf,0,0,0"])
def test_oracle_rejects_a_non_finite_point(capsys, point):
    assert main(["oracle", "--alpha", "random", "--point", point]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --point must be finite")
    assert captured.out == ""


def test_oracle_names_the_component_that_overflows(capsys):
    # a finite point where the random 2-form's field overflows
    assert main(["oracle", "--alpha", "random", "--seed", "0",
                 "--point", "1e200,0,1e200,0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: non-finite evaluation in component qdot1 "
                            "at --point 1e200,0,1e200,0\n")
    assert captured.out == ""


# ------------------------------------------------------------------- top level


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["simulate", "--nope"]) == 2
    capsys.readouterr()

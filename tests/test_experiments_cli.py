"""Config handling, CSV determinism, CLI exit codes."""

import json
import os

import pytest

import qdlab.covering as cov
import qdlab.experiments as ex
from qdlab.arithmetic import parse_frequency
from qdlab.cli import main
from qdlab.torus import Shift, TorusPoint


def test_config_digest_is_order_invariant():
    a = {"experiment": "identities", "params": {"s_max": 2, "r_max": 3}}
    b = {"params": {"r_max": 3, "s_max": 2}, "experiment": "identities"}
    assert ex.config_digest(a) == ex.config_digest(b)
    c = {"experiment": "identities", "params": {"s_max": 3, "r_max": 3}}
    assert ex.config_digest(a) != ex.config_digest(c)


def test_float_formatting_round_trips():
    for v in (1.0 / 3.0, 1e-300, 123456.789, 0.1):
        assert float(ex._fmt(v)) == v


def test_write_csv_uses_lf_and_header(tmp_path):
    path = tmp_path / "out.csv"
    ex.write_csv(path, ["a", "b"], [(1, 0.5), (2, 0.25)])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.split(b"\n")[0] == b"a,b"


def test_identities_runner_passes():
    rec = ex.run_experiment({"experiment": "identities",
                             "params": {"s_max": 2, "r_max": 3}})
    assert rec.passed
    assert rec.summary["cases"] == 3 + 9


def test_unknown_experiment_rejected():
    with pytest.raises(ex.ConfigError):
        ex.run_experiment({"experiment": "nope"})
    with pytest.raises(ex.ConfigError):
        ex.run_experiment({"experiment": "discrepancy_decay",
                           "map": {"kind": "mystery", "alpha": "golden"},
                           "params": {"n_grid": [100]}})


def test_malformed_frequency_names_the_field():
    with pytest.raises(ex.ConfigError) as err:
        ex.run_experiment({"experiment": "discrepancy_decay",
                           "map": {"kind": "shift", "alpha": "gol den"},
                           "params": {"n_grid": [100]}})
    assert err.value.path == "map.alpha"


def test_seed_is_mandatory_for_randomized_runs():
    with pytest.raises(ex.ConfigError) as err:
        ex.run_experiment({"experiment": "brs_remainder",
                           "params": {"variant": "interval",
                                      "alpha": "golden",
                                      "q": 1, "p": 0, "nmax": 1000}})
    assert err.value.path == "seed"


def test_explicit_x0_needs_no_seed():
    rec = ex.run_experiment({"experiment": "brs_remainder",
                             "params": {"variant": "interval",
                                        "alpha": "golden", "q": 1, "p": 0,
                                        "nmax": 1000, "x0": [0.25]}})
    assert rec.passed


def test_slope_threshold_needs_enough_scales():
    with pytest.raises(ex.ConfigError):
        ex.run_experiment({"experiment": "discrepancy_decay",
                           "map": {"kind": "shift", "alpha": "golden"},
                           "params": {"n_grid": [100, 200, 400],
                                      "max_slope": -0.5}})


@pytest.mark.parametrize("n_grid", [
    [0],
    [-5],
    ["a"],
    [100, 316, 1000, 1000, 3162, 10000],
    [10.7],
], ids=["zero", "negative", "string", "repeated", "fractional"])
def test_bad_sample_size_names_the_field(n_grid):
    with pytest.raises(ex.ConfigError) as err:
        ex.run_experiment({"experiment": "discrepancy_decay",
                           "map": {"kind": "shift", "alpha": "golden"},
                           "params": {"n_grid": n_grid}})
    assert err.value.path == "params.n_grid"


def test_integral_float_sample_sizes_are_accepted():
    cfg = json.loads('{"experiment": "discrepancy_decay",'
                     ' "map": {"kind": "shift", "alpha": "golden"},'
                     ' "params": {"n_grid": [1e2, 1000]}}')
    rec = ex.run_experiment(cfg)
    assert [row[0] for row in rec.rows] == [100, 1000]
    assert all(type(row[0]) is int for row in rec.rows)


def _lyapunov_config(**params):
    return {"experiment": "lyapunov_scan",
            "map": {"kind": "shift", "alpha": "golden"},
            "potential": {"kind": "cosine", "coupling": 3.0},
            "params": {"energies": [-1.0, 1.0, 3], "n": 50, "phases": 4,
                       **params},
            "seed": 5}


@pytest.mark.parametrize("params, field", [
    ({"energies": [-1.0, 1.0]}, "params.energies"),
    ({"energies": [-1.0, 1.0, 3, 4]}, "params.energies"),
    ({"energies": [-1.0, 1.0, 0]}, "params.energies"),
    ({"energies": [-1.0, 1.0, 2.5]}, "params.energies"),
    ({"energies": [-1.0, 1.0, True]}, "params.energies"),
    ({"energies": [1.0, -1.0, 3]}, "params.energies"),
    ({"energies": [-1.0, float("inf"), 3]}, "params.energies"),
    ({"energies": ["a", 1.0, 3]}, "params.energies"),
    ({"energies": [-1e8, 1.0, 3]}, "params.energies"),
    ({"n": 0}, "params.n"),
    ({"n": True}, "params.n"),
    ({"phases": 0}, "params.phases"),
    ({"phases": True}, "params.phases"),
], ids=["two-entries", "four-entries", "zero-count", "fractional-count",
        "bool-count", "reversed", "infinite", "string", "out-of-reach",
        "zero-n", "bool-n",
        "zero-phases", "bool-phases"])
def test_bad_lyapunov_scan_input_names_the_field(params, field):
    with pytest.raises(ex.ConfigError) as err:
        ex.run_experiment(_lyapunov_config(**params))
    assert err.value.path == field


def test_integral_float_energy_count_is_accepted():
    cfg = json.loads(json.dumps(_lyapunov_config(energies=[-1, 1, 3.0])))
    rec = ex.run_experiment(cfg)
    assert [row[0] for row in rec.rows] == [-1.0, 0.0, 1.0]
    assert rec.rows == ex.run_experiment(_lyapunov_config()).rows


SHIFT1 = {"kind": "shift", "alpha": "golden"}
COSINE = {"kind": "cosine", "coupling": 3.0}
BETA_TIMES = [5.0 * k for k in range(1, 9)]


def _beta(**params):
    return {"experiment": "transport_beta", "map": SHIFT1,
            "params": {"t_grid": BETA_TIMES, **params}}


def _xi(**params):
    return {"experiment": "transport_xi", "map": SHIFT1,
            "params": {"tau_levels": [0.5], "t_grid": [5.0, 10.0, 20.0],
                       **params}}


def _dt(**params):
    return {"experiment": "dt_integral", "map": SHIFT1, "potential": COSINE,
            "params": {"t_list": [10.0], "rho": 0.5, "k_bound": 9.0,
                       **params}}


def _decay(**params):
    return {"experiment": "discrepancy_decay", "map": SHIFT1,
            "params": {"n_grid": [100, 316, 1000, 3162, 10000], **params}}


def _interval(**params):
    return {"experiment": "brs_remainder",
            "params": {"variant": "interval", "alpha": "golden", "q": 1,
                       "p": 0, "nmax": 100, "x0": [0.1], **params}}


def _parallelogram(**params):
    return {"experiment": "brs_remainder",
            "params": {"variant": "parallelogram", "alpha1": "sqrt2m1",
                       "alpha2": "sqrt3m1", "m": 1, "l1": 0, "l2": 0, "q": 1,
                       "p": 0, "nmax": 100, "x0": [0.1, 0.2], **params}}


def _tabulated(values):
    return dict(_lyapunov_config(),
                potential={"kind": "tabulated", "values": values})


HERE = os.path.dirname(os.path.abspath(__file__))
IDENTITIES = {"experiment": "identities", "params": {"s_max": 2, "r_max": 2}}

BAD_INPUTS = {
    "dt-theta-too-long": (
        {"experiment": "dt_integral", "map": SHIFT1, "potential": COSINE,
         "params": {"t_list": [10.0], "rho": 0.5, "k_bound": 9.0,
                    "theta": [0.1, 0.2]}}, "params.theta"),
    "beta-theta-too-long": (
        {"experiment": "transport_beta", "map": SHIFT1,
         "params": {"t_grid": [5.0 * k for k in range(1, 9)],
                    "theta": [0.1, 0.2]}}, "params.theta"),
    "xi-theta-empty": (
        {"experiment": "transport_xi", "map": SHIFT1,
         "params": {"tau_levels": [0.5], "t_grid": [5.0, 10.0],
                    "theta": []}}, "params.theta"),
    "center-wrong-length": (
        {"experiment": "covering", "map": SHIFT1,
         "params": {"radii": [0.3], "center": [0.1, 0.2]}}, "params.center"),
    "x0-too-long": (
        {"experiment": "brs_remainder",
         "params": {"variant": "interval", "alpha": "golden", "q": 1, "p": 0,
                    "nmax": 100, "x0": [0.1, 0.2, 0.3]}}, "params.x0"),
    "map-d-zero": (
        {"experiment": "discrepancy_decay",
         "map": {"kind": "skew", "alpha": "golden", "d": 0},
         "params": {"n_grid": [100]}}, "map.d"),
    "map-d-bool": (
        {"experiment": "discrepancy_decay",
         "map": {"kind": "skew", "alpha": "golden", "d": True},
         "params": {"n_grid": [100]}}, "map.d"),
    "e-count-zero": (
        {"experiment": "dt_integral", "map": SHIFT1, "potential": COSINE,
         "params": {"t_list": [10.0, 20.0], "rho": 0.5, "k_bound": 9.0,
                    "e_count": 0}}, "params.e_count"),
    "e-count-one": (
        {"experiment": "dt_integral", "map": SHIFT1, "potential": COSINE,
         "params": {"t_list": [10.0, 20.0], "rho": 0.5, "k_bound": 9.0,
                    "e_count": 1}}, "params.e_count"),
    "radius-zero": (
        {"experiment": "covering", "map": SHIFT1,
         "params": {"radii": [0.3, 0.0]}}, "params.radii"),
    "radius-negative": (
        {"experiment": "covering", "map": SHIFT1,
         "params": {"radii": [-0.1]}}, "params.radii"),
    "nmax-zero": (
        {"experiment": "brs_remainder",
         "params": {"variant": "interval", "alpha": "golden", "q": 1, "p": 0,
                    "nmax": 0, "x0": [0.1]}}, "params.nmax"),
    "beta-p-string": (_beta(p="two"), "params.p"),
    "beta-p-zero": (_beta(p=0.0), "params.p"),
    "beta-t-grid-string": (_beta(t_grid=["5"] + BETA_TIMES[1:]),
                           "params.t_grid"),
    "beta-t-grid-seven-times": (_beta(t_grid=BETA_TIMES[:7]),
                                "params.t_grid"),
    "beta-t-grid-zero-time": (_beta(t_grid=[0.0] + BETA_TIMES[1:]),
                              "params.t_grid"),
    "xi-tau-string": (_xi(tau_levels=["0.5"]), "params.tau_levels"),
    "xi-tau-one": (_xi(tau_levels=[0.5, 1.0]), "params.tau_levels"),
    "xi-tau-zero": (_xi(tau_levels=[0.0, 0.5]), "params.tau_levels"),
    "xi-tau-empty": (_xi(tau_levels=[]), "params.tau_levels"),
    "xi-tau-repeated": (_xi(tau_levels=[0.6, 0.6]), "params.tau_levels"),
    "xi-t-grid-two-times": (_xi(t_grid=[5.0, 10.0]), "params.t_grid"),
    "dt-t-list-string": (_dt(t_list=["10"]), "params.t_list"),
    "dt-t-list-zero-time": (_dt(t_list=[0.0, 10.0]), "params.t_list"),
    "dt-rho-string": (_dt(rho="half"), "params.rho"),
    "dt-rho-infinite": (_dt(rho=float("inf")), "params.rho"),
    "dt-rho-zero": (_dt(rho=0.0), "params.rho"),
    "dt-rho-above-one": (_dt(rho=200.0), "params.rho"),
    "dt-k-bound-string": (_dt(k_bound="9"), "params.k_bound"),
    "dt-k-bound-below-four": (_dt(k_bound=3.5), "params.k_bound"),
    "dt-k-bound-out-of-reach": (_dt(k_bound=1e8), "params.k_bound"),
    "coupling-string": (
        dict(_dt(), potential={"kind": "cosine", "coupling": "3.0"}),
        "potential.coupling"),
    "coupling-bool": (
        dict(_beta(), potential={"kind": "cosine", "coupling": True}),
        "potential.coupling"),
    "max-slope-string": (_decay(max_slope="steep"), "params.max_slope"),
    "max-slope-list": (_decay(max_slope=[-0.5]), "params.max_slope"),
    "min-l-string": (_lyapunov_config(min_l="high"), "params.min_l"),
    "max-ratio-string": (_dt(t_list=[10.0, 20.0], max_ratio="small"),
                         "params.max_ratio"),
    "require-low-string": (_beta(require_low="low"), "params.require_low"),
    "require-high-list": (_xi(require_high=[1.0]), "params.require_high"),
    "brs-alpha-unparsable": (_interval(alpha="gol den"), "params.alpha"),
    "brs-alpha-list": (_interval(alpha=["golden"]), "params.alpha"),
    "brs-alpha1-out-of-range": (_parallelogram(alpha1="1.5"), "params.alpha1"),
    "brs-alpha2-unparsable": (_parallelogram(alpha2="x"), "params.alpha2"),
    "brs-interval-degenerate": (_interval(q=0), "params.q"),
    "brs-m-zero": (_parallelogram(m=0), "params.m"),
    "tabulated-values-empty": (_tabulated([]), "potential.values"),
    "tabulated-values-string": (_tabulated([1.0, "a"]), "potential.values"),
    "map-alpha-out-of-range": (
        dict(_decay(), map={"kind": "shift", "alpha": 1.5}), "map.alpha"),
    "brs-q-bool": (_interval(q=True, p=False), "params.q"),
    "map-alpha-empty": (
        dict(_decay(), map={"kind": "shift", "alpha": []}), "map.alpha"),
    "s-max-zero": ({"experiment": "identities", "params": {"s_max": 0}},
                   "params.s_max"),
    "r-max-negative": ({"experiment": "identities", "params": {"r_max": -1}},
                       "params.r_max"),
    "seed-bool": (dict(_interval(x0=None), seed=True), "seed"),
    "beta-t-grid-repeated": (_beta(t_grid=BETA_TIMES[:7] + [35.0]),
                             "params.t_grid"),
    "xi-t-grid-repeated": (_xi(t_grid=[5.0, 5.0, 5.0]), "params.t_grid"),
    "dt-t-list-repeated": (_dt(t_list=[10.0, 10.0]), "params.t_list"),
    "map-alpha-rounds-to-zero": (
        dict(_decay(), map={"kind": "shift", "alpha": "1e-40"}), "map.alpha"),
    "radii-empty": (
        {"experiment": "covering", "map": SHIFT1, "params": {"radii": []}},
        "params.radii"),
    "output-true": (dict(IDENTITIES, output=True), "output"),
    "output-fd-number": (dict(IDENTITIES, output=5), "output"),
    "output-empty": (dict(IDENTITIES, output=""), "output"),
    "output-missing-directory": (
        dict(IDENTITIES, output=os.path.join(HERE, "no-such-dir", "a.csv")),
        "output"),
    "output-is-a-directory": (dict(IDENTITIES, output=HERE), "output"),
}


@pytest.mark.parametrize("config, field", list(BAD_INPUTS.values()),
                         ids=list(BAD_INPUTS))
def test_bad_runner_input_names_the_field(config, field):
    with pytest.raises(ex.ConfigError) as err:
        ex.run_experiment(config)
    assert err.value.path == field


def test_output_is_checked_before_the_run(monkeypatch):
    def run(config):
        raise AssertionError("the runner ran")
    monkeypatch.setitem(ex.RUNNERS, "identities", run)
    for name in ("output-true", "output-missing-directory"):
        with pytest.raises(ex.ConfigError):
            ex.run_experiment(BAD_INPUTS[name][0])


def test_discrepancy_decay_with_fit(tmp_path):
    out = tmp_path / "decay.csv"
    rec = ex.run_experiment({
        "experiment": "discrepancy_decay",
        "map": {"kind": "shift", "alpha": "golden"},
        "params": {"n_grid": [100, 316, 1000, 3162, 10000],
                   "max_slope": -0.8},
        "output": str(out)})
    assert rec.passed
    assert rec.summary["slope"] <= -0.8
    lines = out.read_text().splitlines()
    assert lines[0] == "n,d_n,method,error_bound"
    assert len(lines) == 6


def test_byte_identical_reruns(tmp_path):
    cfg = {"experiment": "lyapunov_scan",
           "map": {"kind": "shift", "alpha": "golden"},
           "potential": {"kind": "cosine", "coupling": 3.0},
           "params": {"energies": [-1.0, 1.0, 3], "n": 300, "phases": 4},
           "seed": 77,
           "output": str(tmp_path / "a.csv")}
    ex.run_experiment(cfg)
    first = (tmp_path / "a.csv").read_bytes()
    cfg["output"] = str(tmp_path / "b.csv")
    ex.run_experiment(cfg)
    assert (tmp_path / "b.csv").read_bytes() == first


def _covering(radii):
    return ex.run_experiment({"experiment": "covering", "map": SHIFT1,
                              "params": {"radii": radii, "mmax": 100000}})


def test_covering_runner_slope_is_the_library_fit():
    radii = [0.1, 0.05, 0.025, 0.01]
    golden = Shift(TorusPoint((float(parse_frequency("golden")),)))
    slope, _ = cov.covering_exponent_fit(golden, (0.0,), radii, 100000)
    assert _covering(radii).summary["slope"].hex() == slope.hex()


def test_covering_runner_fits_no_slope_on_unordered_radii():
    rec = _covering([0.1, 0.2, 0.05, 0.01])
    assert rec.passed
    assert "slope" not in rec.summary


def test_skew_map_parsing_and_covering_runner():
    rec = ex.run_experiment({"experiment": "covering",
                             "map": {"kind": "skew", "alpha": "golden",
                                     "d": 2},
                             "params": {"radii": [0.8, 0.3], "mmax": 5000}})
    assert rec.passed
    assert rec.rows[0][1] == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_run_success(tmp_path, capsys):
    path = write_config(tmp_path, {
        "experiment": "identities", "params": {"s_max": 2, "r_max": 2}})
    assert main(["run", path]) == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["passed"] is True
    assert summary["rows"] == 6


def test_cli_run_reports_threshold_failure(tmp_path, capsys):
    path = write_config(tmp_path, {
        "experiment": "discrepancy_decay",
        "map": {"kind": "shift", "alpha": "golden"},
        "params": {"n_grid": [100, 316, 1000, 3162, 10000],
                   "max_slope": -5.0}})
    assert main(["run", path]) == 1
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["passed"] is False


def test_cli_config_errors_exit_two(tmp_path, capsys):
    bad = write_config(tmp_path, {"experiment": "identities",
                                  "params": {"s_max": "two"}})
    assert main(["run", bad]) == 2
    assert "config error" in capsys.readouterr().err
    missing = str(tmp_path / "absent.json")
    assert main(["run", missing]) == 2
    capsys.readouterr()
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["run", str(broken)]) == 2
    capsys.readouterr()
    # a directory in place of the config file, and a config that is not text
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    for unreadable in (str(tmp_path), str(binary)):
        assert main(["run", unreadable]) == 2
        assert capsys.readouterr().err.startswith("config error:")


def test_cli_output_true_exits_two_and_keeps_stdout(tmp_path, capsys):
    config, field = BAD_INPUTS["output-true"]
    assert main(["run", write_config(tmp_path, config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {field}:" in captured.err


def test_cli_bad_runner_input_exits_two(tmp_path, capsys):
    config, field = BAD_INPUTS["center-wrong-length"]
    assert main(["run", write_config(tmp_path, config)]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


def test_cli_bad_threshold_exits_two(tmp_path, capsys):
    config, field = BAD_INPUTS["max-slope-string"]
    assert main(["run", write_config(tmp_path, config)]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


def test_cli_underflowed_reference_integral_fails_without_a_ratio(
        tmp_path, capsys):
    # at T = 1e6 every integrand value underflows, so the first integral
    # is exactly 0 and no ratio against it exists
    path = write_config(tmp_path, _dt(t_list=[1e6, 1e4], e_count=21,
                                      max_ratio=0.1))
    assert main(["run", path]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    summary = json.loads(captured.out.strip())
    assert summary["passed"] is False
    assert summary["summary"] == {"ratio": None}


def test_cli_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for kind in ex.EXPERIMENT_KINDS:
        assert kind in out

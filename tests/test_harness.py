import json
import math
import os
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from coskit import harness
from coskit.cos_engine import Call, CosParameters, DigitalBelow, Put, cos_price
from coskit.errors import NotReachedWithinCap
from coskit.harness import (EXPERIMENT_IDS, ExperimentConfig, cli_main,
                            find_nmin, fit_loglog_slope, median_time_ms,
                            run_convergence, run_convergence_experiment,
                            run_experiment, run_l_optimal, run_table1,
                            run_vg_counterexample, write_csv)
from coskit.models import (BS, VG, Cauchy, MarketContext, bilateral_gamma,
                           centralized_cf)
from coskit.reference import black_scholes_call, black_scholes_put, cauchy_cdf

CTX = MarketContext(S0=100.0, r=0.0, T=1.0)
CF_BS = centralized_cf(BS(0.2), CTX)


# ---------------------------------------------------------------------------
# minimal series length search
# ---------------------------------------------------------------------------

def test_nmin_degenerate_tolerance():
    ref = black_scholes_put(CTX, 0.2, 100.0)
    assert find_nmin(CF_BS, Put(100.0), CTX, 2.0, 2.0, ref, math.inf) == 1


def test_nmin_satisfies_tolerance_at_result():
    ref = black_scholes_put(CTX, 0.2, 100.0)
    tol = 1e-6
    n = find_nmin(CF_BS, Put(100.0), CTX, 2.0, 2.0, ref, tol)
    err_at = abs(cos_price(CF_BS, Put(100.0), CTX,
                           CosParameters(2.0, 2.0, n)).price - ref)
    assert err_at <= tol
    if n > 1:
        err_below = abs(cos_price(CF_BS, Put(100.0), CTX,
                                  CosParameters(2.0, 2.0, n - 1)).price - ref)
        assert err_below > tol


def test_nmin_cap_raises(monkeypatch):
    monkeypatch.setattr(harness, "_NMIN_CAP", 64)
    ref = black_scholes_put(CTX, 0.2, 100.0)
    with pytest.raises(NotReachedWithinCap):
        find_nmin(CF_BS, Put(100.0), CTX, 0.9, 0.9, ref, 1e-13)


def test_nmin_for_reference_table_setup():
    out = run_table1(time_reps=4)
    assert abs(out["n_min"] - 120) <= 6  # 5 percent of 120
    assert [row[1] for row in out["rows"]] == [897, 271, 200, 179, 172, 170, 171]


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------

def test_slope_fit_recovers_power_law():
    ns = 2 ** np.arange(4, 17)
    errs = 3.0 * ns ** -1.57
    assert fit_loglog_slope(ns, errs) == pytest.approx(-1.57, abs=1e-12)


def test_slope_fit_window_exclusions():
    ns = 2 ** np.arange(4, 17)
    errs = 3.0 * ns ** -2.0
    errs[:2] = 1e-15  # below the noise floor and pre-asymptotic
    slope = fit_loglog_slope(ns, errs, noise_floor=1e-12, n_min=64)
    assert slope == pytest.approx(-2.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_loglog_slope([16, 32], [1e-15, 1e-16])


def test_slope_stable_under_dropping_smallest_point():
    res = run_convergence(centralized_cf(Cauchy(), CTX), DigitalBelow(1.23),
                          CTX, cauchy_cdf(1.23), ("linear", 0.1),
                          n_exponents=range(4, 15))
    recs = res["records"]
    full = fit_loglog_slope([r.N for r in recs], [r.error for r in recs])
    drop = fit_loglog_slope([r.N for r in recs][1:],
                            [r.error for r in recs][1:])
    assert abs(full - drop) < 0.05


def test_timing_helper_positive():
    t = median_time_ms(lambda: sum(range(100)), reps=8)
    assert t >= 0.0


# ---------------------------------------------------------------------------
# convergence behaviors
# ---------------------------------------------------------------------------

def test_constant_range_plateau_long_run():
    # the error settles at a range-limited plateau: pushing N from its first
    # plateau point to 2^20 does not help
    ref = black_scholes_call(CTX, 0.2, 100.0)
    cf = CF_BS
    L = 6 * 0.2
    errs = {}
    for e in (10, 14, 20):
        res = cos_price(cf, Call(100.0), CTX, CosParameters(L, L, 2 ** e))
        errs[e] = abs(res.price - ref)
    assert errs[20] >= 0.5 * errs[14]
    assert errs[20] >= 0.5 * errs[10]


def test_records_are_sorted_and_nonnegative():
    res = run_convergence(CF_BS, Call(100.0), CTX,
                          black_scholes_call(CTX, 0.2, 100.0),
                          ("sqrt", 0.2), n_exponents=range(4, 11))
    ns = [r.N for r in res["records"]]
    assert ns == sorted(ns) and len(set(ns)) == len(ns)
    assert all(r.error >= 0.0 for r in res["records"])


def test_optimal_ranges_match_recorded_rows():
    # recorded when the sweep priced every (N, L) with its own series; one
    # term vector per L must give the same rows and slope to the last bit
    with open(Path(__file__).parent / "data" / "l_optimal_golden.json") as fh:
        golden = json.load(fh)
    res = run_l_optimal()
    for key, want in golden.items():
        got = res["results"][key]
        assert len(got["optimal_rows"]) == 11
        assert [list(r) for r in got["optimal_rows"]] == want["optimal_rows"]
        assert got["range_slope"] == want["range_slope"]


def test_convergence_studies_match_recorded_sweeps():
    # recorded when every constant-range point was priced with its own series
    with open(Path(__file__).parent / "data" / "convergence_golden.json") as fh:
        golden = json.load(fh)
    for key, want in golden.items():
        results = run_convergence_experiment(key)["results"]
        got = [[name, r.N, r.L, r.error]
               for name, res in results.items() for r in res["records"]]
        assert got == want


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _strip_nondet(text: str) -> str:
    """The CSV without its nondeterministic fields and without their list.
    A name listed under `# nondeterministic-columns:` is a header column, a
    metadata key or the first cell of a row (the quantity of a key/value
    CSV), and every listed name must be one of these."""
    tag = "# nondeterministic-columns:"
    lines = text.splitlines()
    names = {name for ln in lines if ln.startswith(tag)
             for name in ln[len(tag):].strip().split(",")}
    meta = {ln[2:].split(":", 1)[0]: ln for ln in lines
            if ln.startswith("#") and not ln.startswith(tag)}
    header, *rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
    assert names <= set(meta) | set(header) | {row[0] for row in rows}, names
    keep = [i for i in range(len(header)) if header[i] not in names]
    out = [ln for key, ln in meta.items() if key not in names]
    out.append(",".join(header[i] for i in keep))
    out += [",".join(row[i] for i in keep) for row in rows
            if row[0] not in names]
    return "\n".join(out)


def test_study_csvs_reproduce_outside_listed_fields():
    # every wall-clock field is listed, so two runs of a study agree byte for
    # byte without the listed fields; table1, vg_counterexample and
    # fmls_study equal the CSVs recorded before the study inputs were shared
    # (table1's then-unlisted cpu-cos-nmin-ms line removed)
    with open(Path(__file__).parent / "data" / "study_csv_golden.json") as fh:
        golden = json.load(fh)
    for exp_id in EXPERIMENT_IDS:
        a, b = (_strip_nondet(run_experiment(ExperimentConfig(
            exp_id, n_max_exp=8))["csv"]) for _ in range(2))
        assert a == b, exp_id
        if exp_id in golden:
            assert a.splitlines() == golden[exp_id], exp_id
    assert set(golden) == {"table1", "vg_counterexample", "fmls_study"}


def test_csv_structure_and_float_format():
    text = write_csv(None, ["a", "b"], [(1, 0.1), (2, 2.0 / 3.0)],
                     {"experiment": "demo", "x": 0.25},
                     nondet_columns=("b",))
    lines = text.splitlines()
    assert lines[0].startswith("# coskit-version:")
    assert any(ln == "# experiment: demo" for ln in lines)
    assert "0.66666666666666663" in text  # 17 significant digits
    assert lines[-1].split(",")[0] == "2"


def test_table1_csv_has_seven_rows(tmp_path):
    path = os.fspath(tmp_path / "table1.csv")
    run_table1(out=path, time_reps=4)
    with open(path) as fh:
        rows = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    assert len(rows) == 1 + 7  # header + one row per derivative order


def test_vg_experiment_rows():
    out = run_vg_counterexample()
    assert abs(out["reference"] - 1.809833) < 5e-6
    assert out["h1_sup"] == pytest.approx(218.0, rel=0.02)
    assert out["err_n50"] < 0.01
    assert "h1_density_sup" in out["csv"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_tune_matches_table(capsys):
    rc = cli_main(["tune", "--model", "bs", "--sigma", "0.2", "--T", "1",
                   "--K", "100", "--eps", "1e-8", "--n", "8", "--j", "40"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "N = 179" in out


def test_cli_price_fmls_study(capsys):
    rc = cli_main(["price", "--model", "fmls", "--alpha", "1.5597",
                   "--sigma", "0.1486", "--T", "1", "--S0", "100",
                   "--K", "100", "--r", "0", "--payoff", "call",
                   "--eps", "1e-2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "price = 9.74" in out
    assert "N = 5451" in out


def test_cli_exit_codes(capsys):
    assert cli_main(["price", "--model", "bs", "--eps", "1e-6"]) == 2
    assert cli_main(["price", "--model", "vg", "--sigma", "0.1", "--nu", "0.2",
                     "--T", "0.1", "--eps", "1e-2", "--payoff", "call"]) == 4
    assert cli_main(["tune", "--model", "bs", "--sigma", "0.2",
                     "--eps", "1e-6", "--n", "7"]) == 2
    # non-finite market input
    assert cli_main(["price", "--model", "bs", "--sigma", "0.2", "--r", "nan",
                     "--eps", "1e-6"]) == 2
    # the numeric derivative bound overflows before its integrand decays
    assert cli_main(["price", "--model", "vg", "--sigma", "0.12", "--nu",
                     "0.2", "--T", "1.85", "--eps", "1e-8"]) == 3
    # no finite series length meets the tolerance
    assert cli_main(["price", "--model", "bs", "--sigma", "0.2",
                     "--eps", "1e-300"]) == 3
    # the square-root rule certifies N = 3.5e15, above the term cap
    assert cli_main(["price", "--model", "vg", "--sigma", "0.1", "--nu", "0.2",
                     "--T", "0.25", "--eps", "1e-2", "--n", "4",
                     "--payoff", "call"]) == 3
    # a sweep too short to fit
    assert cli_main(["experiment", "--id", "l_optimal",
                     "--n-max-exp", "3"]) == 2
    # a variance, tail rate or moment that underflows to 0
    for args in (["--sigma", "5e-324"], ["--sigma", "1e-162"],
                 ["--sigma", "0.2", "--T", "5e-324"]):
        assert cli_main(["tune", "--model", "bs", "--eps", "1e-8"] + args) == 2
    assert cli_main(["tune", "--model", "vg", "--sigma", "1e-150", "--nu",
                     "0.2", "--T", "1.5", "--eps", "1e-8"]) == 2
    # strong drift over a tiny sigma has exact cumulants, and T/nu = 1 leaves
    # the density no bounded derivative
    assert cli_main(["tune", "--model", "vg", "--sigma", "1e-10", "--nu", "1",
                     "--theta", "0.3", "--eps", "1e-8"]) == 4
    # a power that overflows, or a variance or moment that underflows to 0:
    # a ModelParameterError naming it, not a traceback or numpy's message
    for argv, named in (
            (["price", "--model", "bs", "--sigma", "1e200"], "sigma^2"),
            (["tune", "--model", "bs", "--sigma", "1e200"], "sigma^2"),
            (["price", "--model", "fmls", "--alpha", "1.5", "--sigma", "1e300",
              "--T", "1e20"], "sigma^alpha"),
            (["tune", "--model", "nig", "--alpha", "2", "--delta", "5e-324"],
             "NIG variance"),
            (["tune", "--model", "vg", "--sigma", "0.2", "--nu", "0.2",
              "--T", "5e-324"], "VG variance"),
            (["tune", "--model", "bs", "--sigma", "1e-150"],
             "central moment of order 8"),
            (["tune", "--model", "nig", "--alpha", "200", "--delta", "1",
              "--T", "10"], "NIG tail amplitude")):
        capsys.readouterr()
        assert cli_main(argv + ["--eps", "1e-8"]) == 2
        assert named in capsys.readouterr().err
    # a tolerance so loose that the moment-rule range underflows to 0
    assert cli_main(["tune", "--model", "bs", "--sigma", "1e-30",
                     "--eps", "1e300"]) == 4
    # a tail amplitude near the top of the float range certifies: the range
    # conditions are summed in logs, and the VG amplitude is not read off a
    # density grid whose fit overflows
    assert cli_main(["tune", "--model", "nig", "--alpha", "100", "--delta",
                     "1", "--T", "7.12", "--eps", "1e-16"]) == 0
    assert cli_main(["tune", "--model", "vg", "--sigma", "0.0948", "--nu",
                     "0.1728", "--theta", "-0.2995", "--T", "19.23", "--K",
                     "177.7", "--n", "4", "--j", "54", "--eps", "1.41e-9"]) == 0
    # numpy takes the power of this integer-T/nu VG by products, which
    # overflow far out; phi stays finite there, and the certified series
    # prices (96.551482683458504 by a 30-digit mpmath Lewis quadrature)
    capsys.readouterr()
    assert cli_main(["price", "--model", "vg", "--sigma", "0.5", "--nu", "1",
                     "--T", "64", "--K", "100", "--j", "4",
                     "--eps", "1e-10"]) == 0
    assert "price = 96.55148268\nM = 249.6527905  L = 249.6527905  " \
        "N = 310541\n" in capsys.readouterr().out


def test_tiny_sigma_drifted_vg_certifies_a_gamma_law_price(capsys):
    # sigma^4 = 1e-340 underflows, sigma^2 nu does not: X + theta T is a
    # gamma law of shape T/nu and scale eta+ = 0.015 minus one of scale
    # 1.7e-170, which is 0 to every digit here, so the put is a gamma-law
    # integral, taken by mpmath at 30 digits
    argv = ["price", "--model", "vg", "--sigma", "1e-85", "--nu", "0.05",
            "--theta", "0.3", "--T", "10", "--j", "40", "--n", "2",
            "--eps", "1e-4"]
    assert cli_main(argv) == 0
    price = float(capsys.readouterr().out.split()[2])
    model = VG(1e-85, 0.05, 0.3)
    k, eta, _ = bilateral_gamma(model, 10.0)
    mu = centralized_cf(model, MarketContext(100.0, 0.0, 10.0)).mu
    with mp.workdps(30):
        k, eta = mp.mpf(k), mp.mpf(eta)
        shift = mp.mpf(mu) - mp.mpf(0.3) * 10

        def put(g):
            return ((100 - mp.exp(shift + g)) * g ** (k - 1) * mp.exp(-g / eta)
                    / (mp.gamma(k) * eta ** k))

        ref = mp.quad(put, [0, mp.log(100) - shift])
    assert abs(price - ref) <= 1e-4


# stdout of the CLI as recorded before `price` and `tune` shared their
# request-building code
CLI_STDOUT = {
    "price-bs-put": (
        ["price", "--model", "bs", "--sigma", "0.2", "--eps", "1e-8"],
        "price = 7.965567455\n"
        "M = 6.939168087  L = 6.939168087  N = 179\n"
        "certified tolerance = 1e-08\n"),
    "price-fmls-call": (
        ["price", "--model", "fmls", "--alpha", "1.5597", "--sigma", "0.1486",
         "--T", "1", "--S0", "100", "--K", "100", "--r", "0",
         "--payoff", "call", "--eps", "1e-2"],
        "price = 9.740967983\n"
        "M = 69.03695125  L = 175.9622248  N = 5451\n"
        "certified tolerance = 0.01\n"),
    "price-cauchy-digital": (
        ["price", "--model", "cauchy", "--payoff", "digital", "--d", "1.23",
         "--eps", "1e-3"],
        "price = 0.7824861822\n"
        "M = 1273.239545  L = 3956.251301  N = 66666\n"
        "certified tolerance = 0.001\n"),
    "tune-bs": (
        ["tune", "--model", "bs", "--sigma", "0.2", "--T", "1", "--K", "100",
         "--eps", "1e-8", "--n", "8", "--j", "40"],
        "M = 6.939168087  L = 6.939168087  N = 179\n"
        "  M: even-moment tail rule, order 8\n"
        "  L: equal to M (semi-heavy tails)\n"
        "  N: series bound at derivative order 40, H_41 from closed-form-gauss\n"),
    "tune-fmls": (
        ["tune", "--model", "fmls", "--alpha", "1.5597", "--sigma", "0.1486",
         "--eps", "1e-2"],
        "M = 69.03695125  L = 175.9622248  N = 5451\n"
        "  M: Pareto tail-mass rule (index 1.56)\n"
        "  L: max of M and the substitution-term rule\n"
        "  N: series bound at derivative order 40, H_41 from closed-form-stable\n"),
}


@pytest.mark.parametrize("case", sorted(CLI_STDOUT))
def test_cli_stdout_unchanged(case, capsys):
    argv, expected = CLI_STDOUT[case]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == expected


def test_cli_experiment_writes_csv(tmp_path, capsys):
    path = os.fspath(tmp_path / "t1.csv")
    rc = cli_main(["experiment", "--id", "table1", "--out", path])
    capsys.readouterr()
    assert rc == 0
    assert os.path.exists(path)


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("# lognormal desk setup\nmodel = bs\nsigma = 0.2\nT = 1\n")
    rc = cli_main(["tune", "--config", os.fspath(cfg), "--K", "100",
                   "--eps", "1e-8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "N = 179" in out
    bad = tmp_path / "bad.cfg"
    bad.write_text("volatility = 0.2\n")
    assert cli_main(["tune", "--config", os.fspath(bad), "--eps", "1e-8"]) == 2


def test_cli_config_file_sets_market_inputs(tmp_path, capsys):
    # S0, r and T from the file are used; a flag still overrides the file
    cfg = tmp_path / "long.cfg"
    cfg.write_text("model = bs\nsigma = 0.2\nS0 = 90\nr = 0.03\nT = 4\n")

    def stdout(*argv):
        assert cli_main(list(argv) + ["--K", "100", "--eps", "1e-8"]) == 0
        return capsys.readouterr().out

    bs = ("--model", "bs", "--sigma", "0.2")
    from_file = stdout("tune", "--config", os.fspath(cfg))
    assert from_file == stdout("tune", *bs, "--S0", "90", "--r", "0.03",
                               "--T", "4")
    assert from_file.startswith("M = 13.87833617  L = 13.87833617  N = 177\n")
    assert (stdout("price", "--config", os.fspath(cfg))
            == stdout("price", *bs, "--S0", "90", "--r", "0.03", "--T", "4"))
    assert (stdout("tune", "--config", os.fspath(cfg), "--T", "1")
            == stdout("tune", *bs, "--S0", "90", "--r", "0.03", "--T", "1"))


def test_cli_price_digital(capsys):
    rc = cli_main(["price", "--model", "cauchy", "--payoff", "digital",
                   "--d", "1.23", "--eps", "1e-3"])
    out = capsys.readouterr().out
    assert rc == 0
    price = float(out.splitlines()[0].split("=")[1])
    assert abs(price - cauchy_cdf(1.23)) <= 1e-3  # certified tolerance


@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_cli_every_experiment_writes_csv(exp_id, tmp_path, capsys):
    path = os.fspath(tmp_path / f"{exp_id}.csv")
    rc = cli_main(["experiment", "--id", exp_id, "--out", path,
                   "--n-max-exp", "8"])
    capsys.readouterr()
    assert rc == 0
    with open(path) as fh:
        text = fh.read()
    assert text.startswith("# coskit-version:")
    assert len([ln for ln in text.splitlines() if not ln.startswith("#")]) >= 2


def test_experiment_ids_complete():
    assert set(EXPERIMENT_IDS) == {
        "table1", "vg_counterexample", "fmls_study", "convergence_bs",
        "convergence_cauchy", "convergence_fmls", "l_optimal"}


def test_experiment_config_validates_id():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nope")


def test_run_experiment_dispatch():
    out = run_experiment(ExperimentConfig(experiment="convergence_cauchy",
                                          n_max_exp=8))
    assert "linear(0.1)" in out["results"]


@pytest.mark.parametrize("exp_id", ["l_optimal", "convergence_bs"])
def test_sweeps_too_short_to_fit_exit_2_before_running(exp_id, monkeypatch,
                                                       capsys):
    import coskit.harness as harness
    # the least n_max_exp leaves exactly two sweep points N = 2^e at
    # N >= _FIT_N_MIN
    least = harness._MIN_N_MAX_EXP
    assert 2 ** (least - 2) < harness._FIT_N_MIN <= 2 ** (least - 1)

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(harness, "run_convergence", no_sweep)
    assert cli_main(["experiment", "--id", exp_id,
                     "--n-max-exp", str(least - 1)]) == 2
    assert "n_max_exp" in capsys.readouterr().err
    ExperimentConfig(exp_id, n_max_exp=least)


def test_short_window_gives_nan_range_slope():
    # below the least n_max_exp both fits see one point in their window
    for res in run_l_optimal(n_max_exp=6)["results"].values():
        assert math.isnan(res["range_slope"])
        assert math.isnan(res["slope"])
        assert [n for n, _, _ in res["optimal_rows"]] == [16, 32, 64]


def test_os_errors_exit_2(tmp_path, monkeypatch, capsys):
    import coskit.harness as harness

    def no_study(cfg):
        raise AssertionError("the study ran")

    missing = os.fspath(tmp_path / "missing.cfg")
    assert cli_main(["tune", "--config", missing, "--eps", "1e-8"]) == 2
    assert cli_main(["tune", "--config", os.fspath(tmp_path),
                     "--eps", "1e-8"]) == 2
    # an --out that cannot be opened exits before the study runs
    monkeypatch.setattr(harness, "run_experiment", no_study)
    out = os.fspath(tmp_path / "no-such-dir" / "x.csv")
    for bad in (out, os.fspath(tmp_path)):
        assert cli_main(["experiment", "--id", "convergence_cauchy",
                         "--n-max-exp", "7", "--out", bad]) == 2
    assert not os.path.exists(out)
    assert capsys.readouterr().err.count("error: ") == 4


def test_out_to_a_device_file_or_fifo(tmp_path, capsys):
    import threading

    args = ["experiment", "--id", "convergence_cauchy", "--n-max-exp", "7"]
    assert cli_main(args + ["--out", os.devnull]) == 0
    assert capsys.readouterr().out == f"wrote {os.devnull}\n"
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    rc = []
    writer = threading.Thread(
        target=lambda: rc.append(cli_main(args + ["--out", os.fspath(fifo)])))
    writer.start()
    text = fifo.read_text()
    writer.join(timeout=30)
    if writer.is_alive():  # the FIFO was opened twice: free the writer
        fifo.read_text()
        writer.join()
    assert rc == [0]
    assert _strip_nondet(text) == _strip_nondet(run_experiment(
        ExperimentConfig("convergence_cauchy", n_max_exp=7))["csv"])


def test_failed_study_keeps_an_existing_out_file(tmp_path, monkeypatch):
    import coskit.harness as harness

    def failing_study(cfg):
        raise NotReachedWithinCap("the study failed")

    kept = "kept\n"
    out = tmp_path / "x.csv"
    out.write_text(kept)
    new = tmp_path / "new.csv"
    monkeypatch.setattr(harness, "run_experiment", failing_study)
    for path in (out, new):
        assert cli_main(["experiment", "--id", "table1",
                         "--out", os.fspath(path)]) == 3
    assert out.read_text() == kept
    assert not new.exists()
    monkeypatch.undo()
    assert cli_main(["experiment", "--id", "convergence_cauchy",
                     "--n-max-exp", "8", "--out", os.fspath(out)]) == 0
    assert _strip_nondet(out.read_text()) == _strip_nondet(run_experiment(
        ExperimentConfig("convergence_cauchy", n_max_exp=8))["csv"])

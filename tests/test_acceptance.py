"""Acceptance suite: every shipped guarantee, one test per criterion, each
printed as a single PASS/FAIL line (run with -s to see them).

Where a criterion pins a value that follows from a closed form -- the
square-root series rule for the variance-gamma study, the even-periodized
alias error of the Cauchy digital, the range that balances that alias error
against the series tail -- the test derives the value itself, next to the
check that uses it, and does not read it from the harness output it is
compared against.
"""

import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from coskit.bounds import (bl_bound_heavy, bl_bound_semiheavy, hj_closed_form,
                           hj_numeric, series_truncation_bound)
from coskit.cos_engine import (DigitalBelow, Put, cos_coefficients,
                               cos_price, payoff_coefficients)
from coskit.errors import NoClosedForm
from coskit.harness import (CAUCHY_DIGITAL_SETUP, OPTIMAL_RANGE_GRID,
                            VG_SETUP, run_convergence_experiment,
                            run_fmls_study, run_l_optimal, run_table1,
                            run_vg_counterexample)
from coskit.models import (BS, FMLS, NIG, VG, Cauchy, MarketContext,
                           SemiHeavyTail, Stable, centralized_cf,
                           tail_profile)
from coskit.reference import (bl_bruteforce, black_scholes_put,
                              closed_form_density,
                              density_cos_coefficients, density_on_grid,
                              derivative_by_inversion,
                              gauss_tail_cos_integrals, hj_density_sup)
from coskit.tuning import TuningRequest, tune

CTX = MarketContext(S0=100.0, r=0.0, T=1.0)


def _report(num: int, checks):
    """checks: [(label, ok, detail)]; print one line, fail on any miss."""
    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{lab}: {txt}" + ("" if good else "  <-- FAIL")
                       for lab, good, txt in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    bad = [lab for lab, good, _ in checks if not good]
    assert not bad, f"criterion {num} failed sub-checks: {bad}"


# ---------------------------------------------------------------------------
# 1. series-length table reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_series_length_table():
    t0 = time.time()
    out = run_table1(time_reps=8)
    elapsed = time.time() - t0
    expected = [897, 271, 200, 179, 172, 170, 171]
    got = [row[1] for row in out["rows"]]
    checks = [
        ("N per order +-1", all(abs(g - e) <= 1 for g, e in zip(got, expected)),
         f"{got}"),
        ("N_min 120 +-5%", abs(out["n_min"] - 120) <= 6, f"{out['n_min']}"),
        ("runtime < 10 s", elapsed < 10.0, f"{elapsed:.2f} s"),
    ]
    _report(1, checks)


# ---------------------------------------------------------------------------
# 2. certified pricing
# ---------------------------------------------------------------------------

def test_criterion_2_certified_pricing():
    t0 = time.time()
    cf = centralized_cf(BS(0.2), CTX)
    worst = 0.0
    for tol in (1e-4, 1e-6, 1e-8):
        for K in (80.0, 90.0, 100.0, 110.0, 120.0):
            params = tune(TuningRequest(BS(0.2), CTX, payoff_bound=K, tol=tol))
            price = cos_price(cf, Put(K), CTX, params).price
            worst = max(worst, abs(price - black_scholes_put(CTX, 0.2, K)) / tol)
    elapsed = time.time() - t0
    checks = [
        ("every |err| <= tol", worst <= 1.0, f"worst |err|/tol = {worst:.3g}"),
        ("runtime < 1 s", elapsed < 1.0, f"{elapsed:.2f} s"),
    ]
    _report(2, checks)


# ---------------------------------------------------------------------------
# 3. variance-gamma counterexample
# ---------------------------------------------------------------------------

def test_criterion_3_vg_counterexample():
    s = VG_SETUP
    out = run_vg_counterexample()
    n_rule = out["n_rule"]

    # The square-root rule, i.e. the J = 0 case of series_truncation_bound
    # solved for N as in tune: N = (4 H1 L / pi * 6 xi / eps)^2 with
    # xi = sqrt(2 L) K.  L = (2 K mu4 / eps)^(1/4) is the fourth-moment range
    # rule; for theta = 0 the VG cumulants kappa2 = sigma^2 T and
    # kappa4 = 3 sigma^4 nu T give mu4 = kappa4 + 3 kappa2^2
    # = 3 sigma^4 T (T + nu).  At H1 = 217.95, L = 0.9064, K = 100 and
    # eps = 0.01 this is 4.13e14, the value that
    # test_bounds.py::test_sqrt_rule_forces_astronomical_n_for_vg pins.
    K, eps = s["K"], s["tol"]
    mu4 = 3.0 * s["sigma"] ** 4 * s["T"] * (s["T"] + s["nu"])
    L = (2.0 * K * mu4 / eps) ** 0.25
    xi = math.sqrt(2.0 * L) * K
    n_sqrt = (4.0 * out["h1_sup"] * L / math.pi * 6.0 * xi / eps) ** 2

    # tune certifies the same N: at T = 0.25, nu = 0.2 the density has one
    # bounded derivative only (J + 2 < 2T/nu = 2.5 allows J = 0)
    model = VG(s["sigma"], s["nu"], s["theta"])
    ctx = MarketContext(S0=s["S0"], r=s["r"], T=s["T"])
    params = tune(TuningRequest(model, ctx, payoff_bound=K, tol=eps,
                                moment_order=4),
                  h_next=hj_density_sup(centralized_cf(model, ctx), 1))
    on_sqrt_path = "square-root" in params.provenance["N"]

    checks = [
        ("reference 1.809833 +-5e-6", abs(out["reference"] - 1.809833) <= 5e-6,
         f"{out['reference']:.7f}"),
        ("H1 ~ 218 +-2%", abs(out["h1_sup"] - 218.0) <= 0.02 * 218.0,
         f"{out['h1_sup']:.2f}"),
        ("rule-N = (4 H1 L/pi * 6 xi/eps)^2 to rel 1e-12",
         abs(n_rule - n_sqrt) <= 1e-12 * n_sqrt,
         f"{n_rule:.6g} vs {n_sqrt:.6g}"),
        ("rule-N = tune's certified N up to the ceiling",
         on_sqrt_path and n_rule <= params.N < n_rule + 1.0,
         f"N = {params.N} ({params.provenance['N']})"),
        ("rule-N >= 1e12", n_rule >= 1e12, f"{n_rule:.3g}"),
        ("COS N=50 within 0.01", out["err_n50"] <= 0.01,
         f"err {out['err_n50']:.4g}"),
    ]
    _report(3, checks)


# ---------------------------------------------------------------------------
# 4. heavy-tail study
# ---------------------------------------------------------------------------

def test_criterion_4_fmls_study():
    t0 = time.time()
    out = run_fmls_study(time_reps=8)
    elapsed = time.time() - t0
    p = out["params"]
    checks = [
        ("M = 69 +-1", abs(p.M - 69.0) <= 1.0, f"{p.M:.3f}"),
        ("L = 176 +-2", abs(p.L - 176.0) <= 2.0, f"{p.L:.3f}"),
        ("N = 5451 +-1%", abs(p.N - 5451) <= 0.01 * 5451, f"{p.N}"),
        ("price within 1e-2 of 9.7433708",
         abs(out["price"] - 9.7433708) <= 1e-2, f"{out['price']:.6f}"),
        ("N_min 1200 +-10%", abs(out["n_min"] - 1200) <= 120,
         f"{out['n_min']}"),
        ("runtime < 30 s", elapsed < 30.0, f"{elapsed:.2f} s"),
    ]
    _report(4, checks)


# ---------------------------------------------------------------------------
# 5. convergence orders
# ---------------------------------------------------------------------------

def _cauchy_digital_alias_error(L, d, n_max=100_000):
    """Signed N -> infinity error of the COS digital P(X < d) for the standard
    Cauchy priced with M = L.

    With coefficients read off the characteristic function, the cosine series
    on [-L, L] converges to the even 4L-periodic image sum of the density, so
    the limiting price is sum_n [F(4nL + d) - F(4nL - 2L - d)] and the error
    is that minus F(d), with F(y) = 1/2 + atan(y)/pi.  For 2L > d both
    arguments of an n != 0 term share a sign, so the term is written as one
    arctan of their difference, which avoids subtracting two numbers close
    to 1; the n = 0 term minus F(d) is -atan(1/(2L + d))/pi.
    Beyond |n| = n_max the terms are (2L + 2d)/(pi (4nL + d)(4nL - 2L - d)),
    about (L + d)/(8 pi L^2 n^2) each, and their sum over both sides is added
    in closed form so that the cut-off does not bias the result.
    """
    n = np.arange(1, n_max + 1, dtype=float)
    n = np.concatenate([-n, n])
    a = 4.0 * n * L + d
    b = 4.0 * n * L - 2.0 * L - d
    images = float(np.sum(np.arctan((2.0 * L + 2.0 * d) / (1.0 + a * b))))
    tail = (L + d) / (4.0 * L * L * (n_max + 0.5))
    return (images + tail) / math.pi - math.atan(1.0 / (2.0 * L + d)) / math.pi


def test_criterion_5_convergence_orders():
    t0 = time.time()
    cauchy = run_convergence_experiment("cauchy", n_max_exp=16)["results"]
    fmls = run_convergence_experiment("fmls", n_max_exp=16)["results"]
    bs = run_convergence_experiment("bs", n_max_exp=16)["results"]
    elapsed = time.time() - t0

    # Cauchy digital below d = 1.23 with M = L = N/10.  The O(1/L) parts of
    # the image sum cancel for a symmetric density: the n = 0 image gives
    # -1/(2 pi L) and the n != 0 images sum to +1/(2 pi L).  The leading
    # error is then pi d / (12 L^2), so L = N/10 converges at order -2.  The
    # series tail ~ 2L/(pi^2 N sqrt(1 + d^2)) e^(-N pi/(2L)) is about 2e-9
    # here, under 0.1% of the alias error up to N = 4096.
    d = CAUCHY_DIGITAL_SETUP["threshold"]
    cauchy_slope = cauchy["linear(0.1)"]["slope"]
    alias_rel = max(
        abs(r.error / abs(_cauchy_digital_alias_error(r.N / 10.0, d)) - 1.0)
        for r in cauchy["linear(0.1)"]["records"] if 64 <= r.N <= 4096)
    fmls_slope = fmls["linear(0.01)"]["slope"]
    bs_sqrt = {r.N: r.error for r in bs["sqrt(0.2)"]["records"]}
    plateau = {name: [r.error for r in bs[name]["records"]]
               for name in ("constant(0.8)", "constant(4)")}
    narrow = plateau["constant(0.8)"]
    wide = plateau["constant(4)"]
    plateau_flat = narrow[-1] >= 0.5 * min(narrow)
    plateau_gap = narrow[-1] >= 1e3 * max(wide[-1], 1e-300)

    checks = [
        ("Cauchy digital slope -2.0 +-0.15 (L=N/10)",
         abs(cauchy_slope - (-2.0)) <= 0.15, f"{cauchy_slope:.3f}"),
        ("Cauchy error = arctan image sum within 1% (64<=N<=4096)",
         alias_rel <= 0.01, f"max rel diff {alias_rel:.2e}"),
        ("FMLS slope -1.57 +-0.15 (L=N/100)",
         abs(fmls_slope - (-1.57)) <= 0.15, f"{fmls_slope:.3f}"),
        ("BS sqrt-rule error < 1e-10 by N=1024", bs_sqrt[1024] < 1e-10,
         f"{bs_sqrt[1024]:.2e}"),
        ("constant-range BS plateaus", plateau_flat and plateau_gap,
         f"narrow plateau {narrow[-1]:.2e}, wide {wide[-1]:.2e}"),
        ("runtime < 5 min", elapsed < 300.0, f"{elapsed:.1f} s"),
    ]
    _report(5, checks)


# ---------------------------------------------------------------------------
# 6. optimal-range growth
# ---------------------------------------------------------------------------

def _cauchy_balance_range(N, d):
    """Half-range at which the Cauchy digital's alias error pi d / (12 L^2)
    equals the series-tail envelope 2L/(pi^2 N sqrt(1 + d^2)) e^(-N pi/(2L)).
    Compared in logs: the envelope underflows at small L."""
    def log_gap(L):
        log_alias = math.log(math.pi * d / (12.0 * L * L))
        log_tail = (math.log(2.0 * L / (math.pi ** 2 * N * math.sqrt(1 + d * d)))
                    - N * math.pi / (2.0 * L))
        return log_alias - log_tail
    return brentq(log_gap, 1.0, float(N), xtol=1e-12)


def test_criterion_6_optimal_range_slopes():
    out = run_l_optimal(n_max_exp=14)["results"]

    # The harness fits range_slope over N >= 64 (the window its CSV metadata
    # records).  Below that the arg-min of |error| sits where the signed error
    # crosses zero, at pre-asymptotic ranges.  The Cauchy optimum balances the
    # alias error of criterion 5 against the series tail; that model's L*
    # (23, 39, 66, ..., 2091 for N = 64 ... 16384) grows like N^0.81.  With
    # the uncancelled one-sided tail mass 1/(pi L) as the alias term it would
    # be 0.83, so the cancellation moves the slope by only about 0.02.
    d = CAUCHY_DIGITAL_SETUP["threshold"]
    rows = [r for r in out["cauchy"]["optimal_rows"] if r[0] >= 64]
    ns = np.array([r[0] for r in rows], dtype=float)
    l_grid = np.array([r[1] for r in rows])
    l_model = np.array([_cauchy_balance_range(n, d) for n in ns])
    s_model = float(np.polyfit(np.log2(ns), np.log2(l_model), 1)[0])
    worst_ratio = float(np.max(np.maximum(l_grid / l_model, l_model / l_grid)))

    s_cauchy = out["cauchy"]["range_slope"]
    s_fmls = out["fmls"]["range_slope"]
    assert len(OPTIMAL_RANGE_GRID) == 201
    checks = [
        (f"Cauchy range slope {s_model:.3f} (balance model) +-0.1",
         abs(s_cauchy - s_model) <= 0.1, f"{s_cauchy:.3f}"),
        ("Cauchy grid L* within 1.2x of the balance model for N >= 64",
         worst_ratio <= 1.2, f"worst ratio {worst_ratio:.3f}"),
        ("FMLS range slope 0.86 +-0.1", abs(s_fmls - 0.86) <= 0.1,
         f"{s_fmls:.3f}"),
    ]
    _report(6, checks)


# ---------------------------------------------------------------------------
# 7. bound validity on randomized configurations
# ---------------------------------------------------------------------------

def _draw_config(rng):
    kind = rng.choice(["bs", "nig", "vg", "cauchy", "fmls", "stable"],
                      p=[0.30, 0.25, 0.15, 0.18, 0.07, 0.05])
    if kind == "bs":
        model = BS(float(rng.uniform(0.1, 0.4)))
        ctx = MarketContext(100.0, 0.0, float(rng.uniform(0.25, 2.0)))
        J = int(rng.integers(1, 7))
    elif kind == "nig":
        model = NIG(float(rng.uniform(1.2, 3.0)), float(rng.uniform(0.4, 1.5)))
        ctx = MarketContext(100.0, 0.0, float(rng.uniform(0.5, 2.0)))
        J = int(rng.integers(1, 6))
    elif kind == "vg":
        nu = 0.2
        T = float(rng.uniform(1.2, 2.5))  # smooth enough for J <= cap
        model = VG(float(rng.uniform(0.08, 0.2)), nu, 0.0)
        ctx = MarketContext(100.0, 0.0, T)
        cap = math.ceil(2 * T / nu - 2) - 1
        J = int(rng.integers(1, min(cap, 4) + 1))
    elif kind == "cauchy":
        model, ctx = Cauchy(), CTX
        J = int(rng.integers(1, 5))
    elif kind == "fmls":
        model = FMLS(float(rng.uniform(1.2, 1.9)), float(rng.uniform(0.1, 0.3)))
        ctx = CTX
        J = int(rng.integers(1, 4))
    else:
        model = Stable(float(rng.uniform(1.0, 1.8)),
                       float(rng.uniform(-1.0, 1.0)),
                       float(rng.uniform(0.4, 0.9)))
        ctx = CTX
        J = int(rng.integers(1, 4))

    prof = tail_profile(model, ctx)
    if isinstance(prof, SemiHeavyTail):
        L = prof.onset * float(rng.uniform(1.0, 1.8))
    else:
        L = prof.onset * float(rng.uniform(1.0, 6.0))
    n_floor = int(max(math.ceil(4 * L / math.pi), 8))
    N = min(n_floor * int(2 ** rng.integers(1, 7)), 4096)
    return model, ctx, L, N, J, prof


def test_criterion_7_bound_validity():
    rng = np.random.default_rng(20240817)
    n_configs = 100
    violations = []
    for i in range(n_configs):
        model, ctx, L, N, J, prof = _draw_config(rng)
        cf = centralized_cf(model, ctx)
        dens = closed_form_density(model, ctx)
        if dens is None:
            dens = (lambda c: lambda xs: density_on_grid(c, xs))(cf)

        k_max_b = 1024
        k_big = int(max(4 * N, N + 2048, k_max_b))
        a = density_cos_coefficients(dens, L, k_big)

        # series-tail side: bound with oracle boundary values vs the true norm
        truth = math.sqrt(L * float(np.sum(a[N + 1:] ** 2)))
        bsums = []
        for j in range(1, J + 1):
            d = derivative_by_inversion(cf, j, [-L, L])
            bsums.append(abs(d[0]) + abs(d[1]))
        try:
            h_top = hj_closed_form(model, ctx, J + 1).value
        except NoClosedForm:
            h_top = hj_numeric(cf, J + 1).value
        bound = series_truncation_bound(h_top, bsums, L, N, J)
        if bound < truth:
            violations.append((i, "series", model, L, N, J, bound, truth))

        # B(L) side: closed-form bound vs brute-force partial sum
        if isinstance(model, BS):
            iks = gauss_tail_cos_integrals(L, model.sigma * math.sqrt(ctx.T),
                                           k_max_b)
        else:
            c = cos_coefficients(cf, L, k_max_b)
            iks = L * (c - a[:k_max_b + 1])
        ps = bl_bruteforce(iks, L, k_max_b)
        if isinstance(prof, SemiHeavyTail):
            b_bound = bl_bound_semiheavy(math.exp(prof.log_amplitude),
                                         prof.rate, L, L)
        else:
            b_bound = bl_bound_heavy(prof.amplitude, prof.index, L)
        if ps.sqrt_partial > b_bound:
            violations.append((i, "bl", model, L, N, J,
                               b_bound, ps.sqrt_partial))

    checks = [
        (f"zero violations over {n_configs} configs", not violations,
         f"{len(violations)} violation(s)" + (f", first: {violations[0]}"
                                              if violations else "")),
    ]
    _report(7, checks)


# ---------------------------------------------------------------------------
# 8. oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_8_oracle_equivalence():
    cf = centralized_cf(BS(0.2), CTX)
    dens = closed_form_density(BS(0.2), CTX)

    # density coefficients against direct quadrature
    L = 5.0
    c = cos_coefficients(cf, L, 64)
    worst_c = 0.0
    for k in range(1, 65):
        w = k * math.pi / (2.0 * L)
        cp = quad(lambda x: float(dens(x)), -2.4, 2.4, weight="cos", wvar=w,
                  limit=400, epsabs=1e-15)[0]
        sp = quad(lambda x: float(dens(x)), -2.4, 2.4, weight="sin", wvar=w,
                  limit=400, epsabs=1e-15)[0]
        worst_c = max(worst_c,
                      abs(c[k] - (math.cos(w * L) * cp - math.sin(w * L) * sp) / L))

    # payoff coefficients against direct quadrature
    worst_v = 0.0
    for M, L2 in ((5.0, 5.0), (3.0, 5.0), (2.0, 8.0)):
        vp = payoff_coefficients(Put(100.0), CTX, cf.mu, M, L2, 64)
        d = min(math.log(100.0) - cf.mu, M)
        vd = payoff_coefficients(DigitalBelow(0.37), CTX, cf.mu, M, L2, 64)
        for k in range(0, 65):
            qp = quad(lambda x: (100.0 - math.exp(x + cf.mu))
                      * math.cos(k * math.pi * (x + L2) / (2 * L2)),
                      -M, d, limit=500, epsabs=1e-13)[0]
            worst_v = max(worst_v, abs(vp[k] - qp))
            qd = quad(lambda x: math.cos(k * math.pi * (x + L2) / (2 * L2)),
                      -M, min(0.37, M), limit=300, epsabs=1e-14)[0]
            worst_v = max(worst_v, abs(vd[k] - qd))

    # density recovery against the Gaussian closed form
    xs = np.linspace(-1.0, 1.0, 21)
    worst_f = float(np.max(np.abs(derivative_by_inversion(cf, 0, xs)
                                  - dens(xs))))

    checks = [
        ("density coefficients vs quadrature <= 1e-10", worst_c <= 1e-10,
         f"{worst_c:.2e}"),
        ("payoff coefficients vs quadrature <= 1e-10", worst_v <= 1e-10,
         f"{worst_v:.2e}"),
        ("inversion vs Gaussian closed form <= 1e-10", worst_f <= 1e-10,
         f"{worst_f:.2e}"),
    ]
    _report(8, checks)


# ---------------------------------------------------------------------------
# 9. timing ordering
# ---------------------------------------------------------------------------

def test_criterion_9_timing_ordering():
    out = run_fmls_study(time_reps=32)
    ratio = out["cpu_tuned_ms"] / out["cpu_nmin_ms"]
    checks = [
        ("tuned-N pricing within 5x of minimal-N pricing", ratio <= 5.0,
         f"ratio {ratio:.2f} (tuned {out['cpu_tuned_ms']:.3f} ms, "
         f"minimal {out['cpu_nmin_ms']:.3f} ms)"),
    ]
    _report(9, checks)

"""Certified option pricing in three lines.

The point of coskit is that you never guess the truncation range or the
number of series terms: you state a price tolerance and the tuner derives
parameters that provably achieve it.  Here we price an at-the-money put
under three models and check the certificate against independent references.
"""

from coskit import (BS, NIG, VG, MarketContext, Put, TuningRequest,
                    centralized_cf, cos_price, tune)
from coskit.reference import black_scholes_put, carr_madan_call

ctx = MarketContext(S0=100.0, r=0.01, T=1.0)
K = 105.0
tol = 1e-6

print(f"European put, K={K}, S0={ctx.S0}, r={ctx.r}, T={ctx.T}, "
      f"tolerance {tol:g}\n")

for model in (BS(sigma=0.2), NIG(alpha=2.0, delta=0.7), VG(0.12, 0.2, 0.0)):
    name = type(model).__name__
    # VG at T=1 with nu=0.2 is smooth enough for the series rule
    params = tune(TuningRequest(model, ctx, payoff_bound=K, tol=tol,
                                moment_order=4))
    cf = centralized_cf(model, ctx)
    result = cos_price(cf, Put(K), ctx, params)

    # independent reference: closed form for the lognormal, damped-transform
    # pricing for the rest (put obtained through parity)
    if isinstance(model, BS):
        ref = black_scholes_put(ctx, model.sigma, K)
    else:
        import math
        ref = carr_madan_call(cf, ctx, K) - ctx.S0 + K * math.exp(-ctx.r * ctx.T)

    print(f"{name:4s}  price = {result.price:.8f}   reference = {ref:.8f}")
    print(f"      |error| = {abs(result.price - ref):.2e}  "
          f"(certified <= {tol:g})")
    print(f"      ranges M = L = {params.L:.3f}, terms N = {params.N}, "
          f"priced in {result.elapsed_s * 1e3:.2f} ms")
    for field in ("M", "L", "N"):
        print(f"        {field}: {params.provenance[field]}")
    print()

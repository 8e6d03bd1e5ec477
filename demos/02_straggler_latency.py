"""The shifted-exponential straggler model: closed forms vs simulation.

Each worker's completion time for a length-s task is
s * (1 + Exp(mu)/mu-ish): a deterministic offset plus an exponential
tail.  Waiting for the K-th of P workers has mean
s * (1 + (H_P - H_{P-K}) / mu) with exact harmonic numbers.
"""

import numpy as np

import shortdot as sd

model = sd.DelayModel(mu=5.0)

params = sd.validate_params(P=20, K=18, M=10, N_raw=785)  # pads to N=800
print(f"task length s = {params.s}; waiting for any {params.K} of {params.P}")

analytic = {
    "short-dot": sd.expected_time_short_dot(params, model),
    "uncoded": sd.expected_time_uncoded(params, model),
    "mds": sd.expected_time_mds(params, model),
    "repetition": sd.expected_time_repetition(params, model),
}

plans = {
    "short-dot": sd.plan_short_dot(params),
    "uncoded": sd.plan_uncoded(params),
    "mds": sd.plan_mds(params),
    "repetition": sd.plan_by_name("repetition", params),
}

print(f"\n{'strategy':<12} {'analytic':>10} {'monte carlo':>12} {'stderr':>9}")
for name in analytic:
    rep = sd.monte_carlo(plans[name], model, trials=200_000, seed=1)
    print(f"{name:<12} {analytic[name]:>10.2f} {rep.mc_mean:>12.2f} {rep.mc_stderr:>9.3f}")

# picking K: shorter tasks (small K) vs fewer waits (large K)
print("\nexpected time vs K at M=10 (the sweet spot is in between):")
for K in (10, 12, 14, 16, 18, 20):
    p = sd.validate_params(20, K, 10, 785)
    print(f"  K={K:2d}  s={p.s:4d}  E[T]={sd.expected_time_short_dot(p, model):8.2f}")

k_star, best = sd.optimize_k(20, 10, 800.0, model)
print(f"optimizer picks K*={k_star} with E[T]={best:.2f}")

# the samples really follow the advertised law
u = np.linspace(0.0, 0.999, 8)
print("\ninverse-CDF samples for s=480:", np.round(sd.sample_time(480.0, model, u), 1))

"""Walkthrough: encode a small matrix, task the workers, decode from a subset.

Computes A @ x for a 3 x 12 matrix on 6 workers so that any 5 finished
workers suffice, with each worker touching only 8 of the 12 coordinates.
"""

import numpy as np

import shortdot as sd

rng = np.random.default_rng(0)

# P workers, decode from any K, M true dot products, input length 12
params = sd.validate_params(P=6, K=5, M=3, N_raw=12)
print(f"parameters: {params}")
print(f"per-worker dot-product length s = {params.s} (vs full length {params.N})")

A = rng.standard_normal((3, 12))
x = rng.standard_normal(12)

gen = sd.build_generator(params)          # Chebyshev-node Vandermonde
code = sd.encode(A, gen, params)

print("\nencoded matrix F (enforced zeros shown as .):")
for row in code.F:
    print("  " + " ".join("   .  " if v == 0 else f"{v:6.2f}" for v in row))

# each worker sees only its support's coordinates of x
print("\nworker supports (1-based column indices):")
for i, support in enumerate(code.supports, start=1):
    print(f"  worker {i}: {support}")

outputs = sd.run_workers(code, x)

# pretend worker 3 straggles: decode from the other five
responders = [o for o in outputs if o.index != 3]
decoded = sd.decode(responders, gen, params)
print("\ndecoded A@x :", np.round(decoded, 10))
print("direct  A@x :", np.round(A @ x, 10))
print("max abs err :", np.max(np.abs(decoded - A @ x)))

# the same five outputs decode identically no matter which five they are
for drop in range(1, 7):
    alt = sd.decode([o for o in outputs if o.index != drop], gen, params)
    assert np.allclose(alt, decoded, rtol=1e-10)
print("decode is invariant to which K workers respond")

# errors instead of erasures: with P - K = 2 slack, one garbage output is
# correctable by exhaustive subset consistency
params_err = sd.validate_params(P=6, K=4, M=2, N_raw=12)
code_err = sd.encode(A[:2], sd.build_generator(params_err), params_err)
outs = sd.run_workers(code_err, x)
outs[2] = sd.WorkerOutput(index=3, value=outs[2].value + 1000.0)  # silent corruption
recovered = sd.decode_with_errors(outs, e_max=1, gen=code_err.generator, params=params_err)
print("\nwith one corrupted output, error decoder max abs err:",
      np.max(np.abs(recovered - A[:2] @ x)))

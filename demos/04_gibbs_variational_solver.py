"""Gibbs-type variational identities, attained in closed form and certified.

Two identities over the positive definite cone:

    Tr B = max_{X>0} Tr(X log B - X log X + X),           argmax X = B
    Tr exp(L + H* log(A) H)
         = max_{X>0} { -S_{H*}(X|A) + Tr(X L + A) },      argmax X = exp(L + H* log(A) H)

Both objectives have the gradient G - log X, so the solver takes the argmax
as exp(G) (G = log B, or L + H* log(A) H) and certifies it by the norm of
the gradient there, which is zero up to round-off.
"""

import numpy as np

from entropylab import (
    HermitianMatrix,
    SolverConfig,
    matrix_exp,
    matrix_log,
    maximize,
    random_hermitian,
    random_pd,
    trace_exp_functional,
)

rng = np.random.default_rng(3)

# Identity 1 on a visible instance.
B = random_pd(4, (0.3, 4.0), rng)
result = maximize("gibbs", {"B": B})
print("gibbs objective")
print(f"  Tr B            = {B.trace():.12f}")
print(f"  solver value    = {result.value:.12f}")
print(f"  |argmax - B|_F  = {np.linalg.norm(result.argmax.mat - B.mat, 'fro'):.3e}")
print(f"  certificate     = grad norm {result.final_grad_norm:.3e} at the argmax, "
      f"converged {result.converged}")

# Identity 2: the maximum reproduces the trace exponential functional.
m, n = 3, 2
A = random_pd(m, (0.3, 4.0), rng)
L = random_hermitian(n, 1.0, rng)
g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
H = 0.85 * g / np.linalg.norm(g, 2)

result = maximize("phi", {"A": A, "L": L, "H": H}, SolverConfig(grad_tol=1e-10))
target = trace_exp_functional(A, L, H)
x_star = matrix_exp(HermitianMatrix(L.mat + H.conj().T @ matrix_log(A).mat @ H))
print("\nphi objective")
print(f"  Tr exp(L + H* log(A) H) = {target:.12f}")
print(f"  solver value            = {result.value:.12f}")
print(f"  |argmax - closed form|  = {np.linalg.norm(result.argmax.mat - x_star.mat, 'fro'):.3e}")
print(f"  certificate             = grad norm {result.final_grad_norm:.3e}, "
      f"converged {result.converged}")

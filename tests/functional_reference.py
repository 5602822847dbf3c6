"""The trace functionals in matrix form, as the reference for the library.

The library evaluates each functional on the kept spectra of its arguments
(sums over pairs of eigenvalues weighted by |U_A* H U_B|^2).  These are the
formulas it used before: each forms the log, power or exp matrices of its
arguments, multiplies them and takes the trace, guarded against an
imaginary part above round-off.  Like the library, they take stacks of
values and broadcast their stack shapes.
"""

import numpy as np

from entropylab import functionals as fn
from entropylab.matrix_core import (
    HermitianMatrix,
    _adjoint,
    _trace,
    as_complex_matrix,
    matrix_exp,
    matrix_log,
    matrix_power,
)


def reduced_relative_entropy(A, B, H):
    h = fn._contraction_arg(H, A.dim, B.dim).mat
    log_a = matrix_log(A).mat
    log_b = matrix_log(B).mat
    t = (_trace(A.mat @ log_a)
         - _trace(_adjoint(h) @ A.mat @ h @ log_b)
         - _trace(A.mat) + _trace(B.mat))
    return fn._real_trace(t)


def relative_entropy(A, B):
    return reduced_relative_entropy(A, B, np.eye(A.dim))


def lieb_trace(A, B, H, p):
    h = as_complex_matrix(H, name="H")
    b_p = matrix_power(B, p).mat
    a_1p = matrix_power(A, 1.0 - p).mat
    return fn._real_trace(_trace(h @ b_p @ _adjoint(h) @ a_1p))


def lieb_trace_derivative_at_zero(A, B, H):
    h = as_complex_matrix(H, name="H")
    log_a = matrix_log(A).mat
    log_b = matrix_log(B).mat
    t = _trace(h @ log_b @ _adjoint(h) @ A.mat) - _trace(h @ _adjoint(h) @ A.mat @ log_a)
    return fn._real_trace(t)


def trace_exp_functional(A, L, H):
    h = fn._contraction_arg(H, A.dim, L.dim).mat
    return fn._trace_exp(L.mat + _adjoint(h) @ matrix_log(A).mat @ h)


def multi_trace_exp(inst):
    return fn._trace_exp(fn._conjugated_sum(inst.L, inst.H,
                                            [matrix_log(a).mat for a in inst.a_list]))


def lifted_value(lift):
    return trace_exp_functional(lift.a_hat, lift.l_hat, lift.h_hat)


def gt_jensen_rhs(inst):
    exp_l = matrix_exp(inst.L).mat
    total = np.zeros_like(exp_l)
    for h, b in zip(inst.H.blocks, inst.b_list):
        total += _adjoint(h) @ matrix_exp(b).mat @ h
    return fn._real_trace(_trace(exp_l @ total))


def gt_route_value(inst):
    arg = HermitianMatrix(fn._conjugated_sum(
        HermitianMatrix(np.zeros_like(inst.L.mat)), inst.H, [b.mat for b in inst.b_list]))
    return fn._real_trace(_trace(matrix_exp(inst.L).mat @ matrix_exp(arg).mat))


def gibbs_objective(X, B):
    log_b = matrix_log(B).mat
    log_x = matrix_log(X).mat
    return fn._real_trace(_trace(X.mat @ log_b) - _trace(X.mat @ log_x) + _trace(X.mat))

"""Scalar and vector potential functions underlying the formation controller.

All inter-agent forces act in sigma-distance space: distances are mapped
through the smoothed norm ``(sqrt(1 + eps*|z|^2) - 1) / eps``, which is
differentiable everywhere (including z = 0) and therefore yields smooth
potential gradients. The pairwise action potential combines a finite-range
smooth cutoff (``bump``) with an uneven sigmoid (``phi_uneven``) whose root
sits at the desired agent spacing.

Every function here is pure: it accepts scalars or numpy arrays and
never writes to its argument.
"""

import numpy as np


def _bump_in_place(x, lower, upper):
    """:func:`bump` over `x`, a float array it overwrites and returns."""
    if not (0.0 <= lower < upper):
        raise ValueError(f"bump cutoffs must satisfy 0 <= lower < upper, got {lower}, {upper}")
    if np.any(x < 0):
        raise ValueError("bump input must be non-negative")
    # the masks come first, so the ramp can overwrite its own input
    below, beyond = x < lower, ~(x < upper)     # NaN included, as beyond the upper cutoff
    x -= lower
    x *= np.pi
    x /= upper - lower
    np.cos(x, out=x)
    x += 1.0
    x *= 0.5                    # the half-cosine ramp, over every entry
    x[below] = 1.0
    x[beyond] = 0.0
    return x


def bump(z, lower, upper):
    """Smooth finite-range cutoff in [0, 1] of `z` >= 0: 1 on [0, lower), a
    half-cosine decay on [lower, upper), 0 on [upper, inf); continuous and
    monotone non-increasing. Raises ValueError unless 0 <= lower < upper and
    every input is non-negative."""
    out = _bump_in_place(np.array(z, dtype=float), lower, upper)
    return float(out) if out.ndim == 0 else out


def sigma_scalar(z, epsilon):
    """Sigma-norm of a scalar (or elementwise of an array of scalars).

    ``(sqrt(1 + eps*z^2) - 1) / eps``; used both for scalar distances and
    for dimensionless load ratios. Scalars are treated as 1-D vectors.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    z = np.asarray(z, dtype=float)
    out = (np.sqrt(1.0 + epsilon * z * z) - 1.0) / epsilon
    return float(out) if out.ndim == 0 else out


def sigma_grad_scale(norm_sq, epsilon):
    """Elementwise scale 1/sqrt(1 + eps*|z|^2) so that grad = z * scale.

    Vectorized helper for pairwise force computation; `norm_sq` is the
    squared Euclidean norm of the displacement(s).
    """
    return 1.0 / np.sqrt(1.0 + epsilon * np.asarray(norm_sq, dtype=float))


def _phi_uneven_in_place(s, a, b, c):
    """:func:`phi_uneven` over `s`, a float array it overwrites and returns."""
    if a <= 0 or b <= 0:
        raise ValueError("sigmoid scales a, b must be positive")
    s += c
    root = np.multiply(s, s, out=np.empty_like(s))
    root += 1.0
    np.sqrt(root, out=root)
    s *= a + b
    s /= root
    s += a - b
    s *= 0.5
    return s


def phi_uneven(z, a, b, c):
    """Uneven sigmoid: 0.5*[(a+b)*(z+c)/sqrt(1+(z+c)^2) + (a-b)].

    Strictly increasing with limits -b (z -> -inf) and a (z -> +inf).
    With c = (b-a)/sqrt(4ab) the root sits exactly at z = 0.
    """
    out = _phi_uneven_in_place(np.array(z, dtype=float), a, b, c)
    return float(out) if out.ndim == 0 else out


def phi_action(z_sigma, params):
    """Finite-range pairwise action potential over sigma-distance.

    Zero at the sigma-image of the desired spacing (equilibrium), negative
    (repulsive) below it, non-negative above, and identically zero at or
    beyond the sigma-image of the communication range. `params` is a
    :class:`mapflock.control.ControlParams`; negative distances are rejected.
    """
    z = np.asarray(z_sigma, dtype=float)
    # out= keeps the buffers arrays for a 0-d z, so the helpers can write in them
    out = _phi_uneven_in_place(np.subtract(z, params.d_sigma, out=np.empty_like(z)),
                               params.a, params.b, params.c)
    # gated last: IEEE products commute, so the bits are those of gate * sigmoid
    out *= _bump_in_place(np.divide(z, params.r_sigma, out=np.empty_like(z)),
                          params.gamma, 1.0)
    return float(out) if out.ndim == 0 else out

"""Scalar and vector potential functions underlying the formation controller.

All inter-agent forces act in sigma-distance space: distances are mapped
through the smoothed norm ``(sqrt(1 + eps*|z|^2) - 1) / eps``, which is
differentiable everywhere (including z = 0) and therefore yields smooth
potential gradients. The pairwise action potential combines a finite-range
smooth cutoff (``bump``) with an uneven sigmoid (``phi_uneven``) whose root
sits at the desired agent spacing.

Every function here is pure and accepts scalars or numpy arrays.
:func:`bump`, :func:`phi_uneven` and :func:`phi_action` work in place:
each computes its result into one fresh array it owns, never into its
argument, so a :func:`phi_action` call over P pairs holds at most three
P-sized arrays at once.
"""

import numpy as np


def bump(z, lower, upper):
    """Smooth finite-range cutoff in [0, 1].

    Equals 1 on [0, lower), decays as a half cosine on [lower, upper),
    and is 0 on [upper, inf). Continuous and monotone non-increasing.

    Parameters
    ----------
    z : float or array, >= 0
    lower, upper : cutoffs with 0 <= lower < upper

    Raises
    ------
    ValueError
        If the cutoffs are out of order or any input is negative.
    """
    if not (0.0 <= lower < upper):
        raise ValueError(f"bump cutoffs must satisfy 0 <= lower < upper, got {lower}, {upper}")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("bump input must be non-negative")
    out = np.subtract(z, lower, out=np.empty_like(z))
    out *= np.pi
    out /= upper - lower
    np.cos(out, out=out)
    out += 1.0
    out *= 0.5                  # the half-cosine ramp, over every entry
    out[z < lower] = 1.0
    out[~(z < upper)] = 0.0     # NaN included, as beyond the upper cutoff
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


def phi_uneven(z, a, b, c):
    """Uneven sigmoid: 0.5*[(a+b)*(z+c)/sqrt(1+(z+c)^2) + (a-b)].

    Strictly increasing with limits -b (z -> -inf) and a (z -> +inf).
    With c = (b-a)/sqrt(4ab) the root sits exactly at z = 0.
    """
    if a <= 0 or b <= 0:
        raise ValueError("sigmoid scales a, b must be positive")
    z = np.asarray(z, dtype=float)
    s = np.add(z, c, out=np.empty_like(z))
    root = np.multiply(s, s, out=np.empty_like(s))
    root += 1.0
    np.sqrt(root, out=root)
    s *= a + b
    s /= root
    s += a - b
    s *= 0.5
    return float(s) if s.ndim == 0 else s


def phi_action(z_sigma, params):
    """Finite-range pairwise action potential over sigma-distance.

    Zero at the sigma-image of the desired spacing (equilibrium), negative
    (repulsive) below it, non-negative above, and identically zero at or
    beyond the sigma-image of the communication range. `params` is a
    :class:`mapflock.control.ControlParams`; :func:`bump` rejects negatives.
    """
    z = np.asarray(z_sigma, dtype=float)
    out = phi_uneven(z - params.d_sigma, params.a, params.b, params.c)
    # gated last: IEEE products commute, so the bits are those of gate * sigmoid
    out *= bump(z / params.r_sigma, params.gamma, 1.0)
    return out

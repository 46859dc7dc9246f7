"""Smooth bump profiles and the band-limited mollifier kernel.

Two building blocks shared by the symbol constructors and the tile geometry:

* adapted bumps: C-infinity functions equal to 1 on the ``plateau``-shrink of
  an interval and vanishing outside it, all cut from one fixed transition
  profile so that runs are reproducible;
* a positive, even, L1-normalized kernel with compactly supported spectrum
  (squared Fejer shape), used to mollify sharp space cutoffs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "smooth_step",
    "adapted_bump",
    "soft_union",
    "fejer_sq_spectrum",
    "fejer_sq_cdf",
]


def smooth_step(u):
    """C-infinity ramp: 0 for u <= 0, 1 for u >= 1, strictly monotone between."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    if np.any(mid):
        t = u[mid]
        a = np.exp(-1.0 / t)
        b = np.exp(-1.0 / (1.0 - t))
        out[mid] = a / (a + b)
    return out


def adapted_bump(x, lo, hi, plateau=0.9):
    """Bump equal to 1 on the central ``plateau`` fraction of [lo, hi], 0 outside.

    The transition zones take up the remaining (1 - plateau) fraction of the
    interval, split evenly between the two ends.
    """
    if not lo < hi:
        raise ValueError("empty interval for bump")
    if not 0.0 < plateau < 1.0:
        raise ValueError("plateau fraction must lie in (0, 1)")
    tau = 0.5 * (1.0 - plateau) * (hi - lo)
    x = np.asarray(x, dtype=float)
    return smooth_step((x - lo) / tau) * smooth_step((hi - x) / tau)


def soft_union(values):
    """Combine bump arrays into one function <= 1 equal to 1 where any bump is 1.

    Uses 1 - prod(1 - b_k); smooth, supported in the union of supports.
    """
    acc = None
    for v in values:
        acc = v if acc is None else 1.0 - (1.0 - acc) * (1.0 - v)
    if acc is None:
        raise ValueError("need at least one bump")
    return acc


# --- squared-Fejer mollifier -------------------------------------------------
#
# rho(x) = (3a/2) * sinc(a x)^4 with sinc(t) = sin(pi t)/(pi t).  Positive and
# even, integral 1, spectrum supported in [-2a, 2a] (cubic B-spline shape).
# ``a`` is chosen by the caller so that 2a equals the requested spectral radius.


def _sinc4_primitive(x):
    """Integral of sinc(t)^4 from 0 to x (exact, via the sine integral)."""
    from scipy.special import sici  # only the Whitney layer needs scipy

    x = np.asarray(x, dtype=float)
    z = np.pi * x
    small = np.abs(z) < 1e-6
    zs = np.where(small, 1.0, z)
    si2, _ = sici(2.0 * zs)
    si4, _ = sici(4.0 * zs)
    main = (
        -np.sin(zs) ** 4 / (3.0 * zs**3)
        - (np.sin(2.0 * zs) - 0.5 * np.sin(4.0 * zs)) / (6.0 * zs**2)
        - (2.0 * np.cos(2.0 * zs) - 2.0 * np.cos(4.0 * zs)) / (6.0 * zs)
        + (8.0 * si4 - 4.0 * si2) / 6.0
    )
    # for tiny arguments the integrand is 1 + O(z^2), so the primitive is x
    return np.where(small, np.asarray(x, dtype=float), main / np.pi)


def fejer_sq_spectrum(xi, spectral_radius):
    """Fourier transform of the kernel: (3/2) * cubic B-spline(xi / a), support 2a."""
    a = 0.5 * spectral_radius
    t = np.abs(np.asarray(xi, dtype=float)) / a
    out = np.zeros(t.shape)
    inner = t <= 1.0
    outer = (t > 1.0) & (t < 2.0)
    out[inner] = 2.0 / 3.0 - t[inner] ** 2 + 0.5 * t[inner] ** 3
    out[outer] = (2.0 - t[outer]) ** 3 / 6.0
    return 1.5 * out


def fejer_sq_cdf(x, spectral_radius):
    """Exact distribution function of the kernel, integral from -inf to x."""
    a = 0.5 * spectral_radius
    t = a * np.asarray(x, dtype=float)
    # integral of 1.5*sinc^4 from 0 to t, plus the half mass below 0
    return 0.5 + 1.5 * _sinc4_primitive(t)

"""Coherent-state codeword alphabets and their prior probabilities.

A codeword is a coherent state with complex field amplitude ``beta``; its
mean photon number is ``|beta|**2``.  A :class:`Constellation` bundles the
amplitudes of all codewords with their priors.  Labels are implicit: the
codeword stored at index ``y`` carries label ``y``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Constellation",
    "bpsk",
    "qam6",
    "custom",
    "mean_energy",
]

_PRIOR_TOL = 1e-12
# Largest codeword amplitude magnitude: its square, a mean photon number, stays
# within 1e300, so no design, sampler or sweep point squares an amplitude into
# overflow
_MAX_AMPLITUDE = 1e150


def _integer(value, what: str) -> int:
    """``value`` as an int, rejecting floats (which ``int()`` would truncate) and bools."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _count(value, what: str, least: int = 1) -> int:
    """``value`` as an int of at least ``least``, else ``ValueError``: every count's one check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{what} must be at least {least}, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """``value`` as a float, rejecting strings (which ``float()`` would parse) and bools."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Constellation:
    """An alphabet of coherent-state codewords with prior probabilities.

    Attributes:
        amplitudes: complex array of shape (K,); entry ``y`` is the field
            amplitude of codeword ``y``, finite and at most 1e150 in magnitude.
        priors: float array of shape (K,); non-negative, sums to one.
        name: short identifier of the geometry ("bpsk", "qam6", "custom").
    """

    amplitudes: np.ndarray
    priors: np.ndarray
    name: str = "custom"

    def __post_init__(self) -> None:
        # contiguous, so that heterodyne_sql can view it as float pairs
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 2:
            raise ValueError("constellation needs at least 2 codewords")
        # written so that NaN fails it; np.abs goes to inf without a warning
        if not (np.abs(amps) <= _MAX_AMPLITUDE).all():
            raise ValueError(
                f"codeword amplitudes must be finite and at most {_MAX_AMPLITUDE:g} in magnitude "
                f"({_MAX_AMPLITUDE**2:g} photons)"
            )
        priors = np.asarray(self.priors, dtype=np.float64)
        if priors.shape != amps.shape:
            raise ValueError("priors must match codewords one-to-one")
        # written so that NaN fails it; priors above 1 could also overflow the sum
        if not ((priors >= 0) & (priors <= 1)).all():
            raise ValueError("priors must lie in [0, 1]")
        if abs(priors.sum() - 1.0) > _PRIOR_TOL:
            raise ValueError(f"priors must sum to 1, got {priors.sum()!r}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "priors", priors)

    @property
    def n_codewords(self) -> int:
        return self.amplitudes.size

    def slices(self, rounds: int) -> np.ndarray:
        """Each codeword's share of one of ``rounds`` equal time slices, ``beta / sqrt(rounds)``."""
        return self.amplitudes / math.sqrt(rounds)

    def to_records(self) -> list[dict]:
        """Serialize as a list of {label, re, im, prior} records."""
        return [
            {
                "label": int(y),
                "re": float(a.real),
                "im": float(a.imag),
                "prior": float(p),
            }
            for y, (a, p) in enumerate(zip(self.amplitudes, self.priors))
        ]

    @classmethod
    def from_records(cls, records: list[dict], name: str = "custom") -> "Constellation":
        """Inverse of :meth:`to_records`; records may arrive in any label order."""
        ordered = sorted(records, key=lambda r: _integer(r["label"], "a codeword label"))
        labels = [int(r["label"]) for r in ordered]
        if labels != list(range(len(ordered))):
            raise ValueError("labels must be unique and contiguous from 0")
        amps = np.array(
            [complex(_real(r["re"], "re"), _real(r["im"], "im")) for r in ordered]
        )
        priors = np.array([_real(r["prior"], "a prior") for r in ordered])
        return cls(amps, priors, name=name)


def bpsk(mean_photons: float) -> Constellation:
    """Antipodal binary alphabet {+a, -a} on the real axis, equal priors.

    ``a = sqrt(mean_photons)`` so each codeword carries the requested energy.
    """
    if mean_photons < 0:
        raise ValueError("mean_photons must be non-negative")
    a = math.sqrt(mean_photons)
    return Constellation(
        np.array([a, -a], dtype=np.complex128),
        np.array([0.5, 0.5]),
        name="bpsk",
    )


def qam6(mean_photons: float) -> Constellation:
    """Six-point rectangular alphabet (2 rows x 3 columns), equal priors.

    Grid points sit at x in {-d, 0, +d} and y in {-d/2, +d/2} with
    ``d = sqrt(12 * mean_photons / 11)``, which makes the prior-averaged
    mean photon number exactly ``mean_photons``.
    """
    if mean_photons < 0:
        raise ValueError("mean_photons must be non-negative")
    d = math.sqrt(12.0 * mean_photons / 11.0)
    xs = np.array([-d, 0.0, d])
    ys = np.array([-d / 2.0, d / 2.0])
    points = np.array([complex(x, y) for y in ys for x in xs])
    return Constellation(points, np.full(6, 1.0 / 6.0), name="qam6")


def custom(
    amplitudes: np.ndarray,
    priors: np.ndarray | None = None,
    name: str = "custom",
) -> Constellation:
    """Arbitrary alphabet; priors default to uniform."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if priors is None:
        priors = np.full(amps.size, 1.0 / amps.size)
    return Constellation(amps, np.asarray(priors, dtype=np.float64), name=name)


def mean_energy(c: Constellation) -> float:
    """Prior-averaged mean photon number of the alphabet."""
    return float(np.dot(c.priors, np.abs(c.amplitudes) ** 2))


def _amplitude_scale(nbar: float, current: float) -> float:
    """Factor that takes amplitudes at a mean photon number ``current > 0``
    to ``nbar``: ``sqrt(nbar / current)``, or, where that quotient overflows,
    the quotient of the roots (which may still be inf)."""
    quotient = float(nbar) / current
    return math.sqrt(quotient) if math.isfinite(quotient) else math.sqrt(nbar) / math.sqrt(current)

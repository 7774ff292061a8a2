"""Physics of one processing round of a displacement / photon-counting receiver.

One round interferes the incoming field slice with a local-oscillator
displacement and counts photons on a photon-number-resolving detector whose
outcomes are binned into ``M`` classes (0, 1, ..., >=M-1 photons).  The
imperfections modelled here are:

* sub-unity interference visibility ``xi``, which suppresses only the
  interference cross-term, leaving residual light even under perfect nulling;
* detector-side efficiency ``eta``, applied to the post-displacement mean;
* additive dark counts ``nu`` (mean counts per round);
* slow per-run jitter of the displacement chain: a global phase offset and a
  relative amplitude scale, drawn once per receiver run.

Documented defaults for the unpublished lab noise pattern live in
``DEFAULT_DARK_COUNTS``, ``DEFAULT_PHASE_JITTER`` and
``DEFAULT_AMPLITUDE_JITTER``; :func:`lab_noise` bundles them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .constellation import _real

__all__ = [
    "NoiseModel",
    "NoiseDraw",
    "IDEAL_DRAW",
    "DEFAULT_DARK_COUNTS",
    "DEFAULT_PHASE_JITTER",
    "DEFAULT_AMPLITUDE_JITTER",
    "lab_noise",
    "detected_mean",
    "detected_mean_jitter",
    "outcome_probs",
    "outcome_prob_derivs",
    "sample_draws",
]

# Defaults for the noise sources whose magnitudes the benchmark conditions do
# not pin down.  Chosen as plausible fiber-bench values; results files echo
# them so every number is reproducible.
DEFAULT_DARK_COUNTS = 1e-3      # mean dark counts per round
DEFAULT_PHASE_JITTER = 0.02     # rad, std of per-run global phase error
DEFAULT_AMPLITUDE_JITTER = 0.005  # relative std of per-run displacement scale

# Largest jitter sigma a noise model takes.  A phase sigma of a few radians
# is a uniform phase already.  An amplitude sigma of 100 keeps every drawn
# scale below 1e4 (no normal draw lies 99 sigmas out), the factor that a
# receiver spec's bound on its detected means leaves before float64
# overflows; far larger sigmas overflow draws and means into inf and NaN.
_MAX_JITTER = 100.0


@dataclass(frozen=True)
class NoiseModel:
    """Imperfection parameters of the receiver chain.

    ``visibility=1, efficiency=1, dark_counts=0`` and zero jitter denote the
    ideal receiver.
    """

    visibility: float = 1.0
    efficiency: float = 1.0
    dark_counts: float = 0.0
    phase_jitter: float = 0.0
    amplitude_jitter: float = 0.0

    def __post_init__(self) -> None:
        # NaN fails every comparison below, so reject it (and inf) up front
        for name, value in self.to_dict().items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must be in [0, 1]")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must be in [0, 1]")
        if self.dark_counts < 0:
            raise ValueError("dark_counts must be non-negative")
        if self.phase_jitter < 0 or self.amplitude_jitter < 0:
            raise ValueError("jitter sigmas must be non-negative")
        if max(self.phase_jitter, self.amplitude_jitter) > _MAX_JITTER:
            raise ValueError(f"jitter sigmas must be at most {_MAX_JITTER:g}")

    @property
    def is_deterministic(self) -> bool:
        """True when there is no per-run randomness in the displacement chain."""
        return self.phase_jitter == 0.0 and self.amplitude_jitter == 0.0

    def to_dict(self) -> dict:
        return {
            "visibility": self.visibility,
            "efficiency": self.efficiency,
            "dark_counts": self.dark_counts,
            "phase_jitter": self.phase_jitter,
            "amplitude_jitter": self.amplitude_jitter,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseModel":
        if not isinstance(d, dict):
            raise ValueError("noise model must be a JSON object")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown noise model keys: {unknown}")
        return cls(**{k: _real(v, k) for k, v in d.items()})


@dataclass(frozen=True)
class NoiseDraw:
    """One realization of the per-run displacement-chain jitter."""

    phase_offset: float = 0.0
    amplitude_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.amplitude_scale <= 0:
            raise ValueError("amplitude_scale must be positive")


IDEAL_DRAW = NoiseDraw()


def lab_noise(visibility: float = 0.9975, efficiency: float = 0.85) -> NoiseModel:
    """Noise model at the documented default dark-count and jitter levels."""
    return NoiseModel(
        visibility=visibility,
        efficiency=efficiency,
        dark_counts=DEFAULT_DARK_COUNTS,
        phase_jitter=DEFAULT_PHASE_JITTER,
        amplitude_jitter=DEFAULT_AMPLITUDE_JITTER,
    )


def detected_mean(
    slice_amps,
    effective_displacements,
    nm: NoiseModel,
    slice_power=None,
) -> np.ndarray:
    """Mean detected photon number, broadcasting over every argument.

    ``effective_displacements`` are the displacements ``u'`` as applied,
    jitter included (see :func:`detected_mean_jitter`), and the detected
    mean is

        eta * (|b|^2 + |u'|^2 - 2*xi*Re(b * conj(u'))) + nu

    which reduces to ``eta * |b - u'|^2 + nu`` at unit visibility.  A caller
    that evaluates the same slices in every round may pass
    ``slice_power = |b|**2``, computed once; it is read only below unit
    visibility.
    """
    b = np.asarray(slice_amps, dtype=np.complex128)
    u_eff = np.asarray(effective_displacements, dtype=np.complex128)
    if nm.visibility == 1.0:
        # direct form cancels exactly under perfect nulling
        raw = np.abs(b - u_eff) ** 2
    else:
        if slice_power is None:
            slice_power = np.abs(b) ** 2
        cross = (b * np.conj(u_eff)).real
        raw = slice_power + np.abs(u_eff) ** 2 - 2.0 * nm.visibility * cross
    # raw >= (1 - xi) * (|b|^2 + |u'|^2) >= 0; clip only guards rounding.
    return nm.efficiency * np.maximum(raw, 0.0) + nm.dark_counts


def detected_mean_jitter(
    slice_amps,
    displacements,
    nm: NoiseModel,
    phase_offset,
    amplitude_scale,
) -> np.ndarray:
    """:func:`detected_mean` of displacements under one jitter draw.

    The effective displacement is ``u' = rot * u`` with the rotation
    ``rot = amplitude_scale * exp(i*phase)``, associated in that order.
    Callers that keep a draw over several rounds form ``rot`` once and call
    :func:`detected_mean` directly; the means are the same bit for bit.
    """
    rot = np.asarray(amplitude_scale) * np.exp(1j * np.asarray(phase_offset))
    return detected_mean(slice_amps, rot * np.asarray(displacements, dtype=np.complex128), nm)


def outcome_probs(n, arity: int) -> np.ndarray:
    """Binned Poisson outcome probabilities for mean ``n``.

    Outcome ``k < arity-1`` is "exactly k photons" with probability
    ``exp(-n) n^k / k!``; the top bin collects ``>= arity-1`` photons.  ``n``
    may be a scalar or an array; the outcome axis is appended last.
    """
    if arity < 2:
        raise ValueError("arity must be at least 2")
    n_arr = np.asarray(n, dtype=np.float64)
    if np.any(n_arr < 0):
        raise ValueError("mean photon number must be non-negative")
    out = np.empty(n_arr.shape + (arity,), dtype=np.float64)
    pmf = np.exp(-n_arr)
    total = pmf.copy()
    out[..., 0] = pmf
    for k in range(1, arity - 1):
        pmf = pmf * n_arr / k
        out[..., k] = pmf
        total += pmf
    out[..., arity - 1] = np.maximum(1.0 - total, 0.0)
    return out


def outcome_prob_derivs(n, arity: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities and their derivatives with respect to the mean.

    For ``k < arity-1`` the Poisson pmf satisfies ``dP_k/dn = P_{k-1} - P_k``
    (with ``P_{-1} = 0``); the top bin telescopes to ``dP_top/dn = P_{top-1}``.
    Returns ``(probs, derivs)`` with matching shapes.
    """
    probs = outcome_probs(n, arity)
    derivs = np.empty_like(probs)
    derivs[..., 0] = -probs[..., 0]
    for k in range(1, arity - 1):
        derivs[..., k] = probs[..., k - 1] - probs[..., k]
    derivs[..., arity - 1] = probs[..., arity - 2]
    return probs, derivs


def _jitter_arrays(nm: NoiseModel, batch_size: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """The phases and amplitude scales of :func:`sample_draws`, as arrays.

    Each draw takes its phase, then its amplitude scale, from one generator,
    and ``rng.normal(loc, sigma)`` forms each as ``loc + sigma * z`` from one
    standard normal ``z``.  So one ``standard_normal`` call of every draw's
    values, de-interleaved, gives the per-draw loop's values bit for bit,
    unless a scale comes out non-positive: the loop redraws such a scale at
    once, which shifts every later value, so such a batch is drawn again by
    that loop from the generator's starting state.  Without jitter the batch
    is the ideal draw alone, arrays of length one.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if nm.is_deterministic:
        return np.zeros(1), np.ones(1)
    rng = np.random.default_rng(seed)
    start = rng.bit_generator.state
    per_draw = int(nm.phase_jitter > 0) + int(nm.amplitude_jitter > 0)
    z = rng.standard_normal((batch_size, per_draw))
    # 0.0 + keeps the loop's bits even for z = -0.0
    phase = 0.0 + nm.phase_jitter * z[:, 0] if nm.phase_jitter > 0 else np.zeros(batch_size)
    scale = 1.0 + nm.amplitude_jitter * z[:, -1] if nm.amplitude_jitter > 0 else np.ones(batch_size)
    if not (scale > 0).all():
        rng.bit_generator.state = start
        for b in range(batch_size):
            if nm.phase_jitter > 0:
                phase[b] = rng.normal(0.0, nm.phase_jitter)
            scale[b] = 0.0
            while scale[b] <= 0.0:
                scale[b] = rng.normal(1.0, nm.amplitude_jitter)
    return phase, scale


def sample_draws(nm: NoiseModel, batch_size: int, seed) -> list[NoiseDraw]:
    """Deterministic batch of per-run jitter draws for a given seed.

    Each draw takes its phase, then its amplitude scale, from one generator.
    The amplitude scale is Normal(1, sigma^2) redrawn until positive, which
    for realistic sigmas essentially never loops.  Without jitter every draw
    is the ideal one, so the batch collapses to ``[IDEAL_DRAW]`` for any
    ``batch_size``, and an average over it is exactly batch-size invariant.
    The draws are built from the arrays that the learning loop takes
    directly (``_jitter_arrays``), so both see the same values.
    """
    phase, scale = _jitter_arrays(nm, batch_size, seed)
    if nm.is_deterministic:
        return [IDEAL_DRAW]
    return [NoiseDraw(p, s) for p, s in zip(phase.tolist(), scale.tolist())]

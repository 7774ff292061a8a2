"""Control-logic structures: M-ary decision trees and decision tables.

A depth-``N`` M-ary :class:`DecisionTree` stores one complex displacement per
measurement history (outcome prefix).  Nodes live in a flat breadth-first
array: level ``d`` occupies slots ``(M^d - 1)/(M - 1) ...`` in lexicographic
prefix order, which makes whole-level vectorized evaluation cheap.  A
:class:`DecisionTable` maps each complete length-``N`` outcome path to a
codeword guess.

This module also owns the receiver-spec JSON document, the unit of exchange
between the ``optimize`` and ``evaluate``/``metrics`` commands.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .constellation import Constellation, _count, _integer, _real
from .photonics import NoiseModel, detected_mean

__all__ = [
    "DecisionTree",
    "DecisionTable",
    "Receiver",
    "MAX_LEAVES",
    "num_nodes",
    "level_offset",
    "leaf_index",
    "decode_leaf_index",
    "displacement_report",
    "atomic_write",
    "save_receiver",
    "load_receiver",
]


# Most complete outcome paths (arity**rounds) a tree may have.  Evaluation
# holds M^N-wide arrays per codeword and draw; the largest tree in use has
# 1024 leaves.
MAX_LEAVES = 1 << 16


def num_nodes(rounds: int, arity: int) -> int:
    """Internal node count of a full arity^rounds tree: (M^N - 1) / (M - 1).

    It owns the shape rule of every tree and table: rounds of at least 1 and
    arity of at least 2 (``constellation._count``), and at most
    :data:`MAX_LEAVES` leaves, else ``ValueError``.
    """
    rounds, arity = _count(rounds, "rounds"), _count(arity, "arity", least=2)
    # any arity >= 2 passes the cap by round 17; capping the exponent keeps
    # absurd round counts from building a huge integer first
    if arity ** min(rounds, MAX_LEAVES.bit_length()) > MAX_LEAVES:
        raise ValueError(
            f"a tree of arity {arity} and {rounds} rounds exceeds {MAX_LEAVES} leaves"
        )
    return level_offset(arity, rounds)


def level_offset(arity: int, level: int) -> int:
    """Flat index of the first node at the given level."""
    return (arity**level - 1) // (arity - 1)


def leaf_index(arity: int, rounds: int, path: Sequence[int]) -> int:
    """Index of a complete outcome path in [0, M^N), base-M big-endian.

    Read at a prefix of length ``d`` (``rounds = d``) it is the prefix's
    position in its level, so the node that the prefix reaches is slot
    ``level_offset(arity, d) + leaf_index(arity, d, prefix)``.
    """
    if len(path) != rounds:
        raise ValueError(f"path length {len(path)} != rounds {rounds}")
    pos = 0
    for k in path:
        if not 0 <= int(k) < arity:
            raise ValueError(f"outcome {k} out of range for arity {arity}")
        pos = pos * arity + int(k)
    return pos


def decode_leaf_index(arity: int, rounds: int, index: int) -> tuple[int, ...]:
    """Inverse of :func:`leaf_index`."""
    if not 0 <= index < arity**rounds:
        raise ValueError("leaf index out of range")
    path = []
    for _ in range(rounds):
        path.append(index % arity)
        index //= arity
    return tuple(reversed(path))


@dataclass
class DecisionTree:
    """Per-history displacement parameters of an (N, M) receiver.

    ``nodes`` is complex of length ``(M^N - 1)/(M - 1)``, breadth-first.
    Only a design writes ``nodes``, into the tree it is building (the CN
    design fills one level at a time); evaluation and the learning loop
    only read them, since each descent step makes a new tree.
    """

    rounds: int
    arity: int
    nodes: np.ndarray

    def __post_init__(self) -> None:
        expected = num_nodes(self.rounds, self.arity)
        # contiguous, so that the finiteness check can view it as float pairs
        nodes = np.ascontiguousarray(self.nodes, dtype=np.complex128)
        if nodes.shape != (expected,):
            raise ValueError(f"expected {expected} nodes, got shape {nodes.shape}")
        if not np.all(np.isfinite(nodes.view(np.float64))):
            raise ValueError("node displacements must be finite")
        self.nodes = nodes

    @classmethod
    def zeros(cls, rounds: int, arity: int) -> "DecisionTree":
        return cls(rounds, arity, np.zeros(num_nodes(rounds, arity), dtype=np.complex128))

    def level_nodes(self, level: int) -> np.ndarray:
        """View of the displacements at one level, in prefix order."""
        start = level_offset(self.arity, level)
        return self.nodes[start : start + self.arity**level]

    @property
    def n_parameters(self) -> int:
        """Real optimization variables: two per node."""
        return 2 * self.nodes.size


@dataclass(frozen=True)
class DecisionTable:
    """Map from complete outcome paths to codeword guesses."""

    rounds: int
    arity: int
    guesses: np.ndarray

    def __post_init__(self) -> None:
        num_nodes(self.rounds, self.arity)  # the tree shape rule: rounds, arity and leaf cap
        try:
            guesses = np.asarray(self.guesses, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError("guesses must be valid labels") from exc
        if guesses.shape != (self.arity**self.rounds,):
            raise ValueError("table must have one guess per complete path")
        if np.any(guesses < 0):
            raise ValueError("guesses must be valid labels")
        object.__setattr__(self, "guesses", guesses)


def displacement_report(
    t: DecisionTree, reference: DecisionTree
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node amplitude ratio in dB and relative sign against a reference.

    Returns ``(amp_db, sign)`` where ``amp_db = 20*log10(|u| / |u_ref|)`` and
    ``sign`` is +/-1 with the sign of the projection of ``u`` onto the
    reference phase.  Nodes with zero reference amplitude are undefined and
    reported as ``(nan, 0)``.
    """
    if (t.rounds, t.arity) != (reference.rounds, reference.arity):
        raise ValueError("trees must share the same (rounds, arity) shape")
    mag = np.abs(t.nodes)
    ref_mag = np.abs(reference.nodes)
    defined = ref_mag > 0
    amp_db = np.full(mag.shape, np.nan)
    with np.errstate(divide="ignore"):
        amp_db[defined] = 20.0 * np.log10(mag[defined] / ref_mag[defined])
    proj = (t.nodes * np.conj(reference.nodes)).real
    sign = np.zeros(mag.shape)
    sign[defined] = np.where(proj[defined] >= 0, 1.0, -1.0)
    return amp_db, sign


_SPEC_KEYS = ("N", "M", "constellation", "noise_model", "nodes", "table")

# Largest detected mean a loaded spec may give, without jitter and at unit
# efficiency, so that it bounds the square before the efficiency scales it.
# It leaves a jitter draw's amplitude scale room for a factor of 1e4 before
# the squared displacement overflows float64 near 1.8e308.
_MAX_MEAN_PHOTONS = 1e300
_MEANS_OUT_OF_RANGE = (
    f"receiver spec out of range: a detected mean photon number exceeds {_MAX_MEAN_PHOTONS:g}; "
    "node displacements and codeword amplitudes must stay below about 1e150"
)


def _means_in_range(c: Constellation, rounds: int, nodes: np.ndarray, nm: NoiseModel) -> bool:
    """True when no detected mean of these displacements, without jitter and
    at unit efficiency, exceeds ``_MAX_MEAN_PHOTONS``, as no spec's may; inf
    and NaN fail without a numpy warning.  The means are computed only where
    their bound ``(|b| + |u|)**2 + nu`` on the largest slice and node exceeds
    half that."""
    with np.errstate(over="ignore", invalid="ignore"):
        slices = c.slices(rounds)[:, None]
        reach = float(np.abs(slices).max() + np.abs(nodes).max())
        if reach * reach + nm.dark_counts <= 0.5 * _MAX_MEAN_PHOTONS:
            return True
        means = detected_mean(slices, nodes, replace(nm, efficiency=1.0))
    return bool((means <= _MAX_MEAN_PHOTONS).all())


@dataclass
class Receiver:
    """A deployable receiver: control logic plus its design context."""

    tree: DecisionTree
    table: DecisionTable
    constellation: Constellation
    noise_model: NoiseModel
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "N": self.tree.rounds,
            "M": self.tree.arity,
            "constellation": self.constellation.to_records(),
            "noise_model": self.noise_model.to_dict(),
            "nodes": [
                {"re": float(u.real), "im": float(u.imag)} for u in self.tree.nodes
            ],
            "table": [int(g) for g in self.table.guesses],
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Receiver":
        if not isinstance(d, dict):
            raise ValueError("receiver spec must be a JSON object")
        missing = [k for k in _SPEC_KEYS if k not in d]
        if missing:
            raise ValueError(f"receiver spec is missing keys: {missing}")
        metadata = d.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ValueError("malformed receiver spec: metadata must be a JSON object")
        encoding = metadata.get("encoding", "custom")
        if not isinstance(encoding, str):
            raise ValueError(
                f"malformed receiver spec: encoding must be a string, got {encoding!r}"
            )
        try:
            rounds, arity = _integer(d["N"], "N"), _integer(d["M"], "M")
            nodes = np.array(
                [complex(_real(n["re"], "re"), _real(n["im"], "im")) for n in d["nodes"]]
            )
            guesses = np.asarray([_integer(g, "a table entry") for g in d["table"]])
            constellation = Constellation.from_records(d["constellation"], name=encoding)
            nm = NoiseModel.from_dict(d["noise_model"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed receiver spec: {type(exc).__name__}: {exc}") from exc
        tree = DecisionTree(rounds, arity, nodes)
        table = DecisionTable(rounds, arity, guesses)
        if np.any(table.guesses >= constellation.n_codewords):
            raise ValueError("table guesses exceed the constellation labels")
        if not _means_in_range(constellation, rounds, tree.nodes, nm):
            raise ValueError(_MEANS_OUT_OF_RANGE)
        return cls(tree, table, constellation, nm, dict(metadata))


def atomic_write(path: str, text: str) -> None:
    """Write a text file atomically: temp file in the same directory + rename.

    An ``OSError`` names ``path``, not the temp file.
    """
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def save_receiver(path: str, receiver: Receiver) -> None:
    """Write a receiver-spec JSON document atomically.

    The document passes the loader's checks first, so a spec that
    :func:`load_receiver` would refuse raises ``ValueError`` and is not
    written.
    """
    text = json.dumps(receiver.to_dict(), indent=2, sort_keys=True) + "\n"
    Receiver.from_dict(json.loads(text))
    atomic_write(path, text)


def load_receiver(path: str) -> Receiver:
    with open(path) as fh:
        return Receiver.from_dict(json.load(fh))

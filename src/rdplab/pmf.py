"""Finite-alphabet probability primitives: pmfs, channels, information measures.

All probabilities are plain 64-bit floats.  Pmfs are renormalized once at
construction (never silently inside an operation) and validated against
sum-to-one within 1e-12.  Logarithms are base 2 throughout, so entropies and
mutual informations are in bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

import numpy as np

Label = Hashable

SUM_TOL = 1e-12


class AlphabetMismatchError(ValueError):
    """Two distributions or a distribution/channel pair disagree on labels."""


def _renormalized(rows: np.ndarray) -> np.ndarray:
    """Each row of a C-ordered matrix as a pmf: checked, clipped at zero and
    divided by its sum, the same float as the row's own sum since the rows
    are contiguous.  The first bad row raises."""
    if rows.shape[1] == 0 < len(rows):
        raise ValueError("empty pmf")
    bad = ~np.logical_and.reduce((rows >= -SUM_TOL) & (rows < np.inf), axis=1)  # NaN fails both
    clipped = np.maximum(rows, 0.0)
    total = np.add.reduce(clipped, axis=1)
    for i in np.flatnonzero(bad | (np.abs(total - 1.0) > SUM_TOL))[:1]:
        if bad[i]:
            raise ValueError(f"negative or non-finite probabilities: {rows[i]}")
        raise ValueError(f"probabilities sum to {float(total[i])}, not 1")
    return clipped / total[:, None]


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over an ordered, finite set of labeled atoms.

    Labels may be symbols (str/int) or real values; real-valued atoms are
    required by the Wasserstein distance and the mirror construction.
    """

    atoms: tuple[tuple[Label, float], ...]

    def __post_init__(self) -> None:
        labels = [a for a, _ in self.atoms]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate atom labels: {labels}")
        probs = _renormalized(np.array([[p for _, p in self.atoms]], dtype=float))[0]
        object.__setattr__(
            self, "atoms", tuple(zip(labels, (float(p) for p in probs)))
        )

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Label, float]]) -> "Pmf":
        return cls(tuple((a, float(p)) for a, p in pairs))

    @classmethod
    def from_probs(cls, labels: Sequence[Label], probs: Sequence[float]) -> "Pmf":
        if len(labels) != len(probs):
            raise ValueError("labels/probs length mismatch")
        return cls.from_pairs(zip(labels, probs))

    @classmethod
    def bernoulli(cls, rho: float) -> "Pmf":
        """B(rho) over {0, 1} with P(X = 1) = rho."""
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"rho={rho} outside [0, 1]")
        return cls(((0, 1.0 - rho), (1, rho)))

    @classmethod
    def delta(cls, label: Label) -> "Pmf":
        return cls(((label, 1.0),))

    @classmethod
    def uniform(cls, labels: Sequence[Label]) -> "Pmf":
        n = len(labels)
        return cls.from_pairs((a, 1.0 / n) for a in labels)

    @property
    def labels(self) -> tuple[Label, ...]:
        return tuple(a for a, _ in self.atoms)

    @property
    def probs(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms], dtype=float)

    def prob(self, label: Label) -> float:
        for a, p in self.atoms:
            if a == label:
                return p
        raise KeyError(label)

    def support(self) -> tuple[Label, ...]:
        return tuple(a for a, p in self.atoms if p > 0.0)

    def real_values(self) -> np.ndarray:
        """Atom labels as floats; raises if any label is not a real number."""
        return _real_values(self.labels)


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic conditional distribution (a finite Markov kernel)."""

    inputs: tuple[Label, ...]
    outputs: tuple[Label, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float, order="C")
        if m.shape != (len(self.inputs), len(self.outputs)):
            raise ValueError(f"matrix shape {m.shape} does not match alphabets")
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError("duplicate input labels")
        if len(set(self.outputs)) != len(self.outputs):
            raise ValueError("duplicate output labels")
        object.__setattr__(self, "matrix", _renormalized(m))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))

    @classmethod
    def identity(cls, labels: Sequence[Label]) -> "Channel":
        return cls(tuple(labels), tuple(labels), np.eye(len(labels)))

    @classmethod
    def bsc(cls, crossover: float) -> "Channel":
        """Binary symmetric channel over {0, 1}."""
        e = float(crossover)
        return cls((0, 1), (0, 1), np.array([[1 - e, e], [e, 1 - e]]))

    def push(self, p: Pmf) -> Pmf:
        """Output marginal of `p` through the channel."""
        if p.labels != self.inputs:
            raise AlphabetMismatchError(
                f"channel inputs {self.inputs} do not match pmf labels {p.labels}"
            )
        return Pmf.from_probs(self.outputs, p.probs @ self.matrix)


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint distribution with prescribed marginals (an element of Pi(p, q))."""

    left: Pmf
    right: Pmf
    joint: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        j = np.asarray(self.joint, dtype=float)
        if j.shape != (len(self.left.atoms), len(self.right.atoms)):
            raise ValueError("joint shape does not match marginals")
        if np.any(j < -SUM_TOL):
            raise ValueError("negative joint mass")
        if np.max(np.abs(j.sum(axis=1) - self.left.probs)) > SUM_TOL:
            raise ValueError("row sums do not match left marginal")
        if np.max(np.abs(j.sum(axis=0) - self.right.probs)) > SUM_TOL:
            raise ValueError("column sums do not match right marginal")
        object.__setattr__(self, "joint", j)

    def off_diagonal_mass(self) -> float:
        """Total mass on pairs (x, x') with x != x'. Requires shared alphabet."""
        if self.left.labels != self.right.labels:
            raise AlphabetMismatchError("off-diagonal mass needs a shared alphabet")
        return float(self.joint.sum() - np.trace(self.joint))


# ---------------------------------------------------------------------------
# Information measures
# ---------------------------------------------------------------------------


def _xlog2x(p: np.ndarray) -> np.ndarray:
    # 0 log 0 := 0; tiny negatives from rounding are clamped before the log
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    out = np.zeros_like(p)
    nz = p > 0.0
    out[nz] = p[nz] * np.log2(p[nz])
    return out


def entropy(p: Pmf) -> float:
    """Shannon entropy H(p) = -sum p log2 p in bits."""
    return float(-_xlog2x(p.probs).sum())


def binary_entropy(a: float) -> float:
    """H_b(a) = -a log2 a - (1-a) log2 (1-a) for a in [0, 1]."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"argument {a} outside [0, 1]")
    return float(-(_xlog2x(np.array([a, 1.0 - a]))).sum())


def mutual_information(p_x: Pmf, ch: Channel) -> float:
    """I(X; Y) in bits for X ~ p_x fed through `ch`."""
    if p_x.labels != ch.inputs:
        raise AlphabetMismatchError(
            f"channel inputs {ch.inputs} do not match source labels {p_x.labels}"
        )
    return mutual_information_matrix(p_x.probs, ch.matrix)


def mutual_information_matrix(p: np.ndarray, w: np.ndarray) -> float:
    """I(X; Y) from a source vector and a row-stochastic matrix."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    joint = p[:, None] * w
    q = joint.sum(axis=0)
    mask = joint > 0.0
    # separated logs stay finite on denormals, unlike log(joint / (p * q))
    logs = (
        np.log2(joint, where=mask, out=np.zeros_like(joint))
        - np.log2(p, where=p > 0.0, out=np.zeros_like(p))[:, None]
        - np.log2(q, where=q > 0.0, out=np.zeros_like(q))[None, :]
    )
    return max(float(np.sum(joint * logs, where=mask)), 0.0)


def _real_values(labels: Iterable[Label]) -> np.ndarray:
    """Labels as floats; raises if any label is not a real number."""
    vals = []
    for a in labels:
        if isinstance(a, bool) or not isinstance(a, (int, float)):
            raise ValueError(f"label {a!r} is not a real value")
        vals.append(float(a))
    return np.array(vals, dtype=float)


def _distortion_matrix(dist, source_labels, target_labels) -> np.ndarray:
    """The matrix d(x, y) from a callable or an array, finite and nonnegative."""
    if not len(target_labels):
        raise ValueError("the output alphabet is empty")
    if callable(dist):
        mat = np.array(
            [[float(dist(x, y)) for y in target_labels] for x in source_labels]
        )
    else:
        mat = np.asarray(dist, dtype=float)
    if mat.shape != (len(source_labels), len(target_labels)):
        raise ValueError(
            f"distortion shape {mat.shape}, expected "
            f"{(len(source_labels), len(target_labels))}"
        )
    if np.any(mat < 0.0) or not np.all(np.isfinite(mat)):
        raise ValueError("distortion must be finite and nonnegative")
    return mat


# ---------------------------------------------------------------------------
# Empirical distributions and typicality
# ---------------------------------------------------------------------------


def empirical_pmf(seq: Sequence[Label], alphabet: Sequence[Label]) -> Pmf:
    """Empirical distribution of `seq` over `alphabet`, zero-count atoms kept."""
    if len(seq) == 0:
        raise ValueError("empty sequence")
    index = {a: i for i, a in enumerate(alphabet)}
    counts = np.zeros(len(alphabet), dtype=float)
    for s in seq:
        if s not in index:
            raise AlphabetMismatchError(f"symbol {s!r} not in alphabet")
        counts[index[s]] += 1.0
    return Pmf.from_probs(tuple(alphabet), counts / len(seq))


def _typical_counts(counts: np.ndarray, n: int, probs: np.ndarray, delta: float) -> np.ndarray:
    """The delta-typicality test |c/n - p| <= delta * p on integer symbol
    counts, one verdict per row of `counts`.

    This is the single float form of the test: the codebook samplers and
    `is_delta_typical` all call it, so they agree on every boundary case.
    """
    return np.all(np.abs(np.asarray(counts) / n - probs) <= delta * probs, axis=-1)


def _check_slack(delta: float) -> None:
    """Raise ValueError unless `delta` is a typicality slack: positive, +inf
    included (every sequence is typical), NaN not."""
    if not delta > 0.0:
        raise ValueError("delta must be positive")


def is_delta_typical(seq: Sequence[Label], p: Pmf, delta: float) -> bool:
    """Relative-deviation typicality: |gamma(x) - p(x)| <= delta * p(x) for all x.

    Symbols outside the support of `p` make the sequence atypical rather than
    raising.
    """
    _check_slack(delta)
    if len(seq) == 0:
        raise ValueError("empty sequence")
    index = {a: i for i, (a, q) in enumerate(p.atoms) if q > 0.0}
    if any(s not in index for s in seq):
        return False
    counts = np.bincount([index[s] for s in seq], minlength=len(p.atoms))
    return bool(_typical_counts(counts, len(seq), p.probs, delta))

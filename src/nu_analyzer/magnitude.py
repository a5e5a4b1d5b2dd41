"""System descriptions and their reduction to nonnegative magnitude matrices.

A finite-impulse-response interconnection is reduced entrywise to the absolute
sum of its impulse coefficients; all downstream analysis operates on the
resulting nonnegative square matrix.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class FirSystem:
    """Causal LTI interconnection given by finite impulse responses.

    ``entries`` maps 1-based ``(i, j)`` channel pairs to impulse coefficient
    sequences; missing pairs are the zero response.
    """

    n: int
    entries: dict[tuple[int, int], tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # a bool is never a count or a coefficient, as in the JSON reader
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValidationError(f"system dimension must be a positive integer, got {self.n!r}")
        for key, coeffs in self.entries.items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise ValidationError(f"entry key {key!r} must be an (i, j) pair")
            i, j = key
            if not (isinstance(coeffs, Sequence) or isinstance(coeffs, np.ndarray) and coeffs.ndim == 1):
                raise ValidationError(f"impulse response at ({i!r}, {j!r}) must be a sequence, got {coeffs!r}")
            if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in (i, j)):
                raise ValidationError(f"entry index ({i!r}, {j!r}) must be a pair of integers")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValidationError(
                    f"entry index ({i}, {j}) out of range for dimension {self.n}"
                )
            for t, c in enumerate(coeffs):
                if isinstance(c, bool) or not isinstance(c, numbers.Real):
                    raise ValidationError(
                        f"impulse response at ({i}, {j}) has non-numeric coefficient {c!r} at step {t}"
                    )
                if not math.isfinite(c):
                    raise ValidationError(
                        f"impulse response at ({i}, {j}) has non-finite coefficient at step {t}"
                    )


@dataclass(frozen=True)
class MagnitudeMatrix:
    """Square matrix of nonnegative channel gains."""

    m: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.m, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValidationError(f"magnitude matrix must be square and nonempty, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValidationError("magnitude matrix has non-finite entries")
        if np.any(a < 0):
            i, j = np.argwhere(a < 0)[0]
            raise ValidationError(f"magnitude matrix has negative entry at row {i + 1}, column {j + 1}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "m", a)

    @property
    def n(self) -> int:
        return self.m.shape[0]

    @classmethod
    def from_array(cls, values) -> "MagnitudeMatrix":
        return cls(np.asarray(values, dtype=float))


def as_array(M) -> np.ndarray:
    """Coerce a MagnitudeMatrix or array-like into a validated ndarray."""
    if isinstance(M, MagnitudeMatrix):
        return M.m
    return MagnitudeMatrix.from_array(M).m


def magnitude_matrix(sys: FirSystem) -> MagnitudeMatrix:
    """Entrywise absolute coefficient sums of a system's impulse responses.

    Sums run sequentially in time-step order so results are deterministic.
    """
    m = np.zeros((sys.n, sys.n))
    for (i, j) in sorted(sys.entries):
        total = 0.0
        for c in sys.entries[(i, j)]:
            total += abs(c)
        m[i - 1, j - 1] = total
    return MagnitudeMatrix(m)


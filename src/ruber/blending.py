"""Combining the referenced and unreferenced scores into one number.

Both scores are first squeezed onto a comparable [0, 1] scale by min-max
normalization over the evaluation set being scored, then reduced per
pair by one of four strategies.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class BlendStrategy(str, Enum):
    MIN = "min"
    MAX = "max"
    GEOMETRIC = "geometric"
    ARITHMETIC = "arithmetic"


# How far outside [0, 1] an input may stray before a blend refuses it.
_BLEND_SLACK = 1e-9


def normalize(values) -> np.ndarray:
    """Min-max rescale a score series onto [0, 1].

    The minimum maps to exactly 0 and the maximum to exactly 1.  A
    constant series (max equals min) maps to 0.5 everywhere.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("normalize expects a non-empty 1-d series")
    if not np.all(np.isfinite(arr)):
        raise ValueError("normalize expects finite values")
    lo = float(arr.min())
    hi = float(arr.max())
    if lo == hi:
        return np.full(arr.shape, 0.5)
    return (arr - lo) / (hi - lo)


def blend(ref_score: float, unref_score: float, strategy) -> float:
    """Combine two normalized scores; one-element :func:`blend_series`."""
    return float(blend_series([ref_score], [unref_score], strategy)[0])


def blend_series(ref_norm, unref_norm, strategy) -> np.ndarray:
    """Combine two aligned normalized series; results stay inside [0, 1].

    Inputs must already be normalized: values outside [0, 1] by more
    than a hair are rejected rather than silently clipped.
    """
    ref_norm = np.asarray(ref_norm, dtype=float)
    unref_norm = np.asarray(unref_norm, dtype=float)
    if ref_norm.shape != unref_norm.shape:
        raise ValueError(
            f"series shapes differ: {ref_norm.shape} vs {unref_norm.shape}"
        )
    strategy = BlendStrategy(strategy)
    x = _checked(ref_norm)
    y = _checked(unref_norm)
    if strategy is BlendStrategy.MIN:
        return _min(x, y)
    if strategy is BlendStrategy.MAX:
        return _max(x, y)
    if strategy is BlendStrategy.GEOMETRIC:
        return _geometric(x, y)
    return 0.5 * (x + y)


def _geometric(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sqrt(x*y), kept inside [min(x,y), max(x,y)] at float precision.

    The direct product can misbehave at the edges of the double range:
    sqrt(x*x) may dip half an ulp below x, and x*y can underflow to zero
    for subnormal inputs.  The equality branch, the factored square
    roots on underflow, and the final ordering clamp (a bound the exact
    geometric mean always satisfies) remove those artifacts.
    """
    product = x * y
    value = np.where(product > 0.0, np.sqrt(product), np.sqrt(x) * np.sqrt(y))
    return np.where(x == y, x, _min(_max(value, _min(x, y)), _max(x, y)))


def _checked(values: np.ndarray) -> np.ndarray:
    inside = (values >= -_BLEND_SLACK) & (values <= 1.0 + _BLEND_SLACK)
    if not inside.all():
        bad = float(values[~inside].flat[0])
        raise ValueError(f"blend input {bad!r} lies outside [0, 1]")
    return _min(_max(values, 0.0), 1.0)


# Element-wise builtin min/max: the first argument wins ties, so a zero
# keeps its sign exactly as the scalar builtins would leave it.
def _min(a, b):
    return np.where(b < a, b, a)


def _max(a, b):
    return np.where(b > a, b, a)

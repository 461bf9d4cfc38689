"""Correlation of metric scores with human judgments, plus report helpers.

Pearson and Spearman coefficients come with two-tailed p-values from the
exact Student-t transform: ``t = r * sqrt((n - 2) / (1 - r^2))`` with
``n - 2`` degrees of freedom, the CDF evaluated through the regularized
incomplete beta function (continued-fraction evaluation, no normal
approximation).  Undefined results (constant inputs, too few usable
rows) are carried as NaN-valued results rather than exceptions so a
report can render them as "undefined".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fileio import atomic_write, fixed6_lines

_BETA_CF_MAX_ITER = 300
_BETA_CF_EPS = 3e-16


# ---------------------------------------------------------------------------
# correlation coefficients


def pearson(x, y) -> tuple[float, float]:
    """Sample Pearson r and its two-tailed p-value.

    Inputs must be equal-length with at least 3 entries.  If either
    vector is constant the correlation is undefined and ``(nan, nan)``
    comes back instead of an exception.
    """
    x, y = _vector_pair(x, y)
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0.0 or syy == 0.0:
        return (float("nan"), float("nan"))
    r = float(xc @ yc) / math.sqrt(sxx * syy)
    r = min(1.0, max(-1.0, r))
    return r, _two_tailed_p(r, n)


def spearman(x, y) -> tuple[float, float]:
    """Spearman rho (Pearson on fractional ranks) and its t-transform p-value."""
    x, y = _vector_pair(x, y)
    return pearson(rankdata(x), rankdata(y))


def _vector_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as float arrays; raises unless they are equal-length 1-d vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"expected equal-length 1-d vectors, got {x.shape} and {y.shape}")
    return x, y


def rankdata(values) -> np.ndarray:
    """1-based ranks; ties share the average of the ranks they span."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    # a tie run starts wherever adjacent sorted values differ; NaN equals
    # nothing, so every NaN is a run of its own
    first = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    last = np.append(first[1:], arr.size) - 1
    ranks = np.empty(arr.size, dtype=float)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def _two_tailed_p(r: float, n: int) -> float:
    """P(|T| >= |t(r)|) for T Student-t with n-2 degrees of freedom."""
    df = n - 2
    denom = 1.0 - r * r
    if denom <= 0.0:
        return 0.0
    t2 = r * r * df / denom
    # 2 * survival(|t|) collapses to one incomplete beta evaluation
    return regularized_incomplete_beta(0.5 * df, 0.5, df / (df + t2))


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) via the standard continued fraction (modified Lentz)."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_CF_MAX_ITER + 1):
        m2 = 2 * m
        # the even and the odd coefficient of term m, one Lentz update each
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_CF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction failed to converge")


# ---------------------------------------------------------------------------
# metric-versus-human wrappers


@dataclass
class CorrelationResult:
    """Both coefficients for one metric, NaN-valued when undefined."""

    pearson_r: float = float("nan")
    pearson_p: float = float("nan")
    spearman_rho: float = float("nan")
    spearman_p: float = float("nan")
    n_used: int = 0

    @property
    def defined(self) -> bool:
        return not math.isnan(self.pearson_r)


def correlate(metric, human) -> CorrelationResult:
    """Correlate a metric series against human scores.

    Rows where either side is NaN are excluded pairwise; ``n_used``
    records how many survived.  Fewer than 3 usable rows, or a constant
    surviving vector, produce an undefined (NaN-valued) result.
    """
    metric, human = _vector_pair(metric, human)
    mask = np.isfinite(metric) & np.isfinite(human)
    n_used = int(mask.sum())
    if n_used < 3:
        return CorrelationResult(n_used=n_used)
    m = metric[mask]
    h = human[mask]
    r, rp = pearson(m, h)
    rho, rhop = spearman(m, h)
    return CorrelationResult(r, rp, rho, rhop, n_used)


@dataclass
class InterAnnotatorResult:
    """One-vs-rest agreement: each annotator against the mean of the others."""

    per_annotator: list[CorrelationResult]
    average: CorrelationResult
    maximum: CorrelationResult
    excluded: list[int]  # annotator indices with undefined one-vs-rest results


def inter_annotator(scores) -> InterAnnotatorResult:
    """One-vs-rest agreement over an ``(n, K)`` annotator score matrix (K >= 2).

    Annotators whose one-vs-rest correlation is undefined (for example a
    constant scorer) are listed in ``excluded`` and left out of the
    aggregates.  Aggregate p-values are recomputed from the aggregated
    coefficient at the row count via the same t transform.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[1] < 2:
        raise ValueError("inter-annotator agreement needs at least 2 annotators")
    n_pairs, k = scores.shape
    results = []
    for i in range(k):
        rest = np.delete(scores, i, axis=1).mean(axis=1)
        results.append(correlate(scores[:, i], rest))
    defined = [res for res in results if res.defined]
    excluded = [i for i, res in enumerate(results) if not res.defined]
    if not defined:
        nan_result = CorrelationResult(n_used=n_pairs)
        return InterAnnotatorResult(results, nan_result, nan_result, excluded)

    def summarize(reduce) -> CorrelationResult:
        r = float(reduce([res.pearson_r for res in defined]))
        rho = float(reduce([res.spearman_rho for res in defined]))
        return CorrelationResult(
            r, _two_tailed_p(r, n_pairs), rho, _two_tailed_p(rho, n_pairs), n_pairs
        )

    return InterAnnotatorResult(
        per_annotator=results,
        average=summarize(np.mean),
        maximum=summarize(np.max),
        excluded=excluded,
    )


# ---------------------------------------------------------------------------
# report-figure helpers


def check_bins(k: int) -> None:
    """Raise :class:`~ruber.errors.ConfigError` unless ``k`` quantile groups can exist."""
    if k < 1:
        raise ConfigError(f"bins must be >= 1, got {k}")


def check_scatter(sigma: float, seed: int) -> None:
    """Raise :class:`~ruber.errors.ConfigError` on an unusable scatter jitter or seed."""
    if not 0 <= sigma < math.inf:  # chained so that NaN and infinity fail too
        raise ConfigError(f"jitter_sigma must be finite and >= 0, got {sigma}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def quantile_bins(human, metric, k: int = 5) -> np.ndarray:
    """Mean metric value within k human-score quantile groups.

    Rows are sorted by human score (stable, so ties keep input order)
    and cut into k contiguous groups; when n is not divisible by k the
    earlier groups take one extra row each.  Returns the k group means
    in ascending human-score order.
    """
    human, metric = _vector_pair(human, metric)
    n = human.size
    check_bins(k)
    if n < k:
        raise ValueError(f"cannot cut {n} rows into {k} groups")
    order = np.argsort(human, kind="stable")
    return np.array([metric[group].mean() for group in np.array_split(order, k)])


def scatter_points(human, metric, sigma: float = 0.25, seed: int = 0) -> np.ndarray:
    """(n, 2) array of (jittered human, metric) scatter points.

    Gaussian noise with standard deviation ``sigma`` is added to the
    human axis only, so overlapping discrete scores spread out; the
    metric axis is untouched.  Deterministic per seed; ``sigma=0``
    returns the inputs exactly.
    """
    human, metric = _vector_pair(human, metric)
    check_scatter(sigma, seed)
    rng = np.random.default_rng(seed)
    jittered = human + rng.normal(0.0, sigma, human.shape)
    return np.column_stack([jittered, metric])


def write_scatter_csv(path, human, metric, sigma: float, seed: int) -> None:
    """Write :func:`scatter_points` output as ``human,metric`` CSV rows."""
    points = scatter_points(human, metric, sigma, seed)
    with atomic_write(path) as fh:
        fh.write("human,metric\n")
        for line in fixed6_lines(points, ","):
            fh.write(line + "\n")


def write_quantile_csv(path, human, metrics, k: int) -> None:
    """Write one ``metric,bin,mean_human,mean_metric`` CSV row per metric and
    :func:`quantile_bins` group of the 1-D arrays ``human`` and ``metrics[name]``.

    Rows where the metric or the human score is undefined are dropped before
    binning; a metric with fewer usable rows than ``k`` is skipped entirely.
    """
    with atomic_write(path) as fh:
        fh.write("metric,bin,mean_human,mean_metric\n")
        for name, values in metrics.items():
            mask = np.isfinite(values) & np.isfinite(human)
            if np.count_nonzero(mask) < k:
                continue
            h = human[mask]
            means = np.column_stack([quantile_bins(h, h, k), quantile_bins(h, values[mask], k)])
            for b, line in enumerate(fixed6_lines(means, ",")):
                fh.write(f"{name},{b},{line}\n")

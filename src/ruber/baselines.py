"""Word-overlap baselines: sentence-level BLEU and ROUGE-L."""

from __future__ import annotations

import math

from .corpus import Utterance


def bleu(candidate: Utterance, reference: Utterance, n: int = 4) -> float:
    """Sentence-level BLEU-n against a single reference, unsmoothed.

    Geometric mean of clipped k-gram precisions for k = 1..n, scaled by
    the brevity penalty ``min(1, exp(1 - |ref| / |cand|))``.  Any empty
    precision sends the score to 0.  A candidate too short to contain
    any k-gram for some k <= n has no defined score and yields NaN.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"n must be in 1..4, got {n}")
    if not reference:
        raise ValueError("reference must be non-empty")
    if len(candidate) < n:
        return float("nan")

    log_sum = 0.0
    cand, ref = candidate, reference  # the k-grams; for k = 1 the tokens themselves
    for k in range(1, n + 1):
        if k > 1:  # each (k-1)-gram extended by the token after it
            cand = list(zip(cand, candidate[k - 1:]))
            ref = list(zip(ref, reference[k - 1:]))
        left: dict = {}
        for gram in ref:
            left[gram] = left.get(gram, 0) + 1
        clipped = 0  # each k-gram counted at most as often as in ref
        for gram in cand:
            count = left.get(gram, 0)
            if count:
                left[gram] = count - 1
                clipped += 1
        total = len(candidate) - k + 1
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total)

    brevity = min(1.0, math.exp(1.0 - len(reference) / len(candidate)))
    return brevity * math.exp(log_sum / n)


def lcs_length(a: Utterance, b: Utterance) -> int:
    """Length of the longest common subsequence of two token lists.

    Bit-parallel over ``b``'s positions (Crochemore et al. 2001; Hyyrö 2004): after each
    token of ``a``, the zero bits of ``v`` mark where the DP row ``LCS(a[:i], b[:j])`` steps
    up by one in ``j``, so the LCS is their count.
    """
    masks: dict[str, int] = {}
    for j, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for tok in a:
        u = v & masks.get(tok, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: Utterance, reference: Utterance) -> float:
    """ROUGE-L F1: harmonic mean of LCS-based precision and recall.

    0.0 when the candidate is empty or shares no common subsequence with
    the reference.
    """
    if not reference:
        raise ValueError("reference must be non-empty")
    if not candidate:
        return 0.0
    lcs = lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    return 2.0 * precision * recall / (precision + recall)


"""Exact classical (local hidden variable) game value by best response.

Deterministic strategies achieve the classical maximum. Once one party's
response function is fixed, the other party's best reply splits over its
inputs: for each of them it picks the outputs of highest weighted score.
So the response functions of the side with fewer of them are enumerated,
all at once with numpy, and each is scored against its per-input best
replies. The functions whose score lies within a band of the top, each with
every combination of its near-best replies, are then rescored term by term
(``_scores``, one table lookup per input pair), so the value and the
maximizer list are exactly those of scoring every strategy pair one by one.

``ENUMERATION_GUARD`` bounds the score table of the enumerated side
(functions times the other side's inputs times its outputs) and the number
of candidate pairs that are rescored, and so the maximizers listed.

Every maximizer refers to one tuple per distinct response function, so a
long list costs about what its distinct functions cost: on the benchmark's
tie-heavy 6x6 game (4,096 pairs over 64 functions per side) a ``classical``
op takes about 5.3 normalized ms.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import TooLargeError
from .games import GameSpec

ENUMERATION_GUARD = 10_000_000
TIE_ATOL = 1e-12
# Candidate band, relative to the largest attainable |score| (at least 1):
# far wider than TIE_ATOL and than the rounding of the reordered sums of the
# best-response pass, so no pair within TIE_ATOL of the value is missed.
CANDIDATE_RTOL = 1e-9


class DeterministicStrategy(NamedTuple):
    """A pair of response functions, input index -> output index."""

    f_a: tuple[int, ...]
    f_b: tuple[int, ...]


def _scores(spec: GameSpec, f_a: np.ndarray, f_b: np.ndarray) -> np.ndarray:
    """Expected score of each row pair (f_a[k], f_b[k]).

    Summed term by term, x outer and y inner, from 0.0: the same float
    arithmetic as adding up the terms pi(x, y) * V(a, b | x, y) one at a
    time in Python. Each input pair costs one lookup in a flat table of
    those terms, at index a * n_b + b.
    """
    n_b = np.intp(spec.n_b)  # labels may be uint8: widen before a * n_b
    table = spec.weights.reshape(spec.n_x, spec.n_y, spec.n_a * spec.n_b)
    replies = np.ascontiguousarray(f_b.T)
    total = np.zeros(len(f_a))
    for x in range(spec.n_x):
        row = f_a[:, x] * n_b
        for y in range(spec.n_y):
            total += table[x, y].take(row + replies[y])
    return total


def _tuples(rows: np.ndarray) -> np.ndarray:
    """Object array holding one tuple of plain ints per row.

    Indexing it gathers references to those tuples without a Python-level
    step per index.
    """
    return np.fromiter(map(tuple, rows.tolist()), dtype=object, count=len(rows))


def classical_value(spec: GameSpec) -> tuple[float, list[DeterministicStrategy]]:
    """Maximum over deterministic strategies, with every maximizer.

    Maximizers are the strategy pairs within ``TIE_ATOL`` of the maximum, in
    lexicographic ``(f_a, f_b)`` order. ``TooLargeError`` is raised, before
    any large array is built, when the enumerated side's score table or the
    candidate pairs would exceed ``ENUMERATION_GUARD``.
    """
    weights = spec.weights
    swap = spec.n_b ** spec.n_y < spec.n_a ** spec.n_x
    if swap:
        weights = weights.transpose(1, 0, 3, 2)  # [y, x, b, a]: Bob's side is enumerated
    n_in, n_rest, n_out, n_reply = weights.shape
    table = n_out ** n_in * n_rest * n_reply
    if table > ENUMERATION_GUARD:
        raise TooLargeError(
            f"best-response table of {table} entries (response functions of the smaller "
            f"side times the other side's inputs and outputs) exceeds the guard of "
            f"{ENUMERATION_GUARD}"
        )
    # Every response function of the enumerated side, in lexicographic order;
    # output labels are stored in the smallest integer type that holds them.
    label = np.min_scalar_type(max(n_out, n_reply))
    funcs = np.arange(n_out ** n_in)[:, None] // n_out ** np.arange(n_in - 1, -1, -1) % n_out
    funcs = funcs.astype(label)
    by_output = weights.transpose(0, 2, 1, 3)  # [in, out, rest, reply]
    # score[f, j, r] = sum_i weight(i, j, f(i), r): the reply r to input j against f
    score = sum(by_output[i, funcs[:, i]] for i in range(n_in))
    best = score.max(axis=2)
    totals = best.sum(axis=1)
    band = CANDIDATE_RTOL * max(1.0, float(np.abs(weights).max(axis=(2, 3)).sum()))
    cand = np.flatnonzero(totals >= totals.max() - band)
    ties = score[cand] >= best[cand, :, None] - band  # [candidate, j, reply]
    counts = ties.sum(axis=2)
    sizes = counts.prod(axis=1, dtype=float)
    if sizes.sum() > ENUMERATION_GUARD:
        raise TooLargeError(
            f"{sizes.sum():.0f} candidate maximizers exceed the guard of {ENUMERATION_GUARD}"
        )

    # Expand each candidate into the product of its per-input tie sets, the
    # last input varying fastest, so rows stay in lexicographic order.
    sizes = sizes.astype(np.intp)
    owner = np.repeat(np.arange(len(cand)), sizes)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    tied_first = np.argsort(~ties, axis=2, kind="stable")
    replies = np.empty((len(owner), n_rest), dtype=label)
    for j in reversed(range(n_rest)):
        n = counts[owner, j]
        replies[:, j] = tied_first[owner, j, rank % n]
        rank //= n
    chosen = funcs[cand[owner]]
    f_a, f_b = (replies, chosen) if swap else (chosen, replies)

    exact = _scores(spec, f_a, f_b)
    value = exact.max()
    keep = np.flatnonzero(exact >= value - TIE_ATOL)
    if swap and len(keep) > 1:
        keep = keep[np.lexsort(np.concatenate([f_a[keep], f_b[keep]], axis=1).T[::-1])]
    # One tuple per enumerated function, shared by all of its rows, and one
    # per distinct reply function: equal rows are adjacent once sorted.
    enumerated = _tuples(funcs[cand])[owner[keep]].tolist()
    rows = replies[keep]
    order = np.lexsort(rows.T)
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[order[1:]] != rows[order[:-1]]).any(axis=1)
    distinct_row = np.empty_like(order)
    distinct_row[order] = np.cumsum(first) - 1
    replied = _tuples(rows[order[first]])[distinct_row].tolist()
    pairs = zip(replied, enumerated) if swap else zip(enumerated, replied)
    # tuple.__new__ builds each pair without a Python-level call
    return value, list(map(partial(tuple.__new__, DeterministicStrategy), pairs))

"""Exact classical (local hidden variable) game value by best response.

Deterministic strategies achieve the classical maximum. Once one party's
response function is fixed, the other party's best reply splits over its
inputs: for each of them it picks the outputs of highest weighted score.
So the response functions of the side with fewer of them are enumerated,
all at once with numpy, and each is scored against its per-input best
replies. The functions whose score lies within a band of the top, each with
every combination of its near-best replies, are then rescored term by term
(``_scores``, one table lookup per input pair), so the value and the
maximizers are exactly those of scoring every strategy pair one by one.

The candidate pairs are expanded and rescored in blocks of
``BLOCK_LABELS`` labels (rows times the two sides' inputs), in two passes:
the first finds the value, the second counts the pairs within ``TIE_ATOL``
of it and lists the first ``MAX_LISTED_MAXIMIZERS``, in lexicographic
``(f_a, f_b)`` order, as Python tuples. So the rescoring holds one block at
a time, whatever the number of candidate pairs: a 10x10 or an 11x12 game on
which every pair ties peaks at under 12 MiB. The second pass skips the
blocks below the value; with Alice's functions enumerated it also counts,
from the first pass, a block that tops at the value once the list is
full, so a tie game's pairs are rescored once each.

``ENUMERATION_GUARD`` bounds the score table of the enumerated side
(functions times the other side's inputs times its outputs), and so its
memory, and the number of candidate pairs, which bounds only the time
spent rescoring.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import TooLargeError
from .games import GameSpec

# Bounds the enumerated side's score table (memory) and the candidate pairs (time).
ENUMERATION_GUARD = 10_000_000
TIE_ATOL = 1e-12
# Candidate band, relative to the largest attainable |score| (at least 1):
# far wider than TIE_ATOL and than the rounding of the reordered sums of the
# best-response pass, so no pair within TIE_ATOL of the value is missed.
CANDIDATE_RTOL = 1e-9
# The maximizers listed: the first this many in lexicographic (f_a, f_b) order.
MAX_LISTED_MAXIMIZERS = 1_000
# Candidate pairs are expanded and rescored this many labels at a time.
BLOCK_LABELS = 1 << 20


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


def classical_value(spec: GameSpec) -> tuple[float, list[DeterministicStrategy], int]:
    """Maximum over deterministic strategies, its first maximizers and their count.

    Maximizers are the strategy pairs within ``TIE_ATOL`` of the maximum.
    ``count`` is their exact number, and the list holds the first
    ``MAX_LISTED_MAXIMIZERS`` of them in lexicographic ``(f_a, f_b)`` order.
    ``TooLargeError`` is raised, before any large array is built, when the
    enumerated side's score table or the candidate pairs would exceed
    ``ENUMERATION_GUARD``.
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

    # Candidate pair k is the rank-th product of its candidate's per-input tie
    # sets, the last input varying fastest, so pairs stay in lexicographic
    # order of (enumerated function, reply function). A pair is the row
    # [f_a | f_b] of its labels.
    sizes = sizes.astype(np.intp)
    ends = np.cumsum(sizes)
    firsts = ends - sizes
    n_pairs = int(ends[-1])
    # Each candidate's replies to each input, tied ones first, flattened:
    # candidate c's t-th tied reply to input j is at (c * n_rest + j) * n_reply + t.
    tied_first = np.argsort(~ties, axis=2, kind="stable").astype(label).ravel()
    chosen = funcs[cand]
    reply_at, chosen_at = (0, n_rest) if swap else (n_in, 0)

    def pairs(k: np.ndarray) -> np.ndarray:
        owner = np.searchsorted(ends, k, side="right")
        rank = k - firsts.take(owner)
        rows = np.empty((len(k), n_in + n_rest), dtype=label)
        rows[:, chosen_at:chosen_at + n_in] = chosen.take(owner, axis=0)
        n = counts.take(owner, axis=0)
        at = owner * (n_rest * n_reply)
        for j in reversed(range(n_rest)):
            rank, t = np.divmod(rank, n[:, j])
            t += at
            rows[:, reply_at + j] = tied_first.take(t + j * n_reply)
        return rows

    def scored(start: int) -> tuple[np.ndarray, np.ndarray]:
        rows = pairs(np.arange(start, min(start + block, n_pairs)))
        return rows, _scores(spec, rows[:, :spec.n_x], rows[:, spec.n_x:])

    # Rescore a block at a time, first for the value, then to count and list
    # the maximizers; the first block is kept, so one block is rescored once.
    # The first pass keeps each block's top score and its pairs within
    # TIE_ATOL of it: a block below the value is skipped, and one that tops
    # at the value is counted without its rows once the list is full. With
    # Bob's functions enumerated the pairs are not in (f_a, f_b) order, so
    # each block's maximizers are merged by a sort and its rows are needed.
    block = max(1, BLOCK_LABELS // (n_in + n_rest))
    starts = range(0, n_pairs, block)
    first = scored(0)
    tops = []
    for start in starts:
        scores = first[1] if start == 0 else scored(start)[1]
        top = scores.max()
        tops.append((top, np.count_nonzero(scores >= top - TIE_ATOL)))
    value = max(top for top, _ in tops)
    count = 0
    listed = first[0][:0]
    for start, (top, n_top) in zip(starts, tops):
        if top < value - TIE_ATOL:
            continue
        if not swap and len(listed) == MAX_LISTED_MAXIMIZERS and top == value:
            count += n_top
            continue
        rows, scores = first if start == 0 else scored(start)
        k = np.flatnonzero(scores >= value - TIE_ATOL)
        count += len(k)
        if swap:
            listed = np.concatenate([listed, rows[k]])
            listed = listed[np.lexsort(listed.T[::-1])[:MAX_LISTED_MAXIMIZERS]]
        else:
            listed = np.concatenate([listed, rows[k[:MAX_LISTED_MAXIMIZERS - len(listed)]]])
    # zip builds each function's tuple from the label columns, and
    # tuple.__new__ each pair, without a Python-level call
    f_a = zip(*listed[:, :spec.n_x].T.tolist())
    f_b = zip(*listed[:, spec.n_x:].T.tolist())
    maximizers = list(map(partial(tuple.__new__, DeterministicStrategy), zip(f_a, f_b)))
    return value, maximizers, count

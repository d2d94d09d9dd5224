"""Ascent sequences, patterns, and avoidance-class enumeration.

An ascent sequence is a string of non-negative integers whose first entry
is 0 and whose every later entry is at most one more than the number of
ascents (strict rises between adjacent entries) among the entries before
it.  A pattern is a reduced integer string; a sequence contains the
pattern if some subsequence of it is order-isomorphic to the pattern.

Everything here works from those definitions alone: validity, reduction,
containment, the set of digits that can legally extend a sequence without
creating a forbidden pattern, and one depth-first walk of the avoidance
class of a pattern set from the empty word.  The walk counts the avoiders
of every length up to a depth and hands each shorter avoider, with its
appendable digits, to an optional visitor; enumeration is such a visitor.
All of these run on one incremental dynamic program over pattern prefixes
(partial assignments of sequence values to pattern values), extended one
digit at a time; the digits that would complete a pattern form one
bitmask.  A naive scan over all index subsequences is kept as the test
oracle.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Sequence

__all__ = [
    "asc_count",
    "is_valid_ascent_sequence",
    "reduce",
    "is_reduced",
    "contains",
    "contains_naive",
    "valid_append_set",
    "enumerate_avoiders",
    "count_avoiders",
    "visit_avoiders",
    "parse_sequence",
    "format_sequence",
    "parse_patterns",
    "format_patterns",
]

Word = tuple[int, ...]


def asc_count(word: Sequence[int]) -> int:
    """Number of positions j with word[j] < word[j+1]."""
    if len(word) == 0:
        raise ValueError("ascent count of an empty word is undefined")
    return sum(1 for a, b in zip(word, word[1:]) if a < b)


def is_valid_ascent_sequence(word: Sequence[int]) -> bool:
    """True iff word starts at 0 and respects the ascent growth bound."""
    if len(word) == 0 or word[0] != 0:
        return False
    asc = 0
    for i in range(1, len(word)):
        if word[i] < 0 or word[i] > asc + 1:
            return False
        if word[i] > word[i - 1]:
            asc += 1
    return True


def reduce(word: Sequence[int]) -> Word:
    """Replace the i-th smallest distinct value of word by i-1.

    The result is order-isomorphic to the input and idempotent under
    repeated application.
    """
    if len(word) == 0:
        raise ValueError("cannot reduce an empty word")
    rank = {v: i for i, v in enumerate(sorted(set(word)))}
    return tuple(rank[v] for v in word)


def is_reduced(word: Sequence[int]) -> bool:
    """True iff the distinct values of word are exactly 0..m."""
    return len(word) > 0 and set(word) == set(range(len(set(word))))


def _check_pattern(pattern: Sequence[int]) -> Word:
    p = tuple(pattern)
    if not p:
        raise ValueError("empty pattern")
    if not is_reduced(p):
        raise ValueError(f"pattern {p} is not in reduced form")
    return p


def _normalize_patterns(patterns: Iterable[Sequence[int]]) -> tuple[Word, ...]:
    """Canonical sorted tuple of reduced patterns; empty set means no constraint."""
    out = sorted({_check_pattern(p) for p in patterns})
    return tuple(out)


# ---------------------------------------------------------------------------
# Containment: one incremental dynamic program over pattern prefixes.
#
# A partial match of pattern p is an assignment pm of sequence values to the
# distinct pattern values used by a prefix of p, realised by some increasing
# index subsequence.  pm is stored as a tuple indexed by pattern value, with
# None for values not yet assigned.  Extending a match that has j positions
# filled consumes one more sequence element as position j; the element must
# equal pm[p[j]] if that value is already assigned, and otherwise must lie
# strictly between the nearest assigned values below and above p[j].
#
# A tracker keeps the partial matches of its pattern with 1..k-3 positions
# filled against the word pushed so far, bucketed by the digit each would
# consume next.  Those with k-2 positions filled are not bucketed: for each
# digit d, done[d] is a stack whose top is the OR of their closing masks for
# d, the digits that complete the pattern once such a match has consumed d
# (for k = 2, the base entry holds the empty match's mask).  Matches with k-1
# positions filled are not stored either: the caller keeps the union of their
# windows, the digits that complete the pattern, as one bitmask called
# forbid.  Partial matches only grow with the word (old subsequences stay
# subsequences), so forbid only gains bits, and undo pops what push appended.
# completes(d) must be read before push(d): the matches push(d) creates may
# not consume that same d.  Digits lie in 0..max_digit.
# ---------------------------------------------------------------------------


def _extend(pm: tuple, c: int, x: int) -> tuple:
    if pm[c] is not None:
        return pm
    return pm[:c] + (x,) + pm[c + 1 :]


class _PatternTracker:
    __slots__ = ("pattern", "k", "max_digit", "empty", "accept", "seen", "done", "rel")

    def __init__(self, pattern: Word, max_digit: int):
        self.pattern = pattern
        self.k = len(pattern)
        self.max_digit = max_digit
        self.empty = (None,) * (max(pattern) + 1)
        # accept[j][d], 1 <= j <= k-3: partial matches with j positions filled
        # that can consume d as position j; seen[j], 1 <= j <= k-2, is the set
        # of matches with j positions filled: none is stored twice.
        self.accept = [None] + [[[] for _ in range(max_digit + 1)] for _ in range(self.k - 3)]
        self.seen = [None] + [set() for _ in range(self.k - 2)]
        # rel[d]: the digits that stand to d as p[-1] stands to p[-2] (above,
        # below or equal).  Consuming d as position k-2 narrows a match's
        # window for p[-1] to the part that rel[d] holds: its closing mask.
        c2, c1 = pattern[-2:]
        self.rel = [
            1 << d if c1 == c2 else -(2 << d) if c1 > c2 else (1 << d) - 1
            for d in range(max_digit + 1)
        ]
        base = (2 << max_digit) - 1 if self.k == 2 else 0
        self.done = [[base & r] for r in self.rel]

    def window(self, pm: tuple, c: int) -> tuple[int, int]:
        v = pm[c]
        if v is not None:
            return v, v
        lo, hi = 0, self.max_digit
        for cc in range(c - 1, -1, -1):
            w = pm[cc]
            if w is not None:
                lo = w + 1
                break
        for cc in range(c + 1, len(pm)):
            w = pm[cc]
            if w is not None:
                hi = w - 1
                break
        return lo, hi

    def completes(self, d: int) -> int:
        """Bitmask of the digits that complete the pattern once d is appended.

        These are the windows of the matches with k-2 positions filled that
        can consume d (the empty match when k = 2), each extended by d: push
        keeps their OR on top of done[d].
        """
        return self.done[d][-1]

    def push(self, d: int) -> list:
        """Append digit d; returns a trail for undo."""
        p = self.pattern
        last = self.k - 2
        fresh = [(1, _extend(self.empty, p[0], d))] if last else []
        # the new matches join the buckets only after every bucket is read,
        # so none of them consumes this same d
        for j in range(1, last):
            cj = p[j]
            fresh.extend((j + 1, _extend(pm, cj, d)) for pm in self.accept[j][d])
        trail = []
        for j2, pm2 in fresh:
            seen = self.seen[j2]
            if pm2 in seen:
                continue
            seen.add(pm2)
            lo, hi = self.window(pm2, p[j2])
            trail.append((j2, pm2, lo, hi))
            if j2 < last:
                level = self.accept[j2]
                for dd in range(lo, hi + 1):
                    level[dd].append(pm2)
                continue
            lo1, hi1 = self.window(pm2, p[-1])
            closing = (2 << hi1) - (1 << lo1) if lo1 <= hi1 else 0
            done, rel = self.done, self.rel
            for dd in range(lo, hi + 1):
                stack = done[dd]
                stack.append(stack[-1] | closing & rel[dd])
        return trail

    def undo(self, trail: list) -> None:
        last = self.k - 2
        for j2, pm2, lo, hi in reversed(trail):
            self.seen[j2].remove(pm2)
            level = self.accept[j2] if j2 < last else self.done
            for dd in range(lo, hi + 1):
                level[dd].pop()


def contains(word: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff some subsequence of word reduces to pattern."""
    p = _check_pattern(pattern)
    if len(word) < len(p):
        return False
    if len(p) == 1:
        return True
    # reducing first keeps every digit a valid bucket index
    w = reduce(word)
    tracker = _PatternTracker(p, max(w))
    forbid = 0
    for x in w:
        if forbid >> x & 1:
            return True
        forbid |= tracker.completes(x)
        tracker.push(x)
    return False


def contains_naive(word: Sequence[int], pattern: Sequence[int]) -> bool:
    """Containment by exhaustive scan over index subsequences (test oracle)."""
    w = tuple(word)
    p = _check_pattern(pattern)
    if len(w) < len(p):
        return False
    return any(reduce(sub) == p for sub in combinations(w, len(p)))


def valid_append_set(
    seq: Sequence[int], patterns: Iterable[Sequence[int]]
) -> tuple[int, ...]:
    """All digits whose append keeps the sequence inside the avoidance class.

    Returns the digits in increasing order.  The last digit of seq is always
    a member: repeating it creates no ascent and no new pattern occurrence.
    """
    w = tuple(seq)
    B = _normalize_patterns(patterns)
    top = asc_count(w) + 1
    if any(len(p) == 1 for p in B):
        return ()
    # shift so that every digit of seq and every candidate is a bucket index
    lo = min(0, *w)
    max_digit = max(top, *w) - lo
    trackers = [_PatternTracker(p, max_digit) for p in B]
    forbid = 0
    for x in w:
        for t in trackers:
            forbid |= t.completes(x - lo)
            t.push(x - lo)
    return tuple(d for d in range(top + 1) if not forbid >> (d - lo) & 1)


# ---------------------------------------------------------------------------
# Depth-first walk from the empty word: one tracker per pattern follows the
# current word, and rec gets the word's forbid mask from its parent: the
# parent's mask with the trackers' completes() for the word's last digit.
# A word's appendable digits are the digits up to asc + 1 that its mask
# leaves free; the empty word has asc = -1 and a last digit of -1, so its
# one kid is (0,), whose 0 counts as an ascent.  Words of length n_max - 1
# are neither pushed nor passed to rec, as a call per word costs more than
# the loop body: their parent reads their masks in its kid loop.
# ---------------------------------------------------------------------------


def _walk(
    n_max: int,
    patterns: tuple[Word, ...],
    visit: Callable[[Word, Word], None] | None = None,
) -> list[int]:
    """DFS over the avoidance class up to length n_max.

    Returns counts: counts[n] is the number of avoiders of length n.  When
    visit is given it is called as visit(seq, appendable) for every avoider
    shorter than n_max, the empty word first, in lexicographic order.
    """
    counts = [0] * (n_max + 1)
    if n_max < 1 or any(len(p) == 1 for p in patterns):
        return counts  # a single-value pattern occurs in every nonempty word: no visit
    trackers = [_PatternTracker(p, n_max - 1) for p in patterns if len(p) <= n_max]
    seq: list[int] = []

    def rec(depth: int, asc: int, forbid: int) -> None:
        kids = [d for d in range(asc + 2) if not forbid >> d & 1]
        if visit is not None:
            visit(tuple(seq), tuple(kids))
        counts[depth + 1] += len(kids)
        if depth + 1 == n_max:
            return  # n_max = 1: the empty word's kids are the longest words
        last = seq[-1] if depth else -1
        for d in kids:
            child = forbid
            for t in trackers:
                child |= t.completes(d)
            kid_asc = asc + 1 if d > last else asc
            if depth + 2 < n_max:
                trails = [t.push(d) for t in trackers]
                seq.append(d)
                rec(depth + 1, kid_asc, child)
                seq.pop()
                for t, tr in zip(trackers, trails):
                    t.undo(tr)
                continue
            top = kid_asc + 1
            leaf = ~child & ((2 << top) - 1)
            counts[n_max] += leaf.bit_count()
            if visit is not None:
                visit((*seq, d), tuple([x for x in range(top + 1) if leaf >> x & 1]))

    rec(0, -1, 0)
    return counts


# the last pattern set count_avoiders walked and its counts
_LAST_COUNT: tuple[tuple[Word, ...], list[int]] = ((), [])


def enumerate_avoiders(
    n: int, patterns: Iterable[Sequence[int]]
) -> list[Word]:
    """All avoiders of length n, in lexicographic order."""
    words: list[Word] = []

    def collect(seq: Word, appendable: Word) -> None:
        if len(seq) == n - 1:
            words.extend(seq + (d,) for d in appendable)

    _walk(n, _normalize_patterns(patterns), collect)
    return words


def count_avoiders(n_max: int, patterns: Iterable[Sequence[int]]) -> list[int]:
    """Sizes of the avoidance class for lengths 1..n_max.

    Counting walks the extension tree without materialising the sequences.
    Only the last pattern set walked keeps its counts: a request for it at
    the same or a smaller depth gets a copy, and any other request walks.
    """
    global _LAST_COUNT
    if n_max < 1:
        return []
    B = _normalize_patterns(patterns)
    last, counts = _LAST_COUNT
    if last != B or len(counts) < n_max:
        counts = _walk(n_max, B)[1:]
        _LAST_COUNT = B, counts
    return counts[:n_max]


def visit_avoiders(
    n_max: int,
    patterns: Iterable[Sequence[int]],
    visit: Callable[[Word, Word], None],
) -> None:
    """Call visit(seq, appendable) for every avoider of length at most n_max,
    in lexicographic order (a parent before its children); appendable is
    valid_append_set(seq, patterns), read off the walk at no extra cost."""

    def nonempty(seq: Word, appendable: Word) -> None:
        if seq:
            visit(seq, appendable)

    _walk(n_max + 1, _normalize_patterns(patterns), nonempty)


# ---------------------------------------------------------------------------
# Text formats: sequences and patterns are bare digit strings ("0120102"),
# pattern sets comma-separated ("201,210").  Pattern digits are restricted
# to 0-9; sequences whose digits exceed 9 use a dotted form ("0.1.2.10").
# ---------------------------------------------------------------------------


def parse_sequence(text: str) -> Word:
    s = text.strip()
    if not s:
        raise ValueError("empty sequence text")
    if "." in s:
        return tuple(int(part) for part in s.split("."))
    return tuple(int(ch) for ch in s)


def format_sequence(seq: Sequence[int]) -> str:
    if any(d > 9 for d in seq):
        return ".".join(str(d) for d in seq)
    return "".join(str(d) for d in seq)


def parse_patterns(text: str) -> tuple[Word, ...]:
    parts = [part.strip() for part in text.split(",")]
    if not any(parts):
        raise ValueError("empty pattern set")
    patterns = []
    for part in parts:
        if not part:
            raise ValueError(f"empty pattern in {text!r}")
        if not (part.isascii() and part.isdigit()):  # isdigit is true for other scripts' digits
            raise ValueError(f"pattern {part!r} must be a digit string (0-9)")
        patterns.append(_check_pattern(tuple(int(ch) for ch in part)))
    return _normalize_patterns(patterns)


def format_patterns(patterns: Iterable[Sequence[int]]) -> str:
    return ",".join("".join(str(d) for d in p) for p in _normalize_patterns(patterns))

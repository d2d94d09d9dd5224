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
So is its text path: it keeps each avoider of length n - 1 with its
appendable digits, formats them all in one pass through a byte table, and
writes each word as its parent's text and one digit.
All of these run on one incremental dynamic program over pattern prefixes
(partial assignments of sequence values to pattern values), extended one
digit at a time by one tracker for the whole pattern set; the digits that
would complete a pattern form one bitmask.  The walk pushes no word of
the last two lengths below its depth: it reads their masks off the
tracker.  A naive scan over all index subsequences is kept as the test
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
    "format_avoiders",
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
# One tracker follows a whole pattern set.  For each pattern of length k it
# keeps the partial matches with 0..k-3 positions filled against the word
# pushed so far, bucketed by the digit each would consume next (the empty
# match sits in every bucket of level 0).  Those with k-2 positions filled are
# not stored: each has closing masks, for each digit d the digits that
# complete its pattern once it has consumed d, and done is a stack with one
# entry per pushed digit, the OR over all matches of those masks, packed into
# one integer with max_digit + 1 bits per d (for k = 2 the base entry holds
# the empty match's masks).  An OR takes in a match twice at no harm, so no
# set keeps them apart.  Matches with k-1 positions filled are not stored
# either: the caller keeps the union of their windows, the digits that
# complete a pattern, as one bitmask called forbid.  Partial matches only grow
# with the word (old subsequences stay subsequences), so forbid only gains
# bits, and undo pops what push appended; after(d) reads what push(d) would
# stack on done without pushing.  completes(d) must be read before push(d):
# the matches push(d) creates may not consume that same d.  Digits lie in
# 0..max_digit.
# ---------------------------------------------------------------------------


def _extend(pm: tuple, c: int, x: int) -> tuple:
    if pm[c] is not None:
        return pm
    return pm[:c] + (x,) + pm[c + 1 :]


class _PatternTracker:
    __slots__ = ("max_digit", "width", "slots", "done")

    def __init__(self, patterns: Iterable[Word], max_digit: int):
        self.max_digit = max_digit
        self.width = max_digit + 1
        # one slot per pattern p of length k: (p, k - 2, memo, accept, seen).
        # accept[j][d], 0 <= j <= k-3: partial matches with j positions
        # filled that can consume d as position j (the empty match alone for
        # j = 0); seen[j], 1 <= j <= k-3, is the set of matches with j
        # positions filled: none is stored twice.  memo maps each match with
        # k-2 positions filled to its packed closing masks, once computed.
        self.slots = []
        base = 0
        for p in patterns:
            k = len(p)
            empty = (None,) * (max(p) + 1)
            accept = [[[empty]] * (max_digit + 1)]
            accept += [[[] for _ in range(max_digit + 1)] for _ in range(k - 3)]
            seen = [None] + [set() for _ in range(k - 3)]
            self.slots.append((p, k - 2, {}, accept, seen))
            if k == 2:
                base |= self.closing(empty, p)
        self.done = [base]

    def window(self, pm: tuple, c: int) -> tuple[int, int]:
        """The digits (lo, hi) that match pm can consume for pattern value c."""
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

    def closing(self, pm: tuple, p: Word) -> int:
        """The packed closing masks of pm, a match of p with k-2 positions
        filled: for each digit e it can consume as position k-2, the digits
        that then complete p, its window for p[-1] once it has consumed e."""
        packed = 0
        lo, hi = self.window(pm, p[-2])
        for e in range(lo, hi + 1):
            lo1, hi1 = self.window(_extend(pm, p[-2], e), p[-1])
            if lo1 <= hi1:
                packed |= (2 << hi1) - (1 << lo1) << e * self.width
        return packed

    def completes(self, d: int) -> int:
        """Bitmask of the digits that complete a pattern once d is appended."""
        return self.done[-1] >> d * self.width & (1 << self.width) - 1

    def after(self, d: int) -> int:
        """What push(d) stacks on done, read without pushing: the top of done
        ORed with the packed closing masks of the matches with k-2 positions
        filled that d makes."""
        packed = self.done[-1]
        for p, last, memo, accept, _ in self.slots:
            if not last:
                continue
            c = p[last - 1]
            for pm in accept[last - 1][d]:
                pm = _extend(pm, c, d)
                got = memo.get(pm)
                if got is None:
                    got = memo[pm] = self.closing(pm, p)
                packed |= got
        return packed

    def push(self, d: int) -> list:
        """Append digit d; returns a trail for undo."""
        # every bucket is read before a new match joins one, so that none
        # of them consumes this same d
        self.done.append(self.after(d))
        trail = []
        for p, last, _, accept, seen in self.slots:
            fresh = [
                (j + 1, _extend(pm, p[j], d)) for j in range(last - 1) for pm in accept[j][d]
            ]
            for j2, pm2 in fresh:
                known = seen[j2]
                if pm2 not in known:  # two stored matches can make the same one
                    known.add(pm2)
                    lo, hi = self.window(pm2, p[j2])
                    level = accept[j2]
                    for dd in range(lo, hi + 1):
                        level[dd].append(pm2)
                    trail.append((known, pm2, level, lo, hi))
        return trail

    def undo(self, trail: list) -> None:
        self.done.pop()
        for known, pm2, level, lo, hi in reversed(trail):
            known.remove(pm2)
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
    tracker = _PatternTracker((p,), max(w))
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

    Returns the digits in increasing order.  When seq is an avoider and no
    pattern ends in two equal values, the last digit of seq is a member:
    repeating it creates no ascent, and an occurrence ending at the repeat
    would end at the original.  A pattern ending in a repeated value breaks
    this: valid_append_set((0,), [(0, 0)]) is (1,).
    """
    w = tuple(seq)
    B = _normalize_patterns(patterns)
    top = asc_count(w) + 1
    if any(len(p) == 1 for p in B):
        return ()
    # shift so that every digit of seq and every candidate is a bucket index
    lo = min(0, *w)
    tracker = _PatternTracker(B, max(top, *w) - lo)
    forbid = 0
    for x in w:
        forbid |= tracker.completes(x - lo)
        tracker.push(x - lo)
    return tuple(d for d in range(top + 1) if not forbid >> (d - lo) & 1)


# ---------------------------------------------------------------------------
# Depth-first walk from the empty word: one tracker follows the current word,
# and rec gets the word's forbid mask from its parent: the parent's mask with
# completes() of the word's last digit, read off tops, the packed masks that
# the tracker holds for the parent.  A word's appendable digits are the
# digits up to asc + 1 that its mask leaves free; the empty word has asc = -1
# and a last digit of -1, so its one kid is (0,), whose 0 counts as an
# ascent.  Words of length n_max - 1 are neither pushed nor passed to rec, as
# a call per word costs more than the loop body: their parent reads their
# masks in its kid loop.  Words of length n_max - 2 are passed to rec but not
# pushed, as no word below them reads the tracker's buckets: their tops is
# after(d), what push(d) would stack on done.
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
    tracker = _PatternTracker([p for p in patterns if len(p) <= n_max], n_max - 1)
    done = tracker.done
    width = tracker.width
    full = (1 << width) - 1
    seq: list[int] = []

    def rec(depth: int, asc: int, forbid: int, tops: int) -> None:
        kids = [d for d in range(asc + 2) if not forbid >> d & 1]
        if visit is not None:
            visit(tuple(seq), tuple(kids))
        counts[depth + 1] += len(kids)
        if depth + 1 == n_max:
            return  # n_max = 1: the empty word's kids are the longest words
        last = seq[-1] if depth else -1
        for d in kids:
            child = forbid | tops >> d * width & full
            kid_asc = asc + 1 if d > last else asc
            if depth + 3 < n_max:
                trail = tracker.push(d)
                seq.append(d)
                rec(depth + 1, kid_asc, child, done[-1])
                seq.pop()
                tracker.undo(trail)
                continue
            if depth + 2 < n_max:
                seq.append(d)
                rec(depth + 1, kid_asc, child, tracker.after(d))
                seq.pop()
                continue
            top = kid_asc + 1
            leaf = ~child & ((2 << top) - 1)
            counts[n_max] += leaf.bit_count()
            if visit is not None:
                visit((*seq, d), tuple([x for x in range(top + 1) if leaf >> x & 1]))

    rec(0, -1, 0, done[-1])
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


def format_avoiders(n: int, patterns: Iterable[Sequence[int]]) -> list[str]:
    """The text of every avoider of length n, in lexicographic order:
    [format_sequence(w) for w in enumerate_avoiders(n, patterns)]."""
    if n > 10:  # a word may hold a digit above 9, which takes the dotted form
        return [format_sequence(w) for w in enumerate_avoiders(n, patterns)]
    parents = bytearray()  # the avoiders of length n - 1, back to back
    kids: list[Word] = []

    def collect(seq: Word, appendable: Word) -> None:
        if len(seq) == n - 1:
            parents.extend(seq)
            kids.append(appendable)

    _walk(n, _normalize_patterns(patterns), collect)
    text = parents.translate(_DIGITS).decode()
    digits = _DIGITS[:10].decode()  # "0123456789"
    m = n - 1
    words: list[str] = []
    for i, appendable in enumerate(kids):
        head = text[i * m : i * m + m]
        words += [head + digits[d] for d in appendable]
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


# byte d -> the ASCII digit of d, for d in 0..9
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def format_sequence(seq: Sequence[int]) -> str:
    """The text of a word of non-negative digits."""
    if max(seq, default=0) > 9:
        return ".".join(str(d) for d in seq)
    return bytes(seq).translate(_DIGITS).decode()


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

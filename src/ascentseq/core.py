"""Ascent sequences, patterns, and avoidance-class enumeration.

An ascent sequence is a string of non-negative integers whose first entry
is 0 and whose every later entry is at most one more than the number of
ascents (strict rises between adjacent entries) among the entries before
it.  A pattern is a reduced integer string; a sequence contains the
pattern if some subsequence of it is order-isomorphic to the pattern.

Everything here works from those definitions alone: validity, reduction,
containment, the set of digits that can legally extend a sequence without
creating a forbidden pattern, and one depth-first walk of the avoidance
class of a pattern set from the empty word.  The walk is one recursive
function that returns the counts of the avoiders of every length below a
word, up to a depth, and hands each shorter avoider, with its appendable
digits, to an optional visitor; enumeration is such a visitor.  So is its
text path: it keeps each avoider of length n - 1 with its appendable
digits, formats them all in one pass through a byte table, and writes
each word as its parent's text and one digit.
All of these run on one deterministic automaton for the whole pattern
set, built lazily as words reach its states: a state holds a word's
partial matches (partial assignments of sequence values to pattern
values), equal states share one id, and the digits that would complete a
pattern form one bitmask read off the state.  The walk makes no call for
a word of the last length below its depth: it reads their masks off their
parents' states.  Without a visitor, the same function keeps the counts
below each word in a memo keyed on what the walk reads there, the state
id among it, so no such state is walked twice.  A naive scan over all
index subsequences is kept as the test oracle.
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
# Containment: one deterministic automaton over pattern prefixes.
#
# A partial match of pattern p is an assignment pm of sequence values to the
# distinct pattern values used by a prefix of p, realised by some increasing
# index subsequence.  pm is stored as a tuple indexed by pattern value, with
# None for values not yet assigned.  Extending a match that has j positions
# filled consumes one more sequence element as position j; the element must
# equal pm[p[j]] if that value is already assigned, and otherwise must lie
# strictly between the nearest assigned values below and above p[j].
#
# One automaton follows a whole pattern set.  Its state after a word is two
# things.  The first is the frozenset of the word's partial matches with at
# most k-3 positions filled, each as (pattern index, positions filled, pm),
# for each pattern of length k.  The second is tops: the matches with k-2
# positions filled are held only by their closing masks, for each digit d
# the digits that complete the pattern once the match has consumed d, and
# tops is the OR of these over all such matches, packed into one integer
# with max_digit + 1 bits per d (for k = 2 the empty match's masks are in
# every state).  An OR takes in a match twice at no harm, so no set keeps
# them apart.  Matches with k-1 positions filled are not held either: the
# caller keeps the union of their windows, the digits that complete a
# pattern, as one bitmask called forbid.  Partial matches only grow with the
# word (old subsequences stay subsequences), so step(sid, d) keeps all that
# state sid holds and adds what its matches make by consuming d, which
# grow(m) lists once per match for every digit of its window.  The
# automaton is built lazily: equal states share one integer id, and each
# (state, digit) transition is computed once.  completes(sid, d) is read off
# the state before d: the matches that d makes may not consume that same d.
# Digits lie in 0..max_digit.
# ---------------------------------------------------------------------------


def _extend(pm: tuple, c: int, x: int) -> tuple:
    if pm[c] is not None:
        return pm
    return pm[:c] + (x,) + pm[c + 1 :]


class _Automaton:
    __slots__ = (
        "patterns", "max_digit", "width", "ids", "matches", "tops", "moves", "growth", "start"
    )

    def __init__(self, patterns: Iterable[Word], max_digit: int):
        self.patterns = tuple(patterns)
        self.max_digit = max_digit
        self.width = max_digit + 1
        self.ids: dict[tuple, int] = {}  # (matches, tops) -> state id
        self.matches: list[frozenset] = []  # state id -> its stored matches
        self.tops: list[int] = []  # state id -> its packed closing masks
        self.moves: dict[int, int] = {}  # sid * width + d -> step(sid, d)
        self.growth: dict[tuple, tuple] = {}  # match -> grow(match)
        matches, tops = set(), 0
        for i, p in enumerate(self.patterns):
            empty = (None,) * (max(p) + 1)
            if len(p) == 2:
                tops |= self.closing(empty, p)
            else:
                matches.add((i, 0, empty))
        self.start = self.intern(frozenset(matches), tops)

    def intern(self, matches: frozenset, tops: int) -> int:
        """The id of the state (matches, tops), a new one if it is new."""
        key = (matches, tops)
        sid = self.ids.get(key)
        if sid is None:
            sid = self.ids[key] = len(self.tops)
            self.matches.append(matches)
            self.tops.append(tops)
        return sid

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

    def completes(self, sid: int, d: int) -> int:
        """Bitmask of the digits that complete a pattern once d is appended
        to a word in state sid."""
        return self.tops[sid] >> d * self.width & (1 << self.width) - 1

    def grow(self, m: tuple) -> tuple[int, list]:
        """(lo, yields) for the match m = (i, j, pm): yields[e - lo] is what m
        makes by consuming e, for each digit e of its window: a match, or once
        that has k-2 positions filled, its packed closing masks."""
        i, j, pm = m
        p = self.patterns[i]
        lo, hi = self.window(pm, p[j])
        yields = [(i, j + 1, _extend(pm, p[j], e)) for e in range(lo, hi + 1)]
        if j + 3 == len(p):
            yields = [self.closing(pm2, p) for _, _, pm2 in yields]
        self.growth[m] = lo, yields
        return lo, yields

    def step(self, sid: int, d: int) -> int:
        """The id of the state of a word in state sid once d is appended."""
        got = self.moves.get(sid * self.width + d)
        if got is None:
            tops = self.tops[sid]
            grown = set(self.matches[sid])
            for m in self.matches[sid]:
                lo, yields = self.growth.get(m) or self.grow(m)
                if 0 <= d - lo < len(yields):
                    x = yields[d - lo]
                    if type(x) is int:
                        tops |= x
                    else:
                        grown.add(x)
            got = self.moves[sid * self.width + d] = self.intern(frozenset(grown), tops)
        return got


def contains(word: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff some subsequence of word reduces to pattern."""
    p = _check_pattern(pattern)
    if len(word) < len(p):
        return False
    if len(p) == 1:
        return True
    # reducing first keeps every digit in 0..max_digit
    w = reduce(word)
    auto = _Automaton((p,), max(w))
    sid, forbid = auto.start, 0
    for x in w:
        if forbid >> x & 1:
            return True
        forbid |= auto.completes(sid, x)
        sid = auto.step(sid, x)
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
    # shift so that every digit of seq and every candidate is in 0..max_digit
    lo = min(0, *w)
    auto = _Automaton(B, max(top, *w) - lo)
    sid, forbid = auto.start, 0
    for x in w:
        forbid |= auto.completes(sid, x - lo)
        sid = auto.step(sid, x - lo)
    return tuple(d for d in range(top + 1) if not forbid >> (d - lo) & 1)


# ---------------------------------------------------------------------------
# Depth-first walk from the empty word: each word carries the id of its
# automaton state, sid, and gets its forbid mask from its parent: the
# parent's mask with completes() of the word's last digit, read off the
# parent's tops.  A word's appendable digits are the digits up to asc + 1
# that its mask leaves free; the empty word has asc = -1 and a last digit of
# -1, so its one kid is (0,), whose 0 counts as an ascent.  walk returns the
# counts of the r lengths below a word.  Words of length n_max - 1 get no
# call and no state: their parent reads their masks in its kid loop.  The
# counts below a word depend only on what the walk reads there: r, asc, the
# last digit, forbid and sid.  Without a visitor, a memo local to the walk
# keeps one count list per distinct key, a transfer-matrix count on the
# automaton's states.  With one, walk skips the memo and hands the visitor
# every word.
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
    if n_max < 1 or any(len(p) == 1 for p in patterns):
        return [0] * (n_max + 1)  # a single-value pattern occurs in every nonempty word: no visit
    auto = _Automaton([p for p in patterns if len(p) <= n_max], n_max - 1)
    step, tops, width = auto.step, auto.tops, auto.width
    full = (1 << width) - 1
    seq: list[int] = []
    memo: dict[tuple, list[int]] = {}

    def walk(r: int, asc: int, last: int, forbid: int, sid: int) -> list[int]:
        if visit is None:
            key = (r, asc, last, forbid, sid)
            got = memo.get(key)
            if got is not None:
                return got
        kids = [d for d in range(asc + 2) if not forbid >> d & 1]
        got = [len(kids)] + [0] * (r - 1)
        if visit is None:
            memo[key] = got  # filled below: the walk under it meets only smaller r
        else:
            visit(tuple(seq), tuple(kids))
        packed = tops[sid]
        for d in kids if r > 1 else ():  # r = 1: the root of a walk to n_max = 1
            child = forbid | packed >> d * width & full
            kid_asc = asc + 1 if d > last else asc
            if r == 2:
                leaf = ~child & ((4 << kid_asc) - 1)
                got[1] += leaf.bit_count()
                if visit is not None:
                    visit((*seq, d), tuple([x for x in range(kid_asc + 2) if leaf >> x & 1]))
                continue
            seq.append(d)
            below = walk(r - 1, kid_asc, d, child, step(sid, d))
            seq.pop()
            for i, c in enumerate(below, 1):
                got[i] += c
        return got

    counts = [0] + walk(n_max, -1, -1, 0, auto.start)
    del walk  # walk's closure holds walk: drop that cycle, and the memo and automaton with it
    return counts


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
    """Sizes of the avoidance class for lengths 1..n_max, counted without
    materialising the sequences."""
    if n_max < 1:
        return []
    return _walk(n_max, _normalize_patterns(patterns))[1:]


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

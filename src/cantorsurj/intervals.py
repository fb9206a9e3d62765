"""Clopen lex-intervals of b^w and filterings.

A filtering is a b-branching system of nested interval partitions: the depth-d
partition has b^d right-closed cells and each cell splits into b consecutive
children one level down.  We store finitely many levels explicitly (the
"support") and extend deeper on demand by a fixed greedy rule, so every
Filtering value denotes one fully determined infinite object.

The greedy rule, per cell [lo, hi]: the next division point is the q-point
(eventually-max point) strictly between the previous pick and hi that has the
shortest stem, ties broken lexicographically.  The rule is deterministic and
reproduces the standard cylinder partition when started from the whole space.
Each pick is in closed form (least_q_point_between), and so are a cell's
b-1 picks together, read as stems from the one first digit where lo and hi
differ (_pick_stems, the one greedy-split implementation).  A greedy level
is built in one pass over the level above, carrying each cell minimum as a
stem (Filtering.boundary_tuple), and kept in a filtering's one memo table.
Cells read one at a time take a stateless walk on end stems instead, one
walk per batch: Filtering._cell_ends descends for many words at once,
splitting each cell they share once (a single word is a batch of one), and
max_words finds for many points at once the shallowest cell each is the
maximum of (factor images).  Below a full cylinder every walk is in closed
form; cell_chain, one point's walk through every depth, follows x's own
digits there.  Cells are ClopenIntervals only where a caller asks for one;
the depth-d partition is its boundary tuple.  A pick stem c + (l,) has
l < top, so it is canonical as it stands and its point skips validation
(points.canonical_point); decoders and public constructors validate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .points import (
    Node,
    Point,
    canonical_point,
    json_int,
    max_point,
    min_point,
    rank_word,
    word_rank,
)

__all__ = [
    "ClopenInterval",
    "Filtering",
    "FilteringReport",
    "validate_filtering",
    "least_q_point_between",
    "entry_word",
    "MATERIALIZE_LIMIT",
]

# boundary_tuple(d) materializes b^d - 1 points; refuse silly depths
MATERIALIZE_LIMIT = 1 << 21


@dataclass(frozen=True, slots=True)
class ClopenInterval:
    """[lo, hi] with lo eventually 0 and hi eventually b-1.

    Every nonempty clopen lex-interval of b^w has endpoints of exactly this
    shape, and conversely every such pair with lo < hi describes one.
    """

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if self.lo.base != self.hi.base:
            raise ValueError("interval endpoints must share a base")
        if self.lo.tail != 0:
            raise ValueError(f"interval minimum must be eventually 0, got {self.lo}")
        if self.hi.tail != self.hi.base - 1:
            raise ValueError(f"interval maximum must be eventually max-digit, got {self.hi}")
        if not self.lo < self.hi:
            raise ValueError(f"empty interval: {self.lo} >= {self.hi}")

    @property
    def base(self) -> int:
        return self.lo.base

    @classmethod
    def whole(cls, base: int) -> "ClopenInterval":
        return cls(min_point(base), max_point(base))

    @classmethod
    def of_node(cls, s: Node) -> "ClopenInterval":
        return cls(s.min_point(), s.max_point())

    def intersect(self, other: "ClopenInterval") -> "ClopenInterval | None":
        lo = self.lo if other.lo < self.lo else other.lo
        hi = self.hi if self.hi < other.hi else other.hi
        return ClopenInterval(lo, hi) if lo < hi else None

    def to_json(self) -> dict:
        return {"lo": self.lo.to_json(), "hi": self.hi.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "ClopenInterval":
        return cls(Point.from_json(obj["lo"]), Point.from_json(obj["hi"]))

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True, slots=True)
class FilteringReport:
    ok: bool
    clause: str = ""
    path: tuple[int, ...] = ()
    message: str = ""


def validate_level(base: int, depth: int, entries: tuple[Point, ...]) -> FilteringReport:
    """Check one depth-`depth` boundary tuple on its own: entry count,
    entries interior eventually-max points of this base, strict increase.

    The single boundary-level check behind BoundaryTuple and
    validate_filtering.
    """
    want = base**depth - 1
    if len(entries) != want:
        return FilteringReport(
            False, "length", (depth,), f"depth {depth} has {len(entries)} entries, needs {want}"
        )
    for i, y in enumerate(entries):
        if y.base != base:
            return FilteringReport(False, "entry", (depth, i), f"entry {i} base {y.base} != {base}")
        if not y.is_q_point:
            return FilteringReport(
                False, "entry", (depth, i), f"entry {y} not an interior eventually-max point"
            )
        if i > 0 and not entries[i - 1] < y:
            return FilteringReport(
                False, "increasing", (depth, i), f"entries {i - 1},{i} out of order at depth {depth}"
            )
    return FilteringReport(True)


def cell_chain(tree, x: Point):
    """The cells containing x, one level down at a time.

    `tree` is a Filtering or a Surjection: anything with `base`, `support`
    and `child_maxima(word)`.  Yields (word, lo, hi) for depths 1, 2, ...
    without end, lo and hi being the stems of the cell's ends (lo's tail is
    0, hi's is b-1).  From the support on, a cell's division points are its
    greedy picks (_pick_stems); above it they are the tree's child maxima.
    A division point s top^w is at least x exactly when x's first |s| digits
    are at most s, so under the right-closed convention a division point
    stays in the lower cell.  From the first full cylinder on (_greedy_split)
    the cells are the cylinders of x's prefixes: no more picks.
    """
    top, s = tree.base - 1, tree.support
    word: tuple[int, ...] = ()
    lo: tuple[int, ...] = ()
    hi: tuple[int, ...] = ()
    n = 0  # lo and hi agree on their first n digits
    while True:
        if len(word) < s:
            picks = [_max_stem(p, top) for p in tree.child_maxima(word)]
        else:
            picks, n = _greedy_split(top, lo, hi, n)
            if picks is None:
                break  # a full cylinder: the cells below are x's prefixes
        i = 0
        while i < top and x.prefix(len(picks[i])) > picks[i]:
            i += 1
        lo, hi = _child_stems(top, lo, hi, picks, i)
        word += (i,)
        yield word, lo, hi
    # [v] -> [v d], d = x.digit(|v|): the ends' stems are v d, except that
    # lo keeps its stem when d is 0 and hi keeps its stem when d is top
    while True:
        d = x.digit(n - 1)
        word += (d,)
        v = x.prefix(n)
        if d:
            lo = v
        if d != top:
            hi = v
        yield word, lo, hi
        n += 1


def max_words(tree, xs) -> list[tuple[int, ...] | None]:
    """For ascending interior q-points xs, the word of the shallowest cell
    of `tree` whose maximum each one is, or None where that cell is deeper
    than tree.support + len(stem), the bound of corollary (i) of the
    greedy-cylinder lemma (in surjections).

    One walk of the tree for the whole batch, so a cell holding several
    entries is split once: a cell's entries are cut at its division points
    by cell_chain's rule, and an entry stops at the first cell whose hi end
    it equals.  Such a word never ends in the top digit: a last child shares
    its parent's maximum, so the shallowest hit is at the parent, and the
    depth-0 maximum is the top point, no interior point.  A full cylinder
    [v] below the support holds no entry of stem length <= |v| (that entry
    would be max [v]); an entry with stem c is max [c], whose word is the
    cylinder's word followed by c's digits after v.
    """
    top, s = tree.base - 1, tree.support
    out: list[tuple[int, ...] | None] = [None] * len(xs)
    stack = [((), (), (), 0, range(len(xs)))]
    while stack:
        word, lo, hi, n, group = stack.pop()
        j = len(word)
        if j < s:
            picks = [_max_stem(p, top) for p in tree.child_maxima(word)]
        else:
            picks, n = _greedy_split(top, lo, hi, n)
            if picks is None:
                if j - (n - 1) <= s:  # the depth j + |c| - |v| is within bound
                    for k in group:
                        out[k] = word + xs[k].stem[n - 1 :]
                continue
        children: list[list[int]] = [[] for _ in range(top + 1)]
        i = 0
        for k in group:
            x = xs[k]
            while i < top and x.prefix(len(picks[i])) > picks[i]:
                i += 1
            children[i].append(k)
        j += 1
        for digit, kids in enumerate(children):
            if kids:
                lo_k, hi_k = _child_stems(top, lo, hi, picks, digit)
                word_k, rest = word + (digit,), []
                for k in kids:
                    stem = xs[k].stem
                    if stem == hi_k:
                        out[k] = word_k
                    elif j < s + len(stem):
                        rest.append(k)
                if rest:
                    stack.append((word_k, lo_k, hi_k, n, rest))
    return out


def least_q_point_between(lower: Point, hi: Point) -> Point:
    """The (stem-length, then lex)-least eventually-max point strictly
    between lower and hi, built from their first differing digit.

    With n that index, c the common prefix, l < h the digits there and
    top = b-1: every point between lies in the cylinder c, whose one q-point
    of stem length <= n is c top^w >= hi, so no stem shorter than n+1 fits.
    Of length n+1 the least fit is c l top^w unless that is lower, else
    c (l+1) top^w when l+1 < h.  Otherwise lower = c l top^w, h = l+1, and
    every point between lies in the cylinder c h below hi: with m > n the
    first index where hi has a nonzero digit, the least is c h 0^(m-n) top^w.
    No such m exists exactly for a successor pair (hi the eventually-zero
    successor of lower), the one empty open interval with lower < hi.
    """
    n = lower.first_difference(hi)
    if n is None or lower.digit(n) > hi.digit(n):
        raise ValueError(f"empty open interval ({lower}, {hi})")
    b, top = lower.base, lower.base - 1
    c, l, h = lower.prefix(n), lower.digit(n), hi.digit(n)
    if lower.tail != top or len(lower.stem) > n + 1:
        return Point(b, c + (l,), top)
    if l + 1 < h:
        return Point(b, c + (l + 1,), top)
    if hi.tail == 0 and not any(hi.stem[n + 1 :]):
        raise ValueError(f"empty open interval ({lower}, {hi}): successor pair")
    m = next(i for i in range(n + 1, n + 2 + len(hi.stem)) if hi.digit(i))
    return Point(b, c + (h,) + (0,) * (m - n), top)


def _pick_stems(
    top: int, lo: tuple[int, ...], hi: tuple[int, ...], n: int = 0
) -> list[tuple[int, ...]]:
    """Stems of the b-1 greedy division points of the cell
    [lo 0^w, hi top^w], each pick being its stem followed by top^w, given
    that lo and hi agree on their first n digits.

    Pick p is least_q_point_between(pick p-1, hi), with pick -1 the cell
    minimum.  With n' the first index where lo and hi differ, pick 0 is
    hi[:n'] lo[n'] top^w (that function's first case: lo is eventually 0).
    Every pick has the shape hi[:i] l top^w with l < hi[i], so its first
    difference with hi is i and its stem has length <= i+1; the next pick
    is the second case, hi[:i] (l+1) top^w, when l+1 < hi[i], else the
    third, hi[:m] 0 top^w with m > i the next index where hi has a nonzero
    digit: the same shape with (i, l) = (m, 0).  hi is eventually top >= 1,
    so m exists and no successor pair arises.  Pick 0 has length n'+1; the
    ends of every child agree on their first n'+1 digits, as it lies in a
    cylinder that long."""
    k, m = len(hi), len(lo)
    while (lo[n] if n < m else 0) == (hi[n] if n < k else top):
        n += 1
    l, h = (lo[n] if n < m else 0), (hi[n] if n < k else top)
    if l > h:
        raise ValueError(f"empty interval: {Point(top + 1, lo, 0)} >= {Point(top + 1, hi, top)}")
    c = hi[:n] if n <= k else hi + (top,) * (n - k)
    picks = [c + (l,)]
    for _ in range(top - 1):
        if l + 1 < h:
            l += 1
        else:
            n += 1
            while n < k and not hi[n]:
                n += 1
            l, h = 0, (hi[n] if n < k else top)
            c = hi[:n] if n <= k else hi + (top,) * (n - k)
        picks.append(c + (l,))
    return picks


def _greedy_split(
    top: int, lo: tuple[int, ...], hi: tuple[int, ...], n: int
) -> tuple[list[tuple[int, ...]] | None, int]:
    """_pick_stems of the cell [lo 0^w, hi top^w] and the new count of
    digits its children's ends agree on; None for the picks when the cell is
    the full cylinder [v], v = lo 0^w and hi top^w cut at that count less
    one, whose descendant at word w is [v w]."""
    picks = _pick_stems(top, lo, hi, n)
    n = len(picks[0])
    return (None if len(lo) < n and len(hi) < n else picks), n


def _child_stems(
    top: int, lo: tuple[int, ...], hi: tuple[int, ...], picks: list[tuple[int, ...]], digit: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """End stems of child `digit` of the cell [lo 0^w, hi top^w] divided at
    the points pick top^w: the successor of the pick before it, and its own
    pick.  Greedy children's ends agree on their first len(picks[0]) digits."""
    return (_successor_stem(picks[digit - 1]) if digit else lo), (picks[digit] if digit < top else hi)


def _max_stem(p: Point, top: int) -> tuple[int, ...]:
    """Stem of a cell maximum p = stem top^w; any other tail is refused."""
    if p.tail != top:
        raise ValueError(f"interval maximum must be eventually max-digit, got {p}")
    return p.stem


def entry_word(base: int, depth: int, index: int) -> tuple[int, ...]:
    """The word whose cell maximum is entry `index` of the depth-`depth`
    boundary tuple."""
    if not 1 <= depth:
        raise ValueError("boundary tuples exist for depth >= 1")
    if not 0 <= index < base**depth - 1:
        raise ValueError(f"index {index} out of range at depth {depth}")
    return rank_word(index, depth, base)


def _successor_stem(stem: tuple[int, ...]) -> tuple[int, ...]:
    """Stem of interval_successor(stem top^w), whose tail is 0."""
    if not stem:
        raise ValueError("the top point has no successor")
    return stem[:-1] + (stem[-1] + 1,)


def _strip(word: tuple[int, ...], digit: int) -> tuple[int, ...]:
    """The stem of word digit^w: word without its trailing `digit`s."""
    k = len(word)
    while k and word[k - 1] == digit:
        k -= 1
    return word[:k]


class Filtering:
    """Explicit boundary levels for depths 1..support, greedy rule beyond.

    levels[j] holds the depth-(j+1) boundary tuple: the b^(j+1) - 1 cell
    maxima except the global maximum.  Instances are immutable in value;
    one memo table (greedy levels by depth) only caches the deterministic
    extension, so sharing across threads is safe and extension is
    idempotent.

    Cells below the support are reached by a stateless descent on end
    stems from the stored depth-s cells (_cell_ends), one for a whole batch
    of words, unless cell_maxima finds a word's level in the table.  With n
    the first index where the ends lo < hi differ,
    c = hi[:n] and l = lo[n] < h = hi[n], the greedy picks are c j top^w
    for l <= j < h and then, while picks remain, hi[:m] j top^w for j
    below hi[m] at the later indices m where hi has a nonzero digit
    (_pick_stems).  So every child is one of three kinds:
    child 0, [lo, c l top^w], is the suffix of the cylinder [c l] from lo;
    a child between two consecutive picks is a full cylinder ([c j], or
    [hi[:m] j], the first of these being [c h 0^(m-n-1)] = [hi[:m] 0]);
    and the last child, [successor of the last pick, hi], is a prefix of
    [c h] up to hi, less the full cylinders cut off before it.  A full
    cylinder [v] splits into [v 0], ..., [v top], so its descendant at
    word w is [v w] and the descent ends there in closed form, as cell_chain
    does.  cell_maxima, child_maxima and the greedy levels build their points
    unvalidated (canonical_point): each stem is a pick c + (l,) with l < top,
    or a cell's hi stem, stripped of top digits.
    """

    __slots__ = ("base", "levels", "support", "_level_memo")

    def __init__(self, base: int, levels: tuple[tuple[Point, ...], ...] = ()):
        self.base = base
        self.levels = tuple(tuple(level) for level in levels)
        self.support = len(self.levels)
        self._level_memo: dict[int, tuple[Point, ...]] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Filtering):
            return NotImplemented
        return self.base == other.base and self.levels == other.levels

    def __hash__(self) -> int:
        return hash((self.base, self.levels))

    def __repr__(self) -> str:
        return f"Filtering(b={self.base}, support={self.support})"

    # -- cells ---------------------------------------------------------

    def _cell_ends(self, words) -> dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]]:
        """Stems of the ends of the cell at each word, lo (tail 0) and hi
        (tail top), in one descent: words are grouped by their stored
        prefix, then by their next digit, so a cell that several words pass
        through is split once, and a group ends in closed form at its first
        full cylinder [v], whose descendant at word w is [v w]."""
        s, top = self.support, self.base - 1
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for w in words:
            groups.setdefault(w[:s], []).append(w)
        stack = []
        for stored, group in groups.items():
            lo: tuple[int, ...] = ()
            hi: tuple[int, ...] = ()
            if stored:
                level, r = self.levels[len(stored) - 1], word_rank(stored, self.base)
                lo = _successor_stem(_max_stem(level[r - 1], top)) if r else ()
                hi = _max_stem(level[r], top) if r < len(level) else ()
            stack.append((lo, hi, 0, len(stored), group))
        out = {}
        while stack:
            lo, hi, n, j, group = stack.pop()  # lo and hi agree on n digits
            below: dict[int, list[tuple[int, ...]]] = {}
            for w in group:
                if len(w) == j:
                    out[w] = lo, hi
                else:
                    below.setdefault(w[j], []).append(w)
            if not below:
                continue
            picks, n = _greedy_split(top, lo, hi, n)
            if picks is None:
                v = hi + (top,) * (n - 1 - len(hi))
                for ws in below.values():
                    for w in ws:
                        u = v + w[j:]
                        out[w] = _strip(u, 0), _strip(u, top)
                continue
            for digit, ws in below.items():
                stack.append((*_child_stems(top, lo, hi, picks, digit), n, j + 1, ws))
        return out

    def cell(self, word: tuple[int, ...]) -> ClopenInterval:
        """The depth-len(word) cell at this word's lex position."""
        lo, hi = self._cell_ends((word,))[word]
        return ClopenInterval(Point(self.base, lo, 0), Point(self.base, hi, self.base - 1))

    def cell_maxima(self, words) -> dict[tuple[int, ...], Point]:
        """Maximum of cell(word) for every word, the top point for the last
        cell of a depth: read from a stored or memoized level where the
        word's depth has one, else from one shared descent (_cell_ends)."""
        b, out, deep = self.base, {}, []
        for w in words:
            d = len(w)
            if d > self.support and d not in self._level_memo:
                deep.append(w)
            else:
                level, r = self.boundary_tuple(d), word_rank(w, b)
                out[w] = level[r] if r < len(level) else max_point(b)
        for w, (_, hi) in self._cell_ends(deep).items():
            out[w] = canonical_point(b, hi, b - 1)
        return out

    def cell_max(self, word: tuple[int, ...]) -> Point:
        """Maximum of cell(word): cell_maxima of one word."""
        return self.cell_maxima((word,))[word]

    def child_maxima(self, word: tuple[int, ...]) -> tuple[Point, ...]:
        """The b-1 division points of cell(word) one level down."""
        b, d = self.base, len(word)
        if d < self.support:
            r = word_rank(word, b)
            return self.levels[d][r * b : r * b + b - 1]
        stems = _pick_stems(b - 1, *self._cell_ends((word,))[word])
        return tuple(canonical_point(b, s, b - 1) for s in stems)

    # -- boundary tuples -----------------------------------------------

    def boundary_entry(self, depth: int, index: int) -> Point:
        """Entry of the depth-d boundary tuple without materializing it."""
        return self.cell_max(entry_word(self.base, depth, index))

    def boundary_tuple(self, depth: int) -> tuple[Point, ...]:
        if depth < 0:
            raise ValueError(f"depth must be nonnegative, got {depth}")
        count = self.base**depth - 1
        if count > MATERIALIZE_LIMIT:
            raise ValueError(f"depth {depth} boundary tuple has {count} entries; over limit")
        if depth == 0:
            return ()
        if depth <= self.support:
            return self.levels[depth - 1]
        got = self._level_memo.get(depth)
        if got is None:
            # one pass: the next cell's minimum is carried as a stem
            b, top, out, lo = self.base, self.base - 1, [], ()
            for hi in self.boundary_tuple(depth - 1):
                stem = _max_stem(hi, top)
                out += [canonical_point(b, s, top) for s in _pick_stems(top, lo, stem)]
                out.append(hi)
                lo = _successor_stem(stem)
            out += [canonical_point(b, s, top) for s in _pick_stems(top, lo, ())]
            got = self._level_memo[depth] = tuple(out)
        return got

    def extend(self, depth: int) -> "Filtering":
        """A filtering equal to this one with support at least `depth`."""
        if depth <= self.support:
            return self
        new = tuple(self.boundary_tuple(d) for d in range(self.support + 1, depth + 1))
        return Filtering(self.base, self.levels + new)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "b": self.base,
            "depth": self.support,
            "boundaries": [[p.to_json() for p in level] for level in self.levels],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Filtering":
        try:
            base = json_int(obj["b"], "filtering b")
            raw = obj["boundaries"]
            if not isinstance(raw, list) or not all(isinstance(level, list) for level in raw):
                raise ValueError("filtering boundaries: expected a list of lists of points")
            depth = json_int(obj.get("depth", len(raw)), "filtering depth")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed filtering object: {exc}") from exc
        if depth != len(raw):
            raise ValueError(f"declared depth {depth} but {len(raw)} boundary levels")
        levels = tuple(tuple(Point.from_json(p) for p in level) for level in raw)
        f = cls(base, levels)
        report = validate_filtering(f)
        if not report.ok:
            raise ValueError(f"invalid filtering: {report.message}")
        return f


def validate_filtering(f: Filtering) -> FilteringReport:
    """Check the stored levels form nested proper partitions.

    Verified per level: validate_level (entry count, entries interior
    eventually-max points, strict increase), and that each level subsamples
    to the one above.  The cell intervals themselves are derived data, so
    these four checks pin the whole structure.
    """
    b = f.base
    for j, level in enumerate(f.levels):
        depth = j + 1
        report = validate_level(b, depth, level)
        if not report.ok:
            return report
        if j > 0:
            above = f.levels[j - 1]
            for i, y in enumerate(above):
                if level[b * i + b - 1] != y:
                    return FilteringReport(
                        False,
                        "nesting",
                        (depth, b * i + b - 1),
                        f"depth-{depth} tuple does not carry depth-{j} maximum {i}",
                    )
    return FilteringReport(True)

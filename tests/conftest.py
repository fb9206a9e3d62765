import random
from bisect import bisect_left

from hypothesis import strategies as st

from cantorsurj.points import Point, interval_successor, max_point, min_point
from cantorsurj.randgen import random_filtering, random_surjection
from cantorsurj.surjections import compose, from_filtering


def q(*stem, base=2):
    """Interior eventually-max point with the given stem."""
    return Point(base, tuple(stem), base - 1)


def diagonal_points(levels):
    """A base-2 tuple of the given type: node i gets depth 3 * (levels[i] + 1);
    a window's root meet is padded with zeros to its depth, its left subtree
    continues with 0 and its right with 1, and each leaf closes with zeros."""
    stems = []

    def build(lo, hi, word):
        m = lo if lo == hi else min(range(lo, hi + 1), key=levels.__getitem__)
        word += (0,) * (3 * (levels[m] + 1) - len(word))
        if lo == hi:
            stems.append(word)
        else:
            build(lo, m - 1, word + (0,))
            build(m + 1, hi, word + (1,))

    build(0, len(levels) - 1, ())
    return tuple(q(*s) for s in stems)


def child_bounds(splits, lo, hi, digit):
    """Ends of child `digit` of the cell [lo, hi] whose division points are
    `splits` (the b-1 maxima of all children but the last)."""
    return (
        lo if digit == 0 else interval_successor(splits[digit - 1]),
        splits[digit] if digit < len(splits) else hi,
    )


def cell_child_maxima(tree, word):
    """The b-1 division points of the cell at `word`, read as the maxima of
    its first b-1 children, at any depth."""
    words = [word + (p,) for p in range(tree.base - 1)]
    got = tree.cell_maxima(words)
    return tuple(got[w] for w in words)


def reference_cell_chain(child_maxima, base, x):
    """The cells holding x, one level down at a time, as (word, lo, hi) with
    Point ends, by bisecting the child maxima."""
    word, lo, hi = (), min_point(base), max_point(base)
    while True:
        splits = child_maxima(word)
        i = bisect_left(splits, x)
        lo, hi = child_bounds(splits, lo, hi, i)
        word += (i,)
        yield word, lo, hi


@st.composite
def points(draw, base=2, max_stem=8):
    stem = draw(st.lists(st.integers(0, base - 1), max_size=max_stem))
    tail = draw(st.integers(0, base - 1))
    return Point(base, tuple(stem), tail)


@st.composite
def filterings(draw, bases=(2, 3), max_support=4):
    # seeded generator keeps shrinking sane: one integer pins the object
    seed = draw(st.integers(0, 2**32 - 1))
    b = draw(st.sampled_from(bases))
    d = draw(st.integers(0, max_support))
    return random_filtering(random.Random(seed), b, d)


@st.composite
def surjections(draw, max_depth=3, chain_prob=0.3):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_surjection(random.Random(seed), 2, max_depth, chain_prob)


@st.composite
def nested_maps(draw, bases=(2, 3), max_factors=3):
    """A filtering map, or a chain of up to max_factors of them nested on
    either side; base-3 factors are kept shallower."""
    seed = draw(st.integers(0, 2**32 - 1))
    b = draw(st.sampled_from(bases))
    n = draw(st.integers(1, max_factors))
    rng = random.Random(seed)
    deepest = 3 if b == 2 else 2
    h = from_filtering(random_filtering(rng, b, rng.randint(0, deepest)))
    for _ in range(n - 1):
        g = from_filtering(random_filtering(rng, b, rng.randint(0, deepest - 1)))
        h = compose(g, h) if rng.random() < 0.5 else compose(h, g)
    return h

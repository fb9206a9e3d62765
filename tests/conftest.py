import random
from bisect import bisect_left

from hypothesis import strategies as st

from cantorsurj.points import Point, interval_successor, max_point, min_point
from cantorsurj.randgen import random_filtering, random_surjection
from cantorsurj.surjections import compose, from_filtering


# messages recorded from the digit-loop decoder: JSON types are checked
# first, in the order b, stem digits, tail; then values, in the order base,
# tail, stem digits; the first faulty digit is the one named
MALFORMED_POINTS = [
    ("bool-digit", '{"b":2,"stem":[0,true],"tail":1}', "malformed point object: expected an integer, got True"),
    ("float-digit", '{"b":2,"stem":[0,1.0],"tail":1}', "malformed point object: expected an integer, got 1.0"),
    ("string-digit", '{"b":2,"stem":["1"],"tail":1}', "malformed point object: expected an integer, got '1'"),
    ("null-digit", '{"b":2,"stem":[null],"tail":1}', "malformed point object: expected an integer, got None"),
    ("negative-digit", '{"b":3,"stem":[1,-1],"tail":2}', "digit -1 out of range for base 3"),
    ("digit-equal-to-base", '{"b":2,"stem":[0,2],"tail":1}', "digit 2 out of range for base 2"),
    ("digit-over-base", '{"b":3,"stem":[7,0],"tail":0}', "digit 7 out of range for base 3"),
    ("base-one", '{"b":1,"stem":[0],"tail":0}', "base must be an integer >= 2, got 1"),
    ("negative-base", '{"b":-3,"stem":[],"tail":0}', "base must be an integer >= 2, got -3"),
    ("float-base", '{"b":2.0,"stem":[0],"tail":1}', "malformed point object: expected an integer, got 2.0"),
    ("bool-base", '{"b":true,"stem":[0],"tail":0}', "malformed point object: expected an integer, got True"),
    ("tail-equal-to-base", '{"b":2,"stem":[0],"tail":2}', "digit 2 out of range for base 2"),
    ("negative-tail", '{"b":2,"stem":[0],"tail":-1}', "digit -1 out of range for base 2"),
    ("float-tail", '{"b":2,"stem":[0],"tail":1.5}', "malformed point object: expected an integer, got 1.5"),
    ("string-stem", '{"b":2,"stem":"0101","tail":1}', "malformed point object: {'b': 2, 'stem': '0101', 'tail': 1}"),
    ("object-stem", '{"b":2,"stem":{"0":1},"tail":1}', "malformed point object: {'b': 2, 'stem': {'0': 1}, 'tail': 1}"),
    ("null-stem", '{"b":2,"stem":null,"tail":1}', "malformed point object: {'b': 2, 'stem': None, 'tail': 1}"),
    ("missing-tail", '{"b":2,"stem":[0]}', "malformed point object: {'b': 2, 'stem': [0]}"),
    ("not-an-object", "[2,[0],1]", "malformed point object: [2, [0], 1]"),
    ("bool-digit-and-bad-tail", '{"b":2,"stem":[true],"tail":5}', "malformed point object: expected an integer, got True"),
    ("float-tail-and-bad-digit", '{"b":2,"stem":[3],"tail":0.5}', "malformed point object: expected an integer, got 0.5"),
    ("bad-tail-and-bad-digit", '{"b":2,"stem":[3],"tail":4}', "digit 4 out of range for base 2"),
    ("bad-base-and-bad-digit", '{"b":1,"stem":[3],"tail":0}', "base must be an integer >= 2, got 1"),
    ("two-bad-digits", '{"b":2,"stem":[0,3,-1],"tail":1}', "digit 3 out of range for base 2"),
    ("float-then-bool-digit", '{"b":2,"stem":[2.5,true],"tail":1}', "malformed point object: expected an integer, got 2.5"),
    ("bad-digit-then-float-digit", '{"b":2,"stem":[5,0.5],"tail":1}', "malformed point object: expected an integer, got 0.5"),
]


def q(*stem, base=2):
    """Interior eventually-max point with the given stem."""
    return Point(base, tuple(stem), base - 1)


def rank_word(rank, depth, base):
    """The length-`depth` word at position `rank` in lex order: the inverse
    of points.word_rank."""
    out = []
    for _ in range(depth):
        rank, d = divmod(rank, base)
        out.append(d)
    return tuple(reversed(out))


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


def balanced(maps):
    """The chain of maps, outer first, composed pairwise into a balanced tree."""
    while len(maps) > 1:
        maps = [compose(*maps[i : i + 2]) if i + 1 < len(maps) else maps[i] for i in range(0, len(maps), 2)]
    return maps[0]


@st.composite
def nested_maps(draw, bases=(2, 3), max_factors=3, shapes=("mixed",)):
    """A filtering map, or a chain of up to max_factors of them: each new
    factor composed on a random side ("mixed"), always outside ("right":
    g o (... o h)) or inside ("left": (h o ...) o g), or the factors
    composed as a balanced tree; base-3 factors are kept shallower."""
    seed = draw(st.integers(0, 2**32 - 1))
    b = draw(st.sampled_from(bases))
    n = draw(st.integers(1, max_factors))
    shape = draw(st.sampled_from(shapes))
    rng = random.Random(seed)
    deepest = 3 if b == 2 else 2
    h = from_filtering(random_filtering(rng, b, rng.randint(0, deepest)))
    factors = [from_filtering(random_filtering(rng, b, rng.randint(0, deepest - 1))) for _ in range(n - 1)]
    if shape == "balanced":
        return balanced([h, *factors])
    for g in factors:
        outside = rng.random() < 0.5 if shape == "mixed" else shape == "right"
        h = compose(g, h) if outside else compose(h, g)
    return h

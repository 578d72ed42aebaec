"""The topologies and the diagonal closures on n points, counted by
arithmetic alone: no preorder and no closure is built.

Counting needs no walk.  Call the points of the maximal classes of a
preorder its top set T, and for every other point x let M(x) be the set of
top classes above x.  A preorder is its top partition, M, and a preorder Q
on the other points with x <=_Q y only if M(x) contains M(y); every such
triple is a preorder.  One counter applies this split again and again: it
counts the preorders on points with labels L where x <= y only if L(x)
contains L(y).  The points of a top class share a label, every class C in
M(x) has L(x) containing L(C), and the other points recurse with the labels
(L(x), M(x)), compared componentwise.  Posets come from splits whose classes
are all singletons.  The count depends only on how the labels contain each
other, so it is memoised on the sorted labels re-encoded by containment.
A count-only ``enumerate_preorders(n)`` is the counter on n equal labels.

The closures have closed forms.  Each closure is exactly one closure
structure (see ``enumeration``): s simplicial points split into c blocks,
and for each of the other n - s points a set of at least two blocks, one of
2^c - c - 1.  So there are L(n) = sum of comb(n, s) S(s, c) (2^c - c - 1)^(n-s)
closures on n labelled points.  A closure is transitive exactly when every
point is simplicial, so the transitive ones are the Bell(n) set partitions.
Up to relabelling the points a closure is its block sizes and a multiset of
n - s sets of blocks, up to permuting the blocks of equal size.  Burnside's
lemma counts these orbits per list of sizes: the mean over the permutations
g of the multisets that g fixes.  A multiset is fixed when it is constant on
each cycle of g on the sets, so with N_d cycles of length d the fixed
multisets of size m are the coefficient of t^m in the product of
(1 - t^d)^(-N_d).  The sets fixed by g^k are those built from whole cycles
of g^k, which gives N_d by Moebius inversion from the cycle type of g alone,
and g ranges over cycle types, each weighted by how many permutations have
it.  The transitive closures up to relabelling are the partitions of n.

This module imports nothing from the package and no module the interpreter
does not load at start-up, so the command line's summary loads nothing else.
"""

from functools import lru_cache
from itertools import combinations_with_replacement, groupby, product
from math import comb, factorial, gcd, prod

SOFT_LIMIT = 7


def summary(n: int, t0_only: bool = False, up_to_iso: bool = False) -> tuple[int, int, int]:
    """The topologies on n points (the T0 ones if ``t0_only``), and the
    ``closure_counts`` of n points.

    Every closure has a T0 topology, so ``t0_only`` changes the first count
    alone.
    """
    labelled, posets = _count_below((0,) * n, {})
    return (posets if t0_only else labelled, *closure_counts(n, up_to_iso))


def closure_counts(n: int, up_to_iso: bool = False) -> tuple[int, int]:
    """The distinct closures on n points (up to relabelling if
    ``up_to_iso``), and those among them that are not transitive."""
    if up_to_iso:
        total, transitive = iso_closures(n), len(_partitions(n))
    else:
        total, transitive = labelled_closures(n), bell(n)
    return total, total - transitive


# --- the label recursion ---

def _count_below(labels: tuple[int, ...], memo: dict) -> tuple[int, int]:
    """How many preorders, and posets, have x <= y only where ``labels[x]``
    contains ``labels[y]``; ``labels`` is sorted.

    ``memo`` maps label tuples to their counts; one dict may serve any
    number of calls, since a tuple's counts do not depend on the call.
    """
    found = memo.get(labels)
    if found is None:
        key = _by_containment(labels)
        found = memo.get(key)
        if found is None:
            found = memo[key] = _split(key, memo)
        memo[labels] = found
    return found


def _by_containment(labels: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted labels with each label u re-encoded as the set of the
    distinct labels inside u, numbered in ascending order.

    Containment between labels, hence the count, is unchanged; labels that
    contain each other alike often meet under one key.
    """
    distinct = list(dict.fromkeys(labels))
    code = {u: sum(1 << j for j, v in enumerate(distinct) if not v & ~u) for u in distinct}
    return tuple(sorted([code[u] for u in labels]))


def _split(labels: tuple[int, ...], memo: dict) -> tuple[int, int]:
    """``_count_below`` summed over the top splits of the preorders.

    Points of one label are interchangeable, so a split is chosen per group
    of equal labels: t of its s points are top points (comb(s, t) ways) in c
    classes (S(t, c) ways).  Each other point of the group takes a non-empty
    set M of the classes whose label lies inside its own; the group's points
    take a multiset of such sets, weighted by its multinomial, and recurse
    with the labels L | M << width.
    """
    if not labels:
        return 1, 1
    groups = [(label, len(list(same))) for label, same in groupby(labels)]
    width = labels[-1].bit_length()
    inside = [[i for i, (li, _) in enumerate(groups) if not li & ~lj] for lj, _ in groups]
    tops = [
        [(t, c, w) for t in range(size + 1) for c in range(t + 1) if (w := comb(size, t) * _stirling(t, c))]
        for _, size in groups
    ]
    labelled = posets = 0
    for split in product(*tops):
        classes = []  # classes[i]: the bits of group i's top classes in M
        at = 0
        for _, c, _ in split:
            classes.append(((1 << c) - 1) << at)
            at += c
        if not at:
            continue
        rests = []  # per group with other points: (ways, their labels) per multiset of M values
        for (label, size), (t, _, _), groups_inside in zip(groups, split, inside):
            if size == t:
                continue
            allowed = sum(classes[i] for i in groups_inside)
            if not allowed:
                break
            masks = [m for m in range(1, allowed + 1) if not m & ~allowed]
            rests.append([(ways, [label | m << width for m in ms]) for ways, ms in _multisets(masks, size - t)])
        else:
            rest_labelled = rest_posets = 0
            for choice in product(*rests):
                lab, pos = _count_below(tuple(sorted([x for _, xs in choice for x in xs])), memo)
                ways = prod([ways for ways, _ in choice])
                rest_labelled += ways * lab
                rest_posets += ways * pos
            ways = prod([w for _, _, w in split])
            labelled += ways * rest_labelled
            if all(t == c for t, c, _ in split):
                posets += ways * rest_posets
    return labelled, posets


def _multisets(masks: list[int], r: int) -> list[tuple[int, tuple[int, ...]]]:
    """Each multiset of r of ``masks``, with the number of ways to hand its
    members to r labelled points."""
    out = []
    for ms in combinations_with_replacement(masks, r):
        w = factorial(r)
        for _, same in groupby(ms):
            w //= factorial(len(list(same)))
        out.append((w, ms))
    return out


@lru_cache(maxsize=None)
def _stirling(t: int, c: int) -> int:
    """The partitions of t points into c classes."""
    if t == 0 or c == 0:
        return int(t == c)
    return c * _stirling(t - 1, c) + _stirling(t - 1, c - 1)


# --- the closures ---

def bell(n: int) -> int:
    """The set partitions of n points: the transitive closures on them."""
    return sum([_stirling(n, c) for c in range(n + 1)])


def labelled_closures(n: int) -> int:
    """L(n): the closures on n labelled points, one per closure structure."""
    return sum([comb(n, s) * _stirling(s, c) * (2**c - c - 1) ** (n - s) for s in range(n + 1) for c in range(s + 1)])


def iso_closures(n: int) -> int:
    """The closures on n points up to relabelling, by Burnside's lemma over
    the permutations of the blocks of equal size, per list of block sizes."""
    total = 0
    for s in range(n + 1):
        for sizes in _partitions(s):
            runs = [len(list(same)) for _, same in groupby(sizes)]
            fixed = 0  # the multisets each permutation fixes, summed over the permutations
            for types in product(*[_partitions(r) for r in runs]):
                cycles = [j for t in types for j in t]
                fixed += prod([_with_cycle_type(t) for t in types]) * _fixed_multisets(cycles, n - s)
            total += fixed // prod([factorial(r) for r in runs])
    return total


@lru_cache(maxsize=None)
def _partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """The partitions of k, parts descending."""
    out = []
    for first in range(k, 0, -1):
        out += [(first, *rest) for rest in _partitions(k - first) if not rest or rest[0] <= first]
    return tuple(out) if k else ((),)


def _with_cycle_type(parts: tuple[int, ...]) -> int:
    """The permutations of sum(parts) items whose cycles have lengths ``parts``."""
    z = 1
    for j, same in groupby(parts):
        a = len(list(same))
        z *= j**a * factorial(a)
    return factorial(sum(parts)) // z


def _fixed_multisets(cycles: list[int], m: int) -> int:
    """The multisets of m sets of at least two blocks that a permutation g of
    the blocks with cycle lengths ``cycles`` fixes.

    g^k fixes a set of blocks iff the set is a union of cycles of g^k.  A
    cycle of g of length j falls into gcd(j, k) cycles of g^k, which are
    single blocks iff j divides k; so ``fixed[k]``, the sets of at least two
    blocks that g^k fixes, is 2 to the number of cycles of g^k, less the
    empty set and the fixed single blocks.  A set on a cycle of length d of g
    on the sets is fixed by g^k iff d divides k, so ``fixed[k]`` is the sum
    of d * ``length[d]`` over the divisors d of k, which gives ``length[d]``,
    the cycles of length d, one d at a time.
    """
    fixed = [0] + [2 ** sum([gcd(j, k) for j in cycles]) - 1 - sum([j for j in cycles if k % j == 0]) for k in range(1, m + 1)]
    length = [0] * (m + 1)
    series = [1] + [0] * m  # the fixed multisets of each size, over the cycles of length below d
    for d in range(1, m + 1):
        length[d] = (fixed[d] - sum([e * length[e] for e in range(1, d) if d % e == 0])) // d
        if length[d]:
            # a factor (1 - t^d)^(-length[d]): comb(length[d] + i - 1, i) multisets of i such cycles
            series = [sum([series[t - d * i] * comb(length[d] + i - 1, i) for i in range(t // d + 1)]) for t in range(m + 1)]
    return series[m]

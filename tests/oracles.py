"""Independent oracles and random generators for the test suite.

Everything here is deliberately written from first principles (sign-pattern
enumeration, explicit planar chains, full partition enumeration, ``Fraction``
sums) so it can check the library without sharing its code paths.  The
reference searches at the end keep the library's ``Fraction`` algorithms as
they were before it moved to integer-scaled weights, for differential tests.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

from bendix.model import LengthFunction, bits


# --- lopsidedness, straight from the definition ----------------------------

def oracle_lopsided(lam: LengthFunction, mask: int) -> bool:
    """One edge strictly outweighs the rest: 2 * max > sum, in ``Fraction``s."""
    side = [lam.lengths[i] for i in bits(mask)]
    return bool(side) and 2 * max(side) > sum(side)


# --- genericity, by exhausting every sign pattern -------------------------

def brute_generic(lengths: list[Fraction]) -> bool:
    for signs in product((1, -1), repeat=len(lengths)):
        if sum(s * l for s, l in zip(signs, lengths)) == 0:
            return False
    return True


# --- nonemptiness, by building an explicit planar configuration -----------

def _chain_reach(lengths: list[float]) -> tuple[float, float]:
    total = sum(lengths)
    top = max(lengths)
    return max(0.0, 2 * top - total), total


def _place_chain(lengths: list[float], start, end) -> list | None:
    """Points of a planar chain of given edge lengths from start to end."""
    if not lengths:
        return [start] if math.isclose(start[0], end[0], abs_tol=1e-9) and math.isclose(
            start[1], end[1], abs_tol=1e-9
        ) else None
    if len(lengths) == 1:
        dist = math.dist(start, end)
        if abs(dist - lengths[0]) > 1e-9:
            return None
        return [start, end]
    first, rest = lengths[0], lengths[1:]
    lo, hi = _chain_reach(rest)
    dist = math.dist(start, end)
    # the hinge after the first edge must sit at a distance the rest can span
    dmin = max(lo, abs(dist - first))
    dmax = min(hi, dist + first)
    if dmin > dmax + 1e-12:
        return None
    d = (dmin + dmax) / 2
    # triangle start-hinge-end with sides first, d, dist
    if dist < 1e-12:
        hinge = (start[0] + first, start[1])
    else:
        cos_a = (first**2 + dist**2 - d**2) / (2 * first * dist)
        cos_a = max(-1.0, min(1.0, cos_a))
        sin_a = math.sqrt(max(0.0, 1 - cos_a**2))
        ux, uy = (end[0] - start[0]) / dist, (end[1] - start[1]) / dist
        hinge = (
            start[0] + first * (cos_a * ux - sin_a * uy),
            start[1] + first * (cos_a * uy + sin_a * ux),
        )
    tail = _place_chain(rest, hinge, end)
    if tail is None:
        return None
    return [start] + tail


def closed_planar_configuration(lengths: list[Fraction]) -> list | None:
    """A closed planar polygon with the given edge lengths, or None."""
    floats = [float(l) for l in lengths]
    return _place_chain(floats, (0.0, 0.0), (0.0, 0.0))


def closure_defect(points: list) -> float:
    return math.dist(points[0], points[-1])


# --- minimum lopsided partitions, by enumerating every set partition ------

def set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield [[first]] + part


def brute_min_lopsided(lam: LengthFunction) -> int:
    best = lam.n
    for part in set_partitions(list(range(lam.n))):
        blocks = [sum(1 << i for i in block) for block in part]
        if all(oracle_lopsided(lam, b) for b in blocks):
            best = min(best, len(blocks))
    return best


# --- moment image membership, from the raw closing inequalities -----------

def chain_spans(lengths: list[Fraction], t: Fraction) -> bool:
    """A closed polygon with edges lengths + [t] exists (t = 0 allowed)."""
    if t < 0:
        return False
    total = sum(lengths) + t
    top = max(max(lengths), t)
    return 2 * top <= total

def oracle_in_image(lam: LengthFunction, mask: int, t: Fraction) -> bool:
    side = [lam.lengths[i] for i in bits(mask)]
    comp = [lam.lengths[i] for i in bits(lam.full_mask ^ mask)]
    return chain_spans(side, t) and chain_spans(comp, t)


# --- polytope membership, by reducing triangle by triangle ----------------

def vertex_realizable(lam: LengthFunction, family, poly, vertex) -> bool:
    """Check a moment-polytope point by closing every split as a 3-gon."""
    from bendix.bending import maximal_elements, member_split

    full = lam.full_mask
    coord_of = {frozenset(label): i for i, label in enumerate(poly.labels)}

    def value(mask: int) -> Fraction:
        if mask.bit_count() == 1:
            return lam.lengths[next(bits(mask))]
        comp = full ^ mask
        if comp.bit_count() == 1:
            return lam.lengths[next(bits(comp))]
        for candidate in (mask, comp):
            key = frozenset(lam.ids_of(candidate))
            if key in coord_of:
                return vertex[coord_of[key]]
        raise AssertionError("member has no coordinate")

    for member in family.members:
        if member.bit_count() <= 1:
            continue
        half_a, half_b = member_split(family, member)
        if not chain_spans([value(half_a), value(half_b)], value(member)):
            return False
    blocks = maximal_elements(family)
    if len(blocks) == 3:
        va, vb, vc = (value(b) for b in blocks)
        if not chain_spans([va, vb], vc):
            return False
    else:
        va, vb = (value(b) for b in blocks)
        if va != vb:
            return False
    return True


# --- random instances ------------------------------------------------------

def random_rational(rng: random.Random, max_num: int = 8, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_generic_lambda(rng: random.Random, n: int) -> LengthFunction:
    from bendix.model import is_generic, is_nonempty

    while True:
        lam = LengthFunction.from_lengths(
            [random_rational(rng) for _ in range(n)]
        )
        if is_generic(lam) and is_nonempty(lam):
            return lam


def random_lopsided_partition(rng: random.Random, lam: LengthFunction) -> list[int]:
    blocks = []
    remaining = lam.full_mask
    while remaining:
        anchor = remaining & -remaining
        rest = remaining ^ anchor
        candidates = []
        sub = rest
        while True:
            block = sub | anchor
            if oracle_lopsided(lam, block):
                candidates.append(block)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        blocks.append(rng.choice(candidates))
        remaining ^= blocks[-1]
    return blocks


def _random_full_tree(rng: random.Random, lam: LengthFunction, block: int) -> list[int]:
    if block.bit_count() <= 1:
        return []
    low = block & -block
    rest = block ^ low
    splits = []
    sub = rest
    while True:
        half = sub | low
        other = block ^ half
        if other and oracle_lopsided(lam, half) and oracle_lopsided(lam, other):
            splits.append((half, other))
        if sub == 0:
            break
        sub = (sub - 1) & rest
    half, other = rng.choice(splits)
    return (
        [block]
        + _random_full_tree(rng, lam, half)
        + _random_full_tree(rng, lam, other)
    )


def random_full_bending_set(rng: random.Random, lam: LengthFunction):
    from bendix.bending import BendingSet

    members = {1 << i for i in range(lam.n)}
    for block in random_lopsided_partition(rng, lam):
        members.update(_random_full_tree(rng, lam, block))
    return BendingSet(lam.n, frozenset(members))


def random_bending_set(rng: random.Random, lam: LengthFunction):
    """A random (usually non-full) bending set grown member by member."""
    from bendix.bending import BendingSet

    members = {1 << i for i in range(lam.n)}
    for _ in range(rng.randint(0, 2 * lam.n)):
        mask = rng.randint(1, lam.full_mask)
        if not oracle_lopsided(lam, mask):
            continue
        if all(
            not (mask & m) or (mask | m) in (mask, m) for m in members
        ):
            members.add(mask)
    return BendingSet(lam.n, frozenset(members))


def random_unimodular(rng: random.Random) -> tuple[tuple[int, int], tuple[int, int]]:
    mat = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(3)
        k = rng.randint(-3, 3)
        if kind == 0:  # shear rows
            mat = [[mat[0][0] + k * mat[1][0], mat[0][1] + k * mat[1][1]], mat[1]]
        elif kind == 1:
            mat = [mat[0], [mat[1][0] + k * mat[0][0], mat[1][1] + k * mat[0][1]]]
        else:  # swap with a sign flip, stays determinant +-1
            mat = [[-mat[1][0], -mat[1][1]], mat[0]]
    return (tuple(mat[0]), tuple(mat[1]))


# --- reference Fraction searches, for differential tests -----------------

def _member_key(mask: int) -> tuple[int, int, tuple[int, ...]]:
    """Lowest edge, then size, then index list (the library's member order)."""
    low = (mask & -mask).bit_length() - 1
    return (low, mask.bit_count(), tuple(bits(mask)))


def _submasks_containing(universe: int, anchor_bit: int):
    rest = universe & ~anchor_bit
    sub = rest
    while True:
        yield sub | anchor_bit
        if sub == 0:
            return
        sub = (sub - 1) & rest


def _min_partition_dp(size: int, lopsided_group) -> tuple[int, dict]:
    """Bitmask DP over ``size`` items: the fewest lopsided groups covering all.

    Each step removes a lopsided group holding the lowest uncovered item; ties
    prefer the smallest group mask.  Returns the count and the choice table.
    """
    memo: dict[int, tuple[int, int]] = {0: (0, 0)}

    def best(remaining: int) -> int:
        if remaining in memo:
            return memo[remaining][0]
        anchor = remaining & -remaining
        result = (size + 1, 0)
        for group in _submasks_containing(remaining, anchor):
            if not lopsided_group(group):
                continue
            candidate = (1 + best(remaining ^ group), group)
            if candidate < result:
                result = candidate
        memo[remaining] = result
        return result[0]

    return best((1 << size) - 1), memo


def reference_min_lopsided_partition(lam: LengthFunction) -> tuple[int, tuple[int, ...]]:
    count, memo = _min_partition_dp(lam.n, lambda block: oracle_lopsided(lam, block))
    blocks, cursor = [], lam.full_mask
    while cursor:
        blocks.append(memo[cursor][1])
        cursor ^= blocks[-1]
    return count, tuple(blocks)


def reference_min_coarser_partition(
    lam: LengthFunction, blocks: list[int]
) -> tuple[int, tuple[int, ...]] | None:
    """None when no grouping of the blocks has only lopsided unions."""
    ordered = sorted(blocks, key=_member_key)

    def union_of(group: int) -> int:
        mask = 0
        for i in bits(group):
            mask |= ordered[i]
        return mask

    count, memo = _min_partition_dp(
        len(ordered), lambda group: oracle_lopsided(lam, union_of(group))
    )
    if count > len(ordered):
        return None
    witness, cursor = [], (1 << len(ordered)) - 1
    while cursor:
        group = memo[cursor][1]
        witness.append(union_of(group))
        cursor ^= group
    witness.sort(key=_member_key)
    return count, tuple(witness)


def reference_moment_image(lam: LengthFunction, mask: int) -> tuple[Fraction, Fraction]:
    """Both chains (the subset and its complement) must span the diagonal."""

    def chain_span(side: list[Fraction]) -> tuple[Fraction, Fraction]:
        total = sum(side, Fraction(0))
        return max(Fraction(0), 2 * max(side) - total), total

    lo_in, hi_in = chain_span([lam.lengths[i] for i in bits(mask)])
    lo_out, hi_out = chain_span([lam.lengths[i] for i in bits(lam.full_mask ^ mask)])
    return max(lo_in, lo_out), min(hi_in, hi_out)


def _reference_trees(lam: LengthFunction, block: int) -> list[tuple[int, ...]]:
    """Every full binary tree on a block whose splits have lopsided halves."""
    if block.bit_count() == 1:
        return [()]
    low = block & -block
    trees = []
    for half in _submasks_containing(block, low):
        other = block ^ half
        if other and oracle_lopsided(lam, half) and oracle_lopsided(lam, other):
            for a in _reference_trees(lam, half):
                for b in _reference_trees(lam, other):
                    trees.append((block,) + a + b)
    return trees


def reference_maximal_tori(
    lam: LengthFunction,
) -> list[tuple[int, tuple[int, ...], tuple[int, ...], Fraction | None]]:
    """(dimension, members, maximal blocks, common value) of every maximal torus.

    Sorted.  A partition into lopsided blocks gives maximal tori when it has at
    most three blocks, or when the moment images of its blocks share a point
    (the largest low end is returned as the common value).
    """
    found = []

    def partitions(remaining: int, acc: list[int]):
        if not remaining:
            yield list(acc)
            return
        anchor = remaining & -remaining
        for block in _submasks_containing(remaining, anchor):
            if oracle_lopsided(lam, block):
                acc.append(block)
                yield from partitions(remaining ^ block, acc)
                acc.pop()

    for partition in partitions(lam.full_mask, []):
        value = None
        if len(partition) > 3:
            images = [reference_moment_image(lam, b) for b in partition]
            value = max(lo for lo, _ in images)
            if value > min(hi for _, hi in images):
                continue
        singletons = tuple(1 << i for i in range(lam.n))
        for combo in product(*(_reference_trees(lam, b) for b in partition)):
            members = tuple(sorted(set(singletons).union(*combo)))
            found.append(
                (lam.n - max(3, len(partition)), members, tuple(sorted(partition)), value)
            )
    return sorted(found, key=lambda row: row[:3])

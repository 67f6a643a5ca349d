"""Exact combinatorial searches over bending tori.

Minimum lopsided partitions (plain and coarser-than-a-partition variants) via
bitmask dynamic programming, the induced maximal torus dimensions, maximality
tests for full bending sets, and a full enumeration of the maximal bending
tori of small spaces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Iterator

from .bending import (
    BendingSet,
    Interval,
    canonical_member_key,
    fill,
    is_full,
    maximal_elements,
    moment_image,
    torus_dimension,
    validate_bending_set,
)
from .errors import GuardExceeded, NotFull, PreconditionViolated
from .model import LengthFunction, bits, format_rational, is_lopsided, subset_to_json

ENUMERATION_EDGE_GUARD = 10


def _submasks_containing(universe: int, anchor_bit: int) -> Iterator[int]:
    """All submasks of the universe containing the anchor bit, descending."""
    rest = universe & ~anchor_bit
    sub = rest
    while True:
        yield sub | anchor_bit
        if sub == 0:
            return
        sub = (sub - 1) & rest


def _subset_tables(lam: LengthFunction) -> tuple[list[int], list[int], bytearray]:
    """Weight totals, largest weights and lopsided flags of all 2^n masks.

    Built by doubling: the masks holding edge i as their highest edge are the
    masks below ``1 << i`` plus edge i.  Totals and tops are in units of
    ``1 / lam.scale`` and stay Python ints, so every scale is exact.
    """
    totals, tops = [0], [0]
    for weight in lam.weights:
        totals += [total + weight for total in totals]
        tops += [top if top > weight else weight for top in tops]
    lopsided = bytearray(2 * top > total for top, total in zip(tops, totals))
    return totals, tops, lopsided


def min_lopsided_partition(lam: LengthFunction) -> tuple[int, tuple[int, ...]]:
    """Minimum number of lopsided blocks partitioning the edges, with a witness.

    Dynamic programming over the uncovered-edge mask; every transition removes
    one lopsided block containing the lowest uncovered edge, and ties prefer
    the lexicographically smallest block mask.  A singleton partition always
    works, so the optimum is at most |E|.
    """
    lopsided = _subset_tables(lam)[2]
    memo: dict[int, tuple[int, int]] = {0: (0, 0)}  # mask -> (count, chosen block)

    def best(remaining: int) -> int:
        if remaining in memo:
            return memo[remaining][0]
        anchor = remaining & -remaining
        result = (lam.n + 1, 0)
        for block in _submasks_containing(remaining, anchor):
            if not lopsided[block]:
                continue
            candidate = (1 + best(remaining ^ block), block)
            if candidate < result:
                result = candidate
        memo[remaining] = result
        return result[0]

    count = best(lam.full_mask)
    blocks = []
    cursor = lam.full_mask
    while cursor:
        block = memo[cursor][1]
        blocks.append(block)
        cursor ^= block
    return count, tuple(blocks)


def min_coarser_partition(
    lam: LengthFunction, blocks: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """Minimum lopsided partition whose blocks are unions of the given blocks."""
    covered = 0
    for b in blocks:
        if b == 0 or covered & b:
            raise PreconditionViolated("blocks must be disjoint and nonempty")
        covered |= b
    if covered != lam.full_mask:
        raise PreconditionViolated("blocks must cover every edge")
    ordered = sorted(blocks, key=canonical_member_key)
    k = len(ordered)
    lopsided = _subset_tables(lam)[2]
    union_of = [0]  # group mask over ``ordered`` -> union of its blocks
    for block in ordered:
        union_of += [union | block for union in union_of]
    memo: dict[int, tuple[int, int]] = {0: (0, 0)}

    def best(remaining: int) -> int:
        if remaining in memo:
            return memo[remaining][0]
        anchor = remaining & -remaining
        result = (k + 1, 0)
        for group in _submasks_containing(remaining, anchor):
            if not lopsided[union_of[group]]:
                continue
            candidate = (1 + best(remaining ^ group), group)
            if candidate < result:
                result = candidate
        memo[remaining] = result
        return result[0]

    count = best((1 << k) - 1)
    if count > k:
        raise PreconditionViolated("no partition into lopsided unions of the blocks")
    witness = []
    cursor = (1 << k) - 1
    while cursor:
        group = memo[cursor][1]
        witness.append(union_of[group])
        cursor ^= group
    witness.sort(key=canonical_member_key)
    return count, tuple(witness)


def max_bending_dim(lam: LengthFunction) -> int:
    """Largest dimension of a bending torus: |E| - max(3, N)."""
    count, _ = min_lopsided_partition(lam)
    return lam.n - max(3, count)


def max_containing_dim(
    lam: LengthFunction, family: BendingSet
) -> tuple[int, BendingSet]:
    """Largest bending-torus dimension above the given one, with a witness.

    The witness merges a minimal coarser lopsided partition into the family
    and fills the result; its maximal blocks are exactly that partition, so
    the dimension formula is asserted against the witness.
    """
    count, coarse = min_coarser_partition(lam, maximal_elements(family))
    witness = fill(lam, validate_bending_set(lam, set(family.members) | set(coarse)))
    dim = lam.n - max(3, count)
    assert torus_dimension(lam, witness) == dim
    return dim, witness


def common_point(intervals: list[Interval]) -> Fraction | None:
    """A point in every interval, if the family has one (max of lows works)."""
    if not intervals:
        raise PreconditionViolated("need at least one interval")
    lo = max(i.lo for i in intervals)
    hi = min(i.hi for i in intervals)
    return lo if lo <= hi else None


def is_maximal_bending(
    lam: LengthFunction, family: BendingSet
) -> tuple[bool, Fraction | None]:
    """Whether the torus of a full bending set is maximal among bending tori.

    At the top dimension |E| - 3 maximality is automatic.  Below it, the torus
    is maximal exactly when the images of the bending functions of all maximal
    blocks share a point; the witness value is returned.
    """
    if not is_full(family):
        raise NotFull(
            "maximality is decided on full bending sets; call fill() first"
        )
    dim = torus_dimension(lam, family)
    if dim >= lam.n - 3:
        return True, None
    images = [moment_image(lam, block) for block in maximal_elements(family)]
    witness = common_point(images)
    return witness is not None, witness


class TheoremBStatus(enum.Enum):
    MAXIMAL_HAMILTONIAN = "MaximalHamiltonian"
    NOT_APPLICABLE = "NotApplicable"


def theorem_b_status(lam: LengthFunction, family: BendingSet) -> TheoremBStatus:
    """Maximal-Hamiltonian verdict for tori of dimension >= |E| - 5.

    A non-full family sits strictly inside its fill, so it is never maximal.
    """
    if not is_full(family):
        return TheoremBStatus.NOT_APPLICABLE
    maximal, _ = is_maximal_bending(lam, family)
    if maximal and torus_dimension(lam, family) >= lam.n - 5:
        return TheoremBStatus.MAXIMAL_HAMILTONIAN
    return TheoremBStatus.NOT_APPLICABLE


@dataclass(frozen=True)
class TorusReport:
    bending_set: BendingSet
    dimension: int
    is_full: bool
    maximal_blocks: tuple[int, ...]
    is_maximal_bending: bool
    theorem_b: TheoremBStatus
    common_value: Fraction | None

    def to_json(self, lam: LengthFunction) -> dict:
        return {
            "bending_set": self.bending_set.to_json(lam),
            "dimension": self.dimension,
            "is_full": self.is_full,
            "maximal_blocks": [subset_to_json(lam, b) for b in self.maximal_blocks],
            "is_maximal_bending": self.is_maximal_bending,
            "theorem_b": self.theorem_b.value,
            "common_value": (
                None if self.common_value is None else format_rational(self.common_value)
            ),
        }


def _lopsided_by_anchor(lopsided: bytearray, n: int) -> list[list[int]]:
    """Lopsided masks grouped by their lowest edge, in ascending mask order."""
    size = 1 << n
    return [
        [mask for mask in range(1 << i, size, 2 << i) if lopsided[mask]]
        for i in range(n)
    ]


def _lopsided_partitions(
    lam: LengthFunction, lopsided: bytearray
) -> Iterator[tuple[int, ...]]:
    """All partitions of the edge set into lopsided blocks."""
    groups = _lopsided_by_anchor(lopsided, lam.n)
    acc: list[int] = []

    def walk(remaining: int) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield tuple(acc)
            return
        anchor = (remaining & -remaining).bit_length() - 1
        for block in groups[anchor]:
            if block & ~remaining:
                continue
            acc.append(block)
            yield from walk(remaining ^ block)
            acc.pop()

    yield from walk(lam.full_mask)


def _full_trees(
    lopsided: bytearray, block: int, memo: dict[int, list[tuple[int, ...]]]
) -> list[tuple[int, ...]]:
    """All full binary laminar families on a lopsided block (block included).

    Each family is the tuple of its non-singleton masks; both halves of every
    split must be lopsided, which prunes the recursion early.
    """
    if block in memo:
        return memo[block]
    low = block & -block
    rest = block ^ low
    results: list[tuple[int, ...]] = []
    sub = rest
    while True:
        half = sub | low
        other = block ^ half
        if other and lopsided[half] and lopsided[other]:
            left = _full_trees(lopsided, half, memo) if half.bit_count() > 1 else [()]
            right = _full_trees(lopsided, other, memo) if other.bit_count() > 1 else [()]
            for a in left:
                for b in right:
                    results.append((block,) + a + b)
        if sub == 0:
            break
        sub = (sub - 1) & rest
    memo[block] = results
    return results


def _family_key(family: BendingSet) -> tuple:
    return tuple(sorted(canonical_member_key(m) for m in family.non_singletons()))


def _common_value(
    lam: LengthFunction, partition: tuple[int, ...], totals: list[int], tops: list[int]
) -> Fraction | None:
    """``common_point`` of the blocks' moment images, read off the subset tables.

    A block's image is the intersection of the chain spans of the block and
    its complement; an empty one is refused as ``moment_image`` refuses it.
    """
    full = lam.full_mask
    lo, hi = 0, totals[full]
    for block in partition:
        comp = full ^ block
        block_lo = max(0, 2 * tops[block] - totals[block], 2 * tops[comp] - totals[comp])
        block_hi = min(totals[block], totals[comp])
        if block_lo > block_hi:
            raise PreconditionViolated(
                "interval endpoints out of order",
                lo=Fraction(block_lo, lam.scale),
                hi=Fraction(block_hi, lam.scale),
            )
        lo = max(lo, block_lo)
        hi = min(hi, block_hi)
    return Fraction(lo, lam.scale) if lo <= hi else None


def _maximal_full_families(
    lam: LengthFunction,
    *,
    max_blocks: int | None = None,
) -> Iterator[tuple[BendingSet, tuple[int, ...], Fraction | None]]:
    """Full bending sets whose torus is maximal, as (family, blocks, witness)."""
    singletons = [1 << i for i in range(lam.n)]
    totals, tops, lopsided = _subset_tables(lam)
    tree_memo: dict[int, list[tuple[int, ...]]] = {}
    for partition in _lopsided_partitions(lam, lopsided):
        if max_blocks is not None and len(partition) > max_blocks:
            continue
        if len(partition) <= 3:
            witness = None  # top dimension, maximal outright
        else:
            witness = _common_value(lam, partition, totals, tops)
            if witness is None:
                continue
        per_block = [
            _full_trees(lopsided, block, tree_memo)
            for block in partition
            if block.bit_count() > 1
        ]
        for combo in product(*per_block):
            members = set(singletons)
            for tree in combo:
                members.update(tree)
            family = BendingSet(lam.n, frozenset(members))
            yield family, tuple(sorted(partition, key=canonical_member_key)), witness


def _length_preserving_permutations(lam: LengthFunction) -> list[tuple[int, ...]]:
    """All edge permutations fixing the length function, as index maps."""
    by_length: dict[Fraction, list[int]] = {}
    for i, length in enumerate(lam.lengths):
        by_length.setdefault(length, []).append(i)
    groups = list(by_length.values())
    maps = []
    for images in product(*(permutations(g) for g in groups)):
        mapping = [0] * lam.n
        for group, image in zip(groups, images):
            for src, dst in zip(group, image):
                mapping[src] = dst
        maps.append(tuple(mapping))
    return maps


def _permute_mask(mask: int, mapping: tuple[int, ...]) -> int:
    out = 0
    for i in bits(mask):
        out |= 1 << mapping[i]
    return out


def _orbit_key(family: BendingSet, maps: list[tuple[int, ...]]) -> tuple:
    return min(
        tuple(sorted(_permute_mask(m, mapping) for m in family.members))
        for mapping in maps
    )


def enumerate_maximal_tori(
    lam: LengthFunction,
    *,
    limit: int | None = None,
    max_edges: int = ENUMERATION_EDGE_GUARD,
    force: bool = False,
    quotient_permutations: bool = False,
) -> list[TorusReport]:
    """All maximal bending tori, reported deterministically.

    Full bending sets are generated as binary forests over the partitions of
    the edge set into lopsided blocks; a partition survives only if its torus
    is maximal (top dimension, or the block images share a point).  Families
    are distinct when they differ on labelled edges; pass
    ``quotient_permutations`` to keep one representative per orbit of the
    length-preserving edge relabelings instead.  Reports are sorted by
    dimension, then by the canonical member list, and optionally truncated to
    the first ``limit``.
    """
    if lam.n > max_edges and not force:
        raise GuardExceeded(
            f"enumeration over {lam.n} edges needs force=True (guard is {max_edges})",
            edges=lam.n,
            guard=max_edges,
        )
    seen: set[frozenset[int]] = set()
    reports: list[TorusReport] = []
    for family, blocks, witness in _maximal_full_families(lam):
        if family.members in seen:
            continue
        seen.add(family.members)
        dim = lam.n - max(3, len(blocks))
        status = (
            TheoremBStatus.MAXIMAL_HAMILTONIAN
            if dim >= lam.n - 5
            else TheoremBStatus.NOT_APPLICABLE
        )
        reports.append(
            TorusReport(
                bending_set=family,
                dimension=dim,
                is_full=True,
                maximal_blocks=blocks,
                is_maximal_bending=True,
                theorem_b=status,
                common_value=witness,
            )
        )
    reports.sort(key=lambda r: (r.dimension, _family_key(r.bending_set)))
    if quotient_permutations:
        maps = _length_preserving_permutations(lam)
        kept, seen_orbits = [], set()
        for report in reports:
            key = _orbit_key(report.bending_set, maps)
            if key not in seen_orbits:
                seen_orbits.add(key)
                kept.append(report)
        reports = kept
    if limit is not None:
        reports = reports[:limit]
    return reports


def toric_bending_sets(
    lam: LengthFunction,
    *,
    max_edges: int = ENUMERATION_EDGE_GUARD,
    force: bool = False,
) -> list[BendingSet]:
    """Full bending sets of top dimension |E| - 3 (at most three maximal blocks)."""
    if lam.n > max_edges and not force:
        raise GuardExceeded(
            f"enumeration over {lam.n} edges needs force=True (guard is {max_edges})",
            edges=lam.n,
            guard=max_edges,
        )
    families = [f for f, _, _ in _maximal_full_families(lam, max_blocks=3)]
    families.sort(key=_family_key)
    return families


def two_long_edge_pairs(lam: LengthFunction) -> list[tuple[str, str]]:
    """Edge pairs whose combined length exceeds the rest of the polygon."""
    total = lam.total()
    pairs = []
    for i in range(lam.n):
        for j in range(i + 1, lam.n):
            if 2 * (lam.lengths[i] + lam.lengths[j]) > total:
                pairs.append((lam.ids[i], lam.ids[j]))
    return pairs


def two_long_edge_partition(lam: LengthFunction) -> tuple[int, int] | None:
    """A 2-partition into lopsided blocks separating some dominant pair.

    For each pair satisfying the two-long-edge inequality, every assignment of
    the remaining edges is tried; whether the inequality alone guarantees a
    hit is treated as a question to probe, not assumed.
    """
    total = lam.total()
    for i in range(lam.n):
        for j in range(i + 1, lam.n):
            if 2 * (lam.lengths[i] + lam.lengths[j]) <= total:
                continue
            rest = [k for k in range(lam.n) if k not in (i, j)]
            for assign in range(1 << len(rest)):
                side_a = 1 << i
                side_b = 1 << j
                for pos, k in enumerate(rest):
                    if assign >> pos & 1:
                        side_a |= 1 << k
                    else:
                        side_b |= 1 << k
                if is_lopsided(lam, side_a) and is_lopsided(lam, side_b):
                    return (
                        min(side_a, side_b, key=canonical_member_key),
                        max(side_a, side_b, key=canonical_member_key),
                    )
    return None

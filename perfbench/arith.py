"""Integer arithmetic on edge lengths, written independently of bendix.

The generators and the output verifier both work on lengths scaled to
integers by the common denominator, so every comparison is exact integer
arithmetic.  Subsets of edges are bitmasks over the input edge order, as in
the CLI's input files (edge ``e<k>`` is bit ``k - 1``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterator


class Lengths:
    """Edge lengths as exact fractions plus the same lengths scaled to ints."""

    def __init__(self, lengths: list[Fraction]):
        self.fractions = list(lengths)
        self.scale = math.lcm(*(x.denominator for x in self.fractions))
        self.ints = [int(x * self.scale) for x in self.fractions]
        self.n = len(self.ints)
        self.full = (1 << self.n) - 1

    @classmethod
    def from_json(cls, doc: dict) -> "Lengths":
        return cls([Fraction(e["length"]) for e in doc["edges"]])

    def to_json(self) -> dict:
        return {
            "edges": [
                {"id": f"e{i + 1}", "length": str(x)}
                for i, x in enumerate(self.fractions)
            ]
        }

    @cached_property
    def _tables(self) -> tuple[list[int], list[int]]:
        """Sum and largest length of every edge subset, indexed by mask."""
        totals = [0] * (1 << self.n)
        tops = [0] * (1 << self.n)
        for mask in range(1, 1 << self.n):
            low = mask & -mask
            length = self.ints[low.bit_length() - 1]
            totals[mask] = totals[mask ^ low] + length
            tops[mask] = max(tops[mask ^ low], length)
        return totals, tops

    def total(self, mask: int) -> int:
        return self._tables[0][mask]

    def top(self, mask: int) -> int:
        return self._tables[1][mask]

    def lopsided(self, mask: int) -> bool:
        return mask != 0 and 2 * self.top(mask) > self.total(mask)

    def nonempty(self) -> bool:
        return 2 * max(self.ints) <= sum(self.ints)

    def generic(self) -> bool:
        """No subset sums to exactly half the total (no vanishing signed sum)."""
        total = sum(self.ints)
        if total % 2:
            return True
        reach = 1
        for w in self.ints:
            reach |= reach << w
        return not reach >> (total // 2) & 1

    def chain_span(self, mask: int) -> tuple[int, int]:
        total = self.total(mask)
        return max(0, 2 * self.top(mask) - total), total

    def image(self, mask: int) -> tuple[int, int]:
        """Scaled image [lo, hi] of the bending function of a proper subset."""
        lo_in, hi_in = self.chain_span(mask)
        lo_out, hi_out = self.chain_span(self.full ^ mask)
        return max(lo_in, lo_out), min(hi_in, hi_out)

    def signed_values(self, mask: int) -> set[int]:
        """All |total - 2 s| over subset sums s of the mask (scaled)."""
        total = self.total(mask)
        sums = {0}
        for i in bits(mask):
            sums |= {s + self.ints[i] for s in sums}
        return {abs(total - 2 * s) for s in sums}

    def mask_of(self, ids: list[str]) -> int:
        mask = 0
        for eid in ids:
            if not eid.startswith("e"):
                raise ValueError(f"bad edge id {eid!r}")
            bit = 1 << (int(eid[1:]) - 1)
            if mask & bit:
                raise ValueError(f"repeated edge id {eid!r}")
            mask |= bit
        if mask & ~self.full:
            raise ValueError("edge id out of range")
        return mask

    def label_order(self, mask: int) -> list[str]:
        """Edge ids longest first, ties by index: the CLI's subset order."""
        order = sorted(bits(mask), key=lambda i: (-self.ints[i], i))
        return [f"e{i + 1}" for i in order]

    def fraction(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.scale)


def bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lopsided_partitions(lam: Lengths, max_blocks: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of the edge set into lopsided blocks."""
    acc: list[int] = []

    def walk(remaining: int) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield tuple(acc)
            return
        if max_blocks is not None and len(acc) == max_blocks:
            return
        low = remaining & -remaining
        rest = remaining ^ low
        sub = rest
        while True:
            block = sub | low
            if lam.lopsided(block):
                acc.append(block)
                yield from walk(remaining ^ block)
                acc.pop()
            if sub == 0:
                return
            sub = (sub - 1) & rest

    yield from walk(lam.full)


def lopsided_splits(lam: Lengths, block: int) -> list[tuple[int, int]]:
    """Unordered splits of a block into two lopsided halves."""
    low = block & -block
    rest = block ^ low
    out = []
    sub = rest
    while True:
        half = sub | low
        other = block ^ half
        if other and lam.lopsided(half) and lam.lopsided(other):
            out.append((half, other))
        if sub == 0:
            return out
        sub = (sub - 1) & rest


def tree_count(lam: Lengths, block: int, memo: dict[int, int]) -> int:
    """Number of full binary laminar families of lopsided sets on a block."""
    if block.bit_count() == 1:
        return 1
    if block not in memo:
        memo[block] = sum(
            tree_count(lam, a, memo) * tree_count(lam, b, memo)
            for a, b in lopsided_splits(lam, block)
        )
    return memo[block]


def partition_dp_steps(lam: Lengths) -> int:
    """Blocks the minimum-lopsided-partition DP tests for lopsidedness.

    The DP visits every edge set reachable from the full set by removing a
    lopsided block that holds the lowest remaining edge, and tests every
    subset of each visited set that holds its lowest edge.  This count is the
    DP's work, so it predicts an ``nmin`` job's time.
    """
    totals, tops = lam._tables
    lopsided = [2 * top > total for total, top in zip(totals, tops)]
    seen = {0}
    stack = [lam.full]
    steps = 0
    while stack:
        remaining = stack.pop()
        if remaining in seen:
            continue
        seen.add(remaining)
        low = remaining & -remaining
        rest = remaining ^ low
        sub = rest
        while True:
            steps += 1
            if lopsided[sub | low]:
                stack.append(remaining ^ sub ^ low)
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return steps


def count_maximal_tori(lam: Lengths) -> int:
    """Maximal bending tori: full families over partitions that share a point."""
    memo: dict[int, int] = {}
    count = 0
    for partition in lopsided_partitions(lam):
        if len(partition) > 3:
            images = [lam.image(b) for b in partition]
            if max(lo for lo, _ in images) > min(hi for _, hi in images):
                continue
        product = 1
        for block in partition:
            product *= tree_count(lam, block, memo)
        count += product
    return count


def count_toric_sets(lam: Lengths) -> int:
    """Full bending sets with at most three maximal blocks."""
    memo: dict[int, int] = {}
    count = 0
    for partition in lopsided_partitions(lam, max_blocks=3):
        product = 1
        for block in partition:
            product *= tree_count(lam, block, memo)
        count += product
    return count


def is_laminar(masks: list[int]) -> bool:
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if a & b and (a | b) not in (a, b):
                return False
    return True


def maximal_members(n: int, masks: set[int]) -> list[int]:
    """Inclusion-maximal members of a family, singletons added."""
    family = set(masks) | {1 << i for i in range(n)}
    return [m for m in family if not any(m != o and m | o == o for o in family)]


def is_full(n: int, masks: set[int]) -> bool:
    family = set(masks) | {1 << i for i in range(n)}
    return all(
        sum(1 for o in family if o & ~m == 0) == 2 * m.bit_count() - 1 for m in family
    )


def torus_dimension(n: int, masks: set[int]) -> int:
    full = (1 << n) - 1
    classes = {
        min(m, full ^ m)
        for m in masks
        if m.bit_count() > 1 and (full ^ m).bit_count() > 1
    }
    return len(classes)

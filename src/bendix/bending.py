"""Bending sets and the interval data of their bending functions.

A bending set is a laminar family of lopsided edge subsets containing every
singleton; it generates a torus of bending flows.  This module validates such
families, completes them to full ones, computes torus dimensions, and knows
the exact image and critical values of each bending function, plus the
combinatorial shadow of reducing the polygon space along one bending circle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import LaminarViolation, NotLopsided, PreconditionViolated, TOutOfImage
from .model import (
    LengthFunction,
    bits,
    dominant_edge_index,
    format_rational,
    generic_witness,
    is_lopsided,
    is_nonempty,
)


def canonical_member_key(mask: int) -> tuple[int, int, tuple[int, ...]]:
    """Sort key for family members: lowest edge, then size, then index list."""
    low = (mask & -mask).bit_length() - 1
    return (low, mask.bit_count(), tuple(bits(mask)))


@dataclass(frozen=True)
class BendingSet:
    """A validated laminar family of lopsided subsets, singletons included."""

    n: int
    members: frozenset[int]

    def non_singletons(self) -> tuple[int, ...]:
        return tuple(
            sorted((m for m in self.members if m.bit_count() > 1), key=canonical_member_key)
        )

    def to_json(self, lam: LengthFunction) -> dict:
        from .model import subset_to_json

        return {"members": [subset_to_json(lam, m) for m in self.non_singletons()]}


def bending_set_from_json(lam: LengthFunction, doc: object) -> BendingSet:
    from .errors import SchemaError
    from .model import subset_from_json

    if not isinstance(doc, dict) or not isinstance(doc.get("members"), list):
        raise SchemaError('bending set JSON must look like {"members": [[...], ...]}')
    return validate_bending_set(lam, (subset_from_json(lam, m) for m in doc["members"]))


def validate_bending_set(lam: LengthFunction, family: Iterable[int]) -> BendingSet:
    """Check lopsidedness and laminarity, adding all singletons if absent."""
    masks = set(family)
    for mask in masks:
        if mask & ~lam.full_mask:
            raise PreconditionViolated("member uses edges outside the length function")
    masks.update(1 << i for i in range(lam.n))
    for mask in sorted(masks, key=canonical_member_key):
        if not is_lopsided(lam, mask):
            raise NotLopsided(
                "bending set member is not lopsided",
                member=list(lam.ids_of(mask)),
            )
    ordered = sorted(masks, key=canonical_member_key)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if a & b and (a | b) != a and (a | b) != b:
                raise LaminarViolation(
                    "members overlap without containment",
                    first=list(lam.ids_of(a)),
                    second=list(lam.ids_of(b)),
                )
    return BendingSet(lam.n, frozenset(masks))


def maximal_elements(family: BendingSet) -> tuple[int, ...]:
    """The inclusion-maximal members; always a partition of the edge set."""
    members = family.members
    blocks = [
        m for m in members if not any(m != o and m | o == o for o in members)
    ]
    blocks.sort(key=canonical_member_key)
    covered = 0
    for b in blocks:
        assert covered & b == 0
        covered |= b
    assert covered == (1 << family.n) - 1
    return tuple(blocks)


def _maximal_proper_subs(members: frozenset[int] | set[int], target: int) -> list[int]:
    subs = [m for m in members if m != target and m & ~target == 0]
    tops = [m for m in subs if not any(m != o and m | o == o for o in subs)]
    tops.sort(key=canonical_member_key)
    return tops


def _split_in(members: frozenset[int] | set[int], target: int) -> tuple[int, int] | None:
    """The unique pair of members partitioning target, if there is one."""
    tops = _maximal_proper_subs(members, target)
    if len(tops) == 2 and tops[0] | tops[1] == target:
        return tops[0], tops[1]
    return None


def member_split(family: BendingSet, member: int) -> tuple[int, int] | None:
    if member.bit_count() <= 1:
        return None
    return _split_in(family.members, member)


def is_full(family: BendingSet) -> bool:
    """Every member dominates exactly 2|J| - 1 members of the family."""
    members = family.members
    return all(
        sum(1 for o in members if o & ~m == 0) == 2 * m.bit_count() - 1
        for m in members
    )


def fill(lam: LengthFunction, family: BendingSet) -> BendingSet:
    """Complete a bending set to a full one without changing its maximal blocks.

    Repeatedly takes a smallest member that is not the disjoint union of two
    members and aggregates its maximal proper sub-members left to right:
    starting from the one holding the dominant edge, then in canonical edge
    order.  Each partial union is lopsided (it contains the dominant edge),
    so the result validates.  Deterministic, idempotent, and it only ever adds
    proper subsets of existing members.
    """
    members = set(family.members)
    while True:
        broken = [
            m
            for m in members
            if m.bit_count() > 1 and _split_in(members, m) is None
        ]
        if not broken:
            break
        target = min(broken, key=lambda m: (m.bit_count(), canonical_member_key(m)))
        pieces = _maximal_proper_subs(members, target)
        assert len(pieces) >= 3  # with 2 pieces the member would already split
        dom = 1 << dominant_edge_index(lam, target)
        first = next(p for p in pieces if p & dom)
        rest = [p for p in pieces if p is not first]
        acc = first
        for piece in rest[:-1]:
            acc |= piece
            members.add(acc)
    return validate_bending_set(lam, members)


def torus_dimension(lam: LengthFunction, family: BendingSet) -> int:
    """Dimension of the bending torus the family generates.

    Counts non-singleton members modulo the identification of a subset with
    its complement (their bending functions coincide), dropping members whose
    bending function is constant (complement a singleton).  For full families
    this equals |E| - max(3, number of maximal blocks), which is asserted.
    """
    full = lam.full_mask
    classes = set()
    for m in family.members:
        if m.bit_count() <= 1:
            continue
        comp = full ^ m
        if comp.bit_count() <= 1:
            continue  # constant bending function, no flow
        classes.add(min(m, comp))
    dim = len(classes)
    if is_full(family):
        assert dim == lam.n - max(3, len(maximal_elements(family)))
    return dim


@dataclass(frozen=True)
class Interval:
    """Closed rational interval."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise PreconditionViolated(
                "interval endpoints out of order", lo=self.lo, hi=self.hi
            )

    def __contains__(self, value: Fraction) -> bool:
        return self.lo <= value <= self.hi

    def to_json(self) -> dict:
        return {"lo": format_rational(self.lo), "hi": format_rational(self.hi)}


def _chain_span(lam: LengthFunction, mask: int) -> tuple[int, int]:
    """Reachable distances between the endpoints of an open chain of edges.

    In units of ``1 / lam.scale``, like ``lam.weights``.
    """
    total, top = lam.scaled_total_top(mask)
    return max(0, 2 * top - total), total


def moment_image(lam: LengthFunction, mask: int) -> Interval:
    """Exact image of the bending function of a proper nonempty subset.

    A diagonal length t is attained exactly when both the subset chain and the
    complement chain can span t, so the image is the intersection of the two
    chain-span intervals.
    """
    if mask == 0 or mask == lam.full_mask:
        raise PreconditionViolated(
            "moment image needs a proper nonempty edge subset",
            subset=list(lam.ids_of(mask)),
        )
    lo_in, hi_in = _chain_span(lam, mask)
    lo_out, hi_out = _chain_span(lam, lam.full_mask ^ mask)
    return Interval(
        Fraction(max(lo_in, lo_out), lam.scale), Fraction(min(hi_in, hi_out), lam.scale)
    )


def _signed_values(lam: LengthFunction, mask: int) -> set[Fraction]:
    """All |signed sums| of the lengths in the mask."""
    total = lam.total(mask)
    sums = {Fraction(0)}
    for i in bits(mask):
        length = lam.lengths[i]
        sums |= {s + length for s in sums}
    return {abs(total - 2 * s) for s in sums}


def critical_values(lam: LengthFunction, mask: int) -> tuple[Fraction, ...]:
    """Values where some side of the polygon degenerates to a line.

    The bending function has a critical point exactly where the subset chain
    or the complement chain is collinear, so the critical values are the
    absolute signed sums of either side, clipped to the image.  Ascending.
    """
    image = moment_image(lam, mask)
    values = _signed_values(lam, mask) | _signed_values(lam, lam.full_mask ^ mask)
    return tuple(sorted(v for v in values if v in image))


def is_regular_value(lam: LengthFunction, mask: int, t: Fraction) -> bool:
    return t not in critical_values(lam, mask)


@dataclass(frozen=True)
class ReductionResult:
    """The two factor length functions after collapsing a cluster at value t.

    Each factor gains one virtual edge of length t closing it up; its id names
    the collapsed edges of the other side.  When t is a regular value both
    factors are generic, which the flags record.
    """

    left: LengthFunction
    right: LengthFunction
    t: Fraction
    left_generic: bool
    right_generic: bool

    def to_json(self) -> dict:
        return {
            "t": format_rational(self.t),
            "left": self.left.to_json(),
            "right": self.right.to_json(),
            "left_generic": self.left_generic,
            "right_generic": self.right_generic,
        }


def _virtual_id(lam: LengthFunction, collapsed: int, used: tuple[str, ...]) -> str:
    name = "(" + "+".join(lam.ids_of(collapsed)) + ")"
    while name in used:
        name += "'"
    return name


def _factor(lam: LengthFunction, keep: int, t: Fraction) -> LengthFunction:
    ids = lam.ids_of(keep)
    lengths = tuple(lam.lengths[i] for i in bits(keep))
    virt = _virtual_id(lam, lam.full_mask ^ keep, ids)
    return LengthFunction(ids + (virt,), lengths + (t,))


def reduce(lam: LengthFunction, mask: int, t: Fraction) -> ReductionResult:
    """Split the polygon space along a bending circle at level t."""
    image = moment_image(lam, mask)
    if t not in image:
        raise TOutOfImage(
            "t is outside the image of the bending function",
            t=t,
            lo=image.lo,
            hi=image.hi,
        )
    if t <= 0:
        raise PreconditionViolated("reduction needs a positive diagonal length", t=t)
    left = _factor(lam, mask, t)
    right = _factor(lam, lam.full_mask ^ mask, t)
    assert is_nonempty(left) and is_nonempty(right)
    return ReductionResult(
        left=left,
        right=right,
        t=t,
        left_generic=generic_witness(left) is None,
        right_generic=generic_witness(right) is None,
    )

"""Edge sets, exact rational length functions, and lopsidedness predicates.

Everything downstream works over one ``LengthFunction``: an ordered list of
edges with strictly positive rational lengths.  Subsets of edges are plain
``int`` bitmasks over the canonical edge order (the input order), which keeps
the combinatorial searches cheap and the tie-breaking rules unambiguous.
No floating point is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    GuardExceeded,
    NotLopsided,
    PreconditionViolated,
    SchemaError,
    UnknownEdge,
)

# Genericity is decided by exact subset sums, which is exponential in the
# number of edges; refuse silly inputs unless the caller forces the issue.
GENERICITY_EDGE_GUARD = 24


def parse_rational(value: int | str | Fraction) -> Fraction:
    """Parse "p/q" (or a bare integer) into an exact fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise SchemaError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"not a rational: {value!r}") from exc
    # Floats are rejected on purpose: all arithmetic must stay exact.
    raise SchemaError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" form, with "/1" elided."""
    return str(value)


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class LengthFunction:
    """Ordered edges with exact positive rational lengths.

    The edge order is canonical: bitmask encodings, deterministic tie-breaks
    and JSON output all refer to it.  Lengths are ``Fraction``s at the API;
    the predicates and searches run on the exact integer view ``weights``
    (the lengths times ``scale``), computed once on first use.
    """

    ids: tuple[str, ...]
    lengths: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.ids) != len(self.lengths) or not self.ids:
            raise SchemaError("need matching, nonempty id and length lists")
        if len(set(self.ids)) != len(self.ids):
            raise SchemaError("edge ids must be unique", ids=list(self.ids))
        for eid, length in zip(self.ids, self.lengths):
            if not isinstance(length, Fraction) or length <= 0:
                raise SchemaError(f"edge {eid!r} needs a positive rational length")

    @classmethod
    def from_lengths(
        cls, values: Iterable[int | str | Fraction], ids: Iterable[str] | None = None
    ) -> "LengthFunction":
        lengths = tuple(parse_rational(v) for v in values)
        if ids is None:
            ids = tuple(f"e{i + 1}" for i in range(len(lengths)))
        return cls(tuple(ids), lengths)

    @classmethod
    def from_json(cls, doc: object) -> "LengthFunction":
        if not isinstance(doc, dict) or not isinstance(doc.get("edges"), list):
            raise SchemaError('length function JSON must look like {"edges": [...]}')
        ids, lengths = [], []
        for entry in doc["edges"]:
            if not isinstance(entry, dict) or "id" not in entry or "length" not in entry:
                raise SchemaError('each edge needs {"id": ..., "length": ...}')
            if not isinstance(entry["id"], str):
                raise SchemaError("edge ids must be strings", value=str(entry["id"]))
            ids.append(entry["id"])
            lengths.append(parse_rational(entry["length"]))
        return cls(tuple(ids), tuple(lengths))

    def to_json(self) -> dict:
        return {
            "edges": [
                {"id": eid, "length": format_rational(length)}
                for eid, length in zip(self.ids, self.lengths)
            ]
        }

    @cached_property
    def scale(self) -> int:
        """Least common multiple of the length denominators."""
        return math.lcm(*(length.denominator for length in self.lengths))

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """The lengths times ``scale``, as exact integers."""
        scale = self.scale
        return tuple(
            length.numerator * (scale // length.denominator) for length in self.lengths
        )

    def scaled_total_top(self, mask: int) -> tuple[int, int]:
        """Sum and largest of the weights over a mask, found in one pass."""
        weights = self.weights
        total = top = 0
        while mask:
            low = mask & -mask
            weight = weights[low.bit_length() - 1]
            total += weight
            if weight > top:
                top = weight
            mask ^= low
        return total, top

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def index(self, edge_id: str) -> int:
        try:
            return self.ids.index(edge_id)
        except ValueError:
            raise UnknownEdge(f"unknown edge id {edge_id!r}", edge=edge_id) from None

    def mask_of(self, edge_ids: Iterable[str]) -> int:
        mask = 0
        for eid in edge_ids:
            bit = 1 << self.index(eid)
            if mask & bit:
                raise SchemaError(f"duplicate edge id {eid!r} in subset", edge=eid)
            mask |= bit
        return mask

    def ids_of(self, mask: int) -> tuple[str, ...]:
        """Edge ids of a mask, in canonical (index) order."""
        return tuple(self.ids[i] for i in bits(mask))

    def label_of(self, mask: int) -> tuple[str, ...]:
        """Edge ids of a mask, longest edge first (ties by index)."""
        order = sorted(bits(mask), key=lambda i: (-self.lengths[i], i))
        return tuple(self.ids[i] for i in order)

    def total(self, mask: int | None = None) -> Fraction:
        if mask is None:
            mask = self.full_mask
        return Fraction(self.scaled_total_top(mask)[0], self.scale)

    def max_edge(self, mask: int) -> int:
        """Index of the longest edge in the mask (ties broken by lowest index)."""
        if mask == 0:
            raise PreconditionViolated("empty subset has no longest edge")
        return max(bits(mask), key=lambda i: (self.lengths[i], -i))


def subset_from_json(lam: LengthFunction, doc: object) -> int:
    if not isinstance(doc, list) or not all(isinstance(x, str) for x in doc):
        raise SchemaError("edge subset JSON must be a list of edge ids")
    return lam.mask_of(doc)


def subset_to_json(lam: LengthFunction, mask: int) -> list[str]:
    return list(lam.label_of(mask))


def is_nonempty(lam: LengthFunction) -> bool:
    """Whether a closed configuration exists: longest edge <= sum of the others."""
    total, top = lam.scaled_total_top(lam.full_mask)
    return 2 * top <= total


def generic_witness(
    lam: LengthFunction,
    *,
    max_edges: int = GENERICITY_EDGE_GUARD,
    force: bool = False,
) -> int | None:
    """A mask S (excluding edge 0) with sum(S) == total/2, or None if generic.

    Flipping the signs of exactly the edges in S gives a vanishing signed sum,
    so None means no sign assignment kills the total.  Lengths are scaled to
    integers (``lam.weights``) and the reachable-sum set is deduplicated, which
    keeps the search pseudo-polynomial for the integral examples.
    """
    if lam.n > max_edges and not force:
        raise GuardExceeded(
            f"genericity check over {lam.n} edges needs force=True "
            f"(guard is {max_edges})",
            edges=lam.n,
            guard=max_edges,
        )
    scaled = lam.weights
    total = sum(scaled)
    if total % 2:
        return None
    target = total // 2
    reach: dict[int, int] = {0: 0}  # achievable sum -> witness mask
    for i in range(1, lam.n):  # fix the sign of edge 0 by symmetry
        weight = scaled[i]
        fresh = {}
        for value, mask in reach.items():
            bumped = value + weight
            if bumped <= target and bumped not in reach and bumped not in fresh:
                fresh[bumped] = mask | (1 << i)
        reach.update(fresh)
    return reach.get(target)


def is_generic(
    lam: LengthFunction,
    *,
    max_edges: int = GENERICITY_EDGE_GUARD,
    force: bool = False,
) -> bool:
    """No sign assignment makes the lengths sum to zero."""
    return generic_witness(lam, max_edges=max_edges, force=force) is None


def pol_dimension(lam: LengthFunction) -> int:
    """Dimension 2(|E| - 3) of the polygon space; rejects bad inputs loudly."""
    witness = generic_witness(lam)
    if witness is not None:
        raise PreconditionViolated(
            "length function is not generic: flipping the signs of "
            f"{list(lam.ids_of(witness))} gives a vanishing signed sum",
            negative_edges=list(lam.ids_of(witness)),
        )
    if not is_nonempty(lam):
        top = lam.max_edge(lam.full_mask)
        raise PreconditionViolated(
            "polygon space is empty: the longest edge exceeds the sum of the others",
            longest_edge=lam.ids[top],
            longest_length=lam.lengths[top],
            sum_of_others=lam.total() - lam.lengths[top],
        )
    return 2 * (lam.n - 3)


def is_lopsided(lam: LengthFunction, mask: int) -> bool:
    """One edge strictly outweighs the rest of the subset; empty set fails."""
    total, top = lam.scaled_total_top(mask)
    return 2 * top > total


def dominant_edge_index(lam: LengthFunction, mask: int) -> int:
    if not is_lopsided(lam, mask):
        raise NotLopsided(
            "subset is not lopsided, so it has no dominant edge",
            subset=list(lam.ids_of(mask)),
        )
    # Uniqueness is automatic: two such edges would each exceed the other.
    return lam.max_edge(mask)


def dominant_edge(lam: LengthFunction, mask: int) -> str:
    return lam.ids[dominant_edge_index(lam, mask)]

"""Differential tests: the integer-scaled kernel against the Fraction references.

Lengths mix denominators (halves, thirds, quarters, fifths and one beyond
64-bit range after scaling) and repeat often, so ties in the searches and
large scales both come up.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bendix.bending import moment_image
from bendix.errors import PreconditionViolated
from bendix.model import LengthFunction, is_lopsided
from bendix.search import (
    _subset_tables,
    enumerate_maximal_tori,
    min_coarser_partition,
    min_lopsided_partition,
)
from oracles import (
    oracle_lopsided,
    reference_maximal_tori,
    reference_min_coarser_partition,
    reference_min_lopsided_partition,
    reference_moment_image,
)

POOL = [Fraction(v) for v in (
    "1/2", "3/4", "5/3", "1", "2", "7/4", "5/2", "4/3", "3", "7/2", "5", "9/5",
)] + [Fraction(2**64 + 1, 2**63)]

LENGTHS = st.one_of(
    st.sampled_from(POOL),
    st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6),
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

# Scale 3 * 2**63: the weights and every nonempty total pass the 64-bit range.
WIDE = LengthFunction.from_lengths(POOL[:5] + POOL[-1:] + POOL[5:9])


def lambdas(min_n: int, max_n: int):
    """Length functions with n drawn uniformly, so large n is not rare."""
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(LENGTHS, min_size=n, max_size=n)
    ).map(LengthFunction.from_lengths)


@SETTINGS
@given(lambdas(1, 10))
@example(WIDE)
def test_subset_tables_match_fraction_sums(lam):
    totals, tops, lopsided = _subset_tables(lam)
    assert len(totals) == len(tops) == len(lopsided) == 1 << lam.n
    for mask in range(1 << lam.n):
        side = [lam.lengths[i] for i in range(lam.n) if mask >> i & 1]
        assert Fraction(totals[mask], lam.scale) == sum(side, Fraction(0))
        assert Fraction(tops[mask], lam.scale) == max(side, default=0)
        expected = oracle_lopsided(lam, mask)
        assert bool(lopsided[mask]) is expected
        assert is_lopsided(lam, mask) is expected


@SETTINGS
@given(lambdas(2, 10))
@example(WIDE)
def test_moment_image_matches_chain_span_formula(lam):
    for mask in range(1, lam.full_mask):
        lo, hi = reference_moment_image(lam, mask)
        if lo > hi:  # empty polygon space: no image to report
            with pytest.raises(PreconditionViolated):
                moment_image(lam, mask)
            continue
        image = moment_image(lam, mask)
        assert type(image.lo) is Fraction and type(image.hi) is Fraction
        assert (image.lo, image.hi) == (lo, hi)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(lambdas(1, 10))
@example(WIDE)
def test_min_lopsided_partition_matches_reference(lam):
    assert min_lopsided_partition(lam) == reference_min_lopsided_partition(lam)


@SETTINGS
@given(st.data())
def test_min_coarser_partition_matches_reference(data):
    lam = data.draw(lambdas(1, 9))
    labels = data.draw(
        st.lists(st.integers(0, lam.n - 1), min_size=lam.n, max_size=lam.n)
    )
    blocks = {}
    for i, label in enumerate(labels):
        blocks[label] = blocks.get(label, 0) | 1 << i
    blocks = list(blocks.values())
    expected = reference_min_coarser_partition(lam, blocks)
    if expected is None:
        with pytest.raises(PreconditionViolated, match="no partition"):
            min_coarser_partition(lam, tuple(blocks))
    else:
        assert min_coarser_partition(lam, tuple(blocks)) == expected


@settings(max_examples=20, deadline=None, derandomize=True)
@given(lambdas(3, 8).filter(lambda lam: 2 * max(lam.lengths) <= sum(lam.lengths)))
def test_enumerate_maximal_tori_matches_reference(lam):
    reports = enumerate_maximal_tori(lam)
    got = sorted(
        (
            r.dimension,
            tuple(sorted(r.bending_set.members)),
            tuple(sorted(r.maximal_blocks)),
            r.common_value,
        )
        for r in reports
    )
    expected = reference_maximal_tori(lam)
    assert got == expected
    by_members = {row[1]: row[3] for row in expected}
    for r in reports:
        value = by_members[tuple(sorted(r.bending_set.members))]
        assert r.to_json(lam)["common_value"] == (None if value is None else str(value))

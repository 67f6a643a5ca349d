"""Seeded job generators for the four CLI workloads.

A workload is a deterministic stream of jobs.  Job ``i`` of workload ``w``
under seed ``s`` depends only on ``(w, s, i)``, so a run that stops early and a
run that goes further agree on every job they share.  Each workload repeats a
fixed *cycle* of job slots (sizes or commands), and a timed run measures the
first ``run_length(w)`` jobs, a fixed number of whole cycles, so the mix of job
sizes, and the rank of the median and tail job in it, is the same in every run.

A job is a CLI argv with ``{lambda}`` / ``{bending}`` placeholders and the
JSON documents to write to those files.  Nothing here imports bendix.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from arith import (
    Lengths,
    bits,
    count_maximal_tori,
    count_toric_sets,
    lopsided_partitions,
    lopsided_splits,
    partition_dp_steps,
)

HALVES = tuple(Fraction(k, 2) for k in range(1, 9))  # 1/2 .. 4
SHORT = (Fraction(1, 2), Fraction(1))
LONG = tuple(Fraction(k, 2) for k in range(3, 9))  # 3/2 .. 4

QUERY_COMMANDS = (
    "check", "lopsided", "image", "critical", "reduce",
    "dim", "fill", "maximal", "polytope",
)
BENDING_COMMANDS = ("dim", "fill", "maximal", "polytope")


@dataclass
class Job:
    index: int
    kind: str  # the CLI command, or the invalid-query variant
    n: int
    argv: list[str]
    files: dict[str, dict] = field(default_factory=dict)
    expect_code: str | None = None  # error code a deliberately invalid job must give
    size: int | None = None  # work count the generator banded on (see each workload)

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "n": self.n,
            "argv": self.argv,
            "files": self.files,
            "expect_code": self.expect_code,
            "size": self.size,
        }


def draw_lengths(rng: random.Random, pools: list[tuple[Fraction, ...]], *, generic: bool = True) -> Lengths:
    """Rejection-sample nonempty lengths, one per pool, in shuffled edge order."""
    while True:
        values = [rng.choice(pool) for pool in pools]
        rng.shuffle(values)
        lam = Lengths(values)
        if lam.nonempty() and lam.generic() == generic:
            return lam


def ids_json(lam: Lengths, mask: int) -> str:
    return json.dumps([f"e{i + 1}" for i in bits(mask)])


def random_partition(rng: random.Random, lam: Lengths) -> list[int]:
    """A random partition into lopsided blocks, grown edge by edge."""
    blocks: list[int] = []
    for i in rng.sample(range(lam.n), lam.n):
        fits = [k for k, b in enumerate(blocks) if lam.lopsided(b | 1 << i)]
        if fits and rng.random() < 0.7:
            blocks[rng.choice(fits)] |= 1 << i
        else:
            blocks.append(1 << i)
    return blocks


def random_tree(rng: random.Random, lam: Lengths, block: int) -> list[int]:
    """Non-singleton members of a random full binary lopsided family on a block."""
    if block.bit_count() == 1:
        return []
    half, other = rng.choice(lopsided_splits(lam, block))
    return [block] + random_tree(rng, lam, half) + random_tree(rng, lam, other)


def bending_doc(lam: Lengths, members: list[int]) -> dict:
    return {"members": [[f"e{i + 1}" for i in bits(m)] for m in members]}


def proper_subset(rng: random.Random, lam: Lengths) -> int:
    return rng.randrange(1, lam.full)


# --- spectrum ---------------------------------------------------------------

# (n, --quotient-permutations) per slot.  Every lambda has exactly two short
# edges, and its number of maximal tori (counted independently) must fall in
# the band for its n, around the median of what such lambdas give.  Job time
# follows the torus count, so the bands keep job sizes comparable from seed
# to seed.  The cycle puts the median
# job inside the n = 7 slots, not on the edge between two sizes.
SPECTRUM_CYCLE = (
    (8, False), (7, False), (7, False), (7, True),
    (6, False), (6, True), (7, False),
)
SPECTRUM_TORI = {6: (80, 130), 7: (200, 300), 8: (600, 850)}


def spectrum_job(rng: random.Random, index: int) -> Job:
    n, quotient = SPECTRUM_CYCLE[index % len(SPECTRUM_CYCLE)]
    low, high = SPECTRUM_TORI[n]
    while True:
        lam = draw_lengths(rng, [SHORT] * 2 + [LONG] * (n - 2))
        tori = count_maximal_tori(lam)
        if low <= tori <= high:
            break
    argv = ["enumerate", "-f", "{lambda}"]
    if quotient:
        argv.append("--quotient-permutations")
    return Job(index, "enumerate", n, argv, {"lambda": lam.to_json()}, size=tori)


# --- nmin -------------------------------------------------------------------

# The DP's work (blocks tested, counted independently) varies threefold
# between lambdas of one n, and job time with it; each lambda's count must
# fall in a band around the median for its n.  n stops at 11 (0.3 s a job on
# a 2-core x86 VM; n = 12 takes 1.1 s) so that a run holds enough jobs for
# its tail percentile to sit inside the n = 11 slots.
NMIN_CYCLE = (9, 10, 11)
NMIN_DP_STEPS = {9: (1850, 2100), 10: (4800, 5500), 11: (12000, 14000)}


def nmin_job(rng: random.Random, index: int) -> Job:
    n = NMIN_CYCLE[index % len(NMIN_CYCLE)]
    low, high = NMIN_DP_STEPS[n]
    while True:
        lam = draw_lengths(rng, [HALVES] * n)
        steps = partition_dp_steps(lam)
        if low <= steps <= high:
            break
    return Job(index, "nmin", n, ["nmin", "-f", "{lambda}"], {"lambda": lam.to_json()}, size=steps)


# --- conjugacy --------------------------------------------------------------

# Pentagons run the complete 2-d equivalence path; hexagons the 3-d
# fingerprint path.  Both have distinct lengths, which keeps the number of
# equivalence classes, and so the job time, steady.  Pentagons take five of
# {1/2, 1, ..., 4} and must have exactly 33 toric sets (the commonest count),
# so the median and tail pentagon come from one size class.  Hexagons take six
# of {5/2, 11/4, ..., 4}, so only pairs are lopsided and each has exactly 15
# toric sets; one takes about as long as ten pentagons, so a cycle has one.
CONJUGACY_CYCLE = (5,) * 4 + (6,) + (5,) * 23
PENTAGON_TORIC_SETS = (33, 33)
HEXAGON_LENGTHS = tuple(Fraction(k, 4) for k in range(10, 17))  # 5/2 .. 4


def conjugacy_job(rng: random.Random, index: int) -> Job:
    n = CONJUGACY_CYCLE[index % len(CONJUGACY_CYCLE)]
    low, high = PENTAGON_TORIC_SETS
    while True:
        lam = Lengths(rng.sample(HALVES if n == 5 else HEXAGON_LENGTHS, n))
        if not (lam.nonempty() and lam.generic()):
            continue
        toric = count_toric_sets(lam)
        if n == 6 or low <= toric <= high:
            break
    argv = ["conjugacy", "-f", "{lambda}"]
    return Job(index, "conjugacy", n, argv, {"lambda": lam.to_json()}, size=toric)


# --- queries ----------------------------------------------------------------

QUERIES_CYCLE = QUERY_COMMANDS + ("invalid",)


def _toric_family(rng: random.Random, lam: Lengths) -> list[int] | None:
    partitions = list(lopsided_partitions(lam, max_blocks=3))
    if not partitions:
        return None
    members: list[int] = []
    for block in rng.choice(partitions):
        members += random_tree(rng, lam, block)
    return members


def _partial_family(rng: random.Random, lam: Lengths) -> list[int]:
    members: list[int] = []
    for block in random_partition(rng, lam):
        members += random_tree(rng, lam, block)
    return [m for m in members if rng.random() < 0.5]


def _non_lopsided_subset(rng: random.Random, lam: Lengths) -> int | None:
    for _ in range(64):
        mask = proper_subset(rng, lam)
        if mask.bit_count() > 1 and not lam.lopsided(mask):
            return mask
    return None


def _query(rng: random.Random, index: int, command: str) -> Job:
    n = rng.randint(5, 6) if command == "polytope" else rng.randint(5, 12)
    lam = draw_lengths(rng, [HALVES] * n)
    files = {"lambda": lam.to_json()}
    argv = [command, "-f", "{lambda}"]
    if command in ("lopsided", "image", "critical", "reduce"):
        mask = proper_subset(rng, lam)
        argv += ["-I", ids_json(lam, mask)]
        if command == "reduce":
            lo, hi = lam.image(mask)
            t = lo + (hi - lo) * Fraction(rng.randint(1, 4), 4)
            argv += ["-t", str(lam.fraction(t))]
    elif command == "polytope":
        members = _toric_family(rng, lam)
        if members is None:
            return _query(rng, index, command)
        files["bending"] = bending_doc(lam, members)
        argv += ["-b", "{bending}"]
    elif command in BENDING_COMMANDS:
        files["bending"] = bending_doc(lam, _partial_family(rng, lam))
        argv += ["-b", "{bending}"]
    return Job(index, command, n, argv, files)


def _invalid_query(rng: random.Random, index: int) -> Job:
    variant = rng.choice(("nongeneric", "bad-t", "bad-member"))
    n = rng.randint(5, 12)
    if variant == "nongeneric":
        # The CLI reports non-generic lengths (exit 0, generic: false) rather
        # than rejecting them; the verifier checks the vanishing witness.
        lam = draw_lengths(rng, [HALVES] * n, generic=False)
        return Job(index, "check-nongeneric", n, ["check", "-f", "{lambda}"], {"lambda": lam.to_json()})
    lam = draw_lengths(rng, [HALVES] * n)
    files = {"lambda": lam.to_json()}
    if variant == "bad-t":
        mask = proper_subset(rng, lam)
        _, hi = lam.image(mask)
        t = hi + lam.scale * Fraction(rng.randint(1, 4), 2)
        argv = ["reduce", "-f", "{lambda}", "-I", ids_json(lam, mask), "-t", str(lam.fraction(t))]
        return Job(index, "reduce-outside-image", n, argv, files, "t-out-of-image")
    bad = _non_lopsided_subset(rng, lam)
    if bad is None:
        return _invalid_query(rng, index)
    command = rng.choice(BENDING_COMMANDS)
    files["bending"] = bending_doc(lam, _partial_family(rng, lam) + [bad])
    argv = [command, "-f", "{lambda}", "-b", "{bending}"]
    return Job(index, f"{command}-not-lopsided", n, argv, files, "not-lopsided")


def queries_job(rng: random.Random, index: int) -> Job:
    slot = QUERIES_CYCLE[index % len(QUERIES_CYCLE)]
    if slot == "invalid":
        return _invalid_query(rng, index)
    return _query(rng, index, slot)


GENERATORS = {
    "spectrum": (spectrum_job, len(SPECTRUM_CYCLE)),
    "nmin": (nmin_job, len(NMIN_CYCLE)),
    "conjugacy": (conjugacy_job, len(CONJUGACY_CYCLE)),
    "queries": (queries_job, len(QUERIES_CYCLE)),
}
WORKLOADS = tuple(GENERATORS)

# Whole cycles in a timed run's job list: five to ten seconds of jobs on a
# 2-core x86 VM at the commit that defined the benchmark, so that three to
# five passes over the list fit in a 35-second run.
RUN_CYCLES = {"spectrum": 6, "nmin": 12, "conjugacy": 1, "queries": 100}


def cycle_length(workload: str) -> int:
    return GENERATORS[workload][1]


def run_length(workload: str) -> int:
    """Jobs in a timed run's list: job indices ``0 .. run_length - 1``."""
    return RUN_CYCLES[workload] * cycle_length(workload)


def make_job(workload: str, seed: int, index: int) -> Job:
    """Job ``index`` of a workload's stream; index -1 is the warm-up job."""
    make, _ = GENERATORS[workload]
    rng = random.Random(f"{workload}/{seed}/{index}")
    return make(rng, max(index, 0))

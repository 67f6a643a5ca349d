"""Check each job's CLI output against invariants computed independently.

``check(job, code, out, err)`` returns ``None`` when the output is right and
a one-line reason otherwise.  All arithmetic is exact: lengths are scaled to
integers (see ``arith``), and rationals printed by the CLI are parsed with
``Fraction`` and scaled back.  Nothing here imports bendix.
"""

from __future__ import annotations

import json
from fractions import Fraction

import arith
from arith import Lengths, bits
from workloads import Job


class Mismatch(Exception):
    pass


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


def check(job: Job, code: int, out: str, err: str) -> str | None:
    try:
        if job.expect_code is not None:
            expect(code == 2, f"exit code {code}, expected 2")
            expect(out == "", "invalid job wrote to stdout")
            got = json.loads(err)["code"]
            expect(got == job.expect_code, f"error code {got!r}, expected {job.expect_code!r}")
            return None
        expect(code == 0, f"exit code {code}: {err.strip()[:200]}")
        lam = Lengths.from_json(job.files["lambda"])
        CHECKS[job.kind](job, lam, json.loads(out))
    except Mismatch as exc:
        return f"{job.kind}: {exc}"
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"{job.kind}: malformed output ({type(exc).__name__}: {exc})"
    return None


def _arg(job: Job, flag: str) -> str:
    return job.argv[job.argv.index(flag) + 1]


def _subset(job: Job, lam: Lengths) -> int:
    return lam.mask_of(json.loads(_arg(job, "-I")))


def _members(lam: Lengths, doc: dict) -> list[int]:
    return [lam.mask_of(ids) for ids in doc["members"]]


def _scaled(lam: Lengths, text: str) -> Fraction:
    return Fraction(text) * lam.scale


def _check_blocks(lam: Lengths, blocks: list[int]) -> None:
    covered = 0
    for block in blocks:
        expect(block and not covered & block, "blocks overlap or are empty")
        expect(lam.lopsided(block), "block is not lopsided")
        covered |= block
    expect(covered == lam.full, "blocks do not cover the edge set")


def _check_full_family(lam: Lengths, members: list[int], blocks: list[int]) -> None:
    """A full laminar lopsided family whose maximal members are the blocks."""
    expect(all(m.bit_count() > 1 and lam.lopsided(m) for m in members), "member not lopsided")
    expect(len(set(members)) == len(members), "repeated member")
    expect(arith.is_laminar(members), "family is not laminar")
    expect(arith.is_full(lam.n, set(members)), "family is not full")
    expect(set(arith.maximal_members(lam.n, set(members))) == set(blocks), "maximal blocks differ")


def _check_common_value(lam: Lengths, blocks: list[int], value: str | None) -> None:
    if len(blocks) <= 3:
        expect(value is None, "top-dimensional torus reports a common value")
        return
    images = [lam.image(b) for b in blocks]
    lo = max(a for a, _ in images)
    expect(lo <= min(b for _, b in images), "block images share no point")
    expect(value is not None and _scaled(lam, value) == lo, "common value is not the largest low end")


def _theorem_b(lam: Lengths, dim: int, maximal: bool) -> str:
    return "MaximalHamiltonian" if maximal and dim >= lam.n - 5 else "NotApplicable"


def check_enumerate(job: Job, lam: Lengths, doc: dict) -> None:
    reports = doc["reports"]
    expect(doc["count"] == len(reports), "count differs from the report list")
    dims = [r["dimension"] for r in reports]
    expect(dims == sorted(dims), "reports are not sorted by dimension")
    expect(doc["spectrum"] == sorted(set(dims)), "spectrum differs from the reports")
    expect(
        doc["dimension_counts"] == {str(d): dims.count(d) for d in sorted(set(dims))},
        "dimension counts differ from the reports",
    )
    families = set()
    for report in reports:
        blocks = [lam.mask_of(ids) for ids in report["maximal_blocks"]]
        _check_blocks(lam, blocks)
        dim = lam.n - max(3, len(blocks))
        expect(report["dimension"] == dim, "dimension is not n - max(3, #blocks)")
        expect(report["is_full"] is True and report["is_maximal_bending"] is True, "report not full and maximal")
        expect(report["theorem_b"] == _theorem_b(lam, dim, True), "theorem B status")
        members = _members(lam, report["bending_set"])
        _check_full_family(lam, members, blocks)
        _check_common_value(lam, blocks, report["common_value"])
        families.add(frozenset(members))
    expect(len(families) == len(reports), "repeated torus")
    total = job.size  # counted independently when the job was generated
    if "--quotient-permutations" in job.argv:
        expect(0 < len(reports) <= total, "orbit count exceeds the torus count")
    else:
        expect(len(reports) == total, f"{len(reports)} tori, expected {total}")


def check_nmin(job: Job, lam: Lengths, doc: dict) -> None:
    blocks = [lam.mask_of(ids) for ids in doc["witness"]]
    _check_blocks(lam, blocks)
    expect(doc["N"] == len(blocks), "N differs from the witness block count")


def check_conjugacy(job: Job, lam: Lengths, doc: dict) -> None:
    classes = doc["classes"]
    expect(doc["count"] == len(classes), "count differs from the class list")
    members = sum(len(c["members"]) for c in classes)
    expect(members == job.size, "class members do not sum to the toric sets")
    expect(doc["complete"] == (lam.n - 3 <= 2), "complete flag does not match the dimension")
    for cls in classes:
        expect(cls["representative"]["dim"] == lam.n - 3, "representative dimension")
        for family in cls["members"]:
            masks = _members(lam, family)
            blocks = arith.maximal_members(lam.n, set(masks))
            expect(len(blocks) <= 3, "toric set has more than three blocks")
            _check_full_family(lam, masks, blocks)


def check_check(job: Job, lam: Lengths, doc: dict) -> None:
    generic = lam.generic()
    expect(doc["edges"] == lam.n and doc["generic"] == generic, "genericity")
    expect(doc["nonempty"] == lam.nonempty(), "nonemptiness")
    expect(doc["dimension"] == (2 * (lam.n - 3) if generic and lam.nonempty() else None), "dimension")
    if generic:
        expect(doc["vanishing_signs"] is None, "generic lengths report vanishing signs")
    else:
        mask = lam.mask_of(doc["vanishing_signs"])
        expect(2 * lam.total(mask) == lam.total(lam.full), "vanishing signs do not cancel")


def check_nongeneric(job: Job, lam: Lengths, doc: dict) -> None:
    expect(not lam.generic() and doc["generic"] is False, "non-generic lengths reported generic")
    check_check(job, lam, doc)


def check_lopsided(job: Job, lam: Lengths, doc: dict) -> None:
    mask = _subset(job, lam)
    lopsided = lam.lopsided(mask)
    expect(doc["subset"] == lam.label_order(mask), "subset order")
    expect(doc["lopsided"] == lopsided, "lopsidedness")
    expect(doc["dominant"] == (lam.label_order(mask)[0] if lopsided else None), "dominant edge")


def check_image(job: Job, lam: Lengths, doc: dict) -> None:
    lo, hi = lam.image(_subset(job, lam))
    expect(_scaled(lam, doc["lo"]) == lo and _scaled(lam, doc["hi"]) == hi, "image endpoints")


def check_critical(job: Job, lam: Lengths, doc: dict) -> None:
    mask = _subset(job, lam)
    lo, hi = lam.image(mask)
    values = lam.signed_values(mask) | lam.signed_values(lam.full ^ mask)
    want = sorted(v for v in values if lo <= v <= hi)
    expect([_scaled(lam, v) for v in doc["values"]] == want, "critical values")


def check_reduce(job: Job, lam: Lengths, doc: dict) -> None:
    mask = _subset(job, lam)
    t = Fraction(_arg(job, "-t"))
    expect(Fraction(doc["t"]) == t, "reduction level")
    for side, keep in (("left", mask), ("right", lam.full ^ mask)):
        edges = doc[side]["edges"]
        expect([e["id"] for e in edges[:-1]] == [f"e{i + 1}" for i in bits(keep)], f"{side} edge ids")
        expect(
            [Fraction(e["length"]) for e in edges[:-1]] == [lam.fractions[i] for i in bits(keep)],
            f"{side} edge lengths",
        )
        expect(edges[-1]["id"].startswith("(") and Fraction(edges[-1]["length"]) == t, f"{side} virtual edge")
        factor = Lengths([Fraction(e["length"]) for e in edges])
        expect(doc[f"{side}_generic"] == factor.generic(), f"{side} genericity")


def _input_family(job: Job, lam: Lengths) -> list[int]:
    return _members(lam, job.files["bending"])


def check_dim(job: Job, lam: Lengths, doc: dict) -> None:
    members = set(_input_family(job, lam))
    expect(doc["dimension"] == arith.torus_dimension(lam.n, members), "torus dimension")
    expect(doc["is_full"] == arith.is_full(lam.n, members), "fullness")
    blocks = [lam.mask_of(ids) for ids in doc["maximal_blocks"]]
    expect(set(blocks) == set(arith.maximal_members(lam.n, members)), "maximal blocks")


def _check_fill(lam: Lengths, given: list[int], filled: list[int]) -> None:
    expect(set(given) <= set(filled), "fill dropped a member")
    blocks = arith.maximal_members(lam.n, set(given))
    _check_full_family(lam, filled, blocks)


def check_fill(job: Job, lam: Lengths, doc: dict) -> None:
    _check_fill(lam, _input_family(job, lam), _members(lam, doc))


def check_maximal(job: Job, lam: Lengths, doc: dict) -> None:
    given = _input_family(job, lam)
    filled = _members(lam, doc["filled"])
    _check_fill(lam, given, filled)
    expect(doc["input_full"] == arith.is_full(lam.n, set(given)), "input fullness")
    blocks = arith.maximal_members(lam.n, set(filled))
    dim = lam.n - max(3, len(blocks))
    expect(doc["dimension"] == dim, "dimension")
    if dim >= lam.n - 3:
        maximal, value = True, None
    else:
        images = [lam.image(b) for b in blocks]
        lo = max(a for a, _ in images)
        maximal = lo <= min(b for _, b in images)
        value = lo if maximal else None
    expect(doc["is_maximal_bending"] == maximal, "maximality")
    got = doc["common_value"]
    expect((got is None) == (value is None), "common value presence")
    expect(got is None or _scaled(lam, got) == value, "common value")
    expect(doc["theorem_b"] == _theorem_b(lam, dim, maximal), "theorem B status")


def check_polytope(job: Job, lam: Lengths, doc: dict) -> None:
    dim = lam.n - 3
    expect(doc["dim"] == dim and len(doc["labels"]) == dim, "polytope dimension")
    vertices = [tuple(Fraction(c) for c in v) for v in doc["vertices"]]
    expect(vertices == sorted(set(vertices)) and len(vertices) > dim, "vertex list")
    for face in doc["halfspaces"]:
        normal, offset = face["normal"], Fraction(face["offset"])
        values = [sum(a * x for a, x in zip(normal, v)) for v in vertices]
        expect(all(v <= offset for v in values), "vertex violates a halfspace")
        expect(sum(v == offset for v in values) >= dim, "halfspace is not a facet")
    expect(Fraction(doc["volume"]) > 0 and isinstance(doc["is_delzant"], bool), "volume or Delzant flag")


CHECKS = {
    "enumerate": check_enumerate,
    "nmin": check_nmin,
    "conjugacy": check_conjugacy,
    "check": check_check,
    "check-nongeneric": check_nongeneric,
    "lopsided": check_lopsided,
    "image": check_image,
    "critical": check_critical,
    "reduce": check_reduce,
    "dim": check_dim,
    "fill": check_fill,
    "maximal": check_maximal,
    "polytope": check_polytope,
}

"""Golden gate: replay ``bendix.cases.run_examples()`` and compare bytes.

``run_examples`` compares each worked example with its golden file as parsed
JSON.  This gate also captures every report it builds and requires the
rendered text to equal the golden file byte for byte.  Prints one JSON line
and exits 0 only when every case passes both comparisons.
"""

from __future__ import annotations

import json
import sys
import time

import bendix.cases as cases


def main() -> int:
    built: dict[str, dict] = {}
    build_case = cases.build_case

    def capture(case_id: str) -> dict:
        built[case_id] = report = build_case(case_id)
        return report

    cases.build_case = capture
    start = time.perf_counter()
    try:
        result = cases.run_examples()
    finally:
        cases.build_case = build_case
    seconds = time.perf_counter() - start
    identical = [
        cid
        for cid, report in built.items()
        if (cases.golden_dir() / f"{cid}.json").read_bytes()
        == (json.dumps(report, indent=2) + "\n").encode()
    ]
    passed = result["all_pass"] and len(identical) == len(cases.CASES)
    print(json.dumps({
        "pass": passed,
        "cases": len(cases.CASES),
        "byte_identical": len(identical),
        "results": result["results"],
        "seconds": seconds,
    }))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

"""Sweep the hull search against a scan of every level.

Runs sigma_member and modification_certificate over seeds 14-61 on the
level-search systems plus ;2,3,5 and 12;2,13, and on the plateaus of
;2: the 7-11-13 and 4-7-9 coprime ones and one with preambles of about
200 digits (the queries of test_boundary's _level_queries), and
compares each verdict and level with the
level-by-level reference _scan_levels.  Prints one line per system and
every mismatch, and exits 1 on any mismatch.

    PYTHONPATH=src python tests/sweep_hull_levels.py
"""

import sys
from collections import Counter

from refbound.boundary import Strictness, modification_certificate, sigma_member
from refbound.order import format_system, parse_system
from test_boundary import SEARCH_SYSTEMS, _level_queries, _scan_levels

SYSTEMS = SEARCH_SYSTEMS + [parse_system(t) for t in (";2,3,5", "12;2,13")]


def main() -> int:
    seen, bad = {}, []
    for sys, bf, x, y, strictness in _level_queries(SYSTEMS, range(14, 62)):
        want, _ = _scan_levels(sys, bf, x, y, strictness)
        got = (sigma_member(sys, bf, x, y) if strictness is Strictness.NONSTRICT
               else modification_certificate(sys, bf, y))
        seen.setdefault(format_system(sys), Counter())[strictness.value, want.kind] += 1
        if got != want:
            bad.append((format_system(sys), strictness.value, x, y, got, want))
    for name, counts in seen.items():
        print(name, " ".join(f"{k}:{v}={n}" for (k, v), n in sorted(counts.items())))
    for row in bad:
        print("MISMATCH", *row)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

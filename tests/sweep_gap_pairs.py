"""Sweep order_by_cocycle against the digit order on gap pairs and samples.

On the eight systems of the CI suite run, compares order_by_cocycle with
order_compare, in both orders, on every gap pair (a gap point and its
successor) of gap index 1-3000 and of index 2^k for k = 12, 16, ..., 60,
and on every pair of points drawn by sample_points (seeds 0-4, 40 points
each) together with p_min and p_max.  Prints one count line per system
and every mismatch, and exits 1 on any mismatch.

    PYTHONPATH=src python tests/sweep_gap_pairs.py
"""

import sys

from refbound.cocycle import gap_point, order_by_cocycle
from refbound.oracle import sample_points
from refbound.order import format_system, order_compare, p_max, p_min, parse_system, suc

SYSTEMS = [parse_system(t) for t in (
    ";2", ";2,3", "3;2", ";3", "2;2,2,3", ";11", "12;2,13", ";2,3,5")]
GAP_INDICES = list(range(1, 3001)) + [2 ** k for k in range(12, 61, 4)]


def main() -> int:
    bad = []

    def check(s, x, y):
        got, want = order_by_cocycle(s, x, y), order_compare(x, y)
        if got != want:
            bad.append((format_system(s), x, y, got, want))

    for s in SYSTEMS:
        for n in GAP_INDICES:
            g = gap_point(s, n)
            u = suc(s, g)
            check(s, g, u)
            check(s, u, g)
        pts = {p_min(s), p_max(s)}
        for seed in range(5):
            pts.update(sample_points(s, seed, 40, 5, 3))
        for x in pts:
            for y in pts:
                check(s, x, y)
        print(format_system(s), f"gap-pairs={2 * len(GAP_INDICES)}",
              f"sample-pairs={len(pts) ** 2}")
    for row in bad:
        print("MISMATCH", *row)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

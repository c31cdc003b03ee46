#!/usr/bin/env python3
"""The approximation sequence is not monotone, in an exactly certified way.

Each index m carries the class of its multiplier-ideal weight.  Comparing
consecutive classes shows the sequence drops out of order at every step
3k -> 3k+1, no truncation avoids the failures, and yet the powers-of-two
and the 3k+2 subsequences decrease, the latter strictly and with the
correct limit.
"""

from pshlab import (
    adjacent_violations,
    check_subsequence,
    pattern_violations,
    preset,
)
from pshlab.cli import main

arr = preset("theorem1")

print("Sequence table for m = 1..12:")
main(["sequence", "--preset", "theorem1", "--m-max", "12", "--format", "md"])
print()

print("Adjacent violations up to m = 60:", adjacent_violations(arr, 60))
print()

checks = pattern_violations(arr, 8)
print("(3k, 3k+2) comparisons (forward must fail, reverse must hold):")
for c in checks:
    print(f"  k={c.k}: pair {c.pair} forward_fails={c.forward_fails} "
          f"reverse_holds={c.reverse_holds}")
print()

pow2 = check_subsequence(arr, [2 ** k for k in range(1, 11)])
print("Powers of two (m = 2..1024):", pow2.to_dict())
linear = check_subsequence(arr, [3 * k + 2 for k in range(0, 51)])
print("Linear growth (m = 2, 5, ..., 152):", linear.to_dict())
print()

print("Contrast with the warm-up weights:")
print("  smooth:", check_subsequence(preset("smooth"), range(1, 41)).to_dict())
print("  point: ", check_subsequence(preset("point"), range(1, 41)).to_dict())
print()

print("Full claim registry:")
main(["verify-paper", "--format", "md"])

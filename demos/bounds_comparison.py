"""Cost-bound comparison on concrete stopping-time profiles.

Evaluates all bound expressions on the linear profile T_i = i and a batch
of random profiles, confirming the expected ordering between the
composition strategies; exits with status 1 if any random profile breaks it.
"""

import sys

import numpy as np

from vtsearch import (BOUND_KINDS, CostProfile, PromiseDescriptor,
                      compare_table, full_report)


def main():
    profile = CostProfile.deterministic(np.array([1.0, 2.0, 3.0, 4.0]))
    promise = PromiseDescriptor(unique_marked=True, t_max=4.0)
    values = full_report(profile, promise)
    print("linear profile T_i = i at N = 4:")
    for kind in BOUND_KINDS:
        value = values[kind]
        if value == value:  # skip the inapplicable (nan) kinds
            print(f"  {kind:14s} {value:8.4f}")

    rng = np.random.default_rng(0)
    worst = {"l1_over_l2": 1.0, "l0_over_l1": 1.0, "straight_over_l1": 1.0}
    held = 0
    for _ in range(200):
        n = int(rng.choice([8, 64]))
        times = rng.uniform(1.0, 12.0, size=n)
        cmp_report = compare_table(
            CostProfile.deterministic(times),
            PromiseDescriptor(unique_marked=True, t_max=float(times.max())))
        held += cmp_report.ordering_holds
        for key in worst:
            worst[key] = max(worst[key], cmp_report.ratios[key])
    print(f"\n200 random profiles: ordering held in {held} of them")
    for key, value in worst.items():
        print(f"  worst {key}: {value:.3f}")
    return 0 if held == 200 else 1


if __name__ == "__main__":
    sys.exit(main())

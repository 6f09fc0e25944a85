"""Variable-time query loop across all five weight regimes.

Generates a random zero-error subroutine pair (one input marked / none),
builds the loop instance for each regime, and compares the measured
witness norms against their closed forms, ending with the spectral
verdicts.
"""

from vtsearch import REGIMES, regime_pairs, stopping_moments, subroutine_pair

SEED = 7
N, T_MAX, WORKSPACE = 2, 2, 2


def main():
    # marked from SEED, empty from SEED + 10_000, no halting mass on step 1
    marked, empty = subroutine_pair(SEED, N, T_MAX, WORKSPACE)
    exp_t, exp_t2 = stopping_moments(marked)
    print(f"N={N}, T={T_MAX}, |workspace|={WORKSPACE}")
    print(f"marked-input stopping moments: E[T]={exp_t[0]:.3f}, "
          f"E[T^2]={exp_t2[0]:.3f}")

    for pair in regime_pairs(marked, empty, REGIMES):
        verdicts = pair.decide()
        print(f"\nregime {pair.regime}:")
        print(f"  c_plus  = {pair.c_plus:.4f} "
              f"(closed {pair.positive.closed_norm_sq:.4f}, "
              f"cap {pair.c_plus_cap:g})")
        print(f"  C_minus = {pair.negative.closed_norm_sq:.4f}")
        print(f"  verdicts: marked -> {verdicts['marked'].verdict}, "
              f"none -> {verdicts['empty'].verdict}")


if __name__ == "__main__":
    main()

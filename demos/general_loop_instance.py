"""Variable-time query loop across all five weight regimes.

Generates a random zero-error subroutine pair (one input marked / none),
builds the loop instance for each regime, and compares the measured
witness norms against their closed forms, ending with the spectral
verdicts.
"""

import numpy as np

from vtsearch import (REGIMES, build_general_instance, decide,
                      general_negative_witness, general_positive_witness,
                      regime_parameters, stopping_profile, subroutine_pair)

SEED = 7
N, T_MAX, WORKSPACE = 2, 2, 2


def moments(spec):
    profiles = [stopping_profile(spec, i) for i in range(spec.num_inputs)]
    return (np.array([p.moments()[0] for p in profiles]),
            np.array([p.moments()[1] for p in profiles]))


def main():
    # marked from SEED, empty from SEED + 10_000, no halting mass on step 1
    marked, empty = subroutine_pair(SEED, N, T_MAX, WORKSPACE)
    exp_t, exp_t2 = moments(marked)
    exp_t_e, exp_t2_e = moments(empty)
    print(f"N={N}, T={T_MAX}, |workspace|={WORKSPACE}")
    print(f"marked-input stopping moments: E[T]={exp_t[0]:.3f}, "
          f"E[T^2]={exp_t2[0]:.3f}")

    for regime in REGIMES:
        w_pos = regime_parameters(regime, exp_t, exp_t2, T_MAX, marked=(0,))
        pos = general_positive_witness(marked, w_pos)
        c_plus = float(np.linalg.norm(pos.vector) ** 2)

        w_neg = regime_parameters(regime, exp_t_e, exp_t2_e, T_MAX,
                                  mu=w_pos.mu, k=w_pos.k)
        neg = general_negative_witness(empty, w_neg)
        c_minus = max(neg.closed_norm_sq, c_plus, 1.0)

        verdicts = []
        for spec, weights in ((marked, w_pos), (empty, w_neg)):
            inst = build_general_instance(spec, weights)
            verdicts.append(decide(inst, c_minus=c_minus,
                                   c_plus=min(c_plus, 50.0)).verdict)

        print(f"\nregime {regime}:")
        print(f"  c_plus  = {c_plus:.4f} "
              f"(closed {pos.closed_norm_sq:.4f}, "
              f"cap {6 if regime == 'ii-c' else 8})")
        print(f"  C_minus = {neg.closed_norm_sq:.4f}")
        print(f"  verdicts: marked -> {verdicts[0]}, none -> {verdicts[1]}")


if __name__ == "__main__":
    main()

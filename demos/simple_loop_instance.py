"""Unit-cost query loop: build, witness, and decide.

Builds the two-reflection instance for a domain with and without a marked
element, verifies the corresponding witness, and runs the spectral
zero-phase decision plus the phase-register cross-check.
"""

from vtsearch import (OracleSpec, build_simple_instance, decide, qpe_simulate,
                      register_bits_for, simple_witnesses,
                      verify_reflection_factorization, verify_witnesses)

N = 4
OMEGA = float(N)  # promise: at least one marked element


def run_case(marked):
    oracle = OracleSpec(size=N, marked=marked)
    inst = build_simple_instance(oracle, OMEGA)
    witness = verify_witnesses(inst, simple_witnesses(oracle, OMEGA))
    c_minus = 1.0 + 3.0 * OMEGA
    decision = decide(inst, c_minus=c_minus, c_plus=4.0)
    bits = register_bits_for(c_minus)
    outcome = qpe_simulate(inst, bits)
    tag = sorted(marked) if marked else "none"
    print(f"\nmarked = {tag}")
    print(f"  witness kind: {witness.kind}, "
          f"norm^2 {witness.norm_sq_measured:.4f} "
          f"(closed {witness.norm_sq_closed:.4f})")
    print(f"  verdict: {decision.verdict} "
          f"(p0 = {decision.p0:.4f}, threshold {decision.threshold:.4f})")
    print(f"  phase register ({bits} bits): Pr[0] = {outcome.p_zero:.4f}")
    print(f"  reflection factorization residual: "
          f"{verify_reflection_factorization(inst):.2e}")


def main():
    print(f"domain size {N}, branch weight {OMEGA}")
    run_case(frozenset({0}))
    run_case(frozenset())


if __name__ == "__main__":
    main()

"""Deck groups of reduced-space covers.

Reduction at a momentum value mu can be performed on any Hamiltonian cover of
the phase space, i.e. any cover sitting below the universal one whose deck
subgroup gamma_N lies inside the kernel lattice gamma_0.  The reduced space
built on the cover maps onto the one built downstairs, and the deck group of
that covering is the quotient gamma_mu / (gamma_N + gamma'), computed here
through integer Smith normal form.

For cotangent-bundle scenarios this quotient is always trivial -- reduction on
the cover gives the *same* space, a symplectomorphism -- which is exactly what
the analysis report certifies.  A synthetic lattice pair at the end shows the
machinery detecting a genuine Z/2 covering.
"""

from momenta.cylinder import deck_group_of_reduced_cover, gamma_mu, orbit_descriptor
from momenta.lattices import LatticeSubgroup, quotient_invariants
from momenta.scenario import build_scenario, parse_config

CONFIG = """
{
  "group": "heisenberg", "sigma": ["1", "0"],
  "muList": [[0.5, 0.1, -0.4]]
}
"""


def main():
    sc = build_scenario(parse_config(CONFIG))
    mu = sc.mu_list[0]
    print("scenario: compact-center group, mu =", [float(x) for x in mu])
    print("orbit:", orbit_descriptor(sc, mu).summary())
    print("gamma_mu rank:", gamma_mu(sc, mu).rank)
    for label, gn in (
        ("universal cover (gamma_N = 0)", LatticeSubgroup.zero(sc.gamma_dim)),
        ("cover with gamma_N = gamma_0", sc.gamma0),
    ):
        deck = deck_group_of_reduced_cover(sc, mu, gn)
        rel = "symplectomorphism" if deck.is_trivial else "nontrivial covering"
        print(f"  {label}: deck group {deck.describe()} -> {rel}")
    print()

    print("synthetic pair: Z^2 over 2Z x Z")
    inv = quotient_invariants(
        LatticeSubgroup.standard(2),
        LatticeSubgroup(2, [(2, 0), (0, 1)]),
    )
    print("  deck group:", inv.describe())


if __name__ == "__main__":
    main()

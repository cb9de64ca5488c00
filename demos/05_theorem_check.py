"""
Mechanical check of the reachability correspondence
===================================================

Claim: for Boolean states x, y of a network f, y is reachable from x in the
most permissive dynamics of f iff the encoding of y is reachable from the
encoding of x in the plain asynchronous dynamics of the full unfolding.

check_equivalence verifies this exhaustively at desk scale (n <= 6): the
most permissive side is recomputed by a brute-force oracle that shares no
code with the main implementation, the unfolded side by forward closures
on sets of unfolded states (one 2^(3n)-bit int each) from the encoded
Boolean states, over the truth tables of the unfolded rules.  It also
confirms that ordinary asynchronous reachability is subsumed by most
permissive reachability, one step at a time: the latter is reflexive and
transitive, so every asynchronous run stays inside it iff every single
asynchronous step does.
"""
import time

from mpunfold import (
    RandomNetSpec,
    check_equivalence,
    example_a,
    parse_bnet,
    random_network,
    signal_model,
)

for net, label in ((example_a(), "example-a"), (signal_model(), "signal")):
    report = check_equivalence(net, mode="exact", label=label)
    print(f"{label}: {report.pairs_checked} ordered Boolean pairs,"
          f" mismatches {len(report.mismatches)},"
          f" subsumption violations {len(report.subsumption_violations)}")

# a seeded sweep over random networks, sizes 2..4
t0 = time.perf_counter()
bad = 0
for seed in range(50):
    net = random_network(RandomNetSpec(n=(2, 3, 4)[seed % 3], seed=seed))
    report = check_equivalence(net, mode="exact", label=f"seed-{seed}")
    bad += not report.ok
print(f"sweep: 50 random networks, {bad} failures,"
      f" {time.perf_counter() - t0:.2f}s")

# The exact condition mode is what the claim needs.  The cheaper syntactic
# mode substitutes readings clause by clause, which overshoots when a rule
# reads the same regulator with both polarities: below, w's rule can become
# satisfiable with x between levels even though no single reading of x
# satisfies it.
net = parse_bnet("""\
x, !x
y, y
z, z
w, (x | y) & (!x | z)
""")
print("\nmixed-polarity network, exact mode:   ",
      "ok" if check_equivalence(net, mode="exact").ok else "MISMATCH")
report = check_equivalence(net, mode="syntactic")
print("mixed-polarity network, syntactic mode:",
      "ok" if report.ok else f"{len(report.mismatches)} mismatches")
first = report.mismatches[0]
print(f"  first: {first.source} -> {first.target}"
      f" (most permissive: {first.mp_reachable},"
      f" unfolded async: {first.unfolded_reachable})")

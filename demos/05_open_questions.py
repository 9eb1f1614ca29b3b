# Search harnesses for the unsettled cases. Three stories:
#   1. the odd-order product inequality, hunted exhaustively and at random
#   2. a weighted graph where a three-term power series reverses the paradox
#   3. replaying a recorded violation from its edge list alone

import walkparadox as wp

print("[1] product inequality n * w_{r+s} >= w_r * w_s, odd orders (r, s) = (2, 1)")
print()

out = wp.exhaustive_lagarias_search(max_n=5, r=2, s=1)
print(f"  all {out.trials} connected graphs with n <= 5: "
      f"{len(out.violations)} violations, min slack {out.min_slack}")
# min slack 0 means some graph achieves equality; slack counts how much
# room the inequality has, so 0 is as close to breaking as it gets.

spec = wp.FamilySpec("erdos_renyi", n=14, p=0.25, seed=2024)
out = wp.search_lagarias_violation(spec, r=2, s=1, trials=300)
print(f"  300 random samples from {out.family}: "
      f"{len(out.violations)} violations, min slack {out.min_slack:.1f}")
print()

print("[2] unweighted graphs always satisfy c0 = c2 = 1 series dominance;")
print("    a single tiny edge weight breaks it")
print()

# Star forces mass onto the centre; the light bridge attaches a far
# triangle whose nodes inherit almost none of it.
edges = [(0, i, 1.0) for i in range(1, 11)]
edges += [(11, 12, 1.0), (12, 13, 1.0), (11, 13, 1.0), (1, 11, 2.0 ** -10)]
g = wp.build(14, edges)

coeffs, rep = wp.build_power_series_counterexample(g)
print(f"  series coefficients: {coeffs.values}")
print(f"  neighbour-average gap of (I + eps*A + A^2) 1: {rep.gap:.6f}")
print(f"  paradox holds: {rep.holds}")
print()

print("[3] violations carry their witness, so they can be rechecked cold")
print()

# The same weighted graph also beats the odd-order product bound, and
# that is the kind of finding a search run records: enough edges to
# rebuild the graph and rerun the exact check months later.
found = wp.check_lagarias(g, 2, 1)
record = wp.ViolationRecord(
    trial=0, n=g.n, directed=False,
    edges=tuple((u, v, w) for u, v, w in g.edges()),
    condition_id=found.condition_id, slack=found.slack,
)
replayed = wp.replay_violation(record, r=2, s=1)
print(f"  recorded slack {record.slack:.6f}, replayed slack {replayed.slack:.6f}")
print(f"  n * w_3 = {replayed.lhs:.4f} < w_2 * w_1 = {replayed.rhs:.4f}: "
      f"violation confirmed ({not replayed.holds})")

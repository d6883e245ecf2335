// Package oracle is the analytic cross-check harness: an independent,
// deliberately naive re-statement of what each scheme *means*, confronted
// with what the event engine (internal/sim) *does*.
//
// It provides two kinds of oracle:
//
//   - An exact reference interpreter (ref.go) for the uncoupled schemes —
//     no-sleep and the SoI family — that re-simulates a small scenario one
//     gateway at a time with straight-line code: no event heap, no shards,
//     no epoch fences, no completion caches, no lazy sampling. Because a
//     shard-local scheme's gateway trajectory depends only on its own
//     clients' trace records and the global tick grid, and because every
//     float operation is re-stated in the engine's exact order, the reference
//     result must match sim.Run bit for bit (Diff uses ==, not
//     tolerances). The switch fabric and line cards are pure sinks, so
//     they replay afterwards from the merged per-gateway line-op streams
//     (fabric.go).
//
//   - Closed-form expectations from internal/analytic for hand-built
//     Poisson-keepalive scenarios (analytic legs, see the tests): SoI
//     sleep probability 1/(λW+e^{λT}), wakeup rate, the (1-p)^m fixed-
//     fabric card product, Eq 2 bracketing for k-switches and the exact
//     binomial expectation for the full switch (bounds.go). These hold in
//     stationarity, so the harness asserts them with documented
//     statistical tolerances, not equality.
//
// Coupled schemes (BH2*, optimal, centralized, RandomWake ablations)
// cannot be interpreted gateway-by-gateway — they share RNG streams or
// re-solve globally — so for them the harness checks structural
// invariants instead (oracle.go: energy/on-time identities, no-sleep
// ceiling, shelf floor, FCT lower bounds, cross-shard equality).
//
// # Tie-order assumptions
//
// The reference replays the engine's comparison logic exactly — heap
// events beat trace records at equal times, flows beat keepalives, trace
// admission is strict-< — on the same float values, so those comparisons
// cannot disagree. Two orderings are not recoverable from per-gateway
// state and are fixed by convention instead: (1) among same-time *heap*
// events the reference fires check, then tick, then completion, matching
// the engine's push-sequence order in every reachable case with the
// default ≥1 s timeouts; (2) same-time line ops of *different* gateways
// replay in ascending gateway id order. Both matter only on exact float
// ties between independently drawn continuous event times — measure-zero
// for generated traces, and pinned in practice by the property suite.
//
// docs/SCHEMES.md is written from this package and names the test backing
// each behavioral claim.
package oracle

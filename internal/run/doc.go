// Package run holds the replication methodology shared by every executor
// of the paper's replicated stochastic simulations.
//
// The paper's evaluation rests on replicated simulations with common
// random numbers: each scenario runs N independent times under seeds
// derived from one base seed, and the reported uncertainty comes from
// across-replication dispersion, not from within-run sample counts. The
// package provides three pieces:
//
//   - RepSeed derives replication i's seed via
//     rng.SeedForIndexed(base, "rep", i). Replication 0 keeps the base seed, so a 1-replication run is
//     byte-identical to Scenario.Run and adding replications only ever
//     extends a sweep.
//   - Map runs independent indexed tasks on a bounded worker pool, each
//     writing its own slot, so worker count never changes the values
//     (multicell replications use it).
//   - Sequential is the test oracle: a plain loop over scenarios and
//     replications on the calling goroutine, folded per scenario in index
//     order through mac.AggregateReplications. It shares no code with the
//     grid, so the grid's byte-identity tests check an independent path.
//
// Common random numbers survive replication: traffic and channel streams
// derive from the scenario seed only, so replication i of every protocol
// still observes identical sample paths.
//
// # Byte-identity contract
//
// RepSeed(base, i) is the single source of replication seeds for the
// whole system: the Sequential reference, the grid's JobSpec.RunRep, and
// the content-addressed cache key RepKey all derive from it. Any executor
// given (job, rep) therefore runs the identical simulation, which is what
// lets the distributed grid re-queue crashed tasks, dedupe in-flight
// work, and replay sweeps from cache without ever changing a result byte.
package run

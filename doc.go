// Package chronosntp is a from-scratch reproduction of
//
//	P. Jeitner, H. Shulman, M. Waidner,
//	"Pitfalls of Provably Secure Systems in Internet:
//	 The Case of Chronos-NTP", DSN-S 2020.
//
// It contains, under internal/, a deterministic discrete-event IPv4/UDP
// network simulator and on top of it a DNS stack (wire format,
// authoritative pool.ntp.org-style server, caching iterative resolver),
// an NTP stack (wire format, server farms, a classic RFC 5905 client),
// the Chronos client of NDSS 2018, the paper's attacks (defragmentation
// cache poisoning, BGP hijack interception, SMTP triggering),
// the §V mitigations plus a multi-resolver consensus defence, the
// closed-form security analysis, and the experiment harness regenerating
// the paper's figure and quantitative claims.
//
// internal/runner adds a Monte-Carlo engine on top: it expands a grid of
// scenario configurations (seeds × mechanisms × poison-query indices ×
// mitigation toggles) across a worker pool and returns the per-trial
// results in trial order. Every experiment reduces each series in that
// order (stats.Describe) to report mean ± 95% CI across replicas —
// bit-identically at any parallelism level.
//
// internal/fleet scales the reproduction from one client to a
// population: N shared caching resolvers with a Zipf- or
// uniformly-distributed client fan-out (Chronos pool generation plus
// classic NTP bootstraps behind every cache), the attacker poisoning a
// configurable subset of resolvers through the existing mechanisms. Each
// resolver shard is an independent seeded simulation fanned across the
// runner's worker pool and reduced in shard order, so fleet results are
// bit-identical at any parallelism; clients share their resolver through
// a direct in-process handle while the resolver's upstream traffic — the
// attack surface — stays on the simulated wire. The E9 experiment sweeps
// poisoned-resolver count × fan-out × §V mitigations and reports the
// population subverted/shifted fractions and the cache-amplification
// factor (clients subverted per poisoned resolver).
//
// internal/shiftsim is the long-horizon shift engine: it validates the
// paper's headline "decades to shift" bound empirically instead of
// assuming the closed form. The Chronos decision core (sample m, trim
// 2d, C1/C2, K-failure panic escalation) is extracted into
// chronos.Rule/Round and shared between the packet client and the
// engine, which drives it over weeks-to-years of virtual time against
// adaptive attacker strategies (greedy, stealth, intermittent,
// honest-until-threshold — all reading the client's clock error off its
// own requests). A round-compression fast path (simnet.FastForward)
// hops the idle wire time between rounds, sustaining over a million
// simulated rounds per second; a full packet-fidelity wire
// mode cross-checks the compressed dynamics. The E10 experiment
// cross-tabulates empirical time-to-100ms-shift × attacker fraction ×
// strategy × §V mitigation against the closed-form prediction, and the
// fleet's population "shifted" metric is sampled through the same
// engine rather than assumed.
//
// Entry points: cmd/attacksim runs any experiment (-trials N -parallel N
// for Monte-Carlo mode, -sweep for grid sweeps, -fleet -clients N
// -resolvers N for a population run, -shift/-horizon/-strategy for the
// E10 shift study); examples/ hold runnable walkthroughs; bench_test.go
// regenerates every paper artefact as a benchmark and tracks the
// runner's trials/sec, the fleet engine's clients/sec, and the shift
// engine's rounds/sec.
//
// EXPERIMENTS.md catalogs every experiment (claim, invocation, typed
// payload schema); it is generated from internal/eval by the directive
// below and gated against staleness in CI.
//
//go:generate go run ./cmd/genexperiments -out EXPERIMENTS.md
package chronosntp

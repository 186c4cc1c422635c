package eval

// The experiment catalog: one entry per experiment, introspected by
// cmd/genexperiments into the generated EXPERIMENTS.md. The catalog is
// the single registry tying an experiment ID to its paper claim, CLI
// invocation, and typed payload schema — adding an experiment without a
// catalog entry fails TestCatalogCoversAllKinds.

// CatalogEntry describes one experiment for documentation generation.
type CatalogEntry struct {
	ID      string   // stable experiment ID (E1..E11)
	Claim   string   // the paper claim this experiment reproduces
	Section string   // where the claim lives in the paper
	Run     string   // canonical CLI invocation
	Axes    []string // grid axes / tunable knobs
	Notes   []string // fidelity, checkpointing, cross-validation context

	// Payload is the experiment's typed payload with no rows: its Kind()
	// names the JSON discriminator and its Table(Meta) carries the
	// rendered title and column set, so a payload whose title reads its
	// fields carries the values the default run uses. Field-level schema
	// is reflected from its struct tags by the generator.
	Payload Payload
}

// Catalog returns every experiment in ID order.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{
			ID:      "E1",
			Claim:   "A single DNS cache poisoning during pool generation leaves the attacker with ≥ 2/3 of the Chronos server pool (the paper's Figure 1).",
			Section: "§IV, Figure 1",
			Run:     "go run ./cmd/attacksim -experiment E1 [-trials N -parallel P]",
			Axes:    []string{"seed", "trials", "parallel"},
			Notes: []string{
				"Full packet fidelity: the resolver's upstream traffic, the forged responses, and the 24 hourly pool-generation queries all cross the simulated wire.",
			},
			Payload: &Figure1Payload{},
		},
		{
			ID:      "E2",
			Claim:   "Poisoning succeeds 'until or during the 12th DNS request' — and Chronos gives the off-path attacker more poisoning opportunities than classic NTP.",
			Section: "§IV",
			Run:     "go run ./cmd/attacksim -experiment E2 [-trials N -parallel P]",
			Axes:    []string{"seed", "trials", "parallel"},
			Notes: []string{
				"The analytical sweep (closed-form pool composition per poisoned query index) is cross-checked by simulated spot checks at selected indices.",
			},
			Payload: &AttackWindowPayload{},
		},
		{
			ID:      "E3",
			Claim:   "A single non-fragmented DNS response carries up to 89 forged A records (1500-byte MTU, EDNS0) — versus 4 in a benign pool.ntp.org response.",
			Section: "§IV",
			Run:     "go run ./cmd/attacksim -experiment E3 [-json]",
			Axes:    []string{"(deterministic — no seed/trials)"},
			Notes: []string{
				"Measured straight from the repository's DNS wire encoder, not assumed.",
			},
			Payload: &CapacityPayload{},
		},
		{
			ID:      "E4",
			Claim:   "Chronos' proven bound — 'to shift time by 100 ms a strong MitM attacker would need 20 years of effort' — holds below the 1/3 fraction and collapses to hours on the poisoned pool.",
			Section: "§III (citing Chronos NDSS'18)",
			Run:     "go run ./cmd/attacksim -experiment E4",
			Axes:    []string{"(closed form across attacker fractions; Monte-Carlo cross-check in the poisoned regime)"},
			Notes: []string{
				"The years column can be +Inf (honest pools); the JSON encoding carries it as the string \"+Inf\".",
			},
			Payload: &SecurityBoundPayload{},
		},
		{
			ID:      "E5",
			Claim:   "The paper's §II measurement marginals: 16/30 pool.ntp.org nameservers fragment at MTU 548, 90%/64% of resolvers accept (tiny) fragments, 14% of deployments are remotely triggerable.",
			Section: "§II",
			Run:     "go run ./cmd/attacksim -experiment E5 [-trials N -parallel P]",
			Axes:    []string{"seed", "trials", "parallel"},
			Notes: []string{
				"Synthetic populations calibrated to the published marginals; the probes exercise the same code paths the attacks use (PMTU forcing, reassembly, SMTP triggering).",
			},
			Payload: &FragStudyPayload{},
		},
		{
			ID:      "E6",
			Claim:   "With ≥ 2/3 of the pool the attacker shifts the Chronos client end-to-end, defeating both the normal path and panic mode; classic NTP falls to a single poisoning.",
			Section: "§IV",
			Run:     "go run ./cmd/attacksim -experiment E6 [-trials N -parallel P]",
			Axes:    []string{"seed", "trials", "parallel"},
			Notes: []string{
				"Multi-hour simulated sync phases; the slowest experiment (skipped under go test -short).",
			},
			Payload: &TimeShiftPayload{},
		},
		{
			ID:      "E7",
			Claim:   "The §V mitigations (address caps, TTL caps, pinning) restore the pool — but 'the dependency on the insecure DNS still remains': a persistent hijack defeats them all.",
			Section: "§V",
			Run:     "go run ./cmd/attacksim -experiment E7 [-trials N -parallel P]",
			Axes:    []string{"seed", "trials", "parallel", "-sweep mitigation (toggle grid)"},
			Notes:   nil,
			Payload: &MitigationsPayload{},
		},
		{
			ID:      "E8",
			Claim:   "Ablations: TTL pinning is what freezes the pool; capture probability is a threshold phenomenon in the pool fraction (the paper's 2/3 framing), not in the sample size m.",
			Section: "§IV/§V (analysis)",
			Run:     "go run ./cmd/attacksim -experiment E8 [-trials N -parallel P]",
			Axes:    []string{"forged TTL", "chronos sample size m", "injected-address count"},
			Notes:   nil,
			Payload: &AblationsPayload{},
		},
		{
			ID:      "E9",
			Claim:   "Population scale: poisoning a few large shared resolvers subverts a disproportionate client fraction (cache amplification), and the §V caps shrink but do not close the gap.",
			Section: "extension of §IV (fleet scale)",
			Run:     "go run ./cmd/attacksim -experiment E9 [-clients N -resolvers N -trials N -parallel P]",
			Axes:    []string{"clients", "resolvers", "poisoned count", "fan-out distribution", "§V mitigation"},
			Notes: []string{
				"Each resolver shard is an independent seeded simulation reduced in shard order — bit-identical at any -parallel.",
				"The 'shifted' column is sampled empirically through the E10 shift engine, not assumed from the closed form.",
			},
			Payload: &FleetStudyPayload{Clients: fleetStudyClients, Resolvers: fleetStudyResolvers},
		},
		{
			ID:      "E10",
			Claim:   "The headline 'decades to shift' bound, validated empirically: the long-horizon engine cross-tabulates time-to-100ms-shift × attacker fraction × strategy × §V mitigation against the closed form.",
			Section: "§III bound × §IV attacks (long horizon)",
			Run:     "go run ./cmd/attacksim -experiment E10 [-shift 100ms -horizon 168h -strategy all] [-checkpoint FILE | -resume FILE]",
			Axes:    []string{"target shift", "horizon", "strategy (greedy, stealth, intermittent, honest-until-threshold)", "§V mitigation", "seed", "trials"},
			Notes: []string{
				"Round-compressed fast path (simnet.FastForward) sustains >100k simulated rounds/sec; the greedy strategy's capture runs are held to the closed form within the Monte-Carlo CI.",
				"Checkpointable: -checkpoint appends each completed trial to a JSONL file; -resume skips restored trials and the final table is bit-identical to an uninterrupted run.",
			},
			Payload: &ShiftStudyPayload{Target: shiftStudyTarget, Horizon: shiftStudyHorizon},
		},
		{
			ID:      "E11",
			Claim:   "What the paper leaves open: per-server authentication (symmetric MACs / NTS-style cookies) defeats the poisoned-pool shift — unless the scheme is forgeable or the client tolerates unauthenticated replies — and forged KoD turns compliance itself into the attack surface.",
			Section: "beyond §V (authenticated time)",
			Run:     "go run ./cmd/attacksim -experiment E11 [-auth all|shift|mac-strip|forge-kod|cookie-replay] [-quorum N]",
			Axes:    []string{"attacker move (shift, mac-strip, forge-kod, cookie-replay)", "acceptance policy (C1/C2 vs minsources quorum)", "authenticated fraction (0, 0.67, 1)", "credential scheme (md5, sha256, nts)", "seed", "trials"},
			Notes: []string{
				"Runs the E10 engine with shiftsim's compressed auth model, which tells schemes apart only by whether the attacker can forge them (sha256 and nts run the same code). What is checked on packets: chronos/auth_test.go shows require-auth refusal and forged-KoD demobilization with internal/ntpauth, and a replayed reply fails the origin check every client runs; no test compares the model with packets cell by cell.",
				"The headline contrast: every move shifts the unauthenticated client, none shifts a require-auth client under a strong scheme (the attack degrades to starvation), and MD5 re-enables all of them.",
			},
			Payload: &AuthStudyPayload{
				Pool: authStudyPool, Malicious: authStudyMalicious,
				Target: authStudyTarget, Horizon: authStudyHorizon,
			},
		},
	}
}

package eval

import (
	"fmt"
	"math"
	"time"

	"chronosntp/internal/analysis"
	"chronosntp/internal/shiftsim"
	"chronosntp/internal/stats"
)

// This file defines the typed payload of every experiment (E1–E11) and
// the renderer deriving its text table. The payloads hold grid axes and
// per-cell aggregates (stats.Summary), never formatted strings: the
// renderers below are the only place numbers become text, so the JSON
// form always carries at least as much information as the table.

// PoolAggregate is a pool composition aggregated across trials.
type PoolAggregate struct {
	Benign    stats.Summary `json:"benign"`
	Malicious stats.Summary `json:"malicious"`
	Fraction  stats.Summary `json:"fraction"`
}

// QueryAggregate is one point of the Figure-1 series: the pool composition
// after a pool-generation query, aggregated across trials.
type QueryAggregate struct {
	Query     int           `json:"query"`
	Benign    stats.Summary `json:"benign"`
	Malicious stats.Summary `json:"malicious"`
	Fraction  stats.Summary `json:"fraction"`
}

// Figure1Payload is E1: the pool composition across the 24 hourly
// pool-generation queries with the poisoning landing at PoisonQuery.
type Figure1Payload struct {
	Mechanism   string           `json:"mechanism"`
	PoisonQuery int              `json:"poison_query"`
	Queries     []QueryAggregate `json:"queries"`
	Final       PoolAggregate    `json:"final"`
	Planted     stats.Summary    `json:"planted"`
}

// Kind implements Payload.
func (*Figure1Payload) Kind() string { return "figure1" }

// Table implements Payload.
func (p *Figure1Payload) Table(m Meta) *Table {
	t := &Table{
		ID:      m.ID,
		Title:   "Figure 1 — DNS poisoning attack on Chronos pool generation (poison at query 12)",
		Columns: []string{"query", "benign", "malicious", "attacker-fraction"},
	}
	for _, q := range p.Queries {
		t.AddRow(q.Query, fmtCount(q.Benign), fmtCount(q.Malicious), fmtFrac(q.Fraction))
	}
	ideal := analysis.ComposePool(12, 24, 4, 89)
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper: up to 4·11 = 44 benign + 89 malicious (fraction %.3f ≥ 2/3)", ideal.Fraction),
		fmt.Sprintf("measured: %s benign + %s malicious (fraction %s); benign < 44 only through pool-rotation repeats",
			fmtCount(p.Final.Benign), fmtCount(p.Final.Malicious), fmtFrac(p.Final.Fraction)),
		fmt.Sprintf("poisoning mechanism: %s, planted = %d/%d",
			p.Mechanism, int(p.Planted.Mean*float64(p.Planted.N)+0.5), p.Planted.N),
	)
	mcNote(t, m.Trials)
	return t
}

// SimulatedFraction is one simulated spot check of the attack window: the
// attacker's final pool fraction with the poisoning landing at Query.
type SimulatedFraction struct {
	Query    int           `json:"query"`
	Fraction stats.Summary `json:"fraction"`
}

// AttackWindowPayload is E2: the analytical attacker-fraction sweep over
// the poisoned query index, plus simulated spot checks.
type AttackWindowPayload struct {
	Window      int                 `json:"window"`       // pool-generation queries (24)
	PerResponse int                 `json:"per_response"` // benign addresses per clean response (4)
	Injected    int                 `json:"injected"`     // forged addresses per poisoning (89)
	Simulated   []SimulatedFraction `json:"simulated"`
}

// Kind implements Payload.
func (*AttackWindowPayload) Kind() string { return "attack-window" }

// Table implements Payload.
func (p *AttackWindowPayload) Table(m Meta) *Table {
	t := &Table{
		ID:      m.ID,
		Title:   "Attack window — attacker pool fraction vs poisoned query index",
		Columns: []string{"poison-query", "ideal-benign", "ideal-fraction", ">=2/3", "simulated-fraction"},
	}
	simulated := make(map[int]stats.Summary, len(p.Simulated))
	for _, s := range p.Simulated {
		simulated[s.Query] = s.Fraction
	}
	for q := 1; q <= p.Window; q++ {
		c := analysis.ComposePool(q, p.Window, p.PerResponse, p.Injected)
		sim := "-"
		if s, ok := simulated[q]; ok {
			sim = fmtFrac(s)
		}
		t.AddRow(q, c.Benign, c.Fraction, c.Fraction >= 2.0/3.0, sim)
	}
	crossover := analysis.MaxPoisonQuery(p.Window, p.PerResponse, p.Injected, 2.0/3.0)
	adv := analysis.CompareOpportunities(0.1, crossover)
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper: success 'until or during the 12th DNS request' keeps ≥ 2/3; computed crossover = query %d",
			crossover),
		fmt.Sprintf("'even easier than plain NTP': at 10%% per-attempt poisoning success, classic client P=%.2f vs Chronos P=%.2f (%.1f× the opportunities)",
			adv.Classic, adv.Chronos, adv.Advantage),
	)
	mcNote(t, m.Trials)
	return t
}

// CapacityRow is one forged-response capacity measurement.
type CapacityRow struct {
	Payload int  `json:"payload"`
	EDNS    bool `json:"edns"`
	Records int  `json:"records"`
}

// CapacityPayload is E3: A records per single non-fragmented response,
// straight from the wire encoder.
type CapacityPayload struct {
	Rows []CapacityRow `json:"rows"`
}

// Kind implements Payload.
func (*CapacityPayload) Kind() string { return "forged-capacity" }

// Table implements Payload.
func (p *CapacityPayload) Table(m Meta) *Table {
	t := &Table{
		ID:      m.ID,
		Title:   "Forged-response capacity — A records per single non-fragmented response",
		Columns: []string{"udp-payload", "edns0", "max-A-records"},
	}
	for _, r := range p.Rows {
		t.AddRow(r.Payload, r.EDNS, r.Records)
	}
	t.Notes = append(t.Notes,
		"paper: 'up to 89 for a single non-fragmented DNS response' (1500-byte Ethernet MTU, EDNS0)",
		"benign pool.ntp.org responses carry 4",
	)
	return t
}

// SecurityBoundRow is one pool composition's closed-form expected effort
// to shift a Chronos client by the target.
type SecurityBoundRow struct {
	Pool            int           `json:"pool"`
	Malicious       int           `json:"malicious"`
	WinProb         Float         `json:"win_prob"`
	ConsecutiveWins int           `json:"consecutive_wins"`
	Expected        time.Duration `json:"expected_ns"` // saturates near 292 years
	Years           Float         `json:"years"`       // may be +Inf
}

// SecurityBoundPayload is E4: the §III "20 years of effort" bound across
// attacker fractions, with a Monte-Carlo cross-check in the poisoned
// regime.
type SecurityBoundPayload struct {
	Rows []SecurityBoundRow `json:"rows"`
	// PoisonedExpectedRounds is the closed-form E[rounds] at the paper's
	// poisoned pool (89/133); MonteCarloRounds is the simulated
	// cross-check of the same quantity.
	PoisonedExpectedRounds Float `json:"poisoned_expected_rounds"`
	MonteCarloRounds       Float `json:"monte_carlo_rounds"`
}

// Kind implements Payload.
func (*SecurityBoundPayload) Kind() string { return "security-bound" }

// Table implements Payload.
func (p *SecurityBoundPayload) Table(m Meta) *Table {
	t := &Table{
		ID:      m.ID,
		Title:   "Chronos security bound — expected effort to shift a client by 100 ms",
		Columns: []string{"pool", "malicious", "fraction", "round-win-prob", "consecutive-wins", "expected-effort", "years"},
	}
	for _, r := range p.Rows {
		// time.Duration saturates near 292 years; switch to years there.
		effort := r.Expected.String()
		if math.IsInf(float64(r.Years), 1) {
			effort = "never"
		} else if float64(r.Years) > 250 {
			effort = fmt.Sprintf("%.3g years", float64(r.Years))
		}
		years := fmt.Sprintf("%.3g", float64(r.Years))
		t.AddRow(r.Pool, r.Malicious, float64(r.Malicious)/float64(r.Pool),
			fmt.Sprintf("%.3g", float64(r.WinProb)), r.ConsecutiveWins, effort, years)
	}
	t.Notes = append(t.Notes,
		"paper (§III, citing Chronos NDSS'18): 'to shift time ... by 100ms a strong MitM attacker would need 20 years of effort'",
		"measured at the 1/3 boundary: see row 3 — years ≥ 20 reproduces the claim's order of magnitude",
		fmt.Sprintf("poisoned pool (89/133): %.1f expected rounds ≈ %.1f hours — the guarantee collapses",
			float64(p.PoisonedExpectedRounds), float64(p.PoisonedExpectedRounds)),
		fmt.Sprintf("monte-carlo cross-check (poisoned): %.1f rounds vs closed form %.1f",
			float64(p.MonteCarloRounds), float64(p.PoisonedExpectedRounds)),
	)
	return t
}

// FragStudyPayload is E5: the §II measurement-study marginals recovered
// from the calibrated synthetic populations.
type FragStudyPayload struct {
	FragmentingNameservers stats.Summary `json:"fragmenting_nameservers"` // of 30
	AcceptAnyFragment      stats.Summary `json:"accept_any_fragment"`     // percent
	AcceptTinyFragment     stats.Summary `json:"accept_tiny_fragment"`    // percent
	Triggerable            stats.Summary `json:"triggerable"`             // percent
}

// Kind implements Payload.
func (*FragStudyPayload) Kind() string { return "frag-study" }

// Table implements Payload.
func (p *FragStudyPayload) Table(m Meta) *Table {
	t := &Table{
		ID:      m.ID,
		Title:   "DNS fragmentation & triggering study (synthetic populations, calibrated to [3])",
		Columns: []string{"population", "property", "paper", "measured"},
	}
	t.AddRow("30 pool.ntp.org nameservers", "fragment at MTU 548", "16/30", fmtOutOf(p.FragmentingNameservers, 30))
	t.AddRow("100 resolvers", "accept fragments of some size", "90%", fmtPct(p.AcceptAnyFragment))
	t.AddRow("100 resolvers", "accept 68-byte-MTU fragments", "64%", fmtPct(p.AcceptTinyFragment))
	t.AddRow("100 resolver deployments", "queries triggerable via SMTP/open resolver", "14%", fmtPct(p.Triggerable))
	t.Notes = append(t.Notes,
		"populations are synthetic with ground truth drawn to match the published marginals;",
		"the probes exercise the same code paths the attacks use (PMTU forcing, reassembly, SMTP triggering)",
	)
	mcNote(t, m.Trials)
	return t
}

// TimeShiftPayload is E6: the end-to-end clock-error contrast after a 2 h
// attack phase — honest Chronos vs poisoned Chronos vs classic NTP on the
// same poisoned resolver.
type TimeShiftPayload struct {
	HonestFinal   stats.Summary `json:"honest_final"` // durations observed in ns
	HonestMax     stats.Summary `json:"honest_max"`
	PoisonedFinal stats.Summary `json:"poisoned_final"`
	PoisonedMax   stats.Summary `json:"poisoned_max"`
	PlainFinal    stats.Summary `json:"plain_final"`

	Updates   stats.Summary `json:"updates"` // poisoned-run chronos stats
	Resamples stats.Summary `json:"resamples"`
	Panics    stats.Summary `json:"panics"`
}

// Kind implements Payload.
func (*TimeShiftPayload) Kind() string { return "time-shift" }

// Table implements Payload.
func (p *TimeShiftPayload) Table(m Meta) *Table {
	t := &Table{
		ID:      m.ID,
		Title:   "End-to-end time shift after a 2 h attack phase (adaptive below-threshold strategy)",
		Columns: []string{"client", "pool", "final-offset", "max-offset"},
	}
	t.AddRow("chronos", "honest (96 benign)", fmtDur(p.HonestFinal), fmtDur(p.HonestMax))
	t.AddRow("chronos", "poisoned (44 benign + 89 malicious)", fmtDur(p.PoisonedFinal), fmtDur(p.PoisonedMax))
	t.AddRow("classic ntp (4 servers)", "poisoned (same resolver)", fmtDur(p.PlainFinal), "-")
	t.Notes = append(t.Notes,
		"paper: with ≥ 2/3 of the pool the attacker defeats both the normal path and panic mode; plain NTP falls with a single poisoning",
		fmt.Sprintf("chronos stats (poisoned): updates=%s resamples=%s panics=%s",
			fmtCount(p.Updates), fmtCount(p.Resamples), fmtCount(p.Panics)),
	)
	mcNote(t, m.Trials)
	return t
}

// MitigationRow is one §V defence's resulting pool composition.
type MitigationRow struct {
	Defence   string        `json:"defence"`
	Mechanism string        `json:"mechanism"`
	Benign    stats.Summary `json:"benign"`
	Malicious stats.Summary `json:"malicious"`
	Fraction  stats.Summary `json:"fraction"`
}

// MitigationsPayload is E7: the pool composition under each §V defence,
// including the persistent-hijack residual that defeats them all.
type MitigationsPayload struct {
	Rows []MitigationRow `json:"rows"`
}

// Kind implements Payload.
func (*MitigationsPayload) Kind() string { return "mitigations" }

// Table implements Payload.
func (p *MitigationsPayload) Table(m Meta) *Table {
	t := &Table{
		ID:      m.ID,
		Title:   "§V mitigations — pool composition under each defence",
		Columns: []string{"defence", "mechanism", "benign", "malicious", "attacker-fraction"},
	}
	for _, r := range p.Rows {
		t.AddRow(r.Defence, r.Mechanism, fmtCount(r.Benign), fmtCount(r.Malicious), fmtFrac(r.Fraction))
	}
	t.Notes = append(t.Notes,
		"paper §V: capping addresses and TTLs 'can be improved to limit the impact' ...",
		"... 'however, even with these mitigations, the dependency on the insecure DNS still remains' — the 24 h hijack row",
	)
	mcNote(t, m.Trials)
	return t
}

// TTLAblation is the pool composition reached with a given forged TTL.
type TTLAblation struct {
	TTL       time.Duration `json:"ttl_ns"`
	Benign    stats.Summary `json:"benign"`
	Malicious stats.Summary `json:"malicious"`
	Fraction  stats.Summary `json:"fraction"`
}

// SampleSizeAblation is the round-capture probability at a Chronos sample
// size m (trim d) on the poisoned pool.
type SampleSizeAblation struct {
	SampleSize  int   `json:"sample_size"`
	Trim        int   `json:"trim"`
	CaptureProb Float `json:"capture_prob"`
}

// InjectionAblation is the capture probability as the injected-address
// count varies against a fixed benign population.
type InjectionAblation struct {
	Malicious   int   `json:"malicious"`
	Pool        int   `json:"pool"`
	Fraction    Float `json:"fraction"`
	CaptureProb Float `json:"capture_prob"`
}

// AblationsPayload is E8: what each attack ingredient buys.
type AblationsPayload struct {
	TTL         []TTLAblation        `json:"ttl"`
	SampleSizes []SampleSizeAblation `json:"sample_sizes"`
	Injections  []InjectionAblation  `json:"injections"`
}

// Kind implements Payload.
func (*AblationsPayload) Kind() string { return "ablations" }

// Table implements Payload.
func (p *AblationsPayload) Table(m Meta) *Table {
	t := &Table{
		ID:      m.ID,
		Title:   "Ablations — what each attack ingredient buys",
		Columns: []string{"ablation", "setting", "outcome"},
	}
	for _, r := range p.TTL {
		t.AddRow("forged TTL", r.TTL.String(),
			fmt.Sprintf("final pool %sb+%sM, attacker %s",
				fmtCount(r.Benign), fmtCount(r.Malicious), fmtFrac(r.Fraction)))
	}
	for _, r := range p.SampleSizes {
		t.AddRow("chronos sample size (poisoned pool)", fmt.Sprintf("m=%d d=%d", r.SampleSize, r.Trim),
			fmt.Sprintf("round capture prob %.3f", float64(r.CaptureProb)))
	}
	for _, r := range p.Injections {
		t.AddRow("injected addresses (44 benign fixed)", fmt.Sprintf("%d malicious", r.Malicious),
			fmt.Sprintf("fraction %.3f, capture prob %.3g", float64(r.Fraction), float64(r.CaptureProb)))
	}
	t.Notes = append(t.Notes,
		"TTL pinning is what freezes the pool: with a 150 s forged TTL the benign count keeps growing past the poisoning",
		"capture probability is a threshold phenomenon in the pool fraction, not in m — matching the paper's 2/3 framing",
	)
	mcNote(t, m.Trials)
	return t
}

// FleetRow is one E9 grid point: a (poisoned count × fan-out × mitigation)
// cell's population aggregates.
type FleetRow struct {
	Poisoned      int           `json:"poisoned"`
	Distribution  string        `json:"distribution"`
	Mitigated     bool          `json:"mitigated"`
	Subverted     stats.Summary `json:"subverted"`
	Shifted       stats.Summary `json:"shifted"`
	Amplification stats.Summary `json:"amplification"`
	Planted       stats.Summary `json:"planted"`
}

// FleetStudyPayload is E9: the fleet-scale shared-resolver poisoning
// sweep.
type FleetStudyPayload struct {
	Clients   int        `json:"clients"`
	Resolvers int        `json:"resolvers"`
	Rows      []FleetRow `json:"rows"`
}

// Kind implements Payload.
func (*FleetStudyPayload) Kind() string { return "fleet-study" }

// Table implements Payload.
func (p *FleetStudyPayload) Table(m Meta) *Table {
	t := &Table{
		ID: m.ID,
		Title: fmt.Sprintf("Fleet-scale shared-resolver poisoning — %d clients behind %d resolvers",
			p.Clients, p.Resolvers),
		Columns: []string{
			"poisoned", "fan-out", "mitigation",
			"subverted(>=1/3)", "shifted(>100ms)", "amplification", "planted",
		},
	}
	for _, r := range p.Rows {
		mitLabel := "off"
		if r.Mitigated {
			mitLabel = "§V caps"
		}
		t.AddRow(r.Poisoned, r.Distribution, mitLabel,
			fmtFrac(r.Subverted), fmtFrac(r.Shifted),
			fmtCount(r.Amplification), fmtOutOf(r.Planted, r.Poisoned))
	}
	t.Notes = append(t.Notes,
		"subverted: clients whose Chronos pool ended ≥ 1/3 malicious (proof boundary) or whose classic bootstrap was majority-malicious",
		"shifted: clients the attacker moves > 100 ms within 24 h (sampled empirically: shiftsim greedy runs over the measured pool)",
		"amplification: clients subverted per poisoned resolver — the paper's population-level lever",
		"the attacker poisons the largest resolvers first; under zipf fan-out one cache covers a large population slice",
	)
	mcNote(t, m.Trials)
	return t
}

// AuthRow is one E11 grid point: an (attacker move × acceptance policy ×
// authenticated fraction × credential scheme) cell over the poisoned
// pool. Scheme is "-" when AuthFrac is 0 (no credentials to grade).
type AuthRow struct {
	Move     string  `json:"move"`
	Policy   string  `json:"policy"`
	AuthFrac float64 `json:"auth_frac"`
	Scheme   string  `json:"scheme"`

	Hit          stats.Summary `json:"hit"`           // 0/1 per trial: target reached within horizon
	ShiftedCount int           `json:"shifted_count"` // trials that reached the target
	TimeToShift  stats.Summary `json:"time_to_shift"` // over shifted trials only (ns)
	Updates      stats.Summary `json:"updates"`       // normal-path clock updates
	Panics       stats.Summary `json:"panics"`
	AuthRejected stats.Summary `json:"auth_rejected"` // samples dropped by the credential policy
	Demobilized  stats.Summary `json:"demobilized"`   // associations killed by believed forged kisses
}

// AuthStudyPayload is E11: the authentication arms race measured through
// the long-horizon shift engine on the paper's poisoned pool.
type AuthStudyPayload struct {
	Target     time.Duration `json:"target_ns"`
	Horizon    time.Duration `json:"horizon_ns"`
	Pool       int           `json:"pool"`
	Malicious  int           `json:"malicious"`
	MinSources int           `json:"min_sources"` // quorum size of the minsources policy arm
	Rows       []AuthRow     `json:"rows"`
}

// Kind implements Payload.
func (*AuthStudyPayload) Kind() string { return "auth-study" }

// Table implements Payload.
func (p *AuthStudyPayload) Table(m Meta) *Table {
	t := &Table{
		ID: m.ID,
		Title: fmt.Sprintf("Authentication arms race — greedy attacker on the %d/%d poisoned pool, %v target, %v horizon",
			p.Malicious, p.Pool, p.Target, p.Horizon),
		Columns: []string{
			"move", "policy", "auth-frac", "scheme",
			"shifted", "time-to-shift", "updates", "panics", "auth-rejects", "demobilized",
		},
	}
	for _, r := range p.Rows {
		timeCell := "> horizon"
		if r.ShiftedCount > 0 {
			timeCell = fmtLongDur(r.TimeToShift)
		}
		t.AddRow(
			r.Move, r.Policy, fmt.Sprintf("%.2f", r.AuthFrac), r.Scheme,
			fmtFrac(r.Hit), timeCell,
			fmtCount(r.Updates), fmtCount(r.Panics),
			fmtCount(r.AuthRejected), fmtCount(r.Demobilized),
		)
	}
	t.Notes = append(t.Notes,
		"auth-frac is the share of benign servers the client holds credentials for; frac > 0 puts it in require-auth mode (unverifiable samples dropped)",
		"schemes grade forgery resistance only: md5 is attacker-forgeable at line rate, sha256/nts are not (nts adds the cookie/uid binding cookie-replay tests)",
		"moves: "+authMoveLegend(),
		fmt.Sprintf("policy contrasts classic C1/C2 acceptance against a chrony-style best-cluster quorum of %d (no trim, no error bound)", p.MinSources),
		"auth-rejects counts samples the client's credential policy dropped; demobilized counts associations killed by believed forged DENY kisses",
	)
	mcNote(t, m.Trials)
	return t
}

// authMoveLegend renders the registered auth moves with their one-line
// descriptions, straight from the shiftsim registry.
func authMoveLegend() string {
	parts := ""
	for i, mv := range shiftsim.AuthMoves() {
		if i > 0 {
			parts += "; "
		}
		parts += mv + " = " + shiftsim.AuthMoveDescription(mv)
	}
	return parts
}

// ShiftRow is one E10 grid point: a (pool composition × strategy ×
// mitigation) cell. Pool and Malicious are the composition the engine
// actually ran (post-mitigation when Mitigated).
type ShiftRow struct {
	Pool      int    `json:"pool"`
	Malicious int    `json:"malicious"`
	Strategy  string `json:"strategy"`
	Mitigated bool   `json:"mitigated"`

	Hit          stats.Summary `json:"hit"`           // 0/1 per trial: target reached within horizon
	ShiftedCount int           `json:"shifted_count"` // trials that reached the target
	TimeToShift  stats.Summary `json:"time_to_shift"` // over shifted trials only (ns)
	Rounds       stats.Summary `json:"rounds"`        // over shifted trials only
	Panics       stats.Summary `json:"panics"`
	MaxPush      stats.Summary `json:"max_push"` // ns
}

// ShiftStudyPayload is E10: the long-horizon empirical time-to-shift grid
// cross-tabulated against the closed form.
type ShiftStudyPayload struct {
	Target  time.Duration `json:"target_ns"`
	Horizon time.Duration `json:"horizon_ns"`
	AddrCap int           `json:"addr_cap"` // §V client-side per-response address cap
	Rows    []ShiftRow    `json:"rows"`
}

// Kind implements Payload.
func (*ShiftStudyPayload) Kind() string { return "shift-study" }

// Table implements Payload.
func (p *ShiftStudyPayload) Table(m Meta) *Table {
	t := &Table{
		ID: m.ID,
		Title: fmt.Sprintf("Long-horizon shift engine — empirical time to %v shift vs closed form (horizon %v)",
			p.Target, p.Horizon),
		Columns: []string{
			"pool", "strategy", "mitigation",
			"shifted", "time-to-shift", "rounds", "closed-form", "panics", "max-push",
		},
	}
	for _, r := range p.Rows {
		mitLabel := "off"
		if r.Mitigated {
			mitLabel = "§V caps"
		}
		timeCell, roundCell := "> horizon", "-"
		if r.ShiftedCount > 0 {
			timeCell = fmtLongDur(r.TimeToShift)
			roundCell = fmtCount(r.Rounds)
		}
		t.AddRow(
			fmt.Sprintf("%d/%d (%.3f)", r.Malicious, r.Pool, float64(r.Malicious)/float64(r.Pool)),
			r.Strategy, mitLabel,
			fmtFrac(r.Hit),
			timeCell, roundCell, closedFormCell(r.Pool, r.Malicious, p.Target),
			fmtCount(r.Panics), fmtDur(r.MaxPush),
		)
	}
	t.Notes = append(t.Notes,
		"closed-form: analysis.TimeToShift at the greedy per-round step (ErrBound − 5ms) — the E4 model; 'never' = win probability too small",
		"shifted is the fraction of trials whose |clock error| crossed the target within the horizon; time-to-shift/rounds average the shifted trials only",
		fmt.Sprintf("§V caps: the client-side mitigation truncates the poisoned response to %d addresses, re-deriving the composition", p.AddrCap),
		"max-push is the largest forward update a trial accepted — stealth stays at its 5ms drip where greedy jumps by full steps",
		"the shiftsim cross-validation suite asserts the greedy (non-adaptive) rows agree with the closed form within the Monte-Carlo 95% CI",
	)
	mcNote(t, m.Trials)
	return t
}

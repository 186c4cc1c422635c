package core

import (
	"testing"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/mitigation"
)

func TestHonestBaseline(t *testing.T) {
	s, err := NewScenario(Config{Seed: 201})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolMalicious != 0 {
		t.Errorf("malicious = %d, want 0", res.PoolMalicious)
	}
	if res.PoolBenign < 80 || res.PoolBenign > 96 {
		t.Errorf("benign = %d, want ~96", res.PoolBenign)
	}
	if res.AttackerFraction != 0 {
		t.Errorf("fraction = %v", res.AttackerFraction)
	}
	// The per-query series climbs by ~4 per query.
	if res.PerQuery[0].Benign != 4 {
		t.Errorf("first query contributed %d, want 4", res.PerQuery[0].Benign)
	}
	last := res.PerQuery[len(res.PerQuery)-1]
	if last.Benign != res.PoolBenign {
		t.Errorf("series end %d != pool %d", last.Benign, res.PoolBenign)
	}
}

func TestFigure1DefragAtQuery12(t *testing.T) {
	s, err := NewScenario(Config{Seed: 202, Mechanism: Defrag, PoisonQuery: 12})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.PoisonPlanted {
		t.Fatal("poisoning chain did not complete")
	}
	if res.PoolMalicious != 89 {
		t.Errorf("malicious = %d, want 89", res.PoolMalicious)
	}
	// The paper: "up to 4·11 = 44 benign" — the rotation may legitimately
	// repeat a server across windows, so allow small shortfalls.
	if res.PoolBenign > 44 || res.PoolBenign < 40 {
		t.Errorf("benign = %d, want up to 4·11 = 44 (paper, Figure 1)", res.PoolBenign)
	}
	if res.AttackerFraction < 2.0/3.0 {
		t.Errorf("fraction = %v, want >= 2/3", res.AttackerFraction)
	}
	// Series shape: benign grows to ≤44 by query 11, malicious jumps to
	// 89 at query 12 and the pool freezes (TTL pinning).
	q11 := res.PerQuery[10]
	if q11.Malicious != 0 || q11.Benign != res.PoolBenign {
		t.Errorf("q11 = %+v", q11)
	}
	q12 := res.PerQuery[11]
	if q12.Malicious != 89 {
		t.Errorf("q12 malicious = %d, want 89", q12.Malicious)
	}
	q24 := res.PerQuery[23]
	if q24.Benign != res.PoolBenign || q24.Malicious != 89 {
		t.Errorf("q24 = %+v, want pool frozen", q24)
	}
}

func TestDefragAtQuery13MissesTwoThirds(t *testing.T) {
	s, err := NewScenario(Config{Seed: 203, Mechanism: Defrag, PoisonQuery: 13})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolMalicious != 89 || res.PoolBenign > 48 || res.PoolBenign < 44 {
		t.Errorf("composition %d/%d, want 89/~48", res.PoolMalicious, res.PoolBenign)
	}
}

func TestBGPHijackMechanism(t *testing.T) {
	s, err := NewScenario(Config{Seed: 204, Mechanism: BGPHijack, PoisonQuery: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolMalicious != 89 {
		t.Errorf("malicious = %d, want 89", res.PoolMalicious)
	}
	if res.PoolBenign != 20 {
		t.Errorf("benign = %d, want 4·5 = 20", res.PoolBenign)
	}
}

func TestTimeShiftPhase(t *testing.T) {
	// Short sync phase on a poisoned pool: Chronos' clock must leave the
	// honest envelope; with the honest pool it must not.
	s, err := NewScenario(Config{
		Seed: 205, Mechanism: Defrag, PoisonQuery: 12,
		SyncDuration: time.Hour, RunPlainNTP: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ChronosOffset < 100*time.Millisecond {
		t.Errorf("poisoned Chronos offset = %v, want > 100ms", res.ChronosOffset)
	}
	if res.PlainOffset < 100*time.Millisecond {
		t.Errorf("poisoned plain-NTP offset = %v, want > 100ms", res.PlainOffset)
	}

	honest, err := NewScenario(Config{Seed: 206, SyncDuration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	hres, err := honest.Run()
	if err != nil {
		t.Fatal(err)
	}
	if hres.ChronosOffset > 20*time.Millisecond {
		t.Errorf("honest Chronos offset = %v, want ~0", hres.ChronosOffset)
	}
}

func TestMitigationsBlockDefrag(t *testing.T) {
	// §V at the resolver: the poisoned referral carries a ~7-day glue TTL
	// and the attacker nameserver answers with 89 records — both vetoed.
	s, err := NewScenario(Config{
		Seed: 207, Mechanism: Defrag, PoisonQuery: 12,
		ResolverPolicy: paperResolverPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolMalicious != 0 {
		t.Errorf("malicious = %d, want 0 with §V resolver policy", res.PoolMalicious)
	}
	if res.ResolverStats.PolicyRejects == 0 {
		t.Error("no policy rejects recorded")
	}
}

func TestPersistentHijackDefeatsMitigations(t *testing.T) {
	// The paper's conclusion: even with §V in place, an attacker
	// hijacking the DNS path for the whole 24 h wins — its responses are
	// policy-compliant (4 records, 150 s TTL) yet every address is
	// malicious.
	s, err := NewScenario(Config{
		Seed: 208, Mechanism: BGPHijackPersistent, PoisonQuery: 1,
		MaliciousServers: 120,
		ResolverPolicy:   paperResolverPolicy(),
		ClientPolicy:     paperClientPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolBenign != 0 {
		t.Errorf("benign = %d, want 0 under a 24h hijack", res.PoolBenign)
	}
	if res.PoolMalicious < 80 {
		t.Errorf("malicious = %d, want ~96", res.PoolMalicious)
	}
	if res.AttackerFraction != 1 {
		t.Errorf("fraction = %v, want 1.0", res.AttackerFraction)
	}
}

func TestConsensusDefendsPoolGeneration(t *testing.T) {
	// Multi-resolver consensus: the defrag attack poisons only the first
	// resolver; the majority keeps the pool honest.
	s, err := NewScenario(Config{
		Seed: 209, Mechanism: Defrag, PoisonQuery: 3,
		Consensus: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolMalicious != 0 {
		t.Errorf("malicious = %d, want 0 with consensus pool generation", res.PoolMalicious)
	}
	if res.PoolBenign == 0 {
		t.Error("consensus produced an empty pool")
	}
}

func TestMechanismString(t *testing.T) {
	for _, m := range []Mechanism{NoAttack, Defrag, BGPHijack, BGPHijackPersistent, Mechanism(42)} {
		if m.String() == "" {
			t.Error("empty mechanism string")
		}
	}
}

func paperResolverPolicy() dnsresolver.AcceptancePolicy { return mitigation.PaperResolverPolicy() }
func paperClientPolicy() chronos.PoolPolicy             { return mitigation.PaperClientPolicy() }

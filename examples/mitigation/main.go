// Mitigation: the §V countermeasures and their limits. The 4-address +
// TTL caps stop the single-shot poisoning; pool generation through three
// resolvers with majority voting survives one poisoned resolver; but an
// attacker who hijacks the DNS path for the whole 24-hour generation
// window defeats everything with policy-compliant responses.
package main

import (
	"fmt"
	"os"

	"chronosntp/internal/core"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mitigation:", err)
		os.Exit(1)
	}
}

func run() error {
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"no defence", core.Config{Seed: 21, Mechanism: core.Defrag, PoisonQuery: 12}},
		{"resolver policy (≤4 addrs, TTL ≤24h)", core.Config{
			Seed: 22, Mechanism: core.Defrag, PoisonQuery: 12, ResolverCaps: true,
		}},
		{"client policy (≤4 addrs, TTL ≤24h)", core.Config{
			Seed: 23, Mechanism: core.Defrag, PoisonQuery: 12, ClientCaps: true,
		}},
		{"3-resolver consensus", core.Config{
			Seed: 24, Mechanism: core.Defrag, PoisonQuery: 12, Consensus: true,
		}},
		{"everything vs 24h BGP hijack", core.Config{
			Seed: 25, Mechanism: core.BGPHijackPersistent, PoisonQuery: 1,
			MaliciousServers: 120, ResolverCaps: true, ClientCaps: true,
		}},
	}
	fmt.Printf("%-40s %-18s %7s %9s %10s\n", "defence", "mechanism", "benign", "malicious", "fraction")
	for _, c := range cases {
		s, err := core.NewScenario(c.cfg)
		if err != nil {
			return err
		}
		res, err := s.Run()
		if err != nil {
			return err
		}
		fmt.Printf("%-40s %-18s %7d %9d %10.3f\n",
			c.name, res.Mechanism, res.PoolBenign, res.PoolMalicious, res.AttackerFraction)
	}
	fmt.Println("\nthe last row is the paper's conclusion: the dependency on insecure DNS remains.")
	return nil
}

// Command dnstool inspects the DNS wire-format facts the attack rests on:
// the forged-response record capacity per payload size and the byte
// layout of a forged pool response.
//
// Usage:
//
//	dnstool [-qname pool.ntp.org] [-payload 1472]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"chronosntp/internal/analysis"
	"chronosntp/internal/attack"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dnstool:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("dnstool", flag.ContinueOnError)
	qname := fs.String("qname", "pool.ntp.org", "query name")
	payload := fs.Int("payload", dnswire.EthernetMaxPayload, "UDP payload budget for the forged response, advertised as its EDNS size (at most 65535)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *payload > math.MaxUint16 {
		return fmt.Errorf("-payload %d exceeds the largest EDNS size, 65535", *payload)
	}
	max, err := dnswire.MaxARecords(*qname, *payload, true)
	if err != nil {
		return err
	}
	if max == 0 {
		return fmt.Errorf("-payload %d leaves no room for an A record answering %q", *payload, *qname)
	}

	rows, err := analysis.RecordCapacityTable(*qname)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "max A records answering %q per single response:\n", *qname)
	for _, r := range rows {
		fmt.Fprintf(w, "  payload %4d bytes, edns0=%-5v -> %3d records\n", r.Payload, r.EDNS, r.Records)
	}

	servers := make([]simnet.IP, max)
	for i := range servers {
		servers[i] = simnet.IPv4(66, 0, byte(i/250), byte(i%250+1))
	}
	forge := &attack.ResponseForge{PoolName: *qname, Servers: servers}
	q := dnswire.NewQuery(0xBEEF, *qname, dnswire.TypeA)
	q.SetEDNS(uint16(*payload))
	resp, err := forge.Response(q)
	if err != nil {
		return err
	}
	b, err := resp.Encode()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nforged response for %d-byte payload: %d records, %d bytes on the wire, ttl %d s\n",
		*payload, len(resp.Answers), len(b), resp.Answers[0].TTL)
	fmt.Fprintf(w, "fits unfragmented on Ethernet: %v\n", len(b) <= dnswire.EthernetMaxPayload)
	return nil
}

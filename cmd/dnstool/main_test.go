package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsPayloadsOutOfRange covers payloads that fit no A record
// (56 is one byte short for pool.ntp.org; negative budgets fit nothing)
// and one past the 16-bit EDNS size field: each fails before printing.
func TestRunRejectsPayloadsOutOfRange(t *testing.T) {
	for _, payload := range []string{"56", "-5", "70000"} {
		var out bytes.Buffer
		err := run(&out, []string{"-payload", payload})
		if err == nil {
			t.Errorf("-payload %s: no error", payload)
		}
		if out.Len() != 0 {
			t.Errorf("-payload %s printed %q before failing", payload, out.String())
		}
	}
}

// TestRunForgesResponse checks the default Ethernet budget (the paper's 89
// records) and the smallest payload that fits one record.
func TestRunForgesResponse(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{nil, []string{
			"payload 1472 bytes, edns0=true  ->  89 records",
			"forged response for 1472-byte payload: 89 records, 1465 bytes on the wire",
			"fits unfragmented on Ethernet: true",
		}},
		{[]string{"-payload", "57"}, []string{"forged response for 57-byte payload: 1 records, 57 bytes on the wire"}},
	} {
		var out bytes.Buffer
		if err := run(&out, tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		for _, want := range tc.want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%v: output lacks %q:\n%s", tc.args, want, out.String())
			}
		}
	}
}

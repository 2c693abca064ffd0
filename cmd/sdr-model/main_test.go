package main

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// Bad sizes and sample counts are usage errors, refused with exit 2
// and a message before any sampling — never a panic in model.Sample or
// stats.Summarize, and never a negative or non-finite message.
func TestRejectsBadInputs(t *testing.T) {
	for _, args := range []string{
		"-samples 0",
		"-samples -5",
		"-size -4MiB",
		"-size 0",
		"-size 0.5B",
		"-size NaNMiB",
		"-size InfGiB",
		"-size 1e30TiB",
		"-size 4XB",
		"-pdrop NaN",
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(strings.Fields(args), &stdout, &stderr); code != 2 || stderr.Len() == 0 || stdout.Len() != 0 {
			t.Errorf("%s: exit %d, stderr %q, stdout %q; want exit 2 and a message", args, code, stderr.String(), stdout.String())
		}
	}
}

func TestSmallRunRecommends(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := cli([]string{"-samples", "10", "-size", "4MiB"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"(1024 chunks)", "SR RTO", "SR NACK", "MDS EC", "XOR EC", "recommended reliability scheme for this deployment: "} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// Drop rates up to just below 1 — wan.Params.Validate accepts any
// P_drop < 1 — sample without a panic, and every number printed is
// finite and positive: exact sampling caps neither retransmission
// rounds nor levels.
func TestHighDropRatesPrintFiniteTimes(t *testing.T) {
	for _, pdrop := range []string{"0.9", "0.999999"} {
		var stdout, stderr bytes.Buffer
		if code := cli([]string{"-size", "1MiB", "-pdrop", pdrop, "-samples", "200"}, &stdout, &stderr); code != 0 {
			t.Fatalf("-pdrop %s: exit %d: %s", pdrop, code, stderr.String())
		}
		numbers := 0
		for _, field := range strings.Fields(stdout.String()) {
			v, err := strconv.ParseFloat(strings.Trim(field, "(),x"), 64)
			if err != nil {
				continue
			}
			numbers++
			if !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("-pdrop %s: printed %q:\n%s", pdrop, field, stdout.String())
			}
		}
		if numbers < 4+4*3 { // channel and message lines, then three columns per scheme
			t.Errorf("-pdrop %s: only %d numbers printed:\n%s", pdrop, numbers, stdout.String())
		}
	}
}

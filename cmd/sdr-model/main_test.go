package main

import (
	"bytes"
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

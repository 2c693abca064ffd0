package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestIdentityFigures pins the four functional figures byte for byte:
// the SHA-256 of each one's output at seed 42 must appear in
// testdata/identity.txt. A change that keeps behaviour passes it with
// the file untouched; one meant to alter behaviour replaces the lines
// this test prints and says so.
func TestIdentityFigures(t *testing.T) {
	file, err := os.ReadFile("../../testdata/identity.txt")
	if err != nil {
		t.Fatal(err)
	}
	recorded := strings.Split(string(file), "\n")
	var fresh, changed []string
	for _, fig := range []string{"wan", "multidc", "adaptive", "chaos"} {
		args := []string{"-fig", fig + "-functional", "-seed", "42"}
		var out bytes.Buffer
		if code := cli(args, &out, io.Discard); code != 0 {
			t.Fatalf("%v: exit %d", args, code)
		}
		line := fmt.Sprintf("%x  sdr-experiments %s", sha256.Sum256(out.Bytes()), strings.Join(args, " "))
		fresh = append(fresh, line)
		if !slices.Contains(recorded, line) {
			changed = append(changed, strings.Join(args, " "))
		}
	}
	if len(changed) > 0 {
		t.Errorf("output changed for %s; if that is intended, the sdr-experiments lines of testdata/identity.txt become:\n%s",
			strings.Join(changed, ", "), strings.Join(fresh, "\n"))
	}
}

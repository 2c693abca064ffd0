package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// wallColumns matches the wall-clock fields of the report, which make
// identity strips with sed before comparing two builds.
var wallColumns = regexp.MustCompile(` +[0-9.]+ ms wall| +[0-9]+ pkts/s(/core)?`)

// TestIdentityPerftest pins every simulated field and the digest of the
// IDENTITY_PERF runs of the Makefile at -drop 0.01 -seed 1: the SHA-256
// of each report, wall-clock columns stripped, must appear in
// testdata/identity.txt. A change that keeps behaviour passes it with
// the file untouched; one meant to alter behaviour replaces the lines
// this test prints and says so.
func TestIdentityPerftest(t *testing.T) {
	file, err := os.ReadFile("../../testdata/identity.txt")
	if err != nil {
		t.Fatal(err)
	}
	recorded := strings.Split(string(file), "\n")
	var fresh, changed []string
	for _, run := range []string{
		"-scheme sr", "-scheme sr-nack", "-scheme ec", "-scheme adaptive",
		"-scheme adaptive -cross-bps 5e10 -cross-poisson",
	} {
		args := append(strings.Fields(run), "-drop", "0.01", "-seed", "1")
		var out bytes.Buffer
		if code := cli(args, &out, io.Discard); code != 0 {
			t.Fatalf("%v: exit %d", args, code)
		}
		report := wallColumns.ReplaceAll(out.Bytes(), nil)
		line := fmt.Sprintf("%x  sdr-perftest %s", sha256.Sum256(report), strings.Join(args, " "))
		fresh = append(fresh, line)
		if !slices.Contains(recorded, line) {
			changed = append(changed, strings.Join(args, " "))
		}
	}
	if len(changed) > 0 {
		t.Errorf("output changed for %s; if that is intended, the sdr-perftest lines of testdata/identity.txt become:\n%s",
			strings.Join(changed, ", "), strings.Join(fresh, "\n"))
	}
}

package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// wallColumns matches the wall-clock fields of the report, which make
// identity strips with sed before comparing two builds.
var wallColumns = regexp.MustCompile(` +[0-9.]+ ms wall| +[0-9]+ pkts/s(/core)?`)

// TestIdentityPerftest pins every simulated field and the digest of the
// sdr-perftest runs that testdata/identity.txt lists: each line holds
// the SHA-256 of that run's report, wall-clock columns stripped, which
// this test recomputes in process. A change that keeps behaviour passes
// it with the file untouched; one meant to alter behaviour replaces the
// lines this test prints and says so.
func TestIdentityPerftest(t *testing.T) {
	file, err := os.ReadFile("../../testdata/identity.txt")
	if err != nil {
		t.Fatal(err)
	}
	var fresh, changed []string
	for _, line := range strings.Split(string(file), "\n") {
		fields := strings.Fields(line)
		if strings.HasPrefix(line, "#") || len(fields) < 2 || fields[1] != "sdr-perftest" {
			continue
		}
		args := fields[2:]
		var out bytes.Buffer
		if code := cli(args, &out, io.Discard); code != 0 {
			t.Fatalf("%v: exit %d", args, code)
		}
		report := wallColumns.ReplaceAll(out.Bytes(), nil)
		got := fmt.Sprintf("%x  sdr-perftest %s", sha256.Sum256(report), strings.Join(args, " "))
		fresh = append(fresh, got)
		if got != line {
			changed = append(changed, strings.Join(args, " "))
		}
	}
	if len(fresh) == 0 {
		t.Fatal("testdata/identity.txt lists no sdr-perftest run")
	}
	if len(changed) > 0 {
		t.Errorf("output changed for %s; if that is intended, the sdr-perftest lines of testdata/identity.txt become:\n%s",
			strings.Join(changed, ", "), strings.Join(fresh, "\n"))
	}
}

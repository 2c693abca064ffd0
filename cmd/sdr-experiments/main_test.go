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

	"sdrrdma/internal/experiments"
)

// TestIdentityFigures pins every figure whose output is a pure function
// of its options: each sdr-experiments line of testdata/identity.txt
// holds the SHA-256 of that command's output, which this test
// recomputes in process. Every figure of the table has a line except
// the wall-timed ones, which must have none. A change that keeps
// behaviour passes it with the file untouched; one meant to alter
// behaviour replaces the lines this test prints and says so.
func TestIdentityFigures(t *testing.T) {
	file, err := os.ReadFile("../../testdata/identity.txt")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]bool{}
	var fresh, changed []string
	for _, line := range strings.Split(string(file), "\n") {
		fields := strings.Fields(line)
		if strings.HasPrefix(line, "#") || len(fields) < 2 || fields[1] != "sdr-experiments" {
			continue
		}
		args := fields[2:]
		i := slices.Index(args, "-fig")
		if i < 0 || i+1 == len(args) {
			t.Fatalf("identity line names no figure: %s", line)
		}
		pinned[args[i+1]] = true
		var out bytes.Buffer
		if code := cli(args, &out, io.Discard); code != 0 {
			t.Fatalf("%v: exit %d", args, code)
		}
		got := fmt.Sprintf("%x  sdr-experiments %s", sha256.Sum256(out.Bytes()), strings.Join(args, " "))
		fresh = append(fresh, got)
		if got != line {
			changed = append(changed, strings.Join(args, " "))
		}
	}
	for _, fig := range experiments.List() {
		id, wall := fig[0], fig[1] == "wall"
		if wall && pinned[id] {
			t.Errorf("figure %s is wall-timed, so testdata/identity.txt cannot pin it", id)
		}
		if !wall && !pinned[id] {
			t.Errorf("figure %s has no line in testdata/identity.txt", id)
		}
	}
	if len(changed) > 0 {
		t.Errorf("output changed for %s; if that is intended, the sdr-experiments lines of testdata/identity.txt become:\n%s",
			strings.Join(changed, ", "), strings.Join(fresh, "\n"))
	}
}

// TestReadmeFigureListing holds README.md's figure section to the
// listing sdr-experiments prints without -fig, byte for byte.
func TestReadmeFigureListing(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var listing bytes.Buffer
	if code := cli(nil, io.Discard, &listing); code != 2 {
		t.Fatalf("sdr-experiments without -fig: exit %d, want 2", code)
	}
	if !bytes.Contains(readme, []byte("```\n$ go run ./cmd/sdr-experiments\n"+listing.String()+"```\n")) {
		t.Errorf("README.md's figure listing is stale; the block under \"Regenerating the paper's figures\" becomes:\n```\n$ go run ./cmd/sdr-experiments\n%s```", listing.String())
	}
}

// Negative sample counts and a negative, NaN or infinite duration are
// usage errors, refused with exit 2 before any figure runs, the way a
// bad -clock is; zero keeps meaning "the default".
func TestRejectsBadCounts(t *testing.T) {
	for _, args := range []string{
		"-fig 3a -samples -5",
		"-fig 3a -tail-samples -1",
		"-fig 3a -duration -1",
		"-fig 3a -duration NaN",
		"-fig 3a -duration +Inf",
		"-fig 3a -clock wall",
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(strings.Fields(args), &stdout, &stderr); code != 2 || stderr.Len() == 0 || stdout.Len() != 0 {
			t.Errorf("%s: exit %d, stderr %q, stdout %q; want exit 2 and a message", args, code, stderr.String(), stdout.String())
		}
	}
	var out bytes.Buffer
	if code := cli(strings.Fields("-fig 3a -samples 0 -tail-samples 0 -duration 0"), &out, io.Discard); code != 0 || out.Len() == 0 {
		t.Fatalf("zero counts (the defaults): exit %d, %d B of output", code, out.Len())
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lotec/internal/sim"
)

const committedLedger = "../../" + ledger

// ledgerTable builds the table for the figure the committed ledger records.
func ledgerTable(t *testing.T) (*benchDoc, []entry) {
	t.Helper()
	doc, err := readBenchDoc(committedLedger)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) == 0 {
		t.Fatalf("%s has no rows", committedLedger)
	}
	spec, err := sim.FigureByID(doc.Figure)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{spec: spec, runs: map[figureKey]*figureRun{}}
	return doc, b.entries()
}

// TestEveryLedgerRowHasOneEntry pins the table against the committed
// ledger: every row is recorded by exactly one entry, and every gated entry
// has committed rows to be held to.
func TestEveryLedgerRowHasOneEntry(t *testing.T) {
	doc, entries := ledgerTable(t)
	for _, r := range doc.Results {
		var owners []string
		for _, e := range entries {
			if e.owns(r.Op) {
				owners = append(owners, e.op)
			}
		}
		if len(owners) != 1 {
			t.Errorf("row %s is owned by %d entries %v, want 1", rowKey(r), len(owners), owners)
		}
	}
	for _, e := range entries {
		if e.gate != nil && !slices.ContainsFunc(doc.Results, func(r benchResult) bool { return e.owns(r.Op) }) {
			t.Errorf("gated entry %s has no committed rows", e.op)
		}
	}
}

// TestSmokeOnlyReadsTheLedger runs the smoke path over the cheap entries
// against a copy of the committed ledger: it passes and leaves the copy
// byte-identical. With a row the gate needs taken out, it fails.
func TestSmokeOnlyReadsTheLedger(t *testing.T) {
	doc, entries := ledgerTable(t)
	var cheap []entry
	for _, e := range entries {
		if e.op == "loc/*" || e.op == "tcp/msgs-per-*" {
			cheap = append(cheap, e)
		}
	}
	if len(cheap) != 2 {
		t.Fatalf("found %d of the 2 cheap entries", len(cheap))
	}
	want, err := os.ReadFile(committedLedger)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), ledger)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkLedger(cheap, path); err != nil {
		t.Fatalf("smoke over the committed ledger: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("smoke changed the ledger (read error %v)", err)
	}

	doc.Results = slices.DeleteFunc(doc.Results, func(r benchResult) bool { return r.Op == msgsPerRepeatRootOp })
	if err := writeBenchDoc(path, doc); err != nil {
		t.Fatal(err)
	}
	if err := checkLedger(cheap, path); err == nil || !strings.Contains(err.Error(), msgsPerRepeatRootOp) {
		t.Fatalf("smoke over a ledger without %s: err = %v, want it named", msgsPerRepeatRootOp, err)
	}
}

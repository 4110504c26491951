package lint

import (
	"encoding/json"
	"strings"
	"testing"
)

// loadFixturePkgs loads one or more testdata packages through the real
// loader, sharing a single loader so cross-fixture imports resolve.
func loadFixturePkgs(t *testing.T, dirs ...string) []*Package {
	t.Helper()
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load(dirs...)
	if err != nil {
		t.Fatalf("Load(%v): %v", dirs, err)
	}
	if len(pkgs) != len(dirs) {
		t.Fatalf("Load(%v): got %d packages, want %d", dirs, len(pkgs), len(dirs))
	}
	return pkgs
}

// loadFixture loads one testdata package.
func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	return loadFixturePkgs(t, dir)[0]
}

// runOn applies one analyzer to the given fixture packages and returns its
// sorted findings.
func runOn(t *testing.T, a *Analyzer, dirs ...string) []Finding {
	t.Helper()
	prog := NewProgram(loadFixturePkgs(t, dirs...))
	var fs []Finding
	for _, p := range prog.Pkgs {
		fs = append(fs, a.Run(prog, p)...)
	}
	Sort(fs)
	return fs
}

// wantFindings asserts the finding count and that each expected substring
// appears in some finding message.
func wantFindings(t *testing.T, fs []Finding, n int, substrs ...string) {
	t.Helper()
	if len(fs) != n {
		for _, f := range fs {
			t.Logf("  %s", f)
		}
		t.Fatalf("got %d findings, want %d", len(fs), n)
	}
	for _, sub := range substrs {
		found := false
		for _, f := range fs {
			if strings.Contains(f.Message, sub) {
				found = true
				break
			}
		}
		if !found {
			for _, f := range fs {
				t.Logf("  %s", f)
			}
			t.Errorf("no finding mentions %q", sub)
		}
	}
}

func TestMapIterPositive(t *testing.T) {
	fs := runOn(t, MapIter, "./testdata/mapiter_pos")
	wantFindings(t, fs, 5,
		"never sorted before use",
		"fmt.Println",
		"return from inside map range",
		"overwrites in map order",
		"channel send",
	)
	for _, f := range fs {
		if f.Analyzer != "mapiter" {
			t.Errorf("finding has analyzer %q, want mapiter", f.Analyzer)
		}
	}
}

func TestMapIterNegative(t *testing.T) {
	wantFindings(t, runOn(t, MapIter, "./testdata/mapiter_neg"), 0)
}

func TestMapIterSkipsNonCriticalPackages(t *testing.T) {
	p := loadFixture(t, "./testdata/mapiter_pos")
	p.Name = "util" // not a determinism-critical package name
	if fs := MapIter.Run(NewProgram([]*Package{p}), p); len(fs) != 0 {
		t.Fatalf("got %d findings in non-critical package, want 0", len(fs))
	}
}

func TestLockHeldPositive(t *testing.T) {
	fs := runOn(t, LockHeld, "./testdata/lockheld_pos")
	wantFindings(t, fs, 4, "c.n accessed without holding mu")
}

func TestLockHeldNegative(t *testing.T) {
	wantFindings(t, runOn(t, LockHeld, "./testdata/lockheld_neg"), 0)
}

func TestErrDropPositive(t *testing.T) {
	fs := runOn(t, ErrDrop, "./testdata/errdrop_pos")
	wantFindings(t, fs, 5,
		"by an expression statement",
		"by a go statement",
		"by a defer statement",
		"fmt.Fprintf returns an error that is discarded",
	)
}

func TestErrDropNegative(t *testing.T) {
	wantFindings(t, runOn(t, ErrDrop, "./testdata/errdrop_neg"), 0)
}

func TestErrDropSkipsOtherPackages(t *testing.T) {
	p := loadFixture(t, "./testdata/errdrop_pos")
	p.Name = "util" // not an I/O-boundary package name
	if fs := ErrDrop.Run(NewProgram([]*Package{p}), p); len(fs) != 0 {
		t.Fatalf("got %d findings in non-boundary package, want 0", len(fs))
	}
}

func TestDirectiveAudit(t *testing.T) {
	pkgs := loadFixturePkgs(t, "./testdata/directive_pos")
	fs := RunAll(pkgs, All())
	wantFindings(t, fs, 2,
		"stale //lotec:unordered",
		"unknown directive //lotec:tpyo",
	)
}

func TestRunAllTimedReportsEveryAnalyzer(t *testing.T) {
	pkgs := loadFixturePkgs(t, "./testdata/mapiter_neg")
	_, timings := RunAllTimed(pkgs, All())
	if len(timings) != len(All())+1 {
		t.Fatalf("got %d timings, want %d (analyzers + directive audit)", len(timings), len(All())+1)
	}
	names := make(map[string]bool)
	for _, tm := range timings {
		names[tm.Analyzer] = true
	}
	for _, a := range All() {
		if !names[a.Name] {
			t.Errorf("no timing for analyzer %s", a.Name)
		}
	}
	if !names["directive"] {
		t.Error("no timing for the directive audit")
	}
}

// TestRepoIsClean is the self-gate: the suite must exit clean on the
// repository itself, exactly like `go run ./cmd/lotec-lint ./...` in CI.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded only %d packages; loader is missing module packages", len(pkgs))
	}
	fs := RunAll(pkgs, All())
	for _, f := range fs {
		t.Errorf("unexpected finding: %s", f)
	}
}

func TestFindingOutputFormats(t *testing.T) {
	f := Finding{Analyzer: "mapiter", File: "a/b.go", Line: 12, Col: 3, Message: "boom"}
	if got, want := f.String(), "a/b.go:12:3: [mapiter] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	for _, key := range []string{`"analyzer":"mapiter"`, `"file":"a/b.go"`, `"line":12`, `"col":3`, `"message":"boom"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("JSON %s missing %s", data, key)
		}
	}
}

func TestSortIsDeterministic(t *testing.T) {
	a := Finding{Analyzer: "b", File: "x.go", Line: 2, Col: 1, Message: "m1"}
	b := Finding{Analyzer: "a", File: "x.go", Line: 2, Col: 1, Message: "m2"}
	c := Finding{Analyzer: "z", File: "x.go", Line: 1, Col: 9, Message: "m3"}
	for _, perm := range [][]Finding{{a, b, c}, {c, b, a}, {b, c, a}} {
		fs := append([]Finding(nil), perm...)
		Sort(fs)
		if fs[0] != c || fs[1] != b || fs[2] != a {
			t.Fatalf("Sort gave %v", fs)
		}
	}
}

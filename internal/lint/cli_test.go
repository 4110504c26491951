package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from actual output")

// TestMainJSONGolden locks the -json output schema: one run over the
// positive fixtures must reproduce testdata/golden/lint.json byte for byte
// (module-root prefix normalized), keeping field names, ordering and
// indentation stable for CI consumers. Regenerate with `go test
// ./internal/lint -run TestMainJSONGolden -update`.
func TestMainJSONGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Main([]string{
		"-json",
		"./testdata/mapiter_pos",
		"./testdata/errdrop_pos",
		"./testdata/directive_pos",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings present); stderr:\n%s", code, stderr.String())
	}

	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.ReplaceAll(stdout.String(), root, "MODULE")

	golden := filepath.Join("testdata", "golden", "lint.json")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("-json output drifted from %s (re-run with -update if intended)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestMainExitCodes pins the exit-code contract: 0 clean, 1 findings, 2
// load/usage errors.
func TestMainExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{"./testdata/mapiter_neg"}, 0},
		{"findings", []string{"./testdata/directive_pos"}, 1},
		{"badpattern", []string{"./testdata/does_not_exist"}, 2},
		{"badflag", []string{"-no-such-flag"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := Main(tc.args, &stdout, &stderr); code != tc.want {
				t.Errorf("Main(%v) = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					tc.args, code, tc.want, stdout.String(), stderr.String())
			}
		})
	}
}

// TestMainTextOutput checks the plain (non-JSON) line format and the
// trailing count on stderr.
func TestMainTextOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Main([]string{"./testdata/directive_pos"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), stdout.String())
	}
	for _, ln := range lines {
		if !strings.Contains(ln, "[directive]") || !strings.Contains(ln, "sim.go:") {
			t.Errorf("line %q does not match file:line:col: [analyzer] message", ln)
		}
	}
	if !strings.Contains(stderr.String(), "2 finding(s)") {
		t.Errorf("stderr %q missing finding count", stderr.String())
	}
}

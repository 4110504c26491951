//go:build !race

package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// wallClock matches the one line of lotec-sim's output that differs between
// runs of the same build: each figure's regeneration time.
var wallClock = regexp.MustCompile(`(?m)^\(regenerated in [^)]*\)$`)

// TestGoldenOutputs pins the simulator's committed outputs: the figures
// with the headline, the RC extension and every ablation are regenerated
// and compared byte for byte with testdata, the wall-clock lines masked.
// Every run is seeded on the deterministic simulator, so any difference is
// a change in what the protocols do. go test -run TestGoldenOutputs
// -update rewrites the files. The race detector makes the runs too slow, so
// the test is built without it only.
func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		file     string
		figure   string
		headline bool
		ablation string
	}{
		{"figure_all_headline.golden", "all", true, ""},
		{"figure_rc.golden", "rc", false, ""},
		{"ablation_all.golden", "", false, "all"},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, tc.figure, tc.headline, tc.ablation, false, "", 1); err != nil {
				t.Fatal(err)
			}
			got := wallClock.ReplaceAll(out.Bytes(), []byte("(regenerated in …)"))
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s (go test -run TestGoldenOutputs -update rewrites it):\n%s", path, firstDiff(want, got))
			}
		})
	}
}

// firstDiff renders the first line where got departs from want.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return ""
}

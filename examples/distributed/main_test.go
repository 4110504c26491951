package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDistributed runs the distributed example over loopback TCP. Its listen
// addresses are ephemeral ports, so only the deposit lines and the final
// counter are checked.
func TestDistributed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"client via node 1: add 10 → counter 10\n",
		"client via node 2: add 20 → counter 30\n",
		"client via node 3: add 30 → counter 60\n",
		"final counter read through node 3: 60 (want 60)\n",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// Command lotec-lint runs the repository's invariant analyzer suite
// (package internal/lint): mapiter, lockheld and errdrop, plus the
// //lotec: directive audit.
//
// Usage:
//
//	lotec-lint [-json] [-time] [packages]
//
// Packages default to ./... (every package in the module). Findings are
// printed one per line as `file:line:col: [analyzer] message`, sorted, or
// as a JSON array with -json; -time reports per-analyzer wall-clock
// timings on stderr. The exit status is 1 if any finding is reported, 2 on
// a load or usage error, 0 otherwise — so the command slots directly into
// `make check` and CI.
package main

import (
	"os"

	"lotec/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}

package main

import (
	"bytes"
	"cmp"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// locRows is the code-size ledger: the lines of Go in the module rooted at
// root, as "loc/non-test" and "loc/test" rows per package directory plus a
// "total" (Ops counts files). Tests are the _test.go files and the fixtures
// under testdata/, which count with the package owning them; benchmark/ is a
// module of its own and not counted.
func locRows(root string) ([]benchResult, error) {
	rows := map[[2]string]*benchResult{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || path == filepath.Join(root, "benchmark")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		pkg, _, fixture := strings.Cut(filepath.ToSlash(rel)+"/", "/testdata/")
		op := "loc/non-test"
		if fixture || strings.HasSuffix(path, "_test.go") {
			op = "loc/test"
		}
		for _, k := range [][2]string{{op, strings.TrimSuffix(pkg, "/")}, {op, "total"}} {
			if rows[k] == nil {
				rows[k] = &benchResult{Op: k[0], Package: k[1]}
			}
			rows[k].Ops++
			rows[k].Lines += bytes.Count(src, []byte("\n"))
		}
		return err
	})
	out := make([]benchResult, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	// "total" sorts after ".", cmd/, examples/ and internal/.
	slices.SortFunc(out, func(a, b benchResult) int {
		return cmp.Or(cmp.Compare(a.Op, b.Op), cmp.Compare(a.Package, b.Package))
	})
	return out, err
}

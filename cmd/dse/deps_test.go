package main

import (
	"go/build"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// pipelineSimulator lists the packages that produce the kernel cost
// table: the Pete core model and the assembled kernels. The dse binary
// prices from the table internal/sim embeds, so it links none of them.
var pipelineSimulator = []string{
	"repro/internal/asm",
	"repro/internal/cpu",
	"repro/internal/isa",
	"repro/internal/kernels",
}

// moduleImports walks the non-test imports inside the module from the
// package at path and returns, for every package reached, the
// module-local packages it imports.
func moduleImports(t *testing.T, path string) map[string][]string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	imports := make(map[string][]string)
	var walk func(string)
	walk = func(path string) {
		if _, seen := imports[path]; seen {
			return
		}
		pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, "repro")), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		imports[path] = nil
		for _, imp := range pkg.Imports {
			if imp == "repro" || strings.HasPrefix(imp, "repro/") {
				imports[path] = append(imports[path], imp)
			}
		}
		for _, imp := range imports[path] {
			walk(imp)
		}
	}
	walk(path)
	return imports
}

// TestDSELinksNoPipelineSimulator guards the rule that the dse binary
// prices every configuration from pinned tables: its non-test imports
// reach no pipeline-simulator package, and Billie's timing model needs
// no binary-field arithmetic.
func TestDSELinksNoPipelineSimulator(t *testing.T) {
	imports := moduleImports(t, "repro/cmd/dse")
	if _, ok := imports["repro/internal/sim"]; !ok {
		t.Fatal("the walk from repro/cmd/dse does not reach repro/internal/sim")
	}
	for _, pkg := range slices.Sorted(maps.Keys(imports)) {
		for _, imp := range imports[pkg] {
			if slices.Contains(pipelineSimulator, imp) {
				t.Errorf("repro/cmd/dse reaches %s through %s", imp, pkg)
			}
		}
	}
	billie := "repro/internal/billie"
	if slices.Contains(moduleImports(t, billie)[billie], "repro/internal/gf2") {
		t.Error("repro/internal/billie imports repro/internal/gf2 outside its tests")
	}
}

package main

import (
	"go/build"
	"go/parser"
	"go/token"
	"maps"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// pipelineSimulator lists the packages that produce the kernel cost
// table: the Pete core model, its memory system and instruction cache,
// and the assembled kernels. The dse binary prices from the table
// internal/sim embeds, so it links none of them, nor the root repro
// package, the examples' API over the functional crypto.
var pipelineSimulator = []string{
	"repro/internal/asm",
	"repro/internal/cpu",
	"repro/internal/isa",
	"repro/internal/kernels",
	"repro/internal/mem",
	"repro/internal/cache",
	"repro",
}

// functionalCrypto lists the packages that generate the operation
// census. Until the census is served from its pinned table, the dse
// binary links them, but only sim's census generator imports them.
var functionalCrypto = []string{
	"repro/internal/ec",
	"repro/internal/ecdsa",
	"repro/internal/mp",
	"repro/internal/gf2",
}

// censusGenerator lists the non-test internal/sim files allowed to
// import the functional crypto.
var censusGenerator = []string{"census.go", "workload.go"}

// packageDir returns the directory of the module package at path.
func packageDir(t *testing.T, path string) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(root, strings.TrimPrefix(path, "repro"))
}

// moduleImports walks the non-test imports inside the module from the
// package at path and returns, for every package reached, the
// module-local packages it imports.
func moduleImports(t *testing.T, path string) map[string][]string {
	t.Helper()
	imports := make(map[string][]string)
	var walk func(string)
	walk = func(path string) {
		if _, seen := imports[path]; seen {
			return
		}
		pkg, err := build.ImportDir(packageDir(t, path), 0)
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
// reach no pipeline-simulator package (nor the root repro package), and
// Billie's timing model needs no binary-field arithmetic.
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

// TestDSEReachesCryptoOnlyThroughCensus guards the rule that the dse
// binary reaches the functional crypto only through sim's census
// generator: no package on its import walk other than sim (and the
// crypto packages themselves) imports ec, ecdsa, mp or gf2, and inside
// sim only the census generator files do. Every other curve fact comes
// from sim's curve table.
func TestDSEReachesCryptoOnlyThroughCensus(t *testing.T) {
	const sim = "repro/internal/sim"
	imports := moduleImports(t, "repro/cmd/dse")
	if _, ok := imports[sim]; !ok {
		t.Fatalf("the walk from repro/cmd/dse does not reach %s", sim)
	}
	for _, pkg := range slices.Sorted(maps.Keys(imports)) {
		if pkg == sim || slices.Contains(functionalCrypto, pkg) {
			continue
		}
		for _, imp := range imports[pkg] {
			if slices.Contains(functionalCrypto, imp) {
				t.Errorf("%s imports %s; only %s's census generator may", pkg, imp, sim)
			}
		}
	}

	dir := packageDir(t, sim)
	pkg, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range pkg.GoFiles {
		if slices.Contains(censusGenerator, name) {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(functionalCrypto, imp) {
				t.Errorf("%s/%s imports %s; only %v may", sim, name, imp, censusGenerator)
			}
		}
	}
}

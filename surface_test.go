package repro_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowed names the exported functions and methods of internal/
// that only tests call, each with the reason a test needs it. A name is
// written as its package path under internal/, then the receiver type for
// a method: "etl.ValidateClustered", "dwrf.FileReader.StripeRows". A bare
// package path covers the whole package.
var surfaceAllowed = map[string]string{
	"testutil": "test support: every name in it exists for tests",

	"reader.Reader.ScanFile":          "oracle: the serial scan the session, fleet and cutter contracts compare against",
	"etl.ValidateClustered":           "oracle: checks the clustering invariant the ETL property tests assert",
	"tensor.KJT.Equal":                "oracle: the KJT equality every round-trip and dedup test compares with",
	"trainer.Load":                    "decodes checkpoint bytes from outside the program; fuzzed and round-tripped",
	"scribe.Cluster.ShardLoads":       "window: tests read the per-shard message split the shard policy produced",
	"dpp.Service.ScanCache":           "residency window: how tests reach the service's cache to check what it holds",
	"dpp.ScanCache.Contains":          "residency window: tests check what the cache holds between sessions",
	"dpp.ScanCache.Entries":           "residency window: tests count the cache's entries after eviction",
	"lakefs.Store.ResetIO":            "residency window: tests zero the IO counters between the phases they compare",
	"dwrf.FileReader.StripeByteRange": "fault-injection window: tests corrupt one stripe's bytes and seed fuzzers with them",
	"dwrf.FileReader.StripeRows":      "window: tests hold each decoded stripe to the footer's row count for it",
}

// TestExportedSurfaceHasCallers type-checks the non-test files of every
// package in the module, and of the benchmark module under
// benchmarks/ladder, and fails on any exported function, method or
// interface method in internal/ that nothing but a _test.go file refers
// to. A concrete method also counts as called when non-test code calls a
// method of the same name through a value of an interface the module
// declares, named or literal, or when it is how its type implements
// fmt.Stringer or error: fmt and errors call String and Error through
// values the module hands them, so those calls never appear in its source.
// Calls through other standard-library interfaces do not count:
// net.Listener.Addr is no caller of every Addr method.
func TestExportedSurfaceHasCallers(t *testing.T) {
	l, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	fmtPkg, err := l.std.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	std := []*types.Interface{
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface),
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
	}

	used := map[*types.Func]bool{}
	viaInterface := map[string]bool{}
	for _, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		used[fn] = true
		recv := fn.Type().(*types.Signature).Recv()
		if recv != nil && types.IsInterface(recv.Type()) && fn.Pkg() != nil && l.dirs[fn.Pkg().Path()] != "" {
			viaInterface[fn.Name()] = true
		}
	}

	found := map[string]bool{}
	var unused []string
	for _, path := range l.order {
		rel, ok := strings.CutPrefix(path, "repro/internal/")
		if !ok {
			continue
		}
		for _, d := range exportedSurface(l.pkgs[path], rel, std) {
			found[d.name] = true
			if _, ok := surfaceAllowed[rel]; ok {
				continue
			}
			called := used[d.fn] || (d.concrete && (viaInterface[d.fn.Name()] || d.std))
			_, allowed := surfaceAllowed[d.name]
			switch {
			case !called && !allowed:
				unused = append(unused, fmt.Sprintf("%s (%s)", d.name, l.fset.Position(d.fn.Pos())))
			case called && allowed:
				t.Errorf("%s has a non-test caller now: drop it from surfaceAllowed", d.name)
			}
		}
		found[rel] = true
	}
	for name, reason := range surfaceAllowed {
		if !found[name] {
			t.Errorf("surfaceAllowed names %s, which no longer exists", name)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("surfaceAllowed entry %s gives no reason", name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but only tests refer to it: %s", u)
	}
	t.Logf("surface allowlist: %d entries", len(surfaceAllowed))
}

// surfaceDecl is one exported function, method or interface method.
type surfaceDecl struct {
	name     string
	fn       *types.Func
	concrete bool // a method with a body, reachable through an interface
	std      bool // a method by which its type implements fmt.Stringer or error
}

// exportedSurface lists pkg's exported functions, the exported methods of
// its named types and the exported methods its interfaces declare.
func exportedSurface(pkg *types.Package, rel string, std []*types.Interface) []surfaceDecl {
	var out []surfaceDecl
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		switch obj := scope.Lookup(n).(type) {
		case *types.Func:
			if obj.Exported() {
				out = append(out, surfaceDecl{name: rel + "." + n, fn: obj})
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if m := iface.ExplicitMethod(i); m.Exported() {
						out = append(out, surfaceDecl{name: rel + "." + n + "." + m.Name(), fn: m})
					}
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() {
					continue
				}
				d := surfaceDecl{name: rel + "." + n + "." + m.Name(), fn: m, concrete: true}
				for _, si := range std {
					if hasMethod(si, m.Name()) &&
						(types.Implements(named, si) || types.Implements(types.NewPointer(named), si)) {
						d.std = true
					}
				}
				out = append(out, d)
			}
		}
	}
	return out
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// module is the type-checked non-test source of the module rooted at a
// directory, the nested benchmark module included.
type module struct {
	fset  *token.FileSet
	dirs  map[string]string // import path → directory
	pkgs  map[string]*types.Package
	order []string // import paths in the order they finished checking
	info  *types.Info
	std   types.Importer
}

func loadModule(root string) (*module, error) {
	l := &module{
		fset: token.NewFileSet(),
		dirs: map[string]string{},
		pkgs: map[string]*types.Package{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}},
		std:  importer.Default(),
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		// The benchmark module's path is repro/benchmarks/ladder, so every
		// directory's import path is the root module's path joined to it.
		l.dirs[filepath.ToSlash(filepath.Join("repro", path))] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil && !errors.As(err, new(*build.NoGoError)) {
			return nil, err
		}
	}
	return l, nil
}

// Import type-checks a package of the module on first use and hands every
// other path to the standard importer.
func (l *module) Import(path string) (*types.Package, error) {
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = p
	l.order = append(l.order, path)
	return p, nil
}

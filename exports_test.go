package hidinglcp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyKeep lists the exported top-level functions under internal/ that
// no non-test code calls but that stay anyway, each with its reason. Every
// other exported function needs a caller outside _test.go files, in this
// module or in lcpbench.
var testOnlyKeep = map[string]string{
	"internal/analysis/analysistest.Run":                             "runs the analyzer fixtures; the package exists for tests",
	"internal/core.AllAccept":                                        "plain-soundness fixture for tests in other packages",
	"internal/core.AllAcceptVerdicts":                                "certification fixture for the sim fault tests",
	"internal/core.CheckAnonymous":                                   "oracle for the anonymity claims of the schemes",
	"internal/forgetful.IsClosedWalk":                                "lower-bound machinery (Section 5), checked by tests only",
	"internal/forgetful.SplitIdentifier":                             "lower-bound machinery (Lemma 5.2), checked by tests only",
	"internal/graph.CompleteBipartite":                               "generator for cross-package test corpora",
	"internal/graph.DisjointUnion":                                   "generator for cross-package test corpora",
	"internal/graph.EnumIDs":                                         "identifier enumeration used by tests in other packages",
	"internal/graph.InducedPorts":                                    "oracle for the fault simulator's truncated views",
	"internal/graph.Isomorphic":                                      "isomorphism oracle for cross-package tests",
	"internal/graph.ParseGraph6":                                     "decodes the graph6 fuzz seeds",
	"internal/graph.WatermelonEndpoints":                             "names the endpoints of Watermelon graphs in tests",
	"internal/nbhd.CountInstances":                                   "drives BenchmarkShardedEnumeration",
	"internal/obs.RedactString":                                      "the redactor certflow's diagnostic tells authors to use",
	"internal/sanitize.CheckLabeled":                                 "runtime sanitizer probe",
	"internal/sanitize.CheckScheme":                                  "runtime sanitizer probe",
	"internal/sanitize.ProbeBuildSharded":                            "leak probe run by the race-and-leak CI job",
	"internal/sanitize.ProbeBuildShardedCancel":                      "cancellation probe run by the cancel-stress CI job",
	"internal/sanitize.ProbeExhaustiveStrongSoundnessParallel":       "leak probe run by the race-and-leak CI job",
	"internal/sanitize.ProbeExhaustiveStrongSoundnessParallelCancel": "cancellation probe run by the cancel-stress CI job",
	"internal/sanitize.ProbeGatherFaults":                            "leak probe run by the chaos CI job",
	"internal/sanitize.WatchGatherFaults":                            "watchdog probe run by the chaos CI job",
	"internal/view.MustExtract":                                      "view fixture for cross-package tests",
}

// TestNoTestOnlyExports fails on any exported top-level function under
// internal/ that only tests call and that testOnlyKeep does not list, and on
// any keep entry that is gone or has gained a non-test caller. It parses
// source only, without type information: a reference is a selector
// pkg.Name through an import of the package, or the bare Name inside the
// package itself outside the function's own declaration. Methods are out
// of scope, since resolving them needs types.
func TestNoTestOnlyExports(t *testing.T) {
	const module = "hidinglcp"
	exports := map[string]token.Position{} // "internal/graph.Path" -> declaration
	refs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		imports := map[string]string{} // local name -> module-relative path
		for _, is := range f.Imports {
			ip, _ := strconv.Unquote(is.Path.Value)
			rel, ok := strings.CutPrefix(ip, module+"/")
			if !ok {
				continue
			}
			name := path.Base(ip)
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = rel
		}
		for _, decl := range f.Decls {
			self := ""
			var nodes []ast.Node
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fd.Recv == nil {
					self = fd.Name.Name
					if ast.IsExported(self) && strings.HasPrefix(dir, "internal/") {
						exports[dir+"."+self] = fset.Position(fd.Pos())
					}
				}
				nodes = []ast.Node{fd.Type}
				if fd.Recv != nil {
					nodes = append(nodes, fd.Recv)
				}
				if fd.Body != nil {
					nodes = append(nodes, fd.Body)
				}
			} else {
				nodes = []ast.Node{decl}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if rel, ok := imports[x.Name]; ok {
							refs[rel+"."+n.Sel.Name] = true
							return false
						}
					}
					ast.Inspect(n.X, visit) // n.Sel is a field or method name
					return false
				case *ast.Ident:
					if n.Name != self {
						refs[dir+"."+n.Name] = true
					}
				}
				return true
			}
			for _, n := range nodes {
				ast.Inspect(n, visit)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	names := make([]string, 0, len(exports))
	for name := range exports {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		_, kept := testOnlyKeep[name]
		switch {
		case !refs[name] && !kept:
			t.Errorf("%s: %s has no caller outside tests; delete it, or add it to testOnlyKeep with a reason", exports[name], name)
		case refs[name] && kept:
			t.Errorf("testOnlyKeep entry %s has a caller outside tests now; remove the entry", name)
		}
	}
	for name := range testOnlyKeep {
		if _, ok := exports[name]; !ok {
			t.Errorf("testOnlyKeep entry %s names no exported function under internal/", name)
		}
	}
}

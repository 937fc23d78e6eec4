package audit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestRootRuleHasOneHome holds the signature packet's fate to one
// description, depgraph.Delivery: no non-test code sets netsim.Config's
// ReliableIndices or SigRetransmits outside internal/scenario and
// internal/netsim (netsim.Config.SetRoot derives them from a root rule),
// and none ORs the graph root into a Monte-Carlo lane word outside
// internal/depgraph/delivery.go, the estimator's one root-rule site.
// benchmark/ is the frozen measurement harness and examples/ drive the
// public mcauth.SimConfig, so both are exempt by name.
func TestRootRuleHasOneHome(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]bool{"ReliableIndices": true, "SigRetransmits": true}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			switch rel {
			case ".git", "benchmark", "examples":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		setsFields := !strings.HasPrefix(rel, "internal/scenario/") && !strings.HasPrefix(rel, "internal/netsim/")
		report := func(n ast.Node, what string) {
			t.Errorf("%s: %s; derive it from a depgraph.Delivery instead", fset.Position(n.Pos()), what)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok && fields[k.Name] && setsFields {
					report(n, "sets "+k.Name)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && fields[sel.Sel.Name] && setsFields {
						report(n, "sets "+sel.Sel.Name)
					}
					if ix, ok := lhs.(*ast.IndexExpr); ok && n.Tok == token.OR_ASSIGN &&
						mentionsRoot(ix.Index) && rel != "internal/depgraph/delivery.go" {
						report(n, "ORs the root into a lane")
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mentionsRoot reports whether e names a root: g.root, g.Root(), root.
func mentionsRoot(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && strings.EqualFold(id.Name, "root") {
			found = true
		}
		return !found
	})
	return found
}

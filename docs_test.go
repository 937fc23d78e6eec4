package mcauth

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"mcauth/internal/experiments"
)

// docTool matches a command-line tool's name, bare or as a path.
var docTool = regexp.MustCompile(`(^|/)(mcsim|mcgraph|mcfig|mcreport|mcserved|mclab)$`)

// docFlag matches a flag token: -name or -name=value.
var docFlag = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(=.*)?$`)

// docSpan matches a back-quoted span.
var docSpan = regexp.MustCompile("`([^`]+)`")

// docProse returns md with its fenced blocks blanked line for line, so an
// offset into the prose is one into md, and the lines of those blocks.
func docProse(md string) (prose string, fenced []string) {
	lines := strings.Split(md, "\n")
	in := false
	for i, line := range lines {
		fence := strings.HasPrefix(strings.TrimSpace(line), "```")
		if in && !fence {
			fenced = append(fenced, line)
		}
		if in || fence {
			lines[i] = strings.Repeat(" ", len(line))
		}
		if fence {
			in = !in
		}
	}
	return strings.Join(lines, "\n"), fenced
}

// docCommands returns the command lines a markdown file shows: each
// back-quoted span, and each line of a fenced block with its shell
// comment cut off.
func docCommands(md string) []string {
	prose, fenced := docProse(md)
	var out []string
	for _, line := range fenced {
		if i := strings.Index(line, " #"); i >= 0 {
			line = line[:i]
		}
		out = append(out, line)
	}
	for _, m := range docSpan.FindAllStringSubmatch(prose, -1) {
		out = append(out, m[1])
	}
	return out
}

// docInvocations maps each tool a command line invokes (mclab with its
// subcommand) to the flags it passes, up to the end of that command.
func docInvocations(cmd string) map[string][]string {
	out := make(map[string][]string)
	tool := ""
	for _, tok := range strings.Fields(cmd) {
		switch {
		case strings.ContainsAny(tok[:1], "|&;>"):
			tool = ""
		case docTool.MatchString(tok):
			tool = docTool.FindStringSubmatch(tok)[2]
		case tool == "mclab" && (tok == "run" || tok == "render" || tok == "check"):
			tool = "mclab " + tok
		case tool != "" && docFlag.MatchString(tok):
			out[tool] = append(out[tool], docFlag.FindStringSubmatch(tok)[1])
		}
	}
	return out
}

// declaredFlags builds the tools and reads the flags each one's -h lists.
func declaredFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	usage := regexp.MustCompile(`(?m)^\s+-([a-z][a-z0-9-]*)`)
	flags := make(map[string]map[string]bool)
	for _, tool := range []string{"mcsim", "mcgraph", "mcfig", "mcreport", "mcserved", "mclab run", "mclab render", "mclab check"} {
		args := append(strings.Fields(tool)[1:], "-h")
		// -h exits non-zero after printing the usage; the usage is what counts.
		out, _ := exec.Command(filepath.Join(bin, strings.Fields(tool)[0]), args...).CombinedOutput()
		flags[tool] = map[string]bool{"h": true, "help": true}
		for _, m := range usage.FindAllStringSubmatch(string(out), -1) {
			flags[tool][m[1]] = true
		}
		if len(flags[tool]) == 2 {
			t.Fatalf("%s -h listed no flags:\n%s", tool, out)
		}
	}
	return flags
}

// TestDocFlagsDeclared: every flag README.md and DESIGN.md show a tool
// taking, in a back-quoted command or a fenced example, is one that tool
// declares, so a removed flag cannot linger in the docs.
func TestDocFlagsDeclared(t *testing.T) {
	flags := declaredFlags(t)
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range docCommands(string(raw)) {
			for tool, used := range docInvocations(cmd) {
				declared, ok := flags[tool]
				if !ok {
					continue // bare mclab: its subcommand is not shown
				}
				for _, f := range used {
					checked++
					if !declared[f] {
						t.Errorf("%s: `%s` passes -%s, which %s does not declare", doc, strings.TrimSpace(cmd), f, tool)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no tool flags found in the docs")
	}
}

// docFigIDs returns the experiment IDs a command line passes to mcfig's
// -fig flag, as -fig ID or -fig=ID.
func docFigIDs(cmd string) []string {
	var ids []string
	mcfig, wantID := false, false
	for _, tok := range strings.Fields(cmd) {
		switch {
		case wantID:
			ids, wantID = append(ids, tok), false
		case strings.ContainsAny(tok[:1], "|&;>"):
			mcfig = false
		case docTool.MatchString(tok):
			mcfig = docTool.FindStringSubmatch(tok)[2] == "mcfig"
		case mcfig && tok == "-fig":
			wantID = true
		case mcfig && strings.HasPrefix(tok, "-fig="):
			ids = append(ids, strings.TrimPrefix(tok, "-fig="))
		}
	}
	return ids
}

// TestDocFigIDsRegistered: every experiment README.md, DESIGN.md and
// EXPERIMENTS.md show mcfig -fig rendering is one experiments.IDs() lists,
// so a renamed or deleted experiment cannot linger in the docs. The
// literal <id> placeholder is skipped.
func TestDocFigIDsRegistered(t *testing.T) {
	ids := experiments.IDs()
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range docCommands(string(raw)) {
			for _, id := range docFigIDs(cmd) {
				if id == "<id>" {
					continue
				}
				checked++
				if !slices.Contains(ids, id) {
					t.Errorf("%s: `%s` names experiment %q, which mcfig does not register (%s)", doc, strings.TrimSpace(cmd), id, strings.Join(ids, ", "))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no mcfig -fig invocations found in the docs")
	}
}

// docIdent matches a qualified Go name in a back-quoted span: pkg.Name or
// pkg.Type.Member. Name is exported, which leaves out file names
// (tesla.go) and metric names (netsim.sent).
var docIdent = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)

// goPackage is what one package declares: its package-level identifiers,
// and by type name the methods, fields and interface methods the type
// declares itself and the types it embeds.
type goPackage struct {
	names   map[string]bool
	members map[string]map[string]bool
	embeds  map[string][]ast.Expr
}

// internalPackages parses the non-test files of every package under
// internal/, by package name.
func internalPackages(t *testing.T) map[string]*goPackage {
	t.Helper()
	pkgs := make(map[string]*goPackage)
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := pkgs[f.Name.Name]
		if pkg == nil {
			pkg = &goPackage{names: map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]ast.Expr{}}
			pkgs[f.Name.Name] = pkg
		}
		pkg.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// add records f's declarations.
func (p *goPackage) add(f *ast.File) {
	member := func(typ, name string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		p.members[typ][name] = true
	}
	fields := func(typ string, list *ast.FieldList) {
		for _, fld := range list.List {
			for _, n := range fld.Names {
				member(typ, n.Name)
			}
			if len(fld.Names) == 0 {
				p.embeds[typ] = append(p.embeds[typ], fld.Type)
			}
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				p.names[decl.Name.Name] = true
			} else {
				member(typeName(decl.Recv.List[0].Type), decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					p.names[spec.Name.Name] = true
					switch typ := spec.Type.(type) {
					case *ast.StructType:
						fields(spec.Name.Name, typ.Fields)
					case *ast.InterfaceType:
						fields(spec.Name.Name, typ.Methods)
					}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						p.names[n.Name] = true
					}
				}
			}
		}
	}
}

// typeName is the name of a receiver or embedded type: T, *T, T[P] or
// pkg.T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// hasMember reports whether pkg's type typ has a method or field called
// name, its own or promoted from a type it embeds.
func hasMember(pkgs map[string]*goPackage, pkg, typ, name string) bool {
	p := pkgs[pkg]
	if p == nil {
		return false
	}
	if p.members[typ][name] {
		return true
	}
	for _, e := range p.embeds[typ] {
		innerPkg := pkg
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			innerPkg = sel.X.(*ast.Ident).Name
		}
		if inner := typeName(e); inner == name || hasMember(pkgs, innerPkg, inner, name) {
			return true
		}
	}
	return false
}

// TestDocIdentsResolve: every back-quoted pkg.Name or pkg.Type.Member the
// docs show, pkg a package under internal/, names a package-level
// identifier of pkg, or a method or field of that type, so a renamed or
// deleted API cannot linger in the docs, nor a method read as a function.
func TestDocIdentsResolve(t *testing.T) {
	pkgs := internalPackages(t)
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "internal/obs/README.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		prose, _ := docProse(string(raw))
		for _, span := range docSpan.FindAllStringSubmatchIndex(prose, -1) {
			text := prose[span[2]:span[3]]
			for _, m := range docIdent.FindAllStringSubmatchIndex(text, -1) {
				pkg, name := text[m[2]:m[3]], text[m[4]:m[5]]
				if pkgs[pkg] == nil {
					continue
				}
				checked++
				line := 1 + strings.Count(prose[:span[2]+m[0]], "\n")
				ref := text[m[0]:m[1]]
				switch {
				case m[6] < 0 && !pkgs[pkg].names[name]:
					t.Errorf("%s:%d: `%s`: %s declares no package-level %s", doc, line, ref, pkg, name)
				case m[6] >= 0 && !hasMember(pkgs, pkg, name, text[m[6]:m[7]]):
					t.Errorf("%s:%d: `%s`: %s.%s has no method or field %s", doc, line, ref, pkg, name, text[m[6]:m[7]])
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no internal package identifiers found in the docs")
	}
}

package mcauth

import (
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

// docCommands returns the command lines a markdown file shows: each
// back-quoted span, and each line of a fenced block with its shell
// comment cut off.
func docCommands(md string) []string {
	var out []string
	var prose strings.Builder
	fenced := false
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			if i := strings.Index(line, " #"); i >= 0 {
				line = line[:i]
			}
			out = append(out, line)
			continue
		}
		prose.WriteString(line)
		prose.WriteByte('\n')
	}
	for _, m := range docSpan.FindAllStringSubmatch(prose.String(), -1) {
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

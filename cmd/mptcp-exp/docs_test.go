package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"mptcp/internal/cc"
	"mptcp/internal/exp"
	"mptcp/internal/registry"
	"mptcp/internal/scenario"
	"mptcp/internal/sched"
	"mptcp/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the generated tables of DESIGN.md and README.md")

// root is the repository root, seen from this package's directory.
const root = "../.."

// generatedTables renders every table the documents carry between
// <!-- BEGIN generated: name --> and <!-- END generated: name -->
// markers, keyed by file and name. Each comes from the one place the
// code keeps it: package doc comments, a catalogue's registry.Info
// records, exp.Record's field comments and the CLI's flag set.
func generatedTables(t *testing.T) map[string]map[string]string {
	return map[string]map[string]string{
		"DESIGN.md": {
			"packages":    packageTable(t),
			"experiments": infoTable(exp.Infos(), "ID"),
			"controllers": infoTable(cc.Infos(), "algorithm"),
			"schedulers":  infoTable(sched.Infos(), "scheduler"),
			"scenarios":   infoTable(scenario.Infos(), "scenario"),
			"workloads":   infoTable(workload.Infos(), "workload"),
			"record":      recordTable(t),
		},
		"README.md": {"flags": flagTable()},
	}
}

// TestGeneratedDocs fails when a generated table in DESIGN.md or
// README.md differs from what the code says; -update rewrites them:
//
//	go test ./cmd/mptcp-exp -run TestGeneratedDocs -update
func TestGeneratedDocs(t *testing.T) {
	for file, tables := range generatedTables(t) {
		path := filepath.Join(root, file)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		for name, table := range tables {
			begin, end := "<!-- BEGIN generated: "+name+" -->\n", "<!-- END generated: "+name+" -->"
			i, j := strings.Index(text, begin), strings.Index(text, end)
			if i < 0 || j < i || strings.Count(text, begin) != 1 {
				t.Errorf("%s: want one %q ... %q block", file, strings.TrimSpace(begin), end)
				continue
			}
			if got := text[i+len(begin) : j]; got != table {
				if !*update {
					t.Errorf("%s: generated table %q is stale; run go test ./cmd/mptcp-exp -run TestGeneratedDocs -update\nhave:\n%s\nwant:\n%s", file, name, got, table)
				}
				text = text[:i+len(begin)] + table + text[j:]
			}
		}
		if *update && text != string(b) {
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// cell escapes s for a Markdown table cell.
func cell(s string) string { return strings.ReplaceAll(s, "|", `\|`) }

// infoTable renders a catalogue, one row per entry in catalogue order;
// a catalogue without aliases or provenance gets no column for them.
func infoTable(infos []registry.Info, noun string) string {
	aliases := slices.ContainsFunc(infos, func(in registry.Info) bool { return len(in.Aliases) > 0 })
	refs := slices.ContainsFunc(infos, func(in registry.Info) bool { return in.Ref != "" })
	head := []string{noun}
	if aliases {
		head = append(head, "aliases")
	}
	if refs {
		head = append(head, "origin")
	}
	head = append(head, "description")
	var sb strings.Builder
	fmt.Fprintf(&sb, "| %s |\n|%s\n", strings.Join(head, " | "), strings.Repeat("---|", len(head)))
	for _, in := range infos {
		row := []string{"`" + in.Name + "`"}
		if aliases {
			row = append(row, strings.Join(in.Aliases, ", "))
		}
		if refs {
			row = append(row, in.Ref)
		}
		row = append(row, in.Desc)
		for i := range row {
			row[i] = cell(row[i])
		}
		fmt.Fprintf(&sb, "| %s |\n", strings.Join(row, " | "))
	}
	return sb.String()
}

// packageTable renders every package under internal/ with its doc
// synopsis, parsed from the non-test sources. A package's doc comment
// must be one, open with "Package <name> " and end its first sentence
// with a period.
func packageTable(t *testing.T) string {
	var dirs []string
	if err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && d.Name() != "testdata" {
			dirs = append(dirs, path)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("| package | what it is |\n|---|---|\n")
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for name, pkg := range pkgs {
			var files []*ast.File
			for _, f := range pkg.Files {
				files = append(files, f)
			}
			slices.SortFunc(files, func(a, b *ast.File) int { return strings.Compare(fset.File(a.Pos()).Name(), fset.File(b.Pos()).Name()) })
			rel, _ := filepath.Rel(root, dir)
			d, err := doc.NewFromFiles(fset, files, "mptcp/"+filepath.ToSlash(rel))
			if err != nil {
				t.Fatal(err)
			}
			syn := d.Synopsis(d.Doc)
			if !strings.HasPrefix(d.Doc, "Package "+name+" ") || strings.Count(d.Doc, "Package "+name+" ") != 1 || !strings.HasSuffix(syn, ".") {
				t.Errorf("%s: want one package comment whose first sentence opens with \"Package %s \" and ends with a period; synopsis %q", rel, name, syn)
			}
			fmt.Fprintf(&sb, "| `%s` | %s |\n", filepath.ToSlash(rel), cell(syn))
		}
	}
	return sb.String()
}

// recordTable renders exp.Record's JSON fields from its source: the
// json tag, the Go type and the field's doc comment. Every field must
// have a comment, and the table must cover every field the encoder
// writes.
func recordTable(t *testing.T) string {
	src, err := os.ReadFile(filepath.Join(root, "internal/exp/exp.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "exp.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var st *ast.StructType
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "Record" {
			st, _ = ts.Type.(*ast.StructType)
		}
		return st == nil
	})
	if st == nil {
		t.Fatal("no exp.Record struct in internal/exp/exp.go")
	}
	var sb strings.Builder
	sb.WriteString("| field | type | meaning |\n|---|---|---|\n")
	n := 0
	for _, fld := range st.Fields.List {
		tag := reflect.StructTag(strings.Trim(fld.Tag.Value, "`")).Get("json")
		key, opts, _ := strings.Cut(tag, ",")
		text := strings.Join(strings.Fields(fld.Doc.Text()), " ")
		if text == "" || len(fld.Names) != 1 {
			t.Errorf("exp.Record: field %s needs one name and a doc comment", key)
		}
		typ := string(src[fset.Position(fld.Type.Pos()).Offset:fset.Position(fld.Type.End()).Offset])
		if opts == "omitempty" {
			typ += ", optional"
		}
		fmt.Fprintf(&sb, "| `%s` | %s | %s |\n", key, typ, cell(text))
		n++
	}
	if want := reflect.TypeOf(exp.Record{}).NumField(); n != want {
		t.Errorf("exp.Record table has %d fields, the type %d", n, want)
	}
	return sb.String()
}

// flagTable renders mptcp-exp's flags, as newFlags declares them.
func flagTable() string {
	var sb strings.Builder
	sb.WriteString("| flag | default | meaning |\n|---|---|---|\n")
	newFlags(&options{}).VisitAll(func(f *flag.Flag) {
		arg, usage := flag.UnquoteUsage(f)
		def := ""
		if f.DefValue != "" && f.DefValue != "false" {
			def = "`" + f.DefValue + "`"
		}
		fmt.Fprintf(&sb, "| `-%s` | %s | %s |\n", strings.TrimSpace(f.Name+" "+arg), def, cell(usage))
	})
	return sb.String()
}

// TestDocCrossReferences: every DESIGN.md §<n> and §"<title>" cited in
// the code, the documents that describe the present and CI names a
// heading DESIGN.md has. CHANGES.md is history and keeps the numbers it
// was written with.
func TestDocCrossReferences(t *testing.T) {
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	numbers, titles := map[string]bool{}, map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^#+ (?:(\d+[a-z]?)\. )?(.+)$`).FindAllStringSubmatch(string(design), -1) {
		numbers[m[1]], titles[m[2]] = true, true
	}
	byNumber := regexp.MustCompile(`DESIGN\.md(?:\s|//|#)*§(\d+[a-z]?)`)
	byTitle := regexp.MustCompile(`§"([^"]+)"`)
	check := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range byNumber.FindAllStringSubmatch(string(b), -1) {
			if !numbers[m[1]] {
				t.Errorf("%s cites DESIGN.md §%s, which has no such section", path, m[1])
			}
		}
		for _, m := range byTitle.FindAllStringSubmatch(string(b), -1) {
			if !titles[strings.Join(strings.Fields(m[1]), " ")] {
				t.Errorf("%s cites §%q, which DESIGN.md has no heading for", path, m[1])
			}
		}
	}
	for _, f := range []string{"README.md", "TESTING.md", "ROADMAP.md", "DESIGN.md"} {
		check(filepath.Join(root, f))
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && strings.HasPrefix(d.Name(), ".") && d.Name() != ".github" && d.Name() != ".claude" && path != root:
			return filepath.SkipDir
		case d.Name() == "docs_test.go": // its own patterns would read as citations
		case !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.Contains(path, ".github/workflows/") || strings.Contains(path, ".claude/skills/")):
			check(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

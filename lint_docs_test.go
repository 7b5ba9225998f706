package dragonvar

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dragonvar/internal/telemetry"
)

// skipDirs are directories the doc-lint walks never descend into.
var skipDirs = map[string]bool{".git": true, "testdata": true, "docs": true, "plots": true, "csv": true}

// goPackageDirs returns every directory in the repository containing
// non-test Go files.
func goPackageDirs(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDirs[d.Name()] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// TestPackageDocComments requires every package in the repository to carry
// a godoc package comment on at least one of its files.
func TestPackageDocComments(t *testing.T) {
	for _, dir := range goPackageDirs(t) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		documented := false
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, e.Name()), nil,
				parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if !documented {
			t.Errorf("package %s has no doc comment on any file", dir)
		}
	}
}

// markdownFiles lists the documentation the link checker covers: every
// top-level *.md plus everything under docs/.
func markdownFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, pattern := range []string{"*.md", "docs/*.md"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found; is the test running at the repo root?")
	}
	return files
}

var mdLink = regexp.MustCompile(`\[[^][]*\]\(([^()\s]+)\)`)

// TestMarkdownLinks resolves every intra-repository markdown link in the
// README and docs/ against the filesystem. External links (http, https,
// mailto) are skipped; fragments are stripped before the stat.
func TestMarkdownLinks(t *testing.T) {
	for _, md := range markdownFiles(t) {
		blob, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(blob), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" { // pure fragment: links within the same file
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved to %s)", md, m[1], resolved)
			}
		}
	}
}

// TestPerformanceDocCoverage keeps the performance docs in sync with the
// benchmark manifest: every workload and end-to-end metric BENCHMARK.json
// names must be documented in docs/PERFORMANCE.md, and every per-layer
// metric in perfbench/README.md, so a renamed or added metric can't go
// undocumented.
func TestPerformanceDocCoverage(t *testing.T) {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var manifest struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &manifest); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(manifest.Workloads) == 0 || len(manifest.EndToEnd) == 0 || len(manifest.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json names no workload, end-to-end or per-layer metric")
	}
	for doc, names := range map[string][]named{
		"docs/PERFORMANCE.md": append(manifest.Workloads, manifest.EndToEnd...),
		"perfbench/README.md": manifest.PerLayer,
	} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if !strings.Contains(string(text), "`"+n.Name+"`") {
				t.Errorf("%q from BENCHMARK.json not documented in %s", n.Name, doc)
			}
		}
	}
}

// TestObservabilityDocCoverage keeps docs/OBSERVABILITY.md in sync with
// the telemetry name registry: every metric and span the repository can
// emit must be documented.
func TestObservabilityDocCoverage(t *testing.T) {
	blob, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(blob)
	for _, name := range telemetry.AllMetricNames {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("metric %q not documented in docs/OBSERVABILITY.md", name)
		}
	}
	for _, name := range telemetry.AllSpanNames {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("span %q not documented in docs/OBSERVABILITY.md", name)
		}
	}
}

// metricCatalogue parses internal/telemetry/names.go and returns the string
// value of every constant plus the constant names AllMetricNames lists, in
// order.
func metricCatalogue(t *testing.T) (values map[string]string, listed []string) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "internal/telemetry/names.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	values = map[string]string{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, id := range vs.Names {
				if i >= len(vs.Values) {
					continue
				}
				switch v := vs.Values[i].(type) {
				case *ast.BasicLit:
					if gd.Tok == token.CONST && v.Kind == token.STRING {
						values[id.Name], _ = strconv.Unquote(v.Value)
					}
				case *ast.CompositeLit:
					if id.Name != "AllMetricNames" {
						continue
					}
					for _, e := range v.Elts {
						ident, ok := e.(*ast.Ident)
						if !ok {
							t.Fatalf("AllMetricNames element %T is not a constant", e)
						}
						listed = append(listed, ident.Name)
					}
				}
			}
		}
	}
	return values, listed
}

// metricReaders concatenates every file that counts as a metric reader:
// the _test.go files outside internal/telemetry and the Go files under
// perfbench/. This file is left out so its own text cannot satisfy itself.
func metricReaders(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || path == filepath.Join("internal", "telemetry") {
				return filepath.SkipDir
			}
			return nil
		}
		reader := strings.HasSuffix(path, "_test.go") ||
			(strings.HasPrefix(path, "perfbench"+string(filepath.Separator)) && strings.HasSuffix(path, ".go"))
		if !reader || path == "lint_docs_test.go" {
			return nil
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		b.Write(blob)
		b.WriteByte('\n')
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// promUnsafe matches the characters the OpenMetrics exposition rewrites to
// '_' (see promName in internal/telemetry).
var promUnsafe = regexp.MustCompile(`[^a-zA-Z0-9_:]`)

// TestMetricNamesHaveReaders keeps the telemetry catalogue to what is
// read: every name in AllMetricNames must be read by a test outside
// internal/telemetry or by perfbench — through its constant, its string,
// or its OpenMetrics form (histograms also through their _bucket, _count
// and _sum series). A metric nobody reads is cost without signal; remove
// it, or add the test that reads it.
func TestMetricNamesHaveReaders(t *testing.T) {
	values, listed := metricCatalogue(t)
	if len(listed) != len(telemetry.AllMetricNames) {
		t.Fatalf("parsed %d AllMetricNames entries from names.go, the package has %d",
			len(listed), len(telemetry.AllMetricNames))
	}
	corpus := metricReaders(t)
	for i, c := range listed {
		name, ok := values[c]
		if !ok || name != telemetry.AllMetricNames[i] {
			t.Fatalf("AllMetricNames[%d]: parsed %s = %q, package has %q", i, c, name, telemetry.AllMetricNames[i])
		}
		read := regexp.MustCompile(`\btelemetry\.` + c + `\b` +
			`|"` + regexp.QuoteMeta(name) + `"` +
			`|\b` + regexp.QuoteMeta(promUnsafe.ReplaceAllString(name, "_")) + `(_bucket|_count|_sum)?\b`)
		if !read.MatchString(corpus) {
			t.Errorf("metric %s (%q) has no reader: no test outside internal/telemetry and no perfbench file reads it", c, name)
		}
	}
}

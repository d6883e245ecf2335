package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHeadingSlug(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Simple Heading", "simple-heading"},
		{"Error taxonomy → status codes", "error-taxonomy--status-codes"},
		{"`cmd/simd` HTTP API", "cmdsimd-http-api"},
		{"SoI+k-switch (§4.2, Eq 2)", "soik-switch-42-eq-2"},
		{"-randomwake (modifier)", "-randomwake-modifier"},
		{"With [a link](docs/API.md) inside", "with-a-link-inside"},
	}
	for _, c := range cases {
		if got := HeadingSlug(c.in); got != c.want {
			t.Errorf("HeadingSlug(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestMdAnchorsDuplicatesAndFences(t *testing.T) {
	src := []byte("# Top\n## Dup\n## Dup\n```\n# not a heading\n```\n## Dup\n")
	a := mdAnchors(src)
	for _, want := range []string{"top", "dup", "dup-1", "dup-2"} {
		if !a[want] {
			t.Errorf("anchor %q missing from %v", want, a)
		}
	}
	if a["not-a-heading"] {
		t.Error("heading inside a code fence was indexed")
	}
}

// writeTree lays out a throwaway doc tree and returns its root and the
// paths of its markdown files.
func writeTree(t *testing.T, files map[string]string) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	var out []string
	for name, body := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(name, ".md") {
			out = append(out, p)
		}
	}
	return dir, out
}

func TestCheckMarkdownLinksClean(t *testing.T) {
	_, files := writeTree(t, map[string]string{
		"README.md": "# Readme\n\nSee [docs](docs/GUIDE.md#part-two) and [self](#readme).\n" +
			"External [site](https://example.com/x#y) is skipped.\n" +
			"```\n[broken](inside/fence.md) is ignored\n```\n",
		"docs/GUIDE.md": "# Guide\n## Part One\n## Part Two\n\nBack to [readme](../README.md).\n",
	})
	problems, err := CheckMarkdownLinks(files)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("clean tree reported problems: %v", problems)
	}
}

func TestCheckMarkdownLinksBroken(t *testing.T) {
	_, files := writeTree(t, map[string]string{
		"README.md":     "# Readme\n\n[gone](docs/MISSING.md)\n[bad anchor](docs/GUIDE.md#nope)\n[bad self](#nothere)\n",
		"docs/GUIDE.md": "# Guide\n",
	})
	problems, err := CheckMarkdownLinks(files)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 3 {
		t.Fatalf("want 3 problems, got %d: %v", len(problems), problems)
	}
	for _, want := range []string{"MISSING.md", "#nope", "#nothere"} {
		found := false
		for _, p := range problems {
			if strings.Contains(p, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no problem mentions %q: %v", want, problems)
		}
	}
	// Every problem carries file:line so CI output is clickable.
	for _, p := range problems {
		if !strings.Contains(p, "README.md:") {
			t.Errorf("problem without file:line prefix: %q", p)
		}
	}
}

// TestRepoDocsLinksAreValid runs the checker over the repo's real docs —
// the same invocation the CI lint step uses via cmd/mdcheck.
func TestRepoDocsLinksAreValid(t *testing.T) {
	root := "../.."
	files := []string{filepath.Join(root, "README.md")}
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)
	if len(files) < 4 {
		t.Fatalf("expected README + ≥3 docs files, found %v", files)
	}
	problems, err := CheckMarkdownLinks(files)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestCheckGoDocRefs(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string // problems, after the Go file's path
	}{
		{"root-relative doc", "// See docs/API.md.\npackage sub\n", nil},
		{"package-relative doc", "// NOTES.md has the details.\npackage sub\n", nil},
		{"parent-relative doc", "// See ../../README.md#intro.\npackage sub\n", nil},
		{"missing doc", "package sub\n\n// See DESIGN.md for the mapping.\nvar x int\n",
			[]string{":3: comment names DESIGN.md, which does not exist"}},
		{"missing doc on a later line of a block comment", "/*\nIntro.\nSee docs/GONE.md.\n*/\npackage sub\n",
			[]string{":3: comment names docs/GONE.md, which does not exist"}},
		{"two names on one line", "// A.md, then NOTES.md, then B.md\npackage sub\n",
			[]string{":1: comment names A.md, which does not exist", ":1: comment names B.md, which does not exist"}},
		{"string literal is not a comment", "package sub\n\nvar s = \"GONE.md\"\n", nil},
		{"URLs and globs are skipped", "// https://example.com/GONE.md lists *.md files\npackage sub\n", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir, _ := writeTree(t, map[string]string{
				"README.md":        "# Intro\n",
				"docs/API.md":      "# API\n",
				"pkg/sub/NOTES.md": "# Notes\n",
				"pkg/sub/x.go":     c.src,
			})
			goFile := filepath.Join(dir, "pkg", "sub", "x.go")
			problems, err := CheckGoDocRefs([]string{goFile})
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, p := range problems {
				got = append(got, strings.TrimPrefix(p, goFile))
			}
			if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
				t.Errorf("problems = %q, want %q", got, c.want)
			}
		})
	}
}

// TestRepoGoDocRefsAreValid runs the comment check over the repo's own Go
// files, as the CI lint step does.
func TestRepoGoDocRefsAreValid(t *testing.T) {
	var files []string
	err := filepath.WalkDir("../..", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "../.." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(p, ".go") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	problems, err := CheckGoDocRefs(files)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

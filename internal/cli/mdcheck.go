package cli

import (
	"fmt"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Markdown link-and-anchor checking for the repo's docs (README + docs/),
// dependency-free so CI can run it with a bare `go run`. The checker
// resolves every inline link of the form [text](target):
//
//   - http(s)/mailto links are skipped (CI must not depend on the network);
//   - relative paths must exist on disk, resolved against the linking
//     file's directory;
//   - fragments (#anchor, alone or after a path) must match a heading of
//     the target markdown file, using GitHub's slug rules (lowercase,
//     spaces to dashes, punctuation dropped, -N suffixes for duplicates).
//
// It is deliberately a linter, not a parser: links inside fenced code
// blocks are ignored, reference-style links ([text][ref]) are not used in
// this repo and therefore not resolved.
//
// Go comments get the same care (CheckGoDocRefs): a comment that names a
// markdown file must name one that exists.

// mdLink is one checkable link occurrence.
type mdLink struct {
	file   string // markdown file the link appears in
	line   int    // 1-based line number
	target string // raw link target, e.g. "../README.md#spec-schema"
}

var (
	// inlineLink matches [text](target); targets with spaces or nested
	// parens don't occur in this repo's docs and are out of scope.
	inlineLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	// atxHeading matches #-style headings; Setext headings are unused here.
	atxHeading = regexp.MustCompile(`^#{1,6}\s+(.*?)\s*#*\s*$`)
	// slugDrop strips everything GitHub's anchor algorithm drops: anything
	// that is not a letter, digit, space, dash or underscore.
	slugDrop = regexp.MustCompile(`[^\p{L}\p{N} _-]`)
	// mdSpan strips inline markup from heading text before slugging:
	// emphasis and code fences around words, and the label part of links.
	mdSpan = regexp.MustCompile("[`*]|\\[([^\\]]*)\\]\\([^)]*\\)")
	// mdName matches a markdown file name in comment text: a path ending
	// in ".md". It takes in ':' only so that URLs match whole and can be
	// skipped; a glob such as "*.md" does not match.
	mdName = regexp.MustCompile(`[\w.:/-]*[\w-]\.md\b`)
)

// HeadingSlug returns the GitHub anchor for a heading's text: markup
// stripped, lowercased, punctuation dropped, spaces dashed. Duplicate
// handling (-1, -2, …) is the caller's job since it needs document scope.
func HeadingSlug(text string) string {
	text = mdSpan.ReplaceAllString(text, "$1")
	text = slugDrop.ReplaceAllString(text, "")
	text = strings.ToLower(strings.TrimSpace(text))
	return strings.ReplaceAll(text, " ", "-")
}

// mdAnchors returns the set of valid anchors of one markdown source,
// applying GitHub's duplicate rule: the second "foo" heading anchors as
// foo-1, the third as foo-2.
func mdAnchors(src []byte) map[string]bool {
	anchors := map[string]bool{}
	seen := map[string]int{}
	inFence := false
	for _, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		m := atxHeading.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		slug := HeadingSlug(m[1])
		if n := seen[slug]; n > 0 {
			anchors[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			anchors[slug] = true
		}
		seen[slug]++
	}
	return anchors
}

// mdLinks extracts the checkable links of one markdown source, skipping
// fenced code blocks and external schemes.
func mdLinks(file string, src []byte) []mdLink {
	var out []mdLink
	inFence := false
	for i, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range inlineLink.FindAllStringSubmatch(line, -1) {
			t := m[1]
			if strings.HasPrefix(t, "http://") || strings.HasPrefix(t, "https://") ||
				strings.HasPrefix(t, "mailto:") {
				continue
			}
			out = append(out, mdLink{file: file, line: i + 1, target: t})
		}
	}
	return out
}

// CheckMarkdownLinks verifies every relative link and anchor of the given
// markdown files and returns one "file:line: problem" string per broken
// link, sorted. Anchor targets pointing at non-markdown files are only
// checked for existence.
func CheckMarkdownLinks(files []string) ([]string, error) {
	srcs := map[string][]byte{}
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		srcs[f] = buf
	}
	anchorCache := map[string]map[string]bool{}
	anchorsOf := func(path string) (map[string]bool, error) {
		if a, ok := anchorCache[path]; ok {
			return a, nil
		}
		buf, ok := srcs[path]
		if !ok {
			var err error
			if buf, err = os.ReadFile(path); err != nil {
				return nil, err
			}
		}
		a := mdAnchors(buf)
		anchorCache[path] = a
		return a, nil
	}

	var problems []string
	bad := func(l mdLink, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("%s:%d: %s", l.file, l.line, fmt.Sprintf(format, args...)))
	}
	for _, f := range files {
		for _, l := range mdLinks(f, srcs[f]) {
			path, frag, _ := strings.Cut(l.target, "#")
			resolved := f // self-reference for pure fragments
			if path != "" {
				resolved = filepath.Join(filepath.Dir(f), path)
				if _, err := os.Stat(resolved); err != nil {
					bad(l, "broken link %q: %s does not exist", l.target, resolved)
					continue
				}
			}
			if frag == "" {
				continue
			}
			if !strings.HasSuffix(resolved, ".md") {
				bad(l, "anchor %q on non-markdown target %q", frag, path)
				continue
			}
			anchors, err := anchorsOf(resolved)
			if err != nil {
				return nil, err
			}
			if !anchors[frag] {
				bad(l, "broken anchor %q: no heading in %s slugs to it", l.target, resolved)
			}
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// CheckGoDocRefs reads the comments of the given Go files and returns one
// "file:line: problem" string for every markdown file a comment names that
// does not exist. A name resolves when it exists relative to the Go file's
// directory or any directory above it, so a package's own README.md and a
// repository-root docs/API.md both resolve. URLs are skipped.
func CheckGoDocRefs(files []string) ([]string, error) {
	var problems []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		fset := token.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(f, -1, len(src)), src, nil, scanner.ScanComments)
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok != token.COMMENT {
				continue
			}
			line := fset.Position(pos).Line
			for i, text := range strings.Split(lit, "\n") {
				for _, name := range mdName.FindAllString(text, -1) {
					if !strings.Contains(name, "://") && !existsAbove(filepath.Dir(f), name) {
						problems = append(problems, fmt.Sprintf("%s:%d: comment names %s, which does not exist", f, line+i, name))
					}
				}
			}
		}
	}
	return problems, nil
}

// existsAbove reports whether name exists relative to dir or any
// directory above it.
func existsAbove(dir, name string) bool {
	for {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
		up := filepath.Dir(dir)
		if up == dir {
			return false
		}
		dir = up
	}
}

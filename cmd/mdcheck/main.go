// Command mdcheck validates the repo's markdown cross-references: every
// relative link must point at an existing file and every #fragment at a
// real heading (GitHub slug rules), and every markdown file a Go comment
// names must exist. CI runs it over README.md, docs/ and every tracked Go
// file as a lint step; it needs no dependencies and no network.
//
// Usage: mdcheck FILE [FILE ...]
//
// Files ending in .go are scanned for comments naming markdown files; any
// other file is checked as markdown. Exit status 0 when every reference
// resolves, 1 with one "file:line: problem" diagnostic per broken one
// otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"insomnia/internal/cli"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mdcheck FILE [FILE ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var docs, code []string
	for _, f := range flag.Args() {
		if strings.HasSuffix(f, ".go") {
			code = append(code, f)
		} else {
			docs = append(docs, f)
		}
	}
	problems, err := cli.CheckMarkdownLinks(docs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdcheck: %v\n", err)
		os.Exit(2)
	}
	refs, err := cli.CheckGoDocRefs(code)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdcheck: %v\n", err)
		os.Exit(2)
	}
	problems = append(problems, refs...)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "mdcheck: %d broken reference(s)\n", len(problems))
		os.Exit(1)
	}
}

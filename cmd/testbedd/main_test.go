package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestRejectsStrayArguments: `testbedd 5 -minutes 1` stops flag parsing
// at `5`; it must exit 2 with a usage message, not run the default
// 30-minute experiment.
func TestRejectsStrayArguments(t *testing.T) {
	buf, err := exec.Command("go", "run", ".", "5", "-minutes", "1").CombinedOutput()
	s := string(buf)
	if err == nil {
		t.Fatalf("testbedd 5 -minutes 1 must exit non-zero; output:\n%s", s)
	}
	// `go run` itself exits 1 but reports the child's status on stderr.
	if !strings.Contains(s, "exit status 2") {
		t.Errorf("want exit status 2, got:\n%s", s)
	}
	if !strings.Contains(s, "unexpected argument") || !strings.Contains(s, "Usage") {
		t.Errorf("expected an unexpected-argument error and a usage message, got:\n%s", s)
	}
}

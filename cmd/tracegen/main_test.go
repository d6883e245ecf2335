package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsStrayArguments: `tracegen sim -csv t.csv` (instead of
// `tracegen -profile sim -csv t.csv`) stops flag parsing at `sim`; it must
// exit 2 with a usage message, not print the default office statistics
// and write no file.
func TestRejectsStrayArguments(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.csv")
	buf, err := exec.Command("go", "run", ".", "sim", "-csv", out).CombinedOutput()
	s := string(buf)
	if err == nil {
		t.Fatalf("tracegen sim -csv %s must exit non-zero; output:\n%s", out, s)
	}
	// `go run` itself exits 1 but reports the child's status on stderr.
	if !strings.Contains(s, "exit status 2") {
		t.Errorf("want exit status 2, got:\n%s", s)
	}
	if !strings.Contains(s, "unexpected argument") || !strings.Contains(s, "Usage") {
		t.Errorf("expected an unexpected-argument error and a usage message, got:\n%s", s)
	}
	if _, err := os.Stat(out); err == nil {
		t.Errorf("rejected invocation wrote %s", out)
	}
}

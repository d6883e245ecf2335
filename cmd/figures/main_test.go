package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestRejectsStrayArguments pins the CLI contract: `figures 10` (instead
// of `figures -fig 10`) and an unknown figure id must exit non-zero with a
// usage message, not silently regenerate everything with defaults or
// nothing at all.
func TestRejectsStrayArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"10"}, "unexpected argument"},
		{[]string{"-fig", "11"}, `unknown -fig "11"`},
	} {
		out, err := exec.Command("go", append([]string{"run", "."}, tc.args...)...).CombinedOutput()
		if err == nil {
			t.Fatalf("figures %v must exit non-zero; output:\n%s", tc.args, out)
		}
		s := string(out)
		// `go run` itself exits 1 but reports the child's status on stderr.
		if !strings.Contains(s, "exit status 2") {
			t.Errorf("figures %v: want exit status 2, got:\n%s", tc.args, s)
		}
		if !strings.Contains(s, tc.want) || !strings.Contains(s, "Usage") {
			t.Errorf("figures %v: expected %q and a usage message, got:\n%s", tc.args, tc.want, s)
		}
	}
}

package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runCampaign execs the CLI via `go run`, which exits 1 on any child
// failure but reports the child's status on stderr; failed reports the
// "exit status 2" marker so tests can pin the usage-error exit code.
func runCampaign(t *testing.T, args ...string) (out string, failed bool) {
	t.Helper()
	buf, err := exec.Command("go", append([]string{"run", "."}, args...)...).CombinedOutput()
	out = string(buf)
	if err != nil && !strings.Contains(out, "exit status") {
		t.Fatalf("running campaign: %v\n%s", err, out)
	}
	return out, strings.Contains(out, "exit status 2")
}

func TestUnknownSubcommand(t *testing.T) {
	out, failed := runCampaign(t, "rnu", "spec.yaml")
	if !failed || !strings.Contains(out, "unknown command") || !strings.Contains(out, "usage") {
		t.Errorf("unknown subcommand: failed=%v, output:\n%s", failed, out)
	}
}

func TestMissingSpec(t *testing.T) {
	out, failed := runCampaign(t, "run")
	if !failed || !strings.Contains(out, "missing spec") {
		t.Errorf("missing spec: failed=%v, output:\n%s", failed, out)
	}
}

func TestStrayArgument(t *testing.T) {
	out, failed := runCampaign(t, "check", "../../examples/campaign/spec.yaml", "extra")
	if !failed || !strings.Contains(out, "unexpected argument") {
		t.Errorf("stray arg: failed=%v, output:\n%s", failed, out)
	}
}

// TestUnknownCollapseMode: a misspelt -collapse exits 1 with the campaign
// package's error, before simulating anything or creating -out.
func TestUnknownCollapseMode(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	out, _ := runCampaign(t, "run", "-collapse", "of", "-out", dir, "../../examples/campaign/spec.yaml")
	if !strings.Contains(out, "exit status 1") || !strings.Contains(out, `unknown collapse mode "of"`) {
		t.Errorf("-collapse of: output:\n%s", out)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("rejected run left %s behind (stat: %v)", dir, err)
	}
}

// TestCheckExampleSpec keeps the committed example spec parseable: check
// compiles it and prints the plan without simulating.
func TestCheckExampleSpec(t *testing.T) {
	out, failed := runCampaign(t, "check", "../../examples/campaign/spec.yaml")
	if failed || strings.Contains(out, "exit status") {
		t.Fatalf("check failed:\n%s", out)
	}
	if !strings.Contains(out, "metro-flash-crowd") || !strings.Contains(out, "12 cell(s)") {
		t.Errorf("unexpected plan output:\n%s", out)
	}
}

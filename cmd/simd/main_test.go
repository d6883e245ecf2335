package main

import (
	"bufio"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildSimd compiles the command into a temp dir and returns the binary.
func buildSimd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "simd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSIGTERMShutsDownCleanly pins the container contract: `docker stop`
// sends SIGTERM, and simd must cancel its jobs and drain HTTP on it as it
// does on Ctrl-C, exiting 0 instead of dying with the signal.
func TestSIGTERMShutsDownCleanly(t *testing.T) {
	cmd := exec.Command(buildSimd(t), "-addr", "127.0.0.1:0", "-data", t.TempDir())
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	defer func() {
		// On a failed check the server may still run: stop it and let the
		// reader reach EOF.
		cmd.Process.Kill()
		for range lines {
		}
	}()
	var logged []string
	deadline := time.After(30 * time.Second)
	for listening := false; !listening; {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatalf("simd exited before listening:\n%s", strings.Join(logged, "\n"))
			}
			logged = append(logged, l)
			listening = strings.Contains(l, "listening")
		case <-deadline:
			t.Fatalf("no listening line within 30 s:\n%s", strings.Join(logged, "\n"))
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for l := range lines {
		logged = append(logged, l)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("simd after SIGTERM: %v, want exit 0; logged:\n%s", err, strings.Join(logged, "\n"))
	}
	if !strings.Contains(strings.Join(logged, "\n"), "shut down; unfinished jobs resume on restart") {
		t.Errorf("no shutdown line after SIGTERM; logged:\n%s", strings.Join(logged, "\n"))
	}
}

// TestRejectsStrayArguments: `simd 8080` (instead of `simd -addr :8080`)
// must exit 2 with a usage message, not start serving. A server that
// ignores the argument is killed after 30 s and fails the check.
func TestRejectsStrayArguments(t *testing.T) {
	bin := buildSimd(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-data", t.TempDir(), "8080").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("simd 8080: %v, want exit status 2; output:\n%s", err, out)
	}
	if s := string(out); !strings.Contains(s, "unexpected argument") || !strings.Contains(s, "Usage") {
		t.Errorf("simd 8080: expected an unexpected-argument error and a usage message, got:\n%s", s)
	}
}

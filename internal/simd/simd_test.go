package simd

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"insomnia/internal/campaign"
	"insomnia/internal/dsl"
	"insomnia/internal/runner"
)

// testSpec is small enough for fast lifecycle tests: 2 schemes x 2 seeds
// of a 1-hour office scenario = 4 cells, every artifact kind.
const testSpec = `
name: simd-unit
schemes: [no-sleep, SoI]
seeds: [1, 2]
duration: 3600
trace:
  profile: office
  clients: 48
  gateways: 8
topology:
  kind: overlap
  mean_in_range: 5
outputs: [summary, json, power]
`

// slowSpec runs its cells one at a time (workers: 1) with enough of them
// that a prompt cancel or kill lands mid-run, between checkpoints.
const slowSpec = `
name: simd-slow
workers: 1
schemes: [no-sleep, SoI, SoI+k-switch, BH2+k-switch]
seeds: [1, 2, 3]
duration: 14400
trace:
  profile: residential
  clients: 240
  gateways: 60
topology:
  kind: grid-city
  mean_in_range: 4.5
outputs: [summary, json]
`

func newTestServer(t *testing.T, dataDir string, budget *runner.Budget) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(context.Background(), dataDir, budget)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs
}

func submit(t *testing.T, baseURL, spec string) Status {
	t.Helper()
	st, code := submitRaw(t, baseURL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", code)
	}
	return st
}

func submitRaw(t *testing.T, baseURL, spec string) (Status, int) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/campaigns", "application/yaml", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, baseURL, id string) Status {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: got %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls the status endpoint until the job leaves "running".
func waitState(t *testing.T, baseURL, id string) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := getStatus(t, baseURL, id)
		if st.State != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after 2m", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// readSSE consumes the events stream until the done event, returning the
// row events in arrival order and the closing status.
func readSSE(t *testing.T, baseURL, id string) ([]campaign.RowEvent, Status) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var (
		rows  []campaign.RowEvent
		final Status
		event string
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "row":
				var ev campaign.RowEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad row event %q: %v", data, err)
				}
				rows = append(rows, ev)
			case "done":
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("bad done event %q: %v", data, err)
				}
				return rows, final
			}
		}
	}
	t.Fatalf("events stream ended without done event (read %d rows): %v", len(rows), sc.Err())
	return nil, Status{}
}

func getArtifact(t *testing.T, baseURL, id, name string) (string, int) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/campaigns/" + id + "/artifacts/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf), resp.StatusCode
}

// directArtifacts runs the spec through the campaign API directly — what
// cmd/campaign does — and returns the artifact bytes by name.
func directArtifacts(t *testing.T, specText string) map[string]string {
	t.Helper()
	spec, err := dsl.ParseSpec([]byte(specText))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	job, err := campaign.Submit(context.Background(), spec, campaign.Options{OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, a := range res.Artifacts {
		buf, err := os.ReadFile(a)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(a)] = string(buf)
	}
	return out
}

// TestServerLifecycle is the end-to-end contract: submit a spec, stream
// its rows over SSE in cell order, and collect artifacts byte-identical
// to a direct cmd/campaign-style run of the same spec.
func TestServerLifecycle(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir(), nil)
	st := submit(t, hs.URL, testSpec)
	if st.ID == "" || st.State != "running" || st.Cells != 4 {
		t.Fatalf("unexpected submit status: %+v", st)
	}

	rows, final := readSSE(t, hs.URL, st.ID)
	if len(rows) != 4 {
		t.Fatalf("got %d row events, want 4", len(rows))
	}
	for i, ev := range rows {
		if ev.Index != i {
			t.Errorf("row %d has index %d: events must arrive in cell order", i, ev.Index)
		}
		if ev.Err != "" || ev.Row == nil {
			t.Errorf("row %d: unexpected failure %q", i, ev.Err)
		}
		if ev.Total != 4 {
			t.Errorf("row %d: total %d, want 4", i, ev.Total)
		}
	}
	if final.State != "done" || final.Done != 4 {
		t.Fatalf("final status %+v, want done 4/4", final)
	}

	// A second subscriber after completion replays the identical stream.
	replay, _ := readSSE(t, hs.URL, st.ID)
	if len(replay) != len(rows) {
		t.Fatalf("replay delivered %d events, want %d", len(replay), len(rows))
	}

	want := directArtifacts(t, testSpec)
	if len(want) != 3 {
		t.Fatalf("direct run wrote %d artifacts, want 3", len(want))
	}
	for name, body := range want {
		got, code := getArtifact(t, hs.URL, st.ID, name)
		if code != http.StatusOK {
			t.Fatalf("artifact %s: got %d", name, code)
		}
		if got != body {
			t.Errorf("artifact %s differs from direct campaign run", name)
		}
	}
}

// TestServerSymmetricExample is the acceptance end-to-end: POST the real
// examples/campaign/symmetric.yaml (10,000 terminals on a 2,000-gateway
// grid, collapsed to 3 classes) and prove the served artifacts are
// byte-identical to a cmd/campaign-style run of the same spec.
func TestServerSymmetricExample(t *testing.T) {
	specBytes, err := os.ReadFile(filepath.Join("..", "..", "examples", "campaign", "symmetric.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, t.TempDir(), nil)
	st := submit(t, hs.URL, string(specBytes))
	final := waitState(t, hs.URL, st.ID)
	if final.State != "done" {
		t.Fatalf("job finished %q (%s), want done", final.State, final.Error)
	}
	if len(final.Collapsed) == 0 {
		t.Fatal("symmetric metro did not report a collapse")
	}
	want := directArtifacts(t, string(specBytes))
	if len(want) == 0 {
		t.Fatal("direct run wrote no artifacts")
	}
	for name, body := range want {
		got, code := getArtifact(t, hs.URL, st.ID, name)
		if code != http.StatusOK {
			t.Fatalf("artifact %s: got %d", name, code)
		}
		if got != body {
			t.Errorf("artifact %s differs from direct campaign run", name)
		}
	}
}

// TestServerErrorMapping pins the error taxonomy -> HTTP status mapping.
func TestServerErrorMapping(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir(), nil)
	if _, code := submitRaw(t, hs.URL, "schemes: [warp-drive]\ntrace: {clients: 10, gateways: 5}"); code != http.StatusBadRequest {
		t.Errorf("unknown scheme: got %d, want 400", code)
	}
	if _, code := submitRaw(t, hs.URL, "{not yaml: ["); code != http.StatusBadRequest {
		t.Errorf("malformed spec: got %d, want 400", code)
	}
	resp, err := http.Get(hs.URL + "/v1/campaigns/c9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: got %d, want 404", resp.StatusCode)
	}
	st := submit(t, hs.URL, slowSpec)
	if _, code := getArtifact(t, hs.URL, st.ID, "summary.csv"); code != http.StatusConflict {
		t.Errorf("artifact while running: got %d, want 409", code)
	}
	if _, code := getArtifact(t, hs.URL, st.ID, "../spec.yaml"); code != http.StatusNotFound {
		t.Errorf("non-artifact path: got %d, want 404", code)
	}
}

// TestSubmitStatusWriteFailure: restore skips a job directory without a
// status file, so a job whose status cannot be persisted must not run —
// it would vanish from the API after a restart. The submit answers 500,
// lists no job and leaves no budget slot held.
func TestSubmitStatusWriteFailure(t *testing.T) {
	data := t.TempDir()
	budget := runner.NewBudget(2)
	_, hs := newTestServer(t, data, budget)
	// A directory where the next job's status temp file goes makes the
	// status write fail after the job has started.
	if err := os.MkdirAll(filepath.Join(data, "jobs", "c0001", ".status.json.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/campaigns", "application/yaml", strings.NewReader(slowSpec))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "persist status") {
		t.Fatalf("submit with unwritable status: got %d %s, want 500 persist status", resp.StatusCode, body)
	}
	if n := budget.InUse(); n != 0 {
		t.Fatalf("%d budget slots still held after the failed submit", n)
	}
	resp, err = http.Get(hs.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("failed submit left %d job(s) listed: %+v", len(list), list)
	}
}

// TestServerCancelFreesBudget cancels a job mid-run: the job settles as
// canceled promptly and every budget slot is back, ready for other jobs.
func TestServerCancelFreesBudget(t *testing.T) {
	budget := runner.NewBudget(2)
	_, hs := newTestServer(t, t.TempDir(), budget)
	st := submit(t, hs.URL, slowSpec)

	// Let it actually start simulating before canceling.
	deadline := time.Now().Add(time.Minute)
	for budget.InUse() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never acquired a budget slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/campaigns/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: got %d, want 202", resp.StatusCode)
	}
	final := waitState(t, hs.URL, st.ID)
	if final.State != "canceled" {
		t.Fatalf("state %q after cancel, want canceled", final.State)
	}
	if n := budget.InUse(); n != 0 {
		t.Fatalf("%d budget slots still held after cancel", n)
	}
	// A fresh job on the same server runs to completion on the freed slots.
	st2 := submit(t, hs.URL, testSpec)
	if final := waitState(t, hs.URL, st2.ID); final.State != "done" {
		t.Fatalf("job after cancel finished %q, want done", final.State)
	}
}

// TestServerConcurrentJobsShareBudget submits two jobs whose cell counts
// both exceed the server-wide budget: both must complete, and the
// concurrency ceiling must hold throughout.
func TestServerConcurrentJobsShareBudget(t *testing.T) {
	budget := runner.NewBudget(2) // smaller than either job's 4 cells
	_, hs := newTestServer(t, t.TempDir(), budget)

	a := submit(t, hs.URL, testSpec)
	b := submit(t, hs.URL, strings.Replace(testSpec, "name: simd-unit", "name: simd-unit-b", 1))
	deadline := time.Now().Add(2 * time.Minute)
	var fa, fb Status
	for {
		if n := budget.InUse(); n > budget.Slots() {
			t.Fatalf("budget ceiling exceeded: %d slots in use of %d", n, budget.Slots())
		}
		fa, fb = getStatus(t, hs.URL, a.ID), getStatus(t, hs.URL, b.ID)
		if fa.State != "running" && fb.State != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs still running after 2m: %q/%q", fa.State, fb.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if fa.State != "done" || fb.State != "done" {
		t.Fatalf("states %q/%q, want done/done", fa.State, fb.State)
	}
	if fa.Done != 4 || fb.Done != 4 {
		t.Fatalf("done %d/%d, want 4/4", fa.Done, fb.Done)
	}
	// Both jobs' artifacts match a direct run: fair interleaving under a
	// shared budget never leaks into the output bytes.
	want := directArtifacts(t, testSpec)
	for _, id := range []string{a.ID, b.ID} {
		got, code := getArtifact(t, hs.URL, id, "summary.csv")
		if code != http.StatusOK || got != want["summary.csv"] {
			t.Errorf("job %s summary.csv differs from direct run (code %d)", id, code)
		}
	}
}

// TestServerRestartResumes kills a server mid-campaign (context cancel,
// the graceful-shutdown path a SIGINT takes) and starts a fresh server on
// the same data directory: the job must resume from its manifest — cells
// completed before the kill are restored, not re-simulated — and finish
// with artifacts byte-identical to an uninterrupted run.
func TestServerRestartResumes(t *testing.T) {
	dataDir := t.TempDir()
	ctxA, killA := context.WithCancel(context.Background())
	srvA, err := New(ctxA, dataDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	hsA := httptest.NewServer(srvA.Handler())
	st := submit(t, hsA.URL, slowSpec)

	// Wait until at least one cell is checkpointed, then kill the server.
	deadline := time.Now().Add(time.Minute)
	for getStatus(t, hsA.URL, st.ID).Done == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no cell completed within 1m")
		}
		time.Sleep(10 * time.Millisecond)
	}
	killA()
	srvA.Close()
	hsA.Close()

	// The dying server must leave the job resumable, not canceled.
	buf, err := os.ReadFile(filepath.Join(dataDir, "jobs", st.ID, "status.json"))
	if err != nil {
		t.Fatal(err)
	}
	var persisted Status
	if err := json.Unmarshal(buf, &persisted); err != nil {
		t.Fatal(err)
	}
	if persisted.State != "running" {
		t.Fatalf("killed server persisted state %q, want running", persisted.State)
	}
	checkpointed := persisted.Done
	if checkpointed == 0 {
		t.Fatal("killed server persisted no completed cells")
	}

	_, hsB := newTestServer(t, dataDir, nil)
	final := waitState(t, hsB.URL, st.ID)
	if final.State != "done" || final.Done != final.Cells {
		t.Fatalf("resumed job finished %+v, want done %d/%d", final, final.Cells, final.Cells)
	}
	// The resumed stream replays the restored cells as cached events.
	rows, _ := readSSE(t, hsB.URL, st.ID)
	cached := 0
	for _, ev := range rows {
		if ev.Cached {
			cached++
		}
	}
	if cached < checkpointed {
		t.Errorf("replayed %d cached events, want >= %d checkpointed cells", cached, checkpointed)
	}
	want := directArtifacts(t, slowSpec)
	for name, body := range want {
		got, code := getArtifact(t, hsB.URL, st.ID, name)
		if code != http.StatusOK {
			t.Fatalf("artifact %s after resume: got %d", name, code)
		}
		if got != body {
			t.Errorf("artifact %s differs between resumed and uninterrupted runs", name)
		}
	}
}

// TestSubmitWorkersKeyHonored: the spec's workers key caps the job's own
// pool (visible through the shared budget's high-water mark).
func TestSubmitWorkersKeyHonored(t *testing.T) {
	budget := runner.NewBudget(8)
	_, hs := newTestServer(t, t.TempDir(), budget)
	spec := strings.Replace(testSpec, "name: simd-unit", "name: simd-serial\nworkers: 1", 1)
	st := submit(t, hs.URL, spec)
	peak := 0
	for getStatus(t, hs.URL, st.ID).State == "running" {
		if n := budget.InUse(); n > peak {
			peak = n
		}
		time.Sleep(time.Millisecond)
	}
	if peak > 1 {
		t.Fatalf("workers: 1 spec peaked at %d concurrent simulations", peak)
	}
	if final := getStatus(t, hs.URL, st.ID); final.State != "done" {
		t.Fatalf("job finished %q, want done", final.State)
	}
}

// TestServerSpecSizeCap pins the POST body cap: a spec of exactly
// maxSpecBytes is served, one byte more is refused with 413 before any
// job directory exists.
func TestServerSpecSizeCap(t *testing.T) {
	data := t.TempDir()
	_, hs := newTestServer(t, data, nil)
	// padded returns testSpec grown to n bytes by a trailing comment line.
	padded := func(n int) string {
		return testSpec + "#" + strings.Repeat("x", n-len(testSpec)-2) + "\n"
	}
	if _, code := submitRaw(t, hs.URL, padded(maxSpecBytes+1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("spec of %d bytes: got %d, want 413", maxSpecBytes+1, code)
	}
	jobs, err := os.ReadDir(filepath.Join(data, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("a refused spec left %d job director(ies)", len(jobs))
	}
	st := submit(t, hs.URL, padded(maxSpecBytes))
	if st := waitState(t, hs.URL, st.ID); st.State != "done" {
		t.Fatalf("spec of %d bytes: job ended %q, want done", maxSpecBytes, st.State)
	}
}

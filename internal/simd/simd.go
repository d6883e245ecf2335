// Package simd implements the campaign server behind cmd/simd:
// simulation-as-a-service over the exact spec schema cmd/campaign runs
// from files. A POST submits a YAML or JSON campaign spec and returns a
// job ID; the job's per-cell rows stream over SSE; its artifacts —
// byte-identical to a cmd/campaign run of the same spec — are served once
// the job finishes.
//
// Every job owns one directory under <data>/jobs/<id> holding the posted
// spec, a status file and the campaign's own manifest + artifacts. The
// manifest checkpoint makes the server crash-tolerant: a restarted server
// finds jobs whose persisted state is still "running" and resubmits them
// with Resume, so completed cells are restored instead of re-simulated.
//
// All jobs share one runner.Budget: however many campaigns are in flight,
// the server never runs more concurrent simulations than its -budget.
package simd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"insomnia/internal/campaign"
	"insomnia/internal/dsl"
	"insomnia/internal/runner"
)

// maxSpecBytes bounds a posted spec; real specs are a few KB.
const maxSpecBytes = 1 << 20

// artifactTypes whitelists the servable artifact names. Everything else
// in a job directory (spec, status, manifest) is server-internal.
var artifactTypes = map[string]string{
	"summary.csv":  "text/csv; charset=utf-8",
	"results.json": "application/json",
	"power.csv":    "text/csv; charset=utf-8",
}

// Status is one job's public state: the GET /v1/campaigns/{id} body, one
// element of the list body, the SSE done event, and — for finished jobs —
// the on-disk status.json that survives restarts.
type Status struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"` // running | done | failed | canceled
	Cells int    `json:"cells"`
	// Done counts cells with a successful row so far.
	Done      int                     `json:"done"`
	Failed    []string                `json:"failed,omitempty"`
	Error     string                  `json:"error,omitempty"`
	Artifacts []string                `json:"artifacts,omitempty"`
	Collapsed []campaign.CollapseNote `json:"collapsed,omitempty"`
}

// jobState is the server's view of one job: its directory, the live
// campaign.Job (nil for jobs restored already-finished), its replayable
// event log, and the mutable status.
type jobState struct {
	dir string
	log *eventLog
	job *campaign.Job

	mu           sync.Mutex
	cur          Status
	userCanceled bool
}

func (st *jobState) status() Status {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cur
}

// Server is the campaign server. Create with New, serve Handler, Close to
// stop: Close cancels every running job (their manifests keep completed
// cells) and waits for them to settle, so a New on the same data directory
// resumes them.
type Server struct {
	ctx     context.Context
	cancel  context.CancelFunc
	dataDir string
	budget  *runner.Budget
	mux     *http.ServeMux
	wg      sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*jobState
	nextID int
}

// New opens (or creates) the data directory, resumes every job whose
// persisted state is still "running" — a crashed or killed server left it
// mid-campaign — and returns the server. budget is the server-wide
// concurrency ceiling shared by all jobs; nil means GOMAXPROCS.
func New(ctx context.Context, dataDir string, budget *runner.Budget) (*Server, error) {
	if budget == nil {
		budget = runner.NewBudget(0)
	}
	if err := os.MkdirAll(filepath.Join(dataDir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	s := &Server{
		ctx: ctx, cancel: cancel, dataDir: dataDir, budget: budget,
		mux: http.NewServeMux(), jobs: map[string]*jobState{}, nextID: 1,
	}
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleList)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/artifacts/{name}", s.handleArtifact)
	if err := s.restore(); err != nil {
		cancel()
		return nil, err
	}
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the server: every running job is canceled at its next epoch
// barrier and its manifest left resumable. Close blocks until all jobs
// have settled.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

// restore rescans the jobs directory. Finished jobs are listed from their
// status files; jobs still marked "running" (the server died under them)
// are resubmitted with Resume so their manifests' completed cells are
// restored, not re-simulated.
func (s *Server) restore() error {
	entries, err := os.ReadDir(filepath.Join(s.dataDir, "jobs"))
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "c")); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		dir := filepath.Join(s.dataDir, "jobs", id)
		buf, err := os.ReadFile(filepath.Join(dir, "status.json"))
		if err != nil {
			continue // torn submit: directory without a status file
		}
		var persisted Status
		if err := json.Unmarshal(buf, &persisted); err != nil {
			continue
		}
		st := &jobState{dir: dir, log: newEventLog(), cur: persisted}
		st.cur.ID = id
		if persisted.State != "running" {
			st.log.close()
			s.jobs[id] = st
			continue
		}
		spec, err := readSpec(filepath.Join(dir, "spec.yaml"))
		if err != nil {
			st.cur.State, st.cur.Error = "failed", fmt.Sprintf("resume: %v", err)
			st.log.close()
			s.jobs[id] = st
			continue
		}
		job, err := campaign.Submit(s.ctx, spec, campaign.Options{
			OutDir: dir, Resume: true, Budget: s.budget,
		})
		if err != nil {
			st.cur.State, st.cur.Error = "failed", fmt.Sprintf("resume: %v", err)
			st.log.close()
			s.jobs[id] = st
			continue
		}
		st.job = job
		st.cur.Cells = len(job.Plan().Cells)
		s.jobs[id] = st
		s.wg.Add(1)
		go s.pump(st)
	}
	return nil
}

func readSpec(path string) (dsl.Spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return dsl.Spec{}, err
	}
	return dsl.ParseSpec(buf)
}

// pump drains a job's rows into the replay log, then records the final
// state. A job stopped by server shutdown (not by DELETE) keeps state
// "running" on disk, so the next server resumes it from the manifest.
func (s *Server) pump(st *jobState) {
	defer s.wg.Done()
	for ev := range st.job.Rows() {
		st.mu.Lock()
		st.cur.Done = ev.Done
		st.mu.Unlock()
		st.log.append(ev)
	}
	res, err := st.job.Wait()
	st.mu.Lock()
	switch {
	case err == nil:
		st.cur.State = "done"
	case errors.Is(err, campaign.ErrCanceled):
		st.cur.State, st.cur.Error = "canceled", err.Error()
	default: // cells failed (artifacts still written) or infrastructure
		st.cur.State, st.cur.Error = "failed", err.Error()
	}
	if res != nil {
		st.cur.Failed = res.Failed
		st.cur.Collapsed = res.Collapsed
		for _, a := range res.Artifacts {
			st.cur.Artifacts = append(st.cur.Artifacts, filepath.Base(a))
		}
	}
	persist := st.cur
	if persist.State == "canceled" && !st.userCanceled {
		// Server shutdown: resumable, not abandoned, and no fault of the job.
		persist.State, persist.Error = "running", ""
	}
	st.mu.Unlock()
	writeStatus(st.dir, persist)
	st.log.close()
}

// writeStatus persists a job's status atomically (tmp + rename), so a
// crash mid-write can never leave a torn status file.
func writeStatus(dir string, status Status) error {
	buf, err := json.MarshalIndent(status, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, ".status.json.tmp")
	if err := os.WriteFile(tmp, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "status.json"))
}

func (s *Server) get(id string) *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /v1/campaigns: parse the spec (YAML or JSON — the
// same schema cmd/campaign reads from a file), start it as a job, answer
// 202 with the job's status. The campaign error taxonomy maps onto HTTP:
// ErrSpecInvalid is the client's fault (400), ErrManifestConflict a
// directory collision (409, unreachable for fresh job dirs), anything
// else a server fault (500).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read spec: %v", err)
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "spec larger than %d bytes", maxSpecBytes)
		return
	}
	spec, err := dsl.ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse spec: %v", err)
		return
	}

	s.mu.Lock()
	id := fmt.Sprintf("c%04d", s.nextID)
	s.nextID++
	s.mu.Unlock()
	dir := filepath.Join(s.dataDir, "jobs", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		writeError(w, http.StatusInternalServerError, "create job dir: %v", err)
		return
	}
	// Keep the posted bytes verbatim: the restart path re-parses exactly
	// what the client sent, so the spec hash — and with it the manifest
	// binding — cannot drift.
	if err := os.WriteFile(filepath.Join(dir, "spec.yaml"), body, 0o644); err != nil {
		writeError(w, http.StatusInternalServerError, "persist spec: %v", err)
		return
	}
	job, err := campaign.Submit(s.ctx, spec, campaign.Options{OutDir: dir, Budget: s.budget})
	switch {
	case err == nil:
	case errors.Is(err, campaign.ErrSpecInvalid):
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	case errors.Is(err, campaign.ErrManifestConflict):
		writeError(w, http.StatusConflict, "%v", err)
		return
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	st := &jobState{
		dir: dir, log: newEventLog(), job: job,
		cur: Status{ID: id, Name: job.Plan().Spec.Name, State: "running", Cells: len(job.Plan().Cells)},
	}
	// restore skips a job directory without a status file, so a job whose
	// status never reached disk must not run: it would vanish on restart.
	if err := writeStatus(dir, st.status()); err != nil {
		job.Cancel()
		<-job.Done()
		writeError(w, http.StatusInternalServerError, "persist status: %v", err)
		return
	}
	s.mu.Lock()
	s.jobs[id] = st
	s.mu.Unlock()
	s.wg.Add(1)
	go s.pump(st)

	w.Header().Set("Location", "/v1/campaigns/"+id)
	writeJSON(w, http.StatusAccepted, st.status())
}

// handleList is GET /v1/campaigns: every job's status, sorted by ID.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	states := make([]*jobState, 0, len(s.jobs))
	for _, st := range s.jobs {
		states = append(states, st)
	}
	s.mu.Unlock()
	out := make([]Status, len(states))
	for i, st := range states {
		out[i] = st.status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

// handleStatus is GET /v1/campaigns/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.get(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st.status())
}

// handleCancel is DELETE /v1/campaigns/{id}: stop the job at its next
// epoch barrier. The manifest keeps completed cells; canceling a finished
// job is a no-op that reports its final state.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st := s.get(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	st.mu.Lock()
	st.userCanceled = true
	running := st.cur.State == "running" && st.job != nil
	st.mu.Unlock()
	if running {
		st.job.Cancel()
		writeJSON(w, http.StatusAccepted, st.status())
		return
	}
	writeJSON(w, http.StatusOK, st.status())
}

// handleEvents is GET /v1/campaigns/{id}/events: the job's per-cell rows
// as Server-Sent Events. The full stream replays from the first event on
// every connect — cached rows of a resumed job included — then follows
// live; a final "done" event carries the job's closing status. Event data
// is the campaign.RowEvent JSON.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	st := s.get(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for i := 0; ; i++ {
		ev, ok := st.log.next(r.Context(), i)
		if !ok {
			break
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: row\ndata: %s\n\n", data)
		fl.Flush()
	}
	if r.Context().Err() != nil {
		return // client went away mid-stream
	}
	data, err := json.Marshal(st.status())
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
	fl.Flush()
}

// handleArtifact is GET /v1/campaigns/{id}/artifacts/{name}: serve one of
// the job's artifact files, byte-identical to what cmd/campaign writes
// for the same spec. Artifacts exist only once the job has finished; a
// running job answers 409.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	st := s.get(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	name := r.PathValue("name")
	ctype, ok := artifactTypes[name]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown artifact %q", name)
		return
	}
	status := st.status()
	if status.State == "running" {
		writeError(w, http.StatusConflict, "campaign %s still running", status.ID)
		return
	}
	buf, err := os.ReadFile(filepath.Join(st.dir, name))
	if err != nil {
		writeError(w, http.StatusNotFound, "campaign %s has no %s", status.ID, name)
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.Write(buf)
}

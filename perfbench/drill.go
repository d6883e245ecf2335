package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"insomnia/internal/dsl"
	"insomnia/internal/runner"
	"insomnia/internal/simd"
)

// drillClients is the number of closed-loop clients, each on its own
// connection: one per core of the two-core machine the benchmark targets.
const drillClients = 2

// identityJobs is how many drill jobs are re-run through campaign.Submit
// directly to check the server's artifacts byte for byte.
const identityJobs = 10

// server is an in-process campaign server on a loopback port.
type server struct {
	base string
	stop func()
}

func serve(ctx context.Context, dataDir string, budget *runner.Budget) (*server, error) {
	srv, err := simd.New(ctx, dataDir, budget)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		hs.Serve(ln) // returns once Close below shuts the listener
		close(done)
	}()
	return &server{
		base: "http://" + ln.Addr().String(),
		stop: func() {
			hs.Close()
			<-done
			srv.Close()
		},
	}, nil
}

// client is one closed-loop drill client.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{
		base: base,
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
		tr:   tr,
	}
}

// drillJob is one job's outcome as its client saw it.
type drillJob struct {
	latency float64 // POST sent until both artifacts are fetched, seconds
	summary []byte
	results []byte
	err     error
}

// run submits one spec and follows it to its artifacts.
func (c *client) run(ctx context.Context, body []byte, parent int) (job drillJob) {
	t0 := time.Now()
	var marks []time.Time // post answered, events done, each artifact fetched
	var firstRow time.Time
	defer func() {
		end := time.Now()
		job.latency = end.Sub(t0).Seconds()
		if job.err != nil || c.tr == nil {
			return
		}
		id := c.tr.add("simd.job", parent, t0, end)
		c.tr.add("simd.post", id, t0, marks[0])
		c.tr.add("simd.first_row", id, t0, firstRow)
		c.tr.add("simd.events", id, marks[0], marks[1])
		c.tr.add("simd.artifact", id, marks[1], marks[2])
		c.tr.add("simd.artifact", id, marks[2], marks[3])
	}()
	var st simd.Status
	if job.err = c.do(ctx, http.MethodPost, "/v1/campaigns", body, http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	}); job.err != nil {
		return job
	}
	marks = append(marks, time.Now())
	var rows int
	var done *simd.Status
	job.err = c.do(ctx, http.MethodGet, "/v1/campaigns/"+st.ID+"/events", nil, http.StatusOK, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && event == "row":
				if rows == 0 {
					firstRow = time.Now()
				}
				rows++
			case strings.HasPrefix(line, "data: ") && event == "done":
				done = &simd.Status{}
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), done); err != nil {
					return err
				}
			}
		}
		return sc.Err()
	})
	switch {
	case job.err != nil:
		return job
	case done == nil:
		job.err = fmt.Errorf("job %s: event stream ended without a done event", st.ID)
		return job
	case done.State != "done" || rows != done.Cells:
		job.err = fmt.Errorf("job %s: done in state %q after %d of %d rows: %s", st.ID, done.State, rows, done.Cells, done.Error)
		return job
	}
	marks = append(marks, time.Now())
	for _, a := range []struct {
		name string
		dst  *[]byte
	}{{"summary.csv", &job.summary}, {"results.json", &job.results}} {
		if job.err = c.do(ctx, http.MethodGet, "/v1/campaigns/"+st.ID+"/artifacts/"+a.name, nil, http.StatusOK, func(r io.Reader) (err error) {
			*a.dst, err = io.ReadAll(r)
			return err
		}); job.err != nil {
			return job
		}
		marks = append(marks, time.Now())
	}
	return job
}

// do sends one request, requires the wanted status and hands the body to
// read, which consumes it to the end so the connection is reused.
func (c *client) do(ctx context.Context, method, path string, body []byte, want int, read func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body) // best effort: the status already fails the request
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// drillRep runs one repetition of the drill: w.jobs jobs from
// drillClients closed-loop clients against a fresh server, then the
// server's restart-to-ready time as the set-up. With a tracer it also
// samples the worker budget's occupancy.
func drillRep(ctx context.Context, w workload, seed int64, dir string, tr *tracer, root int) (*repResult, []drillJob, error) {
	specs := make([]dsl.Spec, w.jobs)
	bodies := make([][]byte, w.jobs)
	for i := range bodies {
		var err error
		if specs[i], err = w.spec(seed, i); err != nil {
			return nil, nil, err
		}
		if bodies[i], err = json.Marshal(specs[i]); err != nil {
			return nil, nil, err
		}
	}
	data := filepath.Join(dir, "simd")
	budget := runner.NewBudget(drillClients)
	srv, err := serve(ctx, data, budget)
	if err != nil {
		return nil, nil, err
	}
	var stopSampling func() float64
	if tr != nil {
		stopSampling = sampleBusy(budget)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	jobs := make([]drillJob, w.jobs)
	var wg sync.WaitGroup
	for c := 0; c < drillClients; c++ {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for i := c; i < w.jobs; i += drillClients {
				jobs[i] = cl.run(ctx, bodies[i], root)
			}
		}(newClient(srv.base, tr))
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	out := &repResult{
		Wall:      wall,
		RSSMB:     peakRSSMB(),
		AllocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		Attempted: w.jobs,
	}
	if stopSampling != nil {
		tr.count("runner.busy_frac", stopSampling())
	}
	srv.stop()
	for i := range jobs {
		j := &jobs[i]
		if j.err == nil {
			_, j.err = checkArtifacts(specs[i], j.summary, j.results)
		}
		if j.err != nil {
			out.Failed++
			out.Errors = append(out.Errors, fmt.Sprintf("job %d: %v", i, j.err))
			continue
		}
		out.Jobs = append(out.Jobs, j.latency)
		out.Digests = append(out.Digests, sumArtifacts(j.summary, j.results))
	}
	out.Setup, err = setupSamples(func() error { return restart(ctx, data, budget, w.jobs) })
	return out, jobs, err
}

// restart is the drill's set-up: a server opening the drill's data
// directory until its job list answers 200 with every job restored.
func restart(ctx context.Context, data string, budget *runner.Budget, jobs int) error {
	srv, err := serve(ctx, data, budget)
	if err != nil {
		return err
	}
	defer srv.stop()
	cl := newClient(srv.base, nil)
	defer cl.hc.CloseIdleConnections()
	var list []simd.Status
	if err := cl.do(ctx, http.MethodGet, "/v1/campaigns", nil, http.StatusOK, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&list)
	}); err != nil {
		return err
	}
	if len(list) != jobs {
		return fmt.Errorf("restarted server lists %d jobs, want %d", len(list), jobs)
	}
	return nil
}

// checkIdentity re-runs the first drill jobs through campaign.Submit
// directly and requires the server's artifacts byte for byte. With a
// tracer the direct runs' compile, first-row and tail times are recorded.
func checkIdentity(ctx context.Context, w workload, seed int64, jobs []drillJob, dir string, tr *tracer, root int) error {
	for i := 0; i < min(identityJobs, len(jobs)); i++ {
		if jobs[i].err != nil {
			continue // already counted as failed
		}
		sp, err := w.spec(seed, i)
		if err != nil {
			return err
		}
		if err := timedCompile(sp, tr, root); err != nil {
			return err
		}
		run, err := runCampaign(ctx, sp, filepath.Join(dir, fmt.Sprintf("direct-%d", i)), nil, tr, root)
		if err != nil {
			return err
		}
		if tr != nil && i == 0 {
			tr.count("campaign.manifest_kb", float64(run.manifest)/1e3)
			tr.count("campaign.artifact_kb", float64(len(run.summary)+len(run.results))/1e3)
		}
		if !bytes.Equal(run.summary, jobs[i].summary) || !bytes.Equal(run.results, jobs[i].results) {
			return fmt.Errorf("job %d: server artifacts differ from a direct campaign run of the same spec", i)
		}
	}
	return nil
}

// sampleBusy samples the budget's occupancy every 5 ms until the returned
// function is called, which returns the mean share of slots in use.
func sampleBusy(b *runner.Budget) func() float64 {
	stop, mean := make(chan struct{}), make(chan float64)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		sum, n := 0.0, 0
		for {
			select {
			case <-tick.C:
				sum += float64(b.InUse()) / float64(b.Slots())
				n++
			case <-stop:
				mean <- sum / float64(max(n, 1))
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-mean
	}
}

package testbed

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"insomnia/internal/bh2"
	"insomnia/internal/power"
	"insomnia/internal/wifi"
)

// manualClock gives tests full control of virtual time.
type manualClock struct{ t float64 }

func (c *manualClock) now() float64 { return c.t }

func TestServerSoILifecycle(t *testing.T) {
	clk := &manualClock{}
	s := NewServer(2, clk.now)

	// Initially on.
	if got := s.Observe(0).State; got != "on" {
		t.Fatalf("initial state %v", got)
	}
	// Traffic keeps it awake; silence sleeps it after the timeout.
	if !s.Traffic(0, 1500) {
		t.Fatal("traffic rejected while on")
	}
	clk.t = 59
	if got := s.Observe(0).State; got != "on" {
		t.Fatalf("slept early: %v", got)
	}
	clk.t = 61
	if got := s.Observe(0).State; got != "sleeping" {
		t.Fatalf("state at 61 = %v, want sleeping", got)
	}
	// Traffic to a sleeping gateway is not delivered.
	if s.Traffic(0, 1500) {
		t.Fatal("sleeping gateway accepted traffic")
	}
	// Wake takes WakeDelay.
	s.Wake(0)
	if got := s.Observe(0).State; got != "waking" {
		t.Fatalf("state after wake = %v", got)
	}
	clk.t = 122
	if got := s.Observe(0).State; got != "on" {
		t.Fatalf("state after wake delay = %v", got)
	}
	if s.Wakeups() != 1 {
		t.Fatalf("wakeups = %d", s.Wakeups())
	}
}

func TestServerSNCountsFrames(t *testing.T) {
	clk := &manualClock{}
	s := NewServer(1, clk.now)
	before := s.Observe(0).SN
	s.Traffic(0, 4500) // 3 frames
	after := s.Observe(0).SN
	if d := int(after) - int(before); d != 3 {
		t.Fatalf("SN delta = %d, want 3", d)
	}
}

func TestServerOnTimes(t *testing.T) {
	clk := &manualClock{}
	s := NewServer(1, clk.now)
	clk.t = 100 // sleeps at 60
	ot := s.OnTimes()
	if ot[0] < 59.9 || ot[0] > 60.1 {
		t.Fatalf("onTime = %v, want 60", ot[0])
	}
}

// TestServerWakeCycleAccounting pins on-time and wakeups across a full
// sleep cycle: on from 0 to 60 s, asleep from 60 to 61 s, a wake request
// at 61 s, waking until 121 s, then on. A waking gateway draws full power,
// so it counts as online.
func TestServerWakeCycleAccounting(t *testing.T) {
	clk := &manualClock{}
	s := NewServer(1, clk.now)
	clk.t = 61
	if got := s.Observe(0).State; got != "sleeping" {
		t.Fatalf("state at 61 = %v, want sleeping", got)
	}
	s.Wake(0)
	s.Wake(0) // a second request while waking is not a second wakeup
	clk.t = 130
	if got := s.Observe(0).State; got != "on" {
		t.Fatalf("state at 130 = %v, want on", got)
	}
	if ot := s.OnTimes(); ot[0] != 129 {
		t.Errorf("onTime = %v, want 129 (60 on + 60 waking + 9 on)", ot[0])
	}
	if w := s.Wakeups(); w != 1 {
		t.Errorf("wakeups = %d, want 1", w)
	}
}

// TestServerHoldsTrafficWhileWaking pins that a waking gateway carries
// nothing: bytes sent to it are refused, so the terminal keeps them as
// backlog, and its sequence counter moves only once the wake completes.
func TestServerHoldsTrafficWhileWaking(t *testing.T) {
	clk := &manualClock{}
	s := NewServer(1, clk.now)
	clk.t = 61 // asleep since 60 s
	s.Wake(0)  // waking until 121 s
	clk.t = 62
	if s.Traffic(0, 150_000) {
		t.Error("waking gateway reported traffic delivered")
	}
	if sn := s.Observe(0).SN; sn != 0 {
		t.Errorf("SN at 62 s = %d, want 0", sn)
	}
	clk.t = 122
	if !s.Traffic(0, 150_000) {
		t.Error("awake gateway refused traffic")
	}
	if sn := s.Observe(0).SN; int(sn) != wifi.FramesFor(150_000) {
		t.Errorf("SN at 122 s = %d, want %d", sn, wifi.FramesFor(150_000))
	}
}

func TestHTTPEndpoints(t *testing.T) {
	clk := &manualClock{}
	s := NewServer(3, clk.now)
	base, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := NewClient(base)
	obs, err := c.Observe(1)
	if err != nil {
		t.Fatal(err)
	}
	if obs.State != "on" || obs.GW != 1 {
		t.Fatalf("obs = %+v", obs)
	}
	ok, err := c.SendTraffic(1, 3000)
	if err != nil || !ok {
		t.Fatalf("traffic: %v %v", ok, err)
	}
	obs2, err := c.Observe(1)
	if err != nil {
		t.Fatal(err)
	}
	if obs2.SN == obs.SN {
		t.Error("SN did not advance over HTTP")
	}
	// Bad params rejected.
	if _, err := c.Observe(99); err == nil {
		t.Error("expected error for bad gateway id")
	}
}

// TestTickReportsFailedWake pins that a failed home wake is a transport
// error: a BH² terminal riding a remote that has gone to sleep decides
// ReturnHome (RemoteVanished) and, under WakeUpHome, wakes its home; when
// the server refuses the wake, Tick reports it, so Run counts it, and the
// second's bytes stay in the backlog.
func TestTickReportsFailedWake(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /observe", func(w http.ResponseWriter, r *http.Request) {
		gw, _ := strconv.Atoi(r.URL.Query().Get("gw"))
		writeJSON(w, Observation{GW: gw, State: power.Sleeping.String()})
	})
	mux.HandleFunc("POST /wake", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "wake failed", http.StatusInternalServerError)
	})
	mux.HandleFunc("POST /traffic", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]bool{"delivered": false})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	term := NewTerminal(0, 0, []int{0, 1, 2}, true, bh2.DefaultParams(), 6e6, srv.URL, 1)
	term.assigned = 1 // riding remote gateway 1
	if err := term.Tick(term.nextDecision, 1500); err == nil {
		t.Fatal("Tick returned nil after the server refused the home wake")
	}
	if term.assigned != term.Home {
		t.Fatalf("terminal rides gateway %d after ReturnHome, want home %d", term.assigned, term.Home)
	}
	if term.pending != 1500 {
		t.Fatalf("backlog after the failed tick = %d bytes, want 1500", term.pending)
	}
}

func TestGenerateSchedule(t *testing.T) {
	sched, err := GenerateSchedule(9, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 9 {
		t.Fatalf("%d terminals", len(sched))
	}
	var total int64
	for _, row := range sched {
		if len(row) != 600 {
			t.Fatalf("row length %d", len(row))
		}
		for _, b := range row {
			if b < 0 {
				t.Fatal("negative bytes")
			}
			total += b
		}
	}
	if total == 0 {
		t.Fatal("empty schedule")
	}
}

// The Fig 12 experiment in miniature: run SoI and BH2 over real sockets at
// high time compression and check the paper's ordering — BH2 keeps fewer
// APs online than SoI.
func TestLiveExperimentBH2BeatsSoI(t *testing.T) {
	if testing.Short() {
		t.Skip("live testbed run")
	}
	run := func(useBH2 bool) *Result {
		res, err := Run(Config{
			Gateways: 9, Duration: 600, TimeScale: 0.004,
			UseBH2: useBH2, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	soi := run(false)
	bh := run(true)
	if len(soi.OnlineSeries) == 0 || len(bh.OnlineSeries) == 0 {
		t.Fatal("no samples")
	}
	if soi.TrafficErrors > 50 || bh.TrafficErrors > 50 {
		t.Fatalf("too many traffic errors: %d / %d", soi.TrafficErrors, bh.TrafficErrors)
	}
	if bh.Moves == 0 {
		t.Error("BH2 terminals never moved")
	}
	if bh.MeanOnline >= soi.MeanOnline {
		t.Errorf("BH2 online %.2f >= SoI %.2f; expected fewer online APs", bh.MeanOnline, soi.MeanOnline)
	}
	t.Logf("SoI online %.2f, BH2 online %.2f (paper: 5.28 vs 3.54 of 9)", soi.MeanOnline, bh.MeanOnline)
}

func TestVirtualClockPacing(t *testing.T) {
	// A tiny run completes in roughly Duration*TimeScale wall time.
	start := time.Now()
	_, err := Run(Config{Gateways: 3, Duration: 50, TimeScale: 0.002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("run took %v, expected well under 5s", wall)
	}
}

// Package testbed reproduces the paper's live deployment (§5.3, Figs 11-12)
// over real sockets: BH² terminals talk HTTP to a central status server that
// emulates gateway sleep states — exactly the role the paper's "script
// running in a central server" played, since their commercial gateways had
// no SoI either.
//
// The pieces:
//
//   - Server: an HTTP server that drives one soi.Controller per gateway
//     over a power.Device, with the paper's §5.1 timing
//     (dsl.IdleTimeoutSeconds, dsl.WakeSeconds): the same Sleep-on-Idle
//     machine the simulator runs. Each gateway also keeps a data-frame
//     sequence counter for passive load estimation. Terminals POST traffic
//     and wake requests and GET observations.
//   - Terminal: one goroutine per line owner, replaying a traffic schedule
//     through its currently selected gateway, observing in-range gateways
//     each second and running the same bh2.Decide the simulator uses.
//   - Run: wires N gateways and N terminals (paper: 9-10), with the
//     association limit of 3 gateways the paper's hardware imposed, and
//     samples the number of online APs — the Fig 12 series.
//
// Virtual time runs at cfg.TimeScale wall-seconds per virtual second so a
// 30-minute experiment replays in seconds during tests. cmd/figures -fig 12
// runs the paper's experiment and writes its series.
package testbed

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"

	"insomnia/internal/dsl"
	"insomnia/internal/power"
	"insomnia/internal/soi"
	"insomnia/internal/wifi"
)

// Observation is what a terminal learns about one gateway per monitor
// slice: its beacon presence and current data-frame sequence number.
// State is the gateway's power.State spelled by its String method: "on",
// "waking" or "sleeping".
type Observation struct {
	GW    int    `json:"gw"`
	State string `json:"state"`
	SN    uint16 `json:"sn"`
}

// gateway is the server-side record of one emulated gateway.
type gateway struct {
	ctl *soi.Controller
	sn  wifi.SeqCounter
}

// Server emulates the sleep state of a set of gateways.
type Server struct {
	clock func() float64 // virtual time source, monotone

	mu  sync.Mutex
	gws []*gateway

	http *http.Server
	ln   net.Listener
}

// NewServer creates a status server for n gateways, all on at virtual
// time 0.
func NewServer(n int, clock func() float64) *Server {
	s := &Server{clock: clock}
	for i := 0; i < n; i++ {
		dev := power.NewDevice(fmt.Sprintf("gw%d", i), power.GatewayWatts, power.On, 0)
		s.gws = append(s.gws, &gateway{ctl: soi.New(dev, dsl.IdleTimeoutSeconds, dsl.WakeSeconds, 0)})
	}
	return s
}

// Traffic records bytes sent through gateway gw; returns false if the
// gateway is sleeping (traffic lost — the terminal should not have sent it).
// A waking gateway accepts traffic but carries no frames yet.
func (s *Server) Traffic(gw int, bytes int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	now, g := s.clock(), s.gws[gw]
	if g.ctl.Advance(now); g.ctl.State() == power.Sleeping {
		return false
	}
	g.ctl.Touch(now)
	if g.ctl.Awake() {
		g.sn.Advance(wifi.FramesFor(bytes))
	}
	return true
}

// Wake requests a wake-up of gateway gw (WoWLAN — only the owner may call
// this; the server trusts callers as the paper's did). A gateway that is
// not sleeping ignores it.
func (s *Server) Wake(gw int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now, g := s.clock(), s.gws[gw]
	if g.ctl.Advance(now); g.ctl.State() == power.Sleeping {
		g.ctl.Touch(now)
	}
}

// Observe returns the observation a terminal would make of gateway gw.
// Sleeping gateways beacon nothing; the terminal only learns "no beacon".
func (s *Server) Observe(gw int) Observation {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.gws[gw]
	g.ctl.Advance(s.clock())
	return Observation{GW: gw, State: g.ctl.State().String(), SN: g.sn.Value()}
}

// OnlineCount returns how many gateways are not sleeping.
func (s *Server) OnlineCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock()
	n := 0
	for _, g := range s.gws {
		if g.ctl.Advance(now); g.ctl.State() != power.Sleeping {
			n++
		}
	}
	return n
}

// OnTimes returns cumulative online (on or waking) virtual seconds per
// gateway.
func (s *Server) OnTimes() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock()
	out := make([]float64, len(s.gws))
	for i, g := range s.gws {
		g.ctl.Advance(now)
		out[i] = g.ctl.Device().OnTimeAt(now)
	}
	return out
}

// Wakeups returns total wake transitions across gateways.
func (s *Server) Wakeups() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, g := range s.gws {
		n += g.ctl.Device().Wakeups()
	}
	return n
}

// Start listens on 127.0.0.1:0 and serves the HTTP API. Returns the base
// URL.
func (s *Server) Start() (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /observe", func(w http.ResponseWriter, r *http.Request) {
		gw, err := gwParam(r)
		if err != nil || gw < 0 || gw >= len(s.gws) {
			http.Error(w, "bad gw", http.StatusBadRequest)
			return
		}
		writeJSON(w, s.Observe(gw))
	})
	mux.HandleFunc("POST /traffic", func(w http.ResponseWriter, r *http.Request) {
		gw, err := gwParam(r)
		if err != nil || gw < 0 || gw >= len(s.gws) {
			http.Error(w, "bad gw", http.StatusBadRequest)
			return
		}
		bytes, err := strconv.ParseInt(r.URL.Query().Get("bytes"), 10, 64)
		if err != nil || bytes < 0 {
			http.Error(w, "bad bytes", http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]bool{"delivered": s.Traffic(gw, bytes)})
	})
	mux.HandleFunc("POST /wake", func(w http.ResponseWriter, r *http.Request) {
		gw, err := gwParam(r)
		if err != nil || gw < 0 || gw >= len(s.gws) {
			http.Error(w, "bad gw", http.StatusBadRequest)
			return
		}
		s.Wake(gw)
		writeJSON(w, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /online", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]int{"online": s.OnlineCount()})
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("testbed: listen: %w", err)
	}
	s.ln = ln
	s.http = &http.Server{Handler: mux}
	go func() { _ = s.http.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// Close shuts the HTTP server down.
func (s *Server) Close() error {
	if s.http != nil {
		return s.http.Close()
	}
	return nil
}

func gwParam(r *http.Request) (int, error) {
	return strconv.Atoi(r.URL.Query().Get("gw"))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

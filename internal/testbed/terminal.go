package testbed

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	"insomnia/internal/bh2"
	"insomnia/internal/power"
	"insomnia/internal/stats"
	"insomnia/internal/wifi"
)

// Client is the terminal-side HTTP client for the status server.
type Client struct {
	base string
	http *http.Client
}

// NewClient points at a server base URL.
func NewClient(base string) *Client {
	return &Client{base: base, http: &http.Client{}}
}

// Observe fetches one gateway observation.
func (c *Client) Observe(gw int) (Observation, error) {
	var obs Observation
	resp, err := c.http.Get(fmt.Sprintf("%s/observe?gw=%d", c.base, gw))
	if err != nil {
		return obs, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obs, fmt.Errorf("testbed: observe status %d", resp.StatusCode)
	}
	return obs, json.NewDecoder(resp.Body).Decode(&obs)
}

// SendTraffic posts bytes through a gateway; reports delivery.
func (c *Client) SendTraffic(gw int, bytes int64) (bool, error) {
	resp, err := c.http.Post(fmt.Sprintf("%s/traffic?gw=%d&bytes=%d", c.base, gw, bytes), "", nil)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var out struct {
		Delivered bool `json:"delivered"`
	}
	return out.Delivered, json.NewDecoder(resp.Body).Decode(&out)
}

// WakeHome asks the server to wake the terminal's home gateway (WoWLAN).
func (c *Client) WakeHome(gw int) error {
	resp, err := c.http.Post(fmt.Sprintf("%s/wake?gw=%d", c.base, gw), "", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("testbed: wake status %d", resp.StatusCode)
	}
	return nil
}

// Terminal is one BH² line owner: it replays a per-second byte schedule
// through its selected gateway and runs the decision algorithm against
// passive observations, all over the wire.
type Terminal struct {
	ID      int
	Home    int
	InRange []int // association candidates incl. home (paper limit: 3)

	UseBH2 bool
	Params bh2.Params

	client *Client
	rng    *rand.Rand

	assigned     int
	nextDecision float64
	estimators   map[int]*wifi.LoadEstimator
	backhaulBps  float64

	pending int64 // bytes that could not be delivered yet (gateway waking)
	Moves   int
}

// NewTerminal wires a terminal to the server.
func NewTerminal(id, home int, inRange []int, useBH2 bool, p bh2.Params, backhaulBps float64, base string, seed int64) *Terminal {
	t := &Terminal{
		ID: id, Home: home, InRange: inRange, UseBH2: useBH2, Params: p,
		client: NewClient(base), rng: stats.NewRNG(seed, 0x7e5b+uint64(id)),
		assigned: home, estimators: map[int]*wifi.LoadEstimator{},
		backhaulBps: backhaulBps,
	}
	t.nextDecision = t.rng.Float64() * p.PeriodSec
	return t
}

// Tick runs one virtual second: observe, decide, deliver the backlog. The
// bytes due this second join the backlog first, so a transport error
// delays them to a later second instead of dropping them.
func (t *Terminal) Tick(now float64, bytesDue int64) error {
	t.pending += bytesDue
	views := make([]bh2.GatewayView, 0, len(t.InRange))
	for _, gw := range t.InRange {
		obs, err := t.client.Observe(gw)
		if err != nil {
			return err
		}
		est := t.estimators[gw]
		if est == nil {
			est = wifi.NewLoadEstimator(t.backhaulBps)
			t.estimators[gw] = est
		}
		awake := obs.State == power.On.String()
		if awake {
			est.Observe(now, obs.SN)
		} else {
			est.Reset()
		}
		views = append(views, bh2.GatewayView{
			ID:     gw,
			Awake:  awake,
			Load:   est.Utilization(now, t.Params.EstWindow),
			Active: est.ActiveWithin(now, t.Params.EstWindow),
		})
	}

	if t.UseBH2 && now >= t.nextDecision {
		err := t.apply(bh2.Decide(t.rng, t.Params, t.Home, t.assigned, views))
		t.nextDecision = bh2.NextDecisionTime(t.rng, t.Params, now)
		if err != nil {
			return err
		}
	}

	if t.pending > 0 {
		target := t.assigned
		if !t.UseBH2 {
			target = t.Home
		}
		awake := false
		for _, v := range views {
			if v.ID == target && v.Awake {
				awake = true
			}
		}
		if !awake {
			if t.UseBH2 {
				// Immediate re-decision: hitch elsewhere or wake home.
				if err := t.apply(bh2.Decide(t.rng, t.Params, t.Home, t.assigned, views)); err != nil {
					return err
				}
				target = t.assigned
			}
			if target == t.Home {
				if err := t.client.WakeHome(t.Home); err != nil {
					return err
				}
			}
		}
		delivered, err := t.client.SendTraffic(target, t.pending)
		if err != nil {
			return err
		}
		if delivered {
			t.pending = 0
		}
	}
	return nil
}

// apply carries out decision d. It returns the error of the home wake a
// ReturnHome sends under WakeUpHome, so the run counts a failed wake.
func (t *Terminal) apply(d bh2.Decision) error {
	switch d.Action {
	case bh2.Move:
		if t.assigned != d.Target {
			t.assigned = d.Target
			t.Moves++
		}
	case bh2.ReturnHome:
		if t.assigned != t.Home {
			t.assigned = t.Home
			t.Moves++
		}
		if t.Params.WakeUpHome {
			return t.client.WakeHome(t.Home)
		}
	}
	return nil
}

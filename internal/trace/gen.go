package trace

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"insomnia/internal/stats"
)

// Config parameterizes the synthetic trace generator. Zero values are
// replaced by defaults in Generate; see DefaultOfficeConfig and
// DefaultResidentialConfig for the two calibrated scenarios of the paper.
type Config struct {
	Clients  int     // number of terminal devices
	APs      int     // number of gateways / access points
	Duration float64 // trace length in seconds (default Day)

	BackhaulBps float64 // downlink access speed (default 6 Mbps)
	UplinkBps   float64 // uplink access speed (default 512 kbps)

	Profile Profile // time-of-day online fraction
	Seed    int64   // RNG seed; same seed => identical trace

	FlowsOnly bool // skip keepalive materialization (large-scale Fig 2 runs)
	Uplink    bool // emit uplink flows too (residential scenario)

	// Placement. Real client-AP association is skewed (lecture halls vs
	// corner offices); ZipfS > 0 draws AP popularity from a Zipf law with
	// that exponent. ZipfS == 0 places clients round-robin (balanced),
	// which is what the paper's simulation scenario does ("we uniformly
	// distribute the 272 clients over the 40 gateways").
	ZipfS float64

	// Symmetric switches the generator into exact-symmetry mode: clients
	// are placed strictly round-robin (client c on AP c%APs, no shuffle)
	// and each client's RNG stream is keyed by its slot c/APs instead of
	// its global index. Gateways that serve the same number of clients
	// then receive byte-identical workloads — the property the campaign
	// symmetry-collapse pass (internal/quotient) relies on. Incompatible
	// with ZipfS > 0.
	Symmetric bool

	// ClientWeightSigma adds per-client heterogeneity: each client's
	// online propensity and traffic intensity are scaled by a lognormal
	// factor with this sigma (mean 1). Zero means homogeneous clients.
	ClientWeightSigma float64

	// Traffic shape. Zero values take the calibrated defaults below.
	SessionMeanSec float64 // mean online session length
	FlowProb       float64 // probability an event epoch is a flow (vs keepalive)
	ThinkMedianSec float64 // median of the lognormal think-time component
	FlowBodyMedian float64 // lognormal median of typical web flows (bytes)
	BigFlowProb    float64 // probability a flow is a large download
}

// Calibrated defaults shared by both scenarios; see the calibration tests,
// which pin the generator to the paper's published statistics.
const (
	defSessionMean = 3600.0 // 1 h terminal sessions
	defFlowProb    = 0.4
	defThinkMedian = 7.0
	defBodyMedian  = 80e3
	defBigFlow     = 0.10

	thinkSigma    = 1.0  // lognormal sigma of short think times
	longGapProb   = 0.03 // probability of a heavy-tailed pause
	longGapAlpha  = 1.15 // bounded Pareto shape of long pauses
	longGapLo     = 20.0
	longGapHi     = 600.0
	flowBodySigma = 1.4  // lognormal sigma of web flow bodies
	bigFlowAlpha  = 1.05 // bounded Pareto shape of large downloads
	bigFlowLo     = 5e5  // 500 kB
	bigFlowHi     = 8e6  // 8 MB: a single flow cannot saturate a 60 s window
	keepaliveBase = 60   // bytes
	keepaliveMean = 100.0
	ackFraction   = 0.03 // uplink ACK volume per downlink flow
	uploadProb    = 0.04 // probability a flow has a companion upload
	uploadScale   = 0.5  // companion upload size factor

	// streamProb is the probability that an online session carries a
	// rate-limited media stream (internet radio, 2007-era video) for its
	// whole duration. Streams provide the sustained medium loads real
	// traces exhibit between bursty transfers.
	streamProb      = 0.15
	streamRateMed   = 250e3 // lognormal median stream rate, bps (FLV-era video)
	streamRateSigma = 0.5
	streamRateMin   = 48e3
	streamRateMax   = 500e3
	streamChunkSec  = 240.0 // median media chunk (song / clip) length

	// Engaged/quiet spells within a session: a user browses actively for a
	// few minutes, then leaves the machine alone (reading, meetings) —
	// silent at packet level, since 2007-era idle laptops sent next to
	// nothing. These quiet stretches are what let plain SoI put some
	// gateways to sleep even during working hours (Fig 10, density 1).
	engagedMeanSec = 200.0
	quietAlpha     = 1.15
	quietLoSec     = 30.0
	quietHiSec     = 240.0
)

func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = Day
	}
	if c.BackhaulBps == 0 {
		c.BackhaulBps = DefaultBackhaulBps
	}
	if c.UplinkBps == 0 {
		c.UplinkBps = 512e3
	}
	if c.SessionMeanSec == 0 {
		c.SessionMeanSec = defSessionMean
	}
	if c.FlowProb == 0 {
		c.FlowProb = defFlowProb
	}
	if c.ThinkMedianSec == 0 {
		c.ThinkMedianSec = defThinkMedian
	}
	if c.FlowBodyMedian == 0 {
		c.FlowBodyMedian = defBodyMedian
	}
	if c.BigFlowProb == 0 {
		c.BigFlowProb = defBigFlow
	}
	return c
}

// DefaultOfficeConfig is the UCSD-CSE-like scenario behind Figs 3 and 4:
// 272 clients on 40 APs with 6 Mbps backhaul, downlink only, skewed
// client-AP association as in a real building.
func DefaultOfficeConfig(seed int64) Config {
	return Config{
		Clients: 272, APs: 40, Profile: OfficeProfile, Seed: seed,
		ZipfS: 1.0, ClientWeightSigma: 0.6,
	}
}

// DefaultSimConfig is the trace used by the §5 simulation scenario: same
// traffic as the office trace but with the paper's uniform client placement.
func DefaultSimConfig(seed int64) Config {
	c := DefaultOfficeConfig(seed)
	c.ZipfS = 0
	return c
}

// DefaultCityConfig is the city-scale benchmark scenario: 10,000
// residential gateways serving 100,000 terminal devices (~10 devices per
// household gateway) under the evening-peak residential profile. Unlike
// DefaultResidentialConfig it keeps keepalives materialized — the
// "continuous light traffic" is exactly what the engine's hot path has to
// survive at scale — and uses moderate per-client skew. Pair it with
// topology.GridCity (OverlapGraph does not scale to 10k gateways) and
// override Duration for bounded benchmark runs; see cmd/bench.
func DefaultCityConfig(seed int64) Config {
	return Config{
		Clients: 100_000, APs: 10_000, Profile: ResidentialProfile, Seed: seed,
		ClientWeightSigma: 1.0,
		SessionMeanSec:    5400,
		FlowBodyMedian:    200e3,
		BigFlowProb:       0.30,
	}
}

// DefaultResidentialConfig is the Fig 2 scenario scaled to n subscribers:
// one client per gateway, evening-peak profile, heavier per-user traffic
// (streaming/P2P era), strong across-subscriber skew, down+uplink.
func DefaultResidentialConfig(n int, seed int64) Config {
	return Config{
		Clients: n, APs: n, Profile: ResidentialProfile, Seed: seed,
		Uplink: true, FlowsOnly: true,
		ClientWeightSigma: 1.5,
		SessionMeanSec:    5400,
		FlowProb:          0.8,
		ThinkMedianSec:    4,
		FlowBodyMedian:    200e3,
		BigFlowProb:       0.45,
	}
}

// Generate synthesizes a trace from cfg. It is deterministic in cfg
// (including Seed).
func Generate(cfg Config) (*Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.Clients <= 0 || cfg.APs <= 0 {
		return nil, fmt.Errorf("trace: need positive Clients and APs, got %d/%d", cfg.Clients, cfg.APs)
	}
	if cfg.Clients < cfg.APs {
		return nil, fmt.Errorf("trace: fewer clients (%d) than APs (%d)", cfg.Clients, cfg.APs)
	}
	if cfg.Symmetric && cfg.ZipfS > 0 {
		return nil, fmt.Errorf("trace: Symmetric placement is incompatible with ZipfS > 0")
	}
	tr := &Trace{Cfg: cfg, ClientAP: make([]int, cfg.Clients)}
	if ef, ek := expectedEvents(cfg); ef > 0 || ek > 0 {
		tr.Flows = make([]Flow, 0, ef)
		tr.Keepalives = make([]Packet, 0, ek)
	}

	placeRNG := stats.NewRNG(cfg.Seed, 0x9a7e)
	if cfg.Symmetric {
		// Exact-symmetry placement: no RNG involvement, client c sits on
		// AP c%APs so AP g's clients occupy slots 0..count(g)-1.
		for c := 0; c < cfg.Clients; c++ {
			tr.ClientAP[c] = c % cfg.APs
		}
	} else if cfg.ZipfS > 0 {
		// Zipf AP popularity in a random AP order, but guarantee every AP
		// at least one client so no gateway is structurally dead.
		weights := make([]float64, cfg.APs)
		order := placeRNG.Perm(cfg.APs)
		for rank, ap := range order {
			weights[ap] = 1 / math.Pow(float64(rank+1), cfg.ZipfS)
		}
		for c := 0; c < cfg.Clients; c++ {
			if c < cfg.APs {
				tr.ClientAP[c] = order[c]
				continue
			}
			tr.ClientAP[c] = stats.WeightedChoice(placeRNG, weights)
		}
		placeRNG.Shuffle(cfg.Clients, func(i, j int) {
			tr.ClientAP[i], tr.ClientAP[j] = tr.ClientAP[j], tr.ClientAP[i]
		})
	} else {
		// Balanced round-robin over a shuffled client order.
		perm := placeRNG.Perm(cfg.Clients)
		for i, c := range perm {
			tr.ClientAP[c] = i % cfg.APs
		}
	}

	if workers := min(runtime.GOMAXPROCS(0), blockCount(cfg.Clients)); workers > 1 {
		genParallel(tr, cfg, workers)
	} else {
		genClients(tr, cfg, stats.NewRNG(cfg.Seed, 0x1000), 0, cfg.Clients)
	}
	sortByTime(tr)
	return tr, nil
}

// genBlock is how many clients a generator worker synthesizes at a time.
// A trace of fewer than two blocks is generated on the calling goroutine.
const genBlock = 1024

// blockCount is the number of genBlock-client blocks covering n clients.
func blockCount(n int) int { return (n + genBlock - 1) / genBlock }

// genClients appends the events of clients [lo, hi) to dst in client
// order. One generator reseeded per client instead of one allocated per
// client: the source's state is ~5 KB, which at city scale (100k clients)
// would be most of the generator's heap churn. A reseed only stores the
// seed, and the client's first draws compute the state words they read
// (BenchmarkReseed in internal/stats). It reproduces NewRNG's stream
// exactly, so traces are unchanged.
func genClients(dst *Trace, cfg Config, r *rand.Rand, lo, hi int) {
	for c := lo; c < hi; c++ {
		key := uint64(c)
		if cfg.Symmetric {
			// Slot-keyed streams: clients in the same slot on different
			// APs draw identical event sequences (see Config.Symmetric).
			key = uint64(c / cfg.APs)
		}
		stats.Reseed(r, cfg.Seed, 0x1000+key)
		w := 1.0
		if cfg.ClientWeightSigma > 0 {
			s := cfg.ClientWeightSigma
			w = stats.Lognormal(r, -s*s/2, s) // mean 1
		}
		genClient(dst, int32(c), r, cfg, w)
	}
}

// blockSlot is one slot of genParallel's ring: the buffer block turn is
// generated into, and whether it holds that block's events yet.
type blockSlot struct {
	turn  int
	ready bool
	buf   Trace
}

// genParallel generates the clients' events in blocks of genBlock clients
// on workers goroutines and appends the blocks to tr in block order, so
// tr's events come out exactly as genClients over all clients appends
// them. Block b is generated into slot b mod len(ring) once the caller
// has appended block b−len(ring) from it, so the ring of workers+1
// recycled buffers bounds the memory in flight whatever the client count.
// All workers have exited when it returns.
func genParallel(tr *Trace, cfg Config, workers int) {
	// A block's buffers start at its share of the trace's estimated size
	// plus a quarter: one block's count strays further from its share
	// than the whole trace's does (up to 1.19 of it on city traces).
	blocks := blockCount(cfg.Clients)
	blockFlows := cap(tr.Flows)*genBlock/cfg.Clients*5/4 + 1
	blockKeepalives := cap(tr.Keepalives)*genBlock/cfg.Clients*5/4 + 1
	ring := make([]blockSlot, min(workers+1, blocks))
	for i := range ring {
		ring[i] = blockSlot{turn: i, buf: Trace{
			Flows:      make([]Flow, 0, blockFlows),
			Keepalives: make([]Packet, 0, blockKeepalives),
		}}
	}
	var mu sync.Mutex
	changed := sync.NewCond(&mu)
	// await blocks until slot s is on block turn with the given readiness;
	// publish moves it there and wakes every waiter.
	await := func(s *blockSlot, turn int, ready bool) {
		mu.Lock()
		for s.turn != turn || s.ready != ready {
			changed.Wait()
		}
		mu.Unlock()
	}
	publish := func(s *blockSlot, turn int, ready bool) {
		mu.Lock()
		s.turn, s.ready = turn, ready
		mu.Unlock()
		changed.Broadcast()
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := stats.NewRNG(cfg.Seed, 0x1000)
			for b := int(next.Add(1) - 1); b < blocks; b = int(next.Add(1) - 1) {
				s := &ring[b%len(ring)]
				await(s, b, false)
				s.buf.Flows, s.buf.Keepalives = s.buf.Flows[:0], s.buf.Keepalives[:0]
				genClients(&s.buf, cfg, r, b*genBlock, min((b+1)*genBlock, cfg.Clients))
				publish(s, b, true)
			}
		}()
	}
	for b := 0; b < blocks; b++ {
		s := &ring[b%len(ring)]
		await(s, b, true)
		tr.Flows = append(tr.Flows, s.buf.Flows...)
		tr.Keepalives = append(tr.Keepalives, s.buf.Keepalives...)
		publish(s, b+len(ring), false)
	}
	wg.Wait()
}

// sortByTime puts the trace in time order, sorting the flows and the
// keepalives on two goroutines. The sort is not stable but deterministic:
// the order of equal-time events is fixed by the input order. It is the
// pdqsort sort.Slice runs, so that order is the one traces always had.
func sortByTime(tr *Trace) {
	done := make(chan struct{})
	go func() {
		slices.SortFunc(tr.Keepalives, byTime)
		close(done)
	}()
	slices.SortFunc(tr.Flows, byStart)
	<-done
}

// boundedParetoMean is the mean of the bounded Pareto(alpha, lo, hi)
// distribution stats.Pareto draws from.
func boundedParetoMean(alpha, lo, hi float64) float64 {
	la, ha := math.Pow(lo, alpha), math.Pow(hi, alpha)
	return la / (1 - la/ha) * alpha / (alpha - 1) *
		(math.Pow(lo, 1-alpha) - math.Pow(hi, 1-alpha))
}

// expectedEvents estimates the flow and keepalive counts of a trace from
// the generator's own calibrated process parameters, so Generate can size
// its event slices once instead of growing them through doublings (at city
// scale the wasted growth copies are tens of millions of events). The
// estimate only controls capacity — a miss in either direction is
// harmless — but it tracks the realized counts within ~20%.
func expectedEvents(cfg Config) (flows, keepalives int) {
	// Mean online fraction over the trace, sampled from the profile.
	const samples = 96
	mean := 0.0
	for i := 0; i < samples; i++ {
		mean += cfg.Profile.At((float64(i) + 0.5) * cfg.Duration / samples)
	}
	mean /= samples
	if mean <= 0 {
		return 0, 0
	}
	if s := cfg.ClientWeightSigma; s > 0 {
		// Per-client weights are lognormal with mean 1, but the online
		// fraction is capped at 0.98, so heavy users contribute less than
		// weight*mean. Average min(mean*w, 0.98) over weight quantiles.
		const wq = 32
		capped := 0.0
		for i := 0; i < wq; i++ {
			p := (float64(i) + 0.5) / wq
			w := math.Exp(-s*s/2 + s*math.Sqrt2*math.Erfinv(2*p-1))
			capped += math.Min(mean*w, 0.98)
		}
		mean = capped / wq
	}

	// Event epochs happen during the engaged parts of online time, one per
	// think gap (a lognormal/long-pause mixture; see thinkGap).
	thinkMean := (1-longGapProb)*cfg.ThinkMedianSec*math.Exp(thinkSigma*thinkSigma/2) +
		longGapProb*boundedParetoMean(longGapAlpha, longGapLo, longGapHi)
	engagedFrac := engagedMeanSec /
		(engagedMeanSec + boundedParetoMean(quietAlpha, quietLoSec, quietHiSec))
	onlineSec := mean * cfg.Duration // per client
	epochs := onlineSec * engagedFrac / thinkMean

	flowsPer := epochs * cfg.FlowProb
	if cfg.Uplink {
		flowsPer *= 2 + uploadProb // every flow gets an ACK, some an upload
	}
	sessions := onlineSec/cfg.SessionMeanSec + mean
	flowsPer += sessions * streamProb * cfg.SessionMeanSec / streamChunkSec
	kaPer := 0.0
	if !cfg.FlowsOnly {
		kaPer = epochs * (1 - cfg.FlowProb)
	}
	n := float64(cfg.Clients)
	const headroom = 1.15
	return int(n*flowsPer*headroom) + 64, int(n*kaPer*headroom) + 64
}

// genClient simulates one client's day: an on/off terminal-session process
// whose stationary online fraction tracks weight*cfg.Profile, with event
// epochs (flows or keepalives) during online periods.
func genClient(tr *Trace, client int32, r *rand.Rand, cfg Config, weight float64) {
	// Two-state Markov process with time-varying on-rate. Off->On rate
	// r_on(t) = a(t) / (S * (1 - a(t))) gives stationary online fraction
	// a(t) when On->Off rate is 1/S. Simulated by thinning at rMax.
	S := cfg.SessionMeanSec
	online := func(t float64) float64 {
		a := cfg.Profile.At(t) * weight
		if a > 0.98 {
			a = 0.98
		}
		return a
	}
	aMax := cfg.Profile.Max() * weight
	if aMax > 0.98 {
		aMax = 0.98
	}
	rMax := aMax / (S * (1 - aMax))
	onRate := func(t float64) float64 {
		a := online(t)
		return a / (S * (1 - a))
	}

	t := 0.0
	isOn := r.Float64() < online(0)
	var sessionEnd, spellEnd float64
	engaged := true
	if isOn {
		sessionEnd = stats.Exp(r, S)
		spellEnd = stats.Exp(r, engagedMeanSec)
		maybeStream(tr, client, r, cfg, t, sessionEnd)
	}
	for t < cfg.Duration {
		if !isOn {
			for t < cfg.Duration {
				t += stats.Exp(r, 1/rMax)
				if r.Float64() < onRate(t)/rMax {
					break
				}
			}
			if t >= cfg.Duration {
				return
			}
			isOn = true
			sessionEnd = t + stats.Exp(r, S)
			engaged = true
			spellEnd = t + stats.Exp(r, engagedMeanSec)
			maybeStream(tr, client, r, cfg, t, sessionEnd)
			continue
		}
		if t >= spellEnd {
			// Toggle between active browsing and packet-silent spells.
			engaged = !engaged
			if engaged {
				spellEnd = t + stats.Exp(r, engagedMeanSec)
			} else {
				spellEnd = t + stats.Pareto(r, quietAlpha, quietLoSec, quietHiSec)
			}
		}
		if !engaged {
			// Jump silently to the end of the quiet spell (or session).
			t = spellEnd
			if t >= sessionEnd || t >= cfg.Duration {
				t = sessionEnd
				isOn = false
			}
			continue
		}
		t += thinkGap(r, cfg)
		if t >= sessionEnd || t >= cfg.Duration {
			t = sessionEnd
			isOn = false
			continue
		}
		if r.Float64() < cfg.FlowProb {
			size := flowSize(r, cfg, weight)
			tr.Flows = append(tr.Flows, Flow{Start: t, Client: client, Bytes: size})
			if cfg.Uplink {
				ack := int64(float64(size) * ackFraction)
				if ack < 40 {
					ack = 40
				}
				tr.Flows = append(tr.Flows, Flow{Start: t, Client: client, Bytes: ack, Up: true})
				if r.Float64() < uploadProb {
					up := int64(float64(flowSize(r, cfg, weight)) * uploadScale)
					if up < 1000 {
						up = 1000
					}
					tr.Flows = append(tr.Flows, Flow{Start: t, Client: client, Bytes: up, Up: true})
				}
			}
		} else if !cfg.FlowsOnly {
			b := keepaliveBase + int32(stats.Exp(r, keepaliveMean))
			if b > 1400 {
				b = 1400
			}
			tr.Keepalives = append(tr.Keepalives, Packet{T: t, Client: client, Bytes: b})
		}
	}
}

// maybeStream emits a rate-limited media stream spanning a session with
// probability streamProb. Media plays in chunks (songs, clips, video
// segments of a few minutes), so the stream is a back-to-back sequence of
// rate-capped flows: each chunk is new traffic and re-routes through the
// terminal's current gateway — exactly how BH² migrates long-lived media
// sessions without dropping flows (§5.1).
func maybeStream(tr *Trace, client int32, r *rand.Rand, cfg Config, start, end float64) {
	if r.Float64() >= streamProb {
		return
	}
	if end > cfg.Duration {
		end = cfg.Duration
	}
	if end-start < 60 {
		return // too short to bother tuning in
	}
	rate := stats.Lognormal(r, math.Log(streamRateMed), streamRateSigma)
	if rate < streamRateMin {
		rate = streamRateMin
	}
	if rate > streamRateMax {
		rate = streamRateMax
	}
	for t := start; t < end; {
		chunk := stats.Lognormal(r, math.Log(streamChunkSec), 0.4)
		if t+chunk > end {
			chunk = end - t
		}
		if chunk < 10 {
			break
		}
		tr.Flows = append(tr.Flows, Flow{
			Start: t, Client: client,
			Bytes: int64(rate / 8 * chunk),
			Rate:  rate,
		})
		t += chunk
	}
}

// thinkGap draws one inter-event gap: mostly short lognormal think times
// with an occasional heavy-tailed pause. The mixture is what produces the
// Fig 4 idle-gap histogram: the bulk of idle time in sub-60 s gaps with a
// 15-20% tail beyond 60 s.
func thinkGap(r *rand.Rand, cfg Config) float64 {
	if r.Float64() < longGapProb {
		return stats.Pareto(r, longGapAlpha, longGapLo, longGapHi)
	}
	return stats.Lognormal(r, math.Log(cfg.ThinkMedianSec), thinkSigma)
}

// flowSize draws a flow size in bytes: lognormal web bodies with a bounded
// Pareto tail of large downloads. The client weight scales the chance of a
// heavy download, not the body size — heavy users are heavy because they
// fetch more and bigger things, not because their pages differ.
func flowSize(r *rand.Rand, cfg Config, weight float64) int64 {
	bigP := cfg.BigFlowProb * weight
	if bigP > 0.6 {
		bigP = 0.6
	}
	var s float64
	if r.Float64() < bigP {
		s = stats.Pareto(r, bigFlowAlpha, bigFlowLo, bigFlowHi)
	} else {
		s = stats.Lognormal(r, math.Log(cfg.FlowBodyMedian), flowBodySigma)
	}
	if s < 200 {
		s = 200
	}
	return int64(s)
}

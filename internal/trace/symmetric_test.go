package trace

import (
	"runtime"
	"testing"
)

// clientEvents flattens one client's flows and keepalives into a
// comparable form (times, sizes, rates) for workload-identity checks.
type clientEvents struct {
	flows []Flow
	keeps []Packet
}

func eventsByClient(tr *Trace) map[int32]*clientEvents {
	out := map[int32]*clientEvents{}
	get := func(c int32) *clientEvents {
		e := out[c]
		if e == nil {
			e = &clientEvents{}
			out[c] = e
		}
		return e
	}
	for _, f := range tr.Flows {
		get(f.Client).flows = append(get(f.Client).flows, f)
	}
	for _, k := range tr.Keepalives {
		get(k.Client).keeps = append(get(k.Client).keeps, k)
	}
	return out
}

// TestSymmetricPlacement pins the contract the symmetry-collapse pass
// relies on: under Config.Symmetric, client c lands on AP c%APs and the
// slot-keyed RNG streams give same-slot clients on different APs
// byte-identical event sequences — so equal-count gateways carry
// byte-identical workloads.
func TestSymmetricPlacement(t *testing.T) {
	cfg := DefaultSimConfig(7)
	cfg.Clients, cfg.APs, cfg.Duration = 23, 5, 7200 // counts 5,5,5,4,4
	cfg.Symmetric = true
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c, ap := range tr.ClientAP {
		if ap != c%cfg.APs {
			t.Fatalf("ClientAP[%d] = %d, want %d", c, ap, c%cfg.APs)
		}
	}
	ev := eventsByClient(tr)
	// Same slot, different AP => identical events (up to client id).
	for slot := 0; slot < 4; slot++ {
		ref := ev[int32(slot*cfg.APs)] // slot on AP 0
		for ap := 1; ap < cfg.APs; ap++ {
			c := int32(slot*cfg.APs + ap)
			if slot*cfg.APs+ap >= cfg.Clients {
				continue
			}
			got := ev[c]
			if ref == nil || got == nil {
				if (ref == nil) != (got == nil) {
					t.Fatalf("slot %d: AP0 and AP%d differ in having events", slot, ap)
				}
				continue
			}
			if len(got.flows) != len(ref.flows) || len(got.keeps) != len(ref.keeps) {
				t.Fatalf("slot %d AP %d: %d/%d events, want %d/%d",
					slot, ap, len(got.flows), len(got.keeps), len(ref.flows), len(ref.keeps))
			}
			for i := range ref.flows {
				a, b := ref.flows[i], got.flows[i]
				if a.Start != b.Start || a.Bytes != b.Bytes || a.Rate != b.Rate || a.Up != b.Up {
					t.Fatalf("slot %d AP %d flow %d: %+v != %+v", slot, ap, i, b, a)
				}
			}
			for i := range ref.keeps {
				a, b := ref.keeps[i], got.keeps[i]
				if a.T != b.T || a.Bytes != b.Bytes {
					t.Fatalf("slot %d AP %d keepalive %d: %+v != %+v", slot, ap, i, b, a)
				}
			}
		}
	}
}

func TestSymmetricRejectsZipf(t *testing.T) {
	cfg := DefaultOfficeConfig(1) // ZipfS = 1
	cfg.Symmetric = true
	if _, err := Generate(cfg); err == nil {
		t.Fatal("Symmetric + ZipfS > 0 should be rejected")
	}
}

// TestGenerateAllocsFlat pins the generator's allocation profile: one
// reseeded RNG and up-front event-slice sizing mean the allocation count
// stays (nearly) independent of the client count. Before this pin the
// generator allocated a ~5 KB rand source per client (2+ allocs/client,
// ~500 MB of the 100k-client city benchmark). testing.AllocsPerRun runs at
// GOMAXPROCS 1, so it measures the serial loop; the parallel path is
// measured at GOMAXPROCS 4 on a trace of about 200 client blocks, where
// any per-block allocation would exceed the bound.
func TestGenerateAllocsFlat(t *testing.T) {
	cfg := DefaultCityConfig(3)
	cfg.Clients, cfg.APs, cfg.Duration = 5000, 500, 7200
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Generate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 13; anything linear in clients would be >= 5000.
	if allocs > 200 {
		t.Fatalf("Generate allocated %.0f times for %d clients; want a client-count-independent profile (<= 200)",
			allocs, cfg.Clients)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg.Clients, cfg.APs, cfg.Duration = 200*genBlock, 20_000, 60
	if _, err := Generate(cfg); err != nil { // warm up, as AllocsPerRun does
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := Generate(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	// Measured 50–53 at GOMAXPROCS 4: per worker a goroutine and an RNG, per
	// ring slot two buffers.
	if allocs := m1.Mallocs - m0.Mallocs; allocs > 200 {
		t.Fatalf("parallel Generate allocated %d times for %d client blocks; want a block-count-independent profile (<= 200)",
			allocs, blockCount(cfg.Clients))
	}
}

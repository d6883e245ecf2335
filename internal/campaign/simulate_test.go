package campaign

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"insomnia/internal/runner"
	"insomnia/internal/sim"
	"insomnia/internal/stats"
)

// simulateAll runs the plan through Simulate and returns the cells in
// the order fn received them, with their Results.
func simulateAll(t *testing.T, p *Plan, opts Options) ([]Cell, []*sim.Result) {
	t.Helper()
	var cells []Cell
	var results []*sim.Result
	err := p.Simulate(context.Background(), opts, func(c Cell, res *sim.Result) error {
		cells = append(cells, c)
		results = append(results, res)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return cells, results
}

// diffResult names the first field where got differs from want bit for
// bit: floats by their bits (NaN patterns included), time series bin by
// bin, maps by value. It walks Result by reflection, so a field added
// later is compared too. Siblings is skipped: Simulate hands each sibling
// out as a cell of its own.
func diffResult(want, got *sim.Result) string {
	// walk returns "" or the mismatch, each level prefixing its path
	// segment on the way out.
	var walk func(w, g reflect.Value) string
	walk = func(w, g reflect.Value) string {
		switch w.Kind() {
		case reflect.Float64:
			if math.Float64bits(w.Float()) != math.Float64bits(g.Float()) {
				return fmt.Sprintf(": want %v got %v", w.Float(), g.Float())
			}
		case reflect.Int:
			if w.Int() != g.Int() {
				return fmt.Sprintf(": want %d got %d", w.Int(), g.Int())
			}
		case reflect.Slice:
			if w.IsNil() != g.IsNil() || w.Len() != g.Len() {
				return fmt.Sprintf(": want %d entries got %d", w.Len(), g.Len())
			}
			for i := 0; i < w.Len(); i++ {
				if d := walk(w.Index(i), g.Index(i)); d != "" {
					return fmt.Sprintf("[%d]%s", i, d)
				}
			}
		case reflect.Map:
			if !reflect.DeepEqual(w.Interface(), g.Interface()) {
				return fmt.Sprintf(": want %v got %v", w.Interface(), g.Interface())
			}
		case reflect.Struct:
			for i := 0; i < w.NumField(); i++ {
				if f := w.Type().Field(i); f.Name != "Siblings" {
					if d := walk(w.Field(i), g.Field(i)); d != "" {
						return "." + f.Name + d
					}
				}
			}
		case reflect.Pointer:
			ws, gs := w.Interface().(*stats.TimeSeries), g.Interface().(*stats.TimeSeries)
			if ws == nil || gs == nil {
				if (ws == nil) != (gs == nil) {
					return fmt.Sprintf(": want nil %v got nil %v", ws == nil, gs == nil)
				}
				return ""
			}
			return walk(reflect.ValueOf(ws.Means()), reflect.ValueOf(gs.Means()))
		default:
			return fmt.Sprintf(": unhandled kind %v", w.Kind())
		}
		return ""
	}
	if d := walk(reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem()); d != "" {
		return "Result" + d
	}
	return ""
}

// TestSimulateCellOrder: fn sees every cell once, in cell order, and the
// sibling fabrics of an engine run arrive as cells of their own, each
// with its own scheme's Result.
func TestSimulateCellOrder(t *testing.T) {
	p := compileSpec(t, siblingSpec(officeSchemes, []int64{1, 2}, false))
	var runs atomic.Int32
	count := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		runs.Add(1)
		return sim.RunContext(ctx, cfg)
	}
	cells, results := simulateAll(t, p, Options{Workers: 2, exec: count})
	if len(cells) != len(p.Cells) {
		t.Fatalf("fn saw %d cells, want %d", len(cells), len(p.Cells))
	}
	for i, c := range cells {
		if c != p.Cells[i] {
			t.Fatalf("cell %d is %s, want %s: cells left cell order", i, c.Key(), p.Cells[i].Key())
		}
		if results[i].Scheme != c.Scheme {
			t.Errorf("cell %s got a %v Result", c.Key(), results[i].Scheme)
		}
	}
	if n := runs.Load(); n != 8 {
		t.Errorf("%d cells took %d engine runs, want 8", len(cells), n)
	}
}

// TestSimulateMatchesLoneRuns: every Result Simulate hands out, sibling
// or not, equals a lone sim.Run of its cell over the scenario
// BuildScenario builds, bit for bit.
func TestSimulateMatchesLoneRuns(t *testing.T) {
	p := compileSpec(t, siblingSpec(officeSchemes, []int64{1, 2}, false))
	cells, results := simulateAll(t, p, Options{Workers: 2})
	for i, c := range cells {
		tr, tp, err := BuildScenario(p.Spec, c.Seed)
		if err != nil {
			t.Fatal(err)
		}
		lone, err := sim.Run(sim.Config{Trace: tr, Topo: tp, Scheme: c.Scheme, Seed: c.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if d := diffResult(lone, results[i]); d != "" {
			t.Errorf("%s differs from a lone run: %s", c.Key(), d)
		}
	}
}

// TestSimulateWorkerInvariance: 1 and 4 workers hand out identical
// Results.
func TestSimulateWorkerInvariance(t *testing.T) {
	p := compileSpec(t, siblingSpec(officeSchemes, []int64{1, 2}, false))
	serialCells, serial := simulateAll(t, p, Options{Workers: 1})
	parallelCells, parallel := simulateAll(t, p, Options{Workers: 4})
	if !reflect.DeepEqual(serialCells, parallelCells) {
		t.Fatal("1 and 4 workers delivered different cells")
	}
	for i, c := range serialCells {
		if d := diffResult(serial[i], parallel[i]); d != "" {
			t.Errorf("%s differs between 1 and 4 workers: %s", c.Key(), d)
		}
	}
}

// TestSimulateFailure: a failed engine run, or an error from fn, stops
// Simulate with an error naming the cell, and every pool and Budget slot
// is released by the time it returns.
func TestSimulateFailure(t *testing.T) {
	poison := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		if cfg.Scheme == sim.SoI {
			panic("SoI family is poisoned")
		}
		return sim.RunContext(ctx, cfg)
	}
	for _, tc := range []struct {
		name string
		exec func(context.Context, sim.Config) (*sim.Result, error)
		fn   func(Cell) error
		want string
	}{
		{"engine run panics", poison, func(Cell) error { return nil }, "base|SoI|1"},
		{"fn fails", nil, func(c Cell) error {
			if c.Scheme == sim.BH2KSwitch {
				return fmt.Errorf("%s: reducer gave up", c.Key())
			}
			return nil
		}, "base|BH2+k-switch|1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			budget := runner.NewBudget(2)
			p := compileSpec(t, siblingSpec(officeSchemes, []int64{1, 2}, false))
			var seen []string
			err := p.Simulate(context.Background(), Options{Workers: 2, Budget: budget, exec: tc.exec},
				func(c Cell, _ *sim.Result) error {
					seen = append(seen, c.Key())
					return tc.fn(c)
				})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Simulate returned %v, want an error naming %s", err, tc.want)
			}
			if n := budget.InUse(); n != 0 {
				t.Errorf("%d budget slot(s) still held after Simulate returned", n)
			}
			if len(seen) == 0 || seen[0] != "base|no-sleep|1" || len(seen) >= len(p.Cells) {
				t.Errorf("fn saw %v: want the cells before the failure only", seen)
			}
		})
	}
}

// TestSimulateCanceled: a canceled context stops Simulate with
// ErrCanceled.
func TestSimulateCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := compileSpec(t, siblingSpec(officeSchemes, []int64{1}, false))
	err := p.Simulate(ctx, Options{Workers: 2}, func(Cell, *sim.Result) error { return nil })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled Simulate returned %v, want ErrCanceled", err)
	}
}

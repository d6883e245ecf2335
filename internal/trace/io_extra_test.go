package trace

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestReadFlowsCSVRoundTrip(t *testing.T) {
	tr, err := Generate(Config{Clients: 12, APs: 3, Profile: OfficeProfile, Seed: 21, FlowsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteFlowsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlowsCSV(&buf, tr.Cfg, tr.ClientAP)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Flows) != len(tr.Flows) {
		t.Fatalf("%d flows, want %d", len(got.Flows), len(tr.Flows))
	}
	if !slices.Equal(got.Flows, tr.Flows) {
		for i, a := range tr.Flows {
			if b := got.Flows[i]; a != b {
				t.Fatalf("flow %d: %+v vs %+v", i, a, b)
			}
		}
	}
}

func TestReadFlowsCSVRejectsBadInput(t *testing.T) {
	cfg := Config{Clients: 2, APs: 1}
	clientAP := []int{0, 0}
	cases := []string{
		"",                            // no header
		"wrong,header,entirely,x,y\n", // wrong names
		"start,client,bytes,rate\n",   // missing column
		"start,client,bytes,rate,up\nx,0,1,0,f\n",          // bad start
		"start,client,bytes,rate,up\n1,zz,1,0,false\n",     // bad client
		"start,client,bytes,rate,up\n1,0,zz,0,false\n",     // bad bytes
		"start,client,bytes,rate,up\n1,0,10,zz,false\n",    // bad rate
		"start,client,bytes,rate,up\n1,0,10,0,maybe\n",     // bad up
		"start,client,bytes,rate,up\n1,9,10,0,false\n",     // client out of range
		"start,client,bytes,rate,up\n1,0,-10,0,false\n",    // negative bytes
		"start,client,bytes,rate,up\n1,0,10,-5,false\n",    // negative rate
		"start,client,bytes,rate,up\n999999,0,1,0,false\n", // beyond duration
		"start,client,bytes,rate,up\nNaN,0,1,0,false\n",    // NaN start
		"start,client,bytes,rate,up\n1,0,1,NaN,false\n",    // NaN rate

		"start,client,bytes,rate,up\n5,4294967297,10000,0,false\n", // client past int32 (would wrap to 1)
	}
	for i, in := range cases {
		if _, err := ReadFlowsCSV(strings.NewReader(in), cfg, clientAP); err == nil {
			t.Errorf("case %d accepted: %q", i, in)
		}
	}
}

func TestReadFlowsCSVSortsByStart(t *testing.T) {
	in := "start,client,bytes,rate,up\n5,0,10,0,false\n1,0,20,0,false\n"
	tr, err := ReadFlowsCSV(strings.NewReader(in), Config{Clients: 1, APs: 1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Flows[0].Start != 1 || tr.Flows[1].Start != 5 {
		t.Errorf("not sorted: %+v", tr.Flows)
	}
}

// FuzzReadFlowsCSV hardens the CSV reader against corrupt input: it must
// error or return flows the engine can replay, never panic. The engine's
// input contract is checked directly rather than through Validate, which
// the reader has already run: every start a finite time in [0, Duration]
// (in order), every rate finite and non-negative.
func FuzzReadFlowsCSV(f *testing.F) {
	f.Add("start,client,bytes,rate,up\n1,0,10,0,false\n")
	f.Add("start,client,bytes,rate,up\n")
	f.Add("garbage")
	f.Add("start,client,bytes,rate,up\n5,1,10000,0,false\n10,0,20000,0,false\nNaN,0,10,0,false\n")
	f.Fuzz(func(t *testing.T, data string) {
		got, err := ReadFlowsCSV(strings.NewReader(data), Config{Clients: 4, APs: 2}, []int{0, 1, 0, 1})
		if err != nil {
			return
		}
		prev := 0.0
		for i, fl := range got.Flows {
			if !(fl.Start >= prev && fl.Start <= got.Cfg.Duration) {
				t.Fatalf("flow %d starts at %v, want a time in [%v, %v]", i, fl.Start, prev, got.Cfg.Duration)
			}
			if !(fl.Rate >= 0) || math.IsInf(fl.Rate, 1) {
				t.Fatalf("flow %d has rate %v, want finite and >= 0", i, fl.Rate)
			}
			prev = fl.Start
		}
	})
}

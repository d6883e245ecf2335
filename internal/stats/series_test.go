package stats

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	series := []Series{
		{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
		{Name: "b", X: []float64{1, 3}, Y: []float64{5, 7}, Err: []float64{0.5, 0.7}},
	}
	if err := WriteSeriesCSV(&buf, "x", series); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "x,a,b,b-stddev\n") {
		t.Errorf("header: %q", strings.SplitN(out, "\n", 2)[0])
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + x=1,2,3
		t.Fatalf("lines: %v", lines)
	}
	// x=2 has no b sample: trailing blanks.
	if !strings.Contains(lines[2], "2,20,,") {
		t.Errorf("row for x=2: %q", lines[2])
	}
}

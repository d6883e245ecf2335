package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// ReadFlowsCSV parses flow records written by WriteFlowsCSV (or converted
// from a real packet trace): header start,client,bytes,rate,up, one flow
// per row. The caller supplies the static layout (clients, APs, client->AP
// map) since a flow list alone does not carry it; the result is validated.
//
// This is the entry point for replaying real traces (e.g. CRAWDAD
// conversions) through the simulator instead of the synthetic generator.
func ReadFlowsCSV(rd io.Reader, cfg Config, clientAP []int) (*Trace, error) {
	cr := csv.NewReader(rd)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV header: %w", err)
	}
	want := []string{"start", "client", "bytes", "rate", "up"}
	if len(header) != len(want) {
		return nil, fmt.Errorf("trace: CSV header has %d columns, want %d", len(header), len(want))
	}
	for i, h := range want {
		if header[i] != h {
			return nil, fmt.Errorf("trace: CSV column %d is %q, want %q", i, header[i], h)
		}
	}
	tr := &Trace{Cfg: cfg.withDefaults(), ClientAP: append([]int(nil), clientAP...)}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d: %w", line, err)
		}
		var f Flow
		if f.Start, err = strconv.ParseFloat(rec[0], 64); err != nil {
			return nil, fmt.Errorf("trace: CSV line %d start: %w", line, err)
		}
		c, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d client: %w", line, err)
		}
		f.Client = int32(c)
		if f.Bytes, err = strconv.ParseInt(rec[2], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: CSV line %d bytes: %w", line, err)
		}
		if f.Rate, err = strconv.ParseFloat(rec[3], 64); err != nil {
			return nil, fmt.Errorf("trace: CSV line %d rate: %w", line, err)
		}
		if f.Up, err = strconv.ParseBool(rec[4]); err != nil {
			return nil, fmt.Errorf("trace: CSV line %d up: %w", line, err)
		}
		tr.Flows = append(tr.Flows, f)
	}
	slices.SortFunc(tr.Flows, byStart)
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// WriteFlowsCSV writes the flow records as CSV with a header row:
// start,client,bytes,rate,up. Useful for external plotting.
func (tr *Trace) WriteFlowsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"start", "client", "bytes", "rate", "up"}); err != nil {
		return err
	}
	rec := make([]string, 5)
	for _, f := range tr.Flows {
		rec[0] = strconv.FormatFloat(f.Start, 'f', 3, 64)
		rec[1] = strconv.Itoa(int(f.Client))
		rec[2] = strconv.FormatInt(f.Bytes, 10)
		rec[3] = strconv.FormatFloat(f.Rate, 'f', 0, 64)
		rec[4] = strconv.FormatBool(f.Up)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

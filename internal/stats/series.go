package stats

import (
	"encoding/csv"
	"io"
	"slices"
	"strconv"
)

// Series is one plotted line: X positions, Y values, optional error bars.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	Err  []float64
}

// WriteSeriesCSV writes one or more series sharing an X axis as CSV:
// x,<name1>,<name2>,... Series with differing X grids are written with
// blank cells where they have no sample. Values carry 6 significant
// digits.
func WriteSeriesCSV(w io.Writer, xLabel string, series []Series) error {
	cw := csv.NewWriter(w)
	header := []string{xLabel}
	for _, s := range series {
		header = append(header, s.Name)
		if s.Err != nil {
			header = append(header, s.Name+"-stddev")
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	// Union of X values, in first-seen order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	fmtF := func(x float64) string { return strconv.FormatFloat(x, 'g', 6, 64) }
	for _, x := range xs {
		row := []string{fmtF(x)}
		for _, s := range series {
			i := slices.Index(s.X, x)
			if i < 0 {
				row = append(row, "")
				if s.Err != nil {
					row = append(row, "")
				}
				continue
			}
			row = append(row, fmtF(s.Y[i]))
			if s.Err != nil {
				row = append(row, fmtF(s.Err[i]))
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

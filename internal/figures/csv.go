package figures

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"insomnia/internal/stats"
)

// WriteHistogramCSV writes labeled histogram bins.
func WriteHistogramCSV(w io.Writer, labels []string, fracs []float64) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"bin", "fraction"}); err != nil {
		return err
	}
	for i, l := range labels {
		if err := cw.Write([]string{l, fmtF(fracs[i])}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RenderASCII draws a quick terminal chart of one series (for CLI output).
func RenderASCII(s stats.Series, width int) string {
	if len(s.Y) == 0 {
		return s.Name + ": (empty)\n"
	}
	maxY := s.Y[0]
	for _, y := range s.Y {
		if y > maxY {
			maxY = y
		}
	}
	if maxY <= 0 {
		maxY = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (max %.2f)\n", s.Name, maxY)
	for i, y := range s.Y {
		n := int(y / maxY * float64(width))
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&b, "%8.1f | %s %.2f\n", s.X[i], strings.Repeat("#", n), y)
	}
	return b.String()
}

func fmtF(x float64) string { return strconv.FormatFloat(x, 'g', 6, 64) }

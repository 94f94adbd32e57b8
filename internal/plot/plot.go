// Package plot renders numeric series as ASCII charts and CSV, so every
// reproduced figure can be inspected from the command line and exported for
// external plotting. It has no graphics dependencies by design.
package plot

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// ErrNoData indicates a chart with no finite points.
var ErrNoData = errors.New("plot: no finite data points")

// Series is one named curve.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// markers are assigned to series in order.
var _markers = []rune{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Chart configures an ASCII rendering.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
}

// The plot area of every chart, in columns and rows.
const (
	width  = 72
	height = 20
)

// Render draws the series into w as an ASCII chart. Non-finite points are
// skipped; it returns ErrNoData when nothing remains.
func (c Chart) Render(w io.Writer, series ...Series) error {
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	finite := 0
	for _, s := range series {
		for i := range s.X {
			if i >= len(s.Y) || !isFinite(s.X[i]) || !isFinite(s.Y[i]) {
				continue
			}
			finite++
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if finite == 0 {
		return ErrNoData
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = make([]rune, width)
		for col := range grid[r] {
			grid[r][col] = ' '
		}
	}
	for si, s := range series {
		mark := _markers[si%len(_markers)]
		for i := range s.X {
			if i >= len(s.Y) || !isFinite(s.X[i]) || !isFinite(s.Y[i]) {
				continue
			}
			col := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((s.Y[i]-minY)/(maxY-minY)*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = mark
			}
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s", _markers[si%len(_markers)], s.Name)
	}
	if len(series) > 0 {
		b.WriteByte('\n')
	}
	yFmt := pickFormat(minY, maxY)
	for r, row := range grid {
		yVal := maxY - (maxY-minY)*float64(r)/float64(height-1)
		fmt.Fprintf(&b, yFmt+" |%s|\n", yVal, string(row))
	}
	// X axis line and endpoint labels.
	pad := len(fmt.Sprintf(yFmt, 0.0))
	fmt.Fprintf(&b, "%s +%s+\n", strings.Repeat(" ", pad), strings.Repeat("-", width))
	xFmt := pickFormat(minX, maxX)
	lo := fmt.Sprintf(xFmt, minX)
	hi := fmt.Sprintf(xFmt, maxX)
	gap := width - len(lo) - len(hi)
	if gap < 1 {
		gap = 1
	}
	fmt.Fprintf(&b, "%s  %s%s%s\n", strings.Repeat(" ", pad), lo, strings.Repeat(" ", gap), hi)
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&b, "%s  x: %s   y: %s\n", strings.Repeat(" ", pad), c.XLabel, c.YLabel)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV emits the series in long format: series,x,y per row, with a
// header. It is the machine-readable companion of Render. Output is
// RFC-4180 round-trippable: names containing separators are quoted, and
// CRLF sequences inside names are folded to LF before writing because
// conforming readers (encoding/csv included) perform that fold inside
// quoted fields — writing the folded form is what makes a re-parse return
// exactly the written bytes (property-tested by FuzzWriteCSVRoundTrip).
func WriteCSV(w io.Writer, series ...Series) error {
	if _, err := io.WriteString(w, "series,x,y\n"); err != nil {
		return err
	}
	for _, s := range series {
		for i := range s.X {
			if i >= len(s.Y) {
				break
			}
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", csvEscape(s.Name), s.X[i], s.Y[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// csvEscape normalizes and quotes a field when it contains separators.
func csvEscape(s string) string {
	s = csvNormalize(s)
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// csvNormalize folds CRLF to LF (repeatedly, so "\r\r\n" cannot leave a
// fresh CRLF behind) to match the fold RFC-4180 readers apply inside
// quoted fields. Lone CR is preserved: readers keep it mid-field.
func csvNormalize(s string) string {
	for strings.Contains(s, "\r\n") {
		s = strings.ReplaceAll(s, "\r\n", "\n")
	}
	return s
}

// pickFormat chooses a compact numeric format for the axis range.
func pickFormat(lo, hi float64) string {
	span := math.Max(math.Abs(lo), math.Abs(hi))
	switch {
	case span == 0:
		return "%8.2f"
	case span >= 1e5 || span < 1e-2:
		return "%8.2e"
	default:
		return "%8.3f"
	}
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Package report renders fixed-width tables and CSV series for the
// experiment harnesses, so every table and figure of the paper regenerates
// with the same code from benches, CLIs and examples.
package report

import (
	"cmp"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Table is a titled grid of cells rendered with aligned columns.
type Table struct {
	title   string
	columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{title: title, columns: columns}
}

// Row appends a row; cells are formatted with %v, floats with %.1f.
func (t *Table) Row(cells ...any) *Table {
	if len(cells) != len(t.columns) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(cells), len(t.columns)))
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	t.rows = append(t.rows, row)
	return t
}

// Float3 renders with three decimal places (for ratios and normalized
// values); plain float64 cells render with one.
type Float3 float64

func formatCell(c any) string {
	switch v := c.(type) {
	case Float3:
		return fmt.Sprintf("%.3f", float64(v))
	case float64:
		return fmt.Sprintf("%.1f", v)
	case float32:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprint(v)
	}
}

// String renders the table with a title line, aligned columns and a rule.
func (t *Table) String() string {
	widths := make([]int, len(t.columns))
	for i, c := range t.columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header + rows), suitable
// for plotting the paper's figures.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.columns, ","))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Rows returns the number of data rows added so far.
func (t *Table) Rows() int { return len(t.rows) }

// Cell returns the formatted cell at (row, col), for tests.
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }

// Title returns the table's title line.
func (t *Table) Title() string { return t.title }

// Columns returns a copy of the column headers.
func (t *Table) Columns() []string { return append([]string(nil), t.columns...) }

// tableJSON is the wire form of a table: the already-formatted cells, so a
// table round-tripped through JSON renders (String, CSV) byte-identically
// to the original. The serving daemon's experiment endpoint uses it.
type tableJSON struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// MarshalJSON implements json.Marshaler with the {title, columns, rows}
// wire form.
func (t *Table) MarshalJSON() ([]byte, error) {
	j := tableJSON{Title: t.title, Columns: t.columns, Rows: t.rows}
	if j.Rows == nil {
		j.Rows = [][]string{}
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler, restoring a table sent in the
// MarshalJSON wire form.
func (t *Table) UnmarshalJSON(data []byte) error {
	var j tableJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	for _, row := range j.Rows {
		if len(row) != len(j.Columns) {
			return fmt.Errorf("report: table row has %d cells, %d columns declared", len(row), len(j.Columns))
		}
	}
	t.title, t.columns, t.rows = j.Title, j.Columns, j.Rows
	return nil
}

// SortedKeys returns m's keys in ascending order: the disciplined way to
// turn a map-keyed measure into rows. Go randomizes map iteration order per
// run, so emitting rows straight out of a range statement would make every
// table differ between replays of the same seed (which is also what the
// maporder analyzer rejects).
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// MapTable renders a two-column table from a map, rows in ascending key
// order, so map-keyed measures print identically on every run.
func MapTable[K cmp.Ordered, V any](title, keyCol, valCol string, m map[K]V) *Table {
	t := NewTable(title, keyCol, valCol)
	for _, k := range SortedKeys(m) {
		t.Row(k, m[k])
	}
	return t
}

// Grid renders a w x h mesh one character per node, space-separated, with
// row h-1 printed first so north is up. cell gives the character at (x, y).
// Every mesh drawing (heatmaps, worm paths) goes through it.
func Grid(w, h int, cell func(x, y int) byte) string {
	var b strings.Builder
	for y := h - 1; y >= 0; y-- {
		for x := 0; x < w; x++ {
			if x > 0 {
				b.WriteByte(' ')
			}
			b.WriteByte(cell(x, y))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Heatmap renders a W x H grid of values as an ASCII intensity map
// (row-major input, row 0 printed at the bottom like the mesh drawings).
// Values are normalized to the maximum; the scale runs " .:-=+*#%@".
func Heatmap(title string, values []float64, w, h int) string {
	if len(values) != w*h {
		panic(fmt.Sprintf("report: heatmap got %d values for %dx%d", len(values), w, h))
	}
	max := 0.0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	const scale = " .:-=+*#%@"
	var head string
	if title != "" {
		head = fmt.Sprintf("%s (max %.4f)\n", title, max)
	}
	return head + Grid(w, h, func(x, y int) byte {
		if max == 0 {
			return scale[0]
		}
		return scale[int(values[y*w+x]/max*float64(len(scale)-1))]
	})
}

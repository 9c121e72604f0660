package tablefmt

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := New("name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRow("b", "22")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header line %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Errorf("separator line %q", lines[1])
	}
	// Columns must align: every line has the value column right-aligned at
	// the same offset.
	idx0 := strings.Index(lines[2], "1")
	idx1 := strings.Index(lines[3], "22")
	if idx0 != idx1+1 { // "1" right-aligned under "22"
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tab := New("a")
	tab.AddRow("x", "extra")
	tab.AddRow()
	out := tab.String()
	if !strings.Contains(out, "extra") {
		t.Errorf("extra cell lost: %q", out)
	}
}

func TestBarChartRendering(t *testing.T) {
	c := NewBarChart("title", " ms")
	c.Add("fast", 1)
	c.Add("slow", 10)
	out := c.String()
	if !strings.Contains(out, "title") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "10.0 ms") || !strings.Contains(out, "1.0 ms") {
		t.Errorf("missing values: %q", out)
	}
	// The longest bar must belong to the largest value.
	fastBar := strings.Count(lineWith(out, "fast"), "#")
	slowBar := strings.Count(lineWith(out, "slow"), "#")
	if slowBar <= fastBar {
		t.Errorf("bar lengths wrong: fast=%d slow=%d", fastBar, slowBar)
	}
	if slowBar != 50 {
		t.Errorf("max bar should fill the default width 50, got %d", slowBar)
	}
}

func TestBarChartZeroValues(t *testing.T) {
	c := NewBarChart("", "")
	c.Add("zero", 0)
	out := c.String()
	if strings.Contains(out, "#") {
		t.Errorf("zero value drew a bar: %q", out)
	}
}

func lineWith(s, substr string) string {
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			return line
		}
	}
	return ""
}

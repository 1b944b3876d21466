package report

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTableString(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22222")
	tb.AddNote("a note with %d parts", 2)
	s := tb.String()
	for _, want := range []string{"== Demo ==", "name", "alpha", "22222", "note: a note with 2 parts"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	// Columns align: every row line has the same prefix width up to col 2.
	lines := strings.Split(s, "\n")
	idx := strings.Index(lines[1], "value")
	if idx < 0 {
		t.Fatal("header missing value column")
	}
	if lines[3][idx-1] != ' ' {
		t.Errorf("misaligned columns:\n%s", s)
	}
}

func TestTableMissingAndExtraCells(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("only")
	tb.AddRow("one", "two", "three")
	if len(tb.Rows[0]) != 2 || tb.Rows[0][1] != "" {
		t.Error("missing cell not padded")
	}
	if len(tb.Rows[1]) != 2 {
		t.Error("extra cell not dropped")
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow(`has,comma`, `has"quote`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"has,comma"`) {
		t.Errorf("comma not quoted: %s", csv)
	}
	if !strings.Contains(csv, `"has""quote"`) {
		t.Errorf("quote not doubled: %s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("header wrong: %s", csv)
	}
}

func TestCSVRowCount(t *testing.T) {
	f := func(cells []string) bool {
		tb := NewTable("t", "c1")
		// One line per row plus the header, and a quoted cell keeps any
		// newline it holds.
		want := len(cells) + 1
		for _, c := range cells {
			tb.AddRow(c)
			want += strings.Count(c, "\n")
		}
		return strings.Count(tb.CSV(), "\n") == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatters(t *testing.T) {
	if F(3.14159) != "3.142" {
		t.Errorf("F = %s", F(3.14159))
	}
	if I(41.7) != "42" {
		t.Errorf("I = %s", I(41.7))
	}
	if Pct(0.123) != "12.3%" {
		t.Errorf("Pct = %s", Pct(0.123))
	}
}

func TestCyclesGrouping(t *testing.T) {
	cases := map[float64]string{
		0:          "0",
		999:        "999",
		1000:       "1,000",
		25500:      "25,500",
		1234567:    "1,234,567",
		1000000000: "1,000,000,000",
	}
	for in, want := range cases {
		if got := Cycles(in); got != want {
			t.Errorf("Cycles(%g) = %s, want %s", in, got, want)
		}
	}
}

func TestCyclesAlwaysParsesBack(t *testing.T) {
	f := func(v uint32) bool {
		s := Cycles(float64(v))
		stripped := strings.ReplaceAll(s, ",", "")
		var back uint64
		for _, c := range stripped {
			if c < '0' || c > '9' {
				return false
			}
			back = back*10 + uint64(c-'0')
		}
		return back == uint64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

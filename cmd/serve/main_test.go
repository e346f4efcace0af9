package main

import "testing"

// TestParseBytes pins -mem-budget parsing: a byte count with an optional
// K/M/G binary suffix. A budget ≤ 0 means none, so a count that overflows
// int64 must be an error, not a wrapped value that runs unbudgeted.
func TestParseBytes(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
		err  string
	}{
		{in: "", want: 0},
		{in: "0", want: 0},
		{in: "64K", want: 64 << 10},
		{in: "2M", want: 2 << 20},
		{in: "1G", want: 1 << 30},
		{in: "9223372036854775807", want: 9223372036854775807},
		{in: "-1", err: "must be ≥0"},
		{in: "1.5G", err: "want an integer with optional K/M/G suffix"},
		{in: "G", err: "want an integer with optional K/M/G suffix"},
		{in: "17179869184G", err: "overflows int64 bytes"},
		{in: "9000000000G", err: "overflows int64 bytes"},
	} {
		got, err := parseBytes(c.in)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("parseBytes(%q) = %d, %v; want error %q", c.in, got, err, c.err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}

package main

import "testing"

// TestParseKill pins the -kill forms the fault drill passes and the
// refusals, each with its message.
func TestParseKill(t *testing.T) {
	for _, c := range []struct {
		in        string
		shard, at int
		err       string
	}{
		{in: "1@17", shard: 1, at: 17},
		{in: "0@0", shard: 0, at: 0},
		{in: "@1", err: "want shard@frame"},
		{in: "1@", err: "want shard@frame"},
		{in: "x@1", err: `bad shard index "x"`},
		{in: "1@-2", err: `bad frame index "-2"`},
		{in: "1@x", err: `bad frame index "x"`},
	} {
		shard, at, err := parseKill(c.in)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("parseKill(%q) error %v, want %q", c.in, err, c.err)
			}
			continue
		}
		if err != nil || shard != c.shard || at != c.at {
			t.Errorf("parseKill(%q) = %d, %d, %v; want %d, %d", c.in, shard, at, err, c.shard, c.at)
		}
	}
}

// TestParseMigrate pins the -migrate forms the migration drill passes and
// the refusals, each with its message. The key is everything before the
// last '@', so it may hold a colon; a negative target shard parses here
// and is refused by main's shard-range check.
func TestParseMigrate(t *testing.T) {
	for _, c := range []struct {
		in     string
		key    string
		at, to int
		err    string
	}{
		{in: "cam-0@17:1", key: "cam-0", at: 17, to: 1},
		{in: "a:b@3:0", key: "a:b", at: 3, to: 0},
		{in: "cam-0@17:-1", key: "cam-0", at: 17, to: -1},
		{in: "@1:0", err: "want key@frame:toshard"},
		{in: "cam@:1", err: "want key@frame:toshard"},
		{in: "cam@1:", err: "want key@frame:toshard"},
		{in: "cam17:1", err: "want key@frame:toshard"},
		{in: "cam@1:x", err: `bad shard index "x"`},
		{in: "cam@1:2:3", err: `bad frame index "1:2"`},
		{in: "cam@-1:0", err: `bad frame index "-1"`},
	} {
		key, at, to, err := parseMigrate(c.in)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("parseMigrate(%q) error %v, want %q", c.in, err, c.err)
			}
			continue
		}
		if err != nil || key != c.key || at != c.at || to != c.to {
			t.Errorf("parseMigrate(%q) = %q, %d, %d, %v; want %q, %d, %d", c.in, key, at, to, err, c.key, c.at, c.to)
		}
	}
}

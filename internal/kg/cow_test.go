package kg

import (
	"bytes"
	"testing"
)

func marshal(t *testing.T, g *Graph) []byte {
	t.Helper()
	buf, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestCloneCOWSharesUntilWrite(t *testing.T) {
	src := buildTestGraph(t)
	before := marshal(t, src)

	c := src.CloneCOW()
	if !src.Shared() || !c.Shared() {
		t.Fatal("both sides should be marked shared after CloneCOW")
	}
	if !bytes.Equal(marshal(t, c), before) {
		t.Fatal("COW clone does not serialize identically to its source")
	}

	// First mutation on the clone faults a private copy; the source's
	// storage — including Node values and edge sets — stays bit-unchanged.
	n, err := c.AddNode("fresh", 1, []int{9})
	if err != nil {
		t.Fatal(err)
	}
	if c.Shared() {
		t.Error("clone still marked shared after mutating")
	}
	if !src.Shared() {
		t.Error("source lost its shared mark on a clone-side fault")
	}
	if src.Node(n.ID) != nil && src.Node(n.ID).Concept == "fresh" {
		t.Error("clone-side AddNode leaked into the source")
	}
	if !bytes.Equal(marshal(t, src), before) {
		t.Error("source changed after clone-side mutation")
	}
}

func TestCloneCOWSourceWriteLeavesCloneIntact(t *testing.T) {
	src := buildTestGraph(t)
	c := src.CloneCOW()
	want := marshal(t, c)

	for _, n := range src.Nodes() {
		if n.Concept == "d" {
			if err := src.RemoveNode(n.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if src.Shared() {
		t.Error("source still marked shared after mutating")
	}
	if !bytes.Equal(marshal(t, c), want) {
		t.Error("clone changed after source-side mutation")
	}
}

func TestCloneCOWDeepMutators(t *testing.T) {
	// Every mutator that reaches shared storage must fault first. Run each
	// against a fresh clone pair and check the sibling stays bit-unchanged.
	muts := []struct {
		name string
		run  func(t *testing.T, g *Graph)
	}{
		{"RemoveNode", func(t *testing.T, g *Graph) {
			for _, n := range g.Nodes() {
				if n.Concept == "d" {
					if err := g.RemoveNode(n.ID); err != nil {
						t.Fatal(err)
					}
					return
				}
			}
			t.Fatal("node d not found")
		}},
		{"Unmarshal", func(t *testing.T, g *Graph) {
			buf := marshal(t, buildTestGraph(t))
			fresh := New("x", 1)
			if err := fresh.UnmarshalJSON(buf); err != nil {
				t.Fatal(err)
			}
			*g = *fresh
		}},
	}
	for _, m := range muts {
		t.Run(m.name, func(t *testing.T) {
			src := buildTestGraph(t)
			sibling := src.CloneCOW()
			want := marshal(t, sibling)
			m.run(t, src)
			if !bytes.Equal(marshal(t, sibling), want) {
				t.Errorf("%s on source changed the COW sibling", m.name)
			}
		})
	}
}

func TestCloneCOWMarkSharedReportsTransition(t *testing.T) {
	g := buildTestGraph(t)
	if !g.MarkShared() {
		t.Fatal("first MarkShared should report the 0→1 transition")
	}
	if g.MarkShared() {
		t.Fatal("second MarkShared should report no transition")
	}
	g.UnmarkShared()
	if g.Shared() {
		t.Fatal("UnmarkShared did not clear the flag")
	}
}

func TestApproxMemBytesTracksGrowth(t *testing.T) {
	g := buildTestGraph(t)
	base := g.ApproxMemBytes()
	if base <= 0 {
		t.Fatalf("ApproxMemBytes = %d, want > 0", base)
	}
	if _, err := g.AddNode("extra", 1, []int{11, 12}); err != nil {
		t.Fatal(err)
	}
	if grown := g.ApproxMemBytes(); grown <= base {
		t.Errorf("ApproxMemBytes %d after AddNode, want > %d", grown, base)
	}
}

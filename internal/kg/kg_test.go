package kg

import (
	"encoding/json"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// buildTestGraph returns a valid 2-level KG:
//
//	sensor → {a, b} → {c, d} → embedding
func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	g := New("TestMission", 2)
	a, err := g.AddNode("a", 1, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := g.AddNode("b", 1, []int{2})
	c, _ := g.AddNode("c", 2, []int{3})
	d, _ := g.AddNode("d", 2, []int{4})
	for _, e := range []Edge{{a.ID, c.ID}, {a.ID, d.ID}, {b.ID, c.ID}} {
		if err := g.AddEdge(e.Src, e.Dst); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(b.ID, d.ID); err != nil {
		t.Fatal(err)
	}
	g.AttachTerminals()
	return g
}

func TestBuildAndValidate(t *testing.T) {
	g := buildTestGraph(t)
	if issues := g.Validate(true); len(issues) != 0 {
		t.Fatalf("valid graph reported issues: %v", issues)
	}
	if g.NumNodes() != 6 { // 4 reasoning + sensor + embedding
		t.Errorf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 4+2+2 { // reasoning + sensor fan-out + embedding fan-in
		t.Errorf("edges = %d", g.NumEdges())
	}
	if g.Depth() != 2 {
		t.Errorf("depth = %d", g.Depth())
	}
}

func TestDuplicateConceptRejected(t *testing.T) {
	g := New("m", 2)
	if _, err := g.AddNode("x", 1, nil); err != nil {
		t.Fatal(err)
	}
	_, err := g.AddNode("x", 2, nil)
	if !errors.Is(err, ErrDuplicateConcept) {
		t.Errorf("err = %v, want ErrDuplicateConcept", err)
	}
}

func TestBadLevelRejected(t *testing.T) {
	g := New("m", 2)
	if _, err := g.AddNode("x", 0, nil); !errors.Is(err, ErrBadLevel) {
		t.Errorf("level 0: %v", err)
	}
	if _, err := g.AddNode("x", 3, nil); !errors.Is(err, ErrBadLevel) {
		t.Errorf("level 3: %v", err)
	}
}

func TestInvalidEdgeRejected(t *testing.T) {
	g := New("m", 3)
	a, _ := g.AddNode("a", 1, nil)
	c, _ := g.AddNode("c", 3, nil)
	if err := g.AddEdge(a.ID, c.ID); !errors.Is(err, ErrInvalidEdge) {
		t.Errorf("level-skip edge: %v", err)
	}
	if err := g.AddEdge(c.ID, a.ID); !errors.Is(err, ErrInvalidEdge) {
		t.Errorf("backward edge: %v", err)
	}
	if err := g.AddEdge(a.ID, NodeID(99)); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("missing node: %v", err)
	}
	b, _ := g.AddNode("b", 2, nil)
	if err := g.AddEdge(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(a.ID, b.ID); !errors.Is(err, ErrDuplicateEdge) {
		t.Errorf("duplicate edge: %v", err)
	}
}

func TestRemoveNodeCleansEdges(t *testing.T) {
	g := buildTestGraph(t)
	a := g.NodesAtLevel(1)[0]
	if err := g.RemoveNode(a.ID); err != nil {
		t.Fatal(err)
	}
	if g.Node(a.ID) != nil {
		t.Error("node still present")
	}
	for _, e := range g.Edges() {
		if e.Src == a.ID || e.Dst == a.ID {
			t.Errorf("dangling edge %v", e)
		}
	}
}

func TestRemoveTerminalRejected(t *testing.T) {
	g := buildTestGraph(t)
	if err := g.RemoveNode(g.SensorNode().ID); !errors.Is(err, ErrTerminalNode) {
		t.Errorf("sensor removal: %v", err)
	}
	if err := g.RemoveNode(g.EmbeddingTerminal().ID); !errors.Is(err, ErrTerminalNode) {
		t.Errorf("embedding removal: %v", err)
	}
}

func TestAttachTerminalsIdempotent(t *testing.T) {
	g := buildTestGraph(t)
	n, e := g.NumNodes(), g.NumEdges()
	g.AttachTerminals()
	if g.NumNodes() != n || g.NumEdges() != e {
		t.Error("second AttachTerminals changed the graph")
	}
}

func TestValidateFindsPlantedIssues(t *testing.T) {
	g := New("m", 3)
	a, _ := g.AddNode("a", 1, nil)
	b, _ := g.AddNode("b", 2, nil)
	_ = g.AddEdge(a.ID, b.ID)
	// Level 3 left empty; no terminals; b has no out-edges.
	issues := g.Validate(true)
	kinds := map[IssueKind]int{}
	for _, is := range issues {
		kinds[is.Kind]++
	}
	if kinds[IssueEmptyLevel] != 1 {
		t.Errorf("empty-level findings = %d", kinds[IssueEmptyLevel])
	}
	if kinds[IssueMissingSensor] != 1 || kinds[IssueMissingEmbedding] != 1 {
		t.Errorf("missing-terminal findings = %v", kinds)
	}
	if kinds[IssueDeadEndNode] == 0 {
		t.Error("dead-end not reported")
	}
	// Non-strict skips structural reachability checks.
	lax := g.Validate(false)
	for _, is := range lax {
		if is.Kind == IssueOrphanNode || is.Kind == IssueMissingSensor {
			t.Errorf("non-strict validation reported %v", is.Kind)
		}
	}
}

// TestValidateRefusesBadTerminalsAndKinds plants each defect only the
// strict terminal and kind rules catch: a second sensor or embedding node,
// a terminal off its level, and a node of unknown kind.
func TestValidateRefusesBadTerminalsAndKinds(t *testing.T) {
	for _, c := range []struct {
		name  string
		plant func(g *Graph)
		want  IssueKind
	}{
		{"second sensor", func(g *Graph) { g.insert("[sensor]", 0, Sensor, nil) }, IssueBadTerminal},
		{"second embedding", func(g *Graph) { g.insert("[embedding]", g.depth+1, EmbeddingNode, nil) }, IssueBadTerminal},
		{"sensor off level 0", func(g *Graph) { g.SensorNode().Level = -1 }, IssueBadTerminal},
		{"embedding past Depth+1", func(g *Graph) { g.EmbeddingTerminal().Level = g.depth + 2 }, IssueBadTerminal},
		{"unknown kind", func(g *Graph) { g.insert("stray", 1, Kind(7), nil) }, IssueUnknownKind},
	} {
		g := buildTestGraph(t)
		c.plant(g)
		if got := IssuesOfKind(g.Validate(true), c.want); len(got) != 1 {
			t.Errorf("%s: %d %v findings in %v, want 1", c.name, len(got), c.want, g.Validate(true))
		}
		if lax := IssuesOfKind(g.Validate(false), c.want); len(lax) != 0 {
			t.Errorf("%s: non-strict validation reported %v", c.name, lax)
		}
	}
}

func TestValidateDetectsHandConstructedDuplicates(t *testing.T) {
	g := New("m", 1)
	n1, _ := g.AddNode("same", 1, nil)
	// Bypass AddNode's check by mutating the node directly — Validate must
	// still catch it (this is what generation staging relies on).
	n2, _ := g.AddNode("other", 1, nil)
	n2.Concept = "same"
	issues := g.Validate(false)
	dups := IssuesOfKind(issues, IssueDuplicateConcept)
	if len(dups) != 1 {
		t.Fatalf("duplicate findings = %d, want 1", len(dups))
	}
	if dups[0].Node != n2.ID && dups[0].Node != n1.ID {
		t.Errorf("duplicate finding names node %d", dups[0].Node)
	}
}

func TestCreateNodeJoinsReasoningFlow(t *testing.T) {
	g := buildTestGraph(t)
	rng := rand.New(rand.NewSource(1))
	n, err := g.CreateNode(rng, "fresh", 2, []int{9}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Created {
		t.Error("Created flag not set")
	}
	if len(g.InNeighbors(n.ID)) == 0 {
		t.Error("created node has no in-edges")
	}
	// Level-2 node in a depth-2 graph must feed the embedding terminal.
	emb := g.EmbeddingTerminal()
	if !g.HasEdge(n.ID, emb.ID) {
		t.Error("created boundary node not connected to embedding terminal")
	}
	if issues := g.Validate(true); len(issues) != 0 {
		t.Errorf("graph invalid after CreateNode: %v", issues)
	}
}

func TestCreateNodeAtLevelOneConnectsSensor(t *testing.T) {
	g := buildTestGraph(t)
	rng := rand.New(rand.NewSource(2))
	n, err := g.CreateNode(rng, "fresh1", 1, nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(g.SensorNode().ID, n.ID) {
		t.Error("created level-1 node not fed by sensor")
	}
	if issues := g.Validate(true); len(issues) != 0 {
		t.Errorf("invalid after level-1 creation: %v", issues)
	}
}

func TestReplaceNodePreservesValidity(t *testing.T) {
	g := buildTestGraph(t)
	rng := rand.New(rand.NewSource(3))
	victim := g.NodesAtLevel(1)[1]
	fresh, err := g.ReplaceNode(rng, victim.ID, "replacement", []int{7}, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if g.Node(victim.ID) != nil {
		t.Error("old node survives")
	}
	if fresh.Level != 1 {
		t.Errorf("replacement level = %d", fresh.Level)
	}
	if issues := g.Validate(true); len(issues) != 0 {
		t.Errorf("invalid after replace: %v", issues)
	}
	if _, err := g.ReplaceNode(rng, NodeID(999), "x", nil, 0.5); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("replace missing node: %v", err)
	}
}

// Property: random prune/create cycles never break strict validity — the
// central robustness invariant of continuous adaptation.
func TestRandomMutationChurnStaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New("churn", 3)
		// Build 3 levels × 3 nodes fully connected between levels.
		var prev []*Node
		for l := 1; l <= 3; l++ {
			var cur []*Node
			for i := 0; i < 3; i++ {
				n, err := g.AddNode(conceptName(l, i), l, nil)
				if err != nil {
					return false
				}
				cur = append(cur, n)
			}
			for _, p := range prev {
				for _, c := range cur {
					if err := g.AddEdge(p.ID, c.ID); err != nil {
						return false
					}
				}
			}
			prev = cur
		}
		g.AttachTerminals()
		for step := 0; step < 30; step++ {
			level := 1 + rng.Intn(3)
			nodes := g.NodesAtLevel(level)
			var reasoning []*Node
			for _, n := range nodes {
				if n.Kind == Reasoning {
					reasoning = append(reasoning, n)
				}
			}
			if len(reasoning) < 2 {
				continue // keep at least one node per level
			}
			victim := reasoning[rng.Intn(len(reasoning))]
			if _, err := g.ReplaceNode(rng, victim.ID, replName(step, seed), nil, rng.Float64()); err != nil {
				return false
			}
			if issues := g.Validate(true); len(issues) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func conceptName(l, i int) string {
	return "c" + string(rune('0'+l)) + string(rune('a'+i))
}

func replName(step int, seed int64) string {
	return strings.Repeat("r", 1+step%3) + string(rune('a'+step%26)) + string(rune('a'+int(seed%26+26)%26))
}

func TestJSONRoundTrip(t *testing.T) {
	g := buildTestGraph(t)
	rng := rand.New(rand.NewSource(4))
	if _, err := g.CreateNode(rng, "created", 1, []int{5, 6}, 0.5); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Mission != g.Mission || back.Depth() != g.Depth() {
		t.Error("metadata lost")
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Errorf("shape lost: %d/%d vs %d/%d nodes/edges",
			back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for _, n := range g.Nodes() {
		bn := back.Node(n.ID)
		if bn == nil || bn.Concept != n.Concept || bn.Level != n.Level || bn.Kind != n.Kind || bn.Created != n.Created {
			t.Errorf("node %d mismatch after round trip", n.ID)
		}
	}
	if issues := back.Validate(true); len(issues) != 0 {
		t.Errorf("deserialized graph invalid: %v", issues)
	}
	// Mutating the copy must keep IDs unique (nextID restored).
	n, err := back.AddNode("post-load", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Node(n.ID) != n {
		t.Error("post-load insert broken")
	}
}

func TestUnmarshalRejectsCorruptGraphs(t *testing.T) {
	cases := []string{
		`{"mission":"m","depth":0,"nodes":[],"edges":[]}`,
		`{"mission":"m","depth":1,"nodes":[{"id":1,"concept":"a","level":1,"kind":0},{"id":1,"concept":"b","level":1,"kind":0}],"edges":[]}`,
		`{"mission":"m","depth":1,"nodes":[],"edges":[{"Src":1,"Dst":2}]}`,
	}
	for i, c := range cases {
		var g Graph
		if err := json.Unmarshal([]byte(c), &g); err == nil {
			t.Errorf("case %d: corrupt graph accepted", i)
		}
	}
}

// TestEqual pins what a checkpoint restore may treat as the same graph:
// every copy of g (deep, copy-on-write, JSON round trip) equals it, and
// any change to a node, an edge or the id counter does not.
func TestEqual(t *testing.T) {
	g := buildTestGraph(t)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Graph{"clone": g.Clone(), "cow": g.CloneCOW(), "json": &back} {
		if !g.Equal(c) || !c.Equal(g) {
			t.Errorf("%s copy not equal to its source", name)
		}
	}
	a, d := g.NodesAtLevel(1)[0].ID, g.NodesAtLevel(2)[1].ID
	changes := map[string]func(c *Graph){
		"mission":  func(c *Graph) { c.Mission = "other" },
		"concept":  func(c *Graph) { c.Node(a).Concept = "mutated" },
		"tokens":   func(c *Graph) { c.Node(a).TokenIDs = []int{9} },
		"created":  func(c *Graph) { c.Node(a).Created = true },
		"edge":     func(c *Graph) { delete(c.out[a], d); delete(c.in[d], a) },
		"removed":  func(c *Graph) { _ = c.RemoveNode(a) },
		"added":    func(c *Graph) { _, _ = c.AddNode("e", 1, nil) },
		"nextID":   func(c *Graph) { c.nextID++ },
		"depth":    func(c *Graph) { c.depth++ },
		"reversed": func(c *Graph) { slices.Reverse(c.order) },
	}
	for name, change := range changes {
		c := g.Clone()
		change(c)
		if g.Equal(c) || c.Equal(g) {
			t.Errorf("%s change not detected", name)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := buildTestGraph(t)
	c := g.Clone()
	a := c.NodesAtLevel(1)[0]
	if err := c.RemoveNode(a.ID); err != nil {
		t.Fatal(err)
	}
	if g.Node(a.ID) == nil {
		t.Error("clone shares node storage")
	}
	c.Node(c.NodesAtLevel(1)[0].ID).Concept = "mutated"
	for _, n := range g.Nodes() {
		if n.Concept == "mutated" {
			t.Error("clone shares node structs")
		}
	}
}

func TestDOTOutput(t *testing.T) {
	g := buildTestGraph(t)
	dot := g.DOT()
	for _, want := range []string{"digraph", "[sensor]", "[embedding]", "->", "rank=same"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestComputeStats(t *testing.T) {
	g := buildTestGraph(t)
	rng := rand.New(rand.NewSource(5))
	if _, err := g.CreateNode(rng, "extra", 2, nil, 0.5); err != nil {
		t.Fatal(err)
	}
	s := g.ComputeStats()
	if s.Nodes != 7 || s.CreatedNodes != 1 || s.Depth != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.NodesPerLevel[0] != 1 || s.NodesPerLevel[1] != 2 || s.NodesPerLevel[2] != 3 || s.NodesPerLevel[3] != 1 {
		t.Errorf("per-level = %v", s.NodesPerLevel)
	}
	if !strings.Contains(s.String(), "TestMission") {
		t.Error("stats String lacks mission")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := buildTestGraph(t)
	emb := g.EmbeddingTerminal()
	ins := g.InNeighbors(emb.ID)
	if len(ins) != 2 {
		t.Errorf("embedding in-degree = %d", len(ins))
	}
	for i := 1; i < len(ins); i++ {
		if ins[i] <= ins[i-1] {
			t.Fatal("InNeighbors not sorted")
		}
	}
}

package gnn

import (
	"encoding/json"
	"math/rand"
	"testing"

	"edgekg/internal/autograd"
	"edgekg/internal/bpe"
	"edgekg/internal/concept"
	"edgekg/internal/embed"
	"edgekg/internal/kg"
	"edgekg/internal/nn"
	"edgekg/internal/tensor"
)

func testSpace(t testing.TB) *embed.Space {
	t.Helper()
	corpus := concept.Builtin().Concepts()
	tok := bpe.Train(corpus, 600)
	s, err := embed.NewSpace(tok, corpus, embed.Config{Dim: 16, PixDim: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testGraph builds sensor → {stealing, sneaky} → {theft, hiding} → emb.
func testGraph(t *testing.T, space *embed.Space) *kg.Graph {
	t.Helper()
	g := kg.New("Stealing", 2)
	tok := space.Tokenizer()
	a, err := g.AddNode("stealing", 1, tok.Encode("stealing"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := g.AddNode("sneaky", 1, tok.Encode("sneaky"))
	c, _ := g.AddNode("theft", 2, tok.Encode("theft"))
	d, _ := g.AddNode("hiding", 2, tok.Encode("hiding"))
	for _, e := range [][2]kg.NodeID{{a.ID, c.ID}, {b.ID, c.ID}, {b.ID, d.ID}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g.AttachTerminals()
	return g
}

func newTestModel(t *testing.T) (*Model, *embed.Space, *kg.Graph) {
	t.Helper()
	space := testSpace(t)
	g := testGraph(t, space)
	m, err := NewModel(rand.New(rand.NewSource(1)), g, space, Config{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	return m, space, g
}

func TestModelShapeAndLayerCount(t *testing.T) {
	m, space, g := newTestModel(t)
	if m.NumLayers() != g.Depth()+2 {
		t.Errorf("layers = %d, want d+2 = %d", m.NumLayers(), g.Depth()+2)
	}
	rng := rand.New(rand.NewSource(2))
	frames := tensor.RandN(rng, 1, 3, space.Dim())
	out := m.Forward(autograd.Constant(frames))
	if out.Data.Rows() != 3 || out.Data.Cols() != 4 {
		t.Errorf("output shape %v, want (3,4)", out.Shape())
	}
}

func TestForwardDeterministicInEval(t *testing.T) {
	m, space, _ := newTestModel(t)
	m.SetTraining(false)
	rng := rand.New(rand.NewSource(3))
	frames := tensor.RandN(rng, 1, 2, space.Dim())
	o1 := m.Forward(autograd.Constant(frames))
	o2 := m.Forward(autograd.Constant(frames))
	if !tensor.AllClose(o1.Data, o2.Data, 0) {
		t.Error("eval forward not deterministic")
	}
}

func TestBatchMatchesSingleInEval(t *testing.T) {
	m, space, _ := newTestModel(t)
	m.SetTraining(false)
	rng := rand.New(rand.NewSource(4))
	f1 := tensor.RandN(rng, 1, 1, space.Dim())
	f2 := tensor.RandN(rng, 1, 1, space.Dim())
	both := tensor.ConcatRows(f1, f2)
	ob := m.Forward(autograd.Constant(both))
	o1 := m.Forward(autograd.Constant(f1))
	o2 := m.Forward(autograd.Constant(f2))
	if !tensor.AllClose(tensor.SliceRows(ob.Data, 0, 1), o1.Data, 1e-10) {
		t.Error("batch row 0 disagrees with single forward")
	}
	if !tensor.AllClose(tensor.SliceRows(ob.Data, 1, 2), o2.Data, 1e-10) {
		t.Error("batch row 1 disagrees with single forward")
	}
}

func TestSensorSignalReachesOutput(t *testing.T) {
	m, space, _ := newTestModel(t)
	m.SetTraining(false)
	f1 := space.TextEncode("stealing").Reshape(1, space.Dim())
	f2 := space.TextEncode("explosion").Reshape(1, space.Dim())
	o1 := m.Forward(autograd.Constant(f1))
	o2 := m.Forward(autograd.Constant(f2))
	if tensor.AllClose(o1.Data, o2.Data, 1e-9) {
		t.Error("different frames produce identical reasoning embeddings")
	}
}

func TestGradFlowsIntoTokenBankOnly(t *testing.T) {
	m, space, _ := newTestModel(t)
	m.SetTraining(false)
	nn.Freeze(m.Params())
	rng := rand.New(rand.NewSource(5))
	frames := tensor.RandN(rng, 1, 2, space.Dim())
	out := autograd.Sum(m.Forward(autograd.Constant(frames)))
	out.Backward()
	for _, p := range m.Params() {
		if p.V.Grad != nil {
			t.Errorf("frozen GNN weight %s got gradient", p.Name)
		}
	}
	gotGrad := false
	for _, p := range m.TokenParams() {
		if p.V.Grad != nil {
			gotGrad = true
		}
	}
	if !gotGrad {
		t.Error("no gradient reached any token bank through the frozen GNN")
	}
}

func TestGradCheckThroughGNN(t *testing.T) {
	m, space, g := newTestModel(t)
	m.SetTraining(false) // eval BN: deterministic, differentiable
	rng := rand.New(rand.NewSource(6))
	frames := autograd.Param(tensor.RandN(rng, 0.5, 1, space.Dim()))
	bank := m.Tokens().Bank(g.NodesAtLevel(1)[0].ID)
	f := func() *autograd.Value {
		sem := frames
		outs := m.Forward(sem)
		return autograd.Mean(outs)
	}
	if err := autograd.GradCheck(f, []*autograd.Value{frames, bank}, 1e-6, 1e-4); err != nil {
		t.Error(err)
	}
}

func TestRebindAfterMutation(t *testing.T) {
	m, space, g := newTestModel(t)
	m.SetTraining(false)
	rng := rand.New(rand.NewSource(7))
	victim := g.NodesAtLevel(2)[0]
	fresh, err := g.ReplaceNode(rng, victim.ID, "replacement", nil, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Rebind(); err != nil {
		t.Fatal(err)
	}
	if m.Tokens().Has(victim.ID) {
		t.Error("pruned node still in token bank")
	}
	if !m.Tokens().Has(fresh.ID) {
		t.Error("created node missing from token bank")
	}
	frames := tensor.RandN(rng, 1, 2, space.Dim())
	out := m.Forward(autograd.Constant(frames))
	if out.Data.Rows() != 2 || out.Data.Cols() != m.Width() {
		t.Errorf("post-rebind output shape %v", out.Shape())
	}
}

func TestRebindPreservesSurvivingBanks(t *testing.T) {
	m, _, g := newTestModel(t)
	survivor := g.NodesAtLevel(1)[0]
	// Write a recognisable value into the survivor's bank.
	m.Tokens().Bank(survivor.ID).Data.Fill(0.42)
	rng := rand.New(rand.NewSource(8))
	if _, err := g.ReplaceNode(rng, g.NodesAtLevel(2)[0].ID, "other", nil, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := m.Rebind(); err != nil {
		t.Fatal(err)
	}
	if m.Tokens().Bank(survivor.ID).Data.Data()[0] != 0.42 {
		t.Error("rebind reset an unrelated node's learned embeddings")
	}
}

func TestTokenBankInstallAndSnapshot(t *testing.T) {
	m, _, g := newTestModel(t)
	id := g.NodesAtLevel(1)[0].ID
	snap := m.Tokens().Snapshot(id)
	m.Tokens().Bank(id).Data.Fill(9)
	if snap.Data()[0] == 9 {
		t.Error("snapshot aliases live bank")
	}
	init := tensor.Ones(3, m.Tokens().Dim())
	m.Tokens().Install(id, init)
	if m.Tokens().Bank(id).Data.Rows() != 3 {
		t.Error("install did not replace bank")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong install dims")
		}
	}()
	m.Tokens().Install(id, tensor.Ones(2, m.Tokens().Dim()+1))
}

func TestNodeInitialEmbeddingAlignsWithConcept(t *testing.T) {
	m, space, g := newTestModel(t)
	for _, n := range g.Nodes() {
		if n.Kind != kg.Reasoning {
			continue
		}
		emb := tensor.MeanAxis0(m.Tokens().Bank(n.ID).Data)
		cos := tensor.CosineSimilarity(emb, space.WordVector(n.Concept))
		if cos < 0.8 {
			t.Errorf("node %q initial embedding misaligned: cos %v", n.Concept, cos)
		}
	}
}

func TestModelRequiresTerminals(t *testing.T) {
	space := testSpace(t)
	g := kg.New("NoTerminals", 1)
	if _, err := g.AddNode("x", 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewModel(rand.New(rand.NewSource(9)), g, space, Config{Width: 8}); err == nil {
		t.Error("model accepted graph without terminals")
	}
}

func TestModelConfigValidation(t *testing.T) {
	space := testSpace(t)
	g := testGraph(t, space)
	if _, err := NewModel(rand.New(rand.NewSource(10)), g, space, Config{Width: 0}); err == nil {
		t.Error("width 0 accepted")
	}
}

func TestParamNamesUnique(t *testing.T) {
	m, _, _ := newTestModel(t)
	seen := map[string]bool{}
	for _, p := range append(m.Params(), m.TokenParams()...) {
		if seen[p.Name] {
			t.Errorf("duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

// TestCheckGraphRefusesNodeBesideTerminal feeds CheckGraph decoded
// graphs (what a checkpoint restore assigns), each the model's own graph
// with one defect kg.Graph.Validate(true) reports: a reasoning node at the
// embedding terminal's level (the eval forward reads one row per copy past
// the last reasoning level), an edge that skips levels, an orphan, a node
// at a negative level, a duplicate concept, a second sensor, a node of
// unknown kind and a sensor off level 0. Every one decodes, and the layout
// must refuse every one rather than score it.
func TestCheckGraphRefusesNodeBesideTerminal(t *testing.T) {
	m, _, g := newTestModel(t)
	sensor, emb := g.SensorNode().ID, g.EmbeddingTerminal().ID
	l1, l2 := g.NodesAtLevel(1)[0], g.NodesAtLevel(2)[0]
	type wire = map[string]any
	addNode := func(w wire, id int, concept string, level int, kind kg.Kind) {
		w["nodes"] = append(w["nodes"].([]any), wire{"id": id, "concept": concept, "level": level, "kind": kind})
	}
	addEdge := func(w wire, src, dst kg.NodeID) {
		w["edges"] = append(w["edges"].([]any), wire{"Src": src, "Dst": dst})
	}
	for _, c := range []struct {
		name   string
		mutate func(w wire)
	}{
		{"node beside the terminal", func(w wire) { addNode(w, 999, "stray", g.Depth()+1, kg.Reasoning) }},
		{"edge that skips levels", func(w wire) { addEdge(w, sensor, emb) }},
		{"orphan at level 1", func(w wire) {
			addNode(w, 999, "stray", 1, kg.Reasoning)
			addEdge(w, 999, l2.ID)
		}},
		{"node at level -1", func(w wire) { addNode(w, 999, "stray", -1, kg.Reasoning) }},
		{"duplicate concept", func(w wire) {
			addNode(w, 999, l1.Concept, 1, kg.Reasoning)
			addEdge(w, sensor, 999)
			addEdge(w, 999, l2.ID)
		}},
		{"second sensor", func(w wire) {
			addNode(w, 999, "[sensor]", 0, kg.Sensor)
			addEdge(w, 999, l1.ID)
		}},
		{"unknown kind", func(w wire) { addNode(w, 999, "stray", 1, kg.Kind(7)) }},
		{"misplaced sensor", func(w wire) {
			for _, n := range w["nodes"].([]any) {
				if n := n.(wire); kg.NodeID(n["id"].(float64)) == sensor {
					n["level"] = -1
				}
			}
		}},
	} {
		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		var w wire
		if err := json.Unmarshal(raw, &w); err != nil {
			t.Fatal(err)
		}
		c.mutate(w)
		if raw, err = json.Marshal(w); err != nil {
			t.Fatal(err)
		}
		var bad kg.Graph
		if err := json.Unmarshal(raw, &bad); err != nil {
			t.Fatalf("%s: the mutant does not decode: %v", c.name, err)
		}
		if err := m.CheckGraph(&bad); err == nil {
			t.Errorf("%s: CheckGraph accepted the graph", c.name)
		}
	}
	if err := m.CheckGraph(g); err != nil {
		t.Errorf("CheckGraph refused the model's own graph: %v", err)
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"edgekg/internal/concept"
	"edgekg/internal/kg"
	"edgekg/internal/parallel"
	"edgekg/internal/tensor"
)

// TestScoreVideoConcurrentCallers is the regression test for the serving
// runtime's central assumption: many goroutines may score through one
// frozen backbone simultaneously and each must see exactly the sequential
// result. Run under -race this also audits the score path for shared
// mutable state (training-mode flags, bank/layout caches, and the pooled
// workspaces a call lends its activations from — with two KGs each KG's
// forward lends from its own workspace on a pool worker).
func TestScoreVideoConcurrentCallers(t *testing.T) {
	rig := newRig(t, "Stealing", 11)
	rig.det.Deploy()
	two := twoKGDetector(t)
	two.Deploy()
	cases := []struct {
		name  string
		det   *Detector
		frame func(rng *rand.Rand, i int) *tensor.Tensor
	}{
		{"one KG", rig.det, func(rng *rand.Rand, i int) *tensor.Tensor {
			cls := concept.Stealing
			if i%2 == 1 {
				cls = concept.Normal
			}
			return rig.gen.Frame(rng, cls)
		}},
		{"two KGs", two, func(rng *rand.Rand, _ int) *tensor.Tensor {
			return tensor.RandN(rng, 1, 1, two.Space().PixDim())
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			const callers = 8
			videos := make([]*tensor.Tensor, callers)
			want := make([][]float64, callers)
			prev := parallel.SetWorkers(1)
			for i := range videos {
				v := tensor.New(9, tc.det.Space().PixDim())
				for r := 0; r < v.Rows(); r++ {
					copy(v.Row(r), tc.frame(rng, i).Data())
				}
				videos[i] = v
				want[i] = tc.det.ScoreVideo(v)
			}
			parallel.SetWorkers(4)
			defer parallel.SetWorkers(prev)

			const rounds = 4
			var wg sync.WaitGroup
			errs := make([]string, callers)
			for i := 0; i < callers; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						got := tc.det.ScoreVideo(videos[i])
						for k := range got {
							if math.Float64bits(got[k]) != math.Float64bits(want[i][k]) {
								errs[i] = "concurrent score diverged from sequential"
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			for i, e := range errs {
				if e != "" {
					t.Fatalf("caller %d: %s", i, e)
				}
			}
		})
	}
}

// TestSkipLossStepConcurrentWithScoring is the serving runtime's lag > 0
// shape for a round the loss gate stops: the adapter runs skip-loss Steps
// on a copy-on-write clone while the source detector scores on other
// goroutines. The probe lends pooled workspaces and reads the shared eval
// snapshots of the frozen backbone on the adapter's goroutine, so under
// -race this audits that the two sides share nothing mutable; every score
// and every probe loss must be the sequential one, to the bit.
func TestSkipLossStepConcurrentWithScoring(t *testing.T) {
	src := twoKGDetector(t)
	src.Deploy()
	src.SetPrecision(PrecisionF64)
	a, mon, batch, targets := skipLossRound(t, src, 98)
	rng := rand.New(rand.NewSource(98))
	video := tensor.RandN(rng, 1, 9, src.Space().PixDim())
	prev := parallel.SetWorkers(1)
	want := src.ScoreVideo(video)
	wantLoss := a.probeLoss(samplesOf(batch), targets)
	parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)

	const scorers, rounds = 4, 4
	var wg sync.WaitGroup
	errs := make([]string, scorers+1)
	for i := 0; i < scorers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k, s := range src.ScoreVideo(video) {
					if math.Float64bits(s) != math.Float64bits(want[k]) {
						errs[i] = "concurrent score diverged from sequential"
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			rep, err := a.Step(mon)
			if err != nil || rep.Gate != GateSkipLoss {
				errs[scorers] = fmt.Sprintf("round %d stopped at gate %d (err %v), want GateSkipLoss", r, rep.Gate, err)
				return
			}
			if math.Float64bits(a.probeLoss(samplesOf(batch), targets)) != math.Float64bits(wantLoss) {
				errs[scorers] = "concurrent probe loss diverged from sequential"
				return
			}
		}
	}()
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Fatalf("goroutine %d: %s", i, e)
		}
	}
	if owned := a.det.Mem().Owned(); owned != 0 {
		t.Errorf("skip-loss rounds privatised %d bytes of the clone", owned)
	}
}

// TestDetectorCloneShared pins the clone contract: bit-identical scoring,
// and full independence of the per-KG mutable state (token banks and graph
// structure) from the original and from sibling clones.
func TestDetectorCloneShared(t *testing.T) {
	rig := newRig(t, "Stealing", 12)
	rig.det.Deploy()
	rng := rand.New(rand.NewSource(12))

	video := tensor.New(7, rig.space.PixDim())
	for r := 0; r < video.Rows(); r++ {
		copy(video.Row(r), rig.gen.Frame(rng, concept.Stealing).Data())
	}
	want := rig.det.ScoreVideo(video)

	clone, err := rig.det.CloneShared()
	if err != nil {
		t.Fatal(err)
	}
	got := clone.ScoreVideo(video)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("clone score[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// The frozen backbone is shared, the mutable state is not.
	if clone.Space() != rig.det.Space() || clone.Temporal() != rig.det.Temporal() || clone.Head() != rig.det.Head() {
		t.Fatal("clone does not share the frozen backbone")
	}
	if clone.GNN(0) == rig.det.GNN(0) || clone.GNN(0).Tokens() == rig.det.GNN(0).Tokens() || clone.Graphs()[0] == rig.det.Graphs()[0] {
		t.Fatal("clone shares per-KG mutable state")
	}

	// Perturb every clone token bank; the original must keep scoring
	// bit-identically while the clone diverges.
	bank := clone.GNN(0).Tokens()
	for _, id := range bank.NodeIDs() {
		data := bank.Bank(id).Data.Data()
		for i := range data {
			data[i] += 0.35
		}
	}
	after := rig.det.ScoreVideo(video)
	for i := range want {
		if after[i] != want[i] {
			t.Fatal("mutating clone banks changed the original's scores")
		}
	}
	diverged := false
	for i, s := range clone.ScoreVideo(video) {
		if s != want[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("perturbed clone still scores identically — banks are shared?")
	}

	// Structural mutation on the clone (prune a leaf-ish reasoning node)
	// must leave the original's graph untouched.
	var victim kg.NodeID = -1
	g := clone.Graphs()[0]
	for _, n := range g.Nodes() {
		if n.Kind == kg.Reasoning && len(g.NodesAtLevel(n.Level)) > 1 {
			victim = n.ID
			break
		}
	}
	if victim < 0 {
		t.Fatalf("fixture graph has no prunable reasoning node; the multi-node levels the clone-isolation check depends on are gone")
	}
	origNodes := rig.det.Graphs()[0].NumNodes()
	if err := g.RemoveNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := clone.GNN(0).Rebind(); err != nil {
		t.Fatal(err)
	}
	if rig.det.Graphs()[0].NumNodes() != origNodes {
		t.Fatal("pruning the clone's graph mutated the original")
	}
	if rig.det.GNN(0).Tokens().Has(victim) != true {
		t.Fatal("original bank lost the node pruned on the clone")
	}
	for i, s := range rig.det.ScoreVideo(video) {
		if s != want[i] {
			t.Fatalf("original score[%d] changed after clone rebind", i)
		}
	}
}

// TestMonitorClone pins the monitor snapshot: the clone carries the full
// window/reference state, and pushes into the original never leak in.
func TestMonitorClone(t *testing.T) {
	mon, err := NewAnchoredMonitor(4)
	if err != nil {
		t.Fatal(err)
	}
	frame := tensor.New(1, 3)
	for i, s := range []float64{0.9, 0.8, 0.85, 0.95, 0.2, 0.3} {
		mon.Push(frame, s)
		_ = i
	}
	c := mon.Clone()
	if c.DeltaM() != mon.DeltaM() || c.K() != mon.K() || c.Mean() != mon.Mean() || c.Reference() != mon.Reference() {
		t.Fatalf("clone state mismatch: Δm %v vs %v, K %d vs %d", c.DeltaM(), mon.DeltaM(), c.K(), mon.K())
	}
	if !c.Ready() {
		t.Fatal("clone of ready monitor is not ready")
	}
	wantTop := mon.TopK()
	gotTop := c.TopK()
	if len(wantTop) != len(gotTop) {
		t.Fatalf("clone TopK %d vs %d", len(gotTop), len(wantTop))
	}
	for i := range wantTop {
		if wantTop[i].Score != gotTop[i].Score || wantTop[i].Seq != gotTop[i].Seq {
			t.Fatal("clone TopK diverges")
		}
	}
	before := c.Mean()
	for i := 0; i < 8; i++ {
		mon.Push(frame, 0.01)
	}
	if c.Mean() != before {
		t.Fatal("pushes into the original leaked into the clone")
	}
	if math.Abs(mon.Mean()-0.01) > 1e-12 {
		t.Fatalf("original mean %v after pushes", mon.Mean())
	}
}

package experiments

import (
	"fmt"
	"strings"

	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/dataset"
	"edgekg/internal/kg"
	"edgekg/internal/retrieval"
	"edgekg/internal/tensor"
)

// Fig6Result is the interpretable-retrieval trajectory of one tracked
// node across the adaptation run (the paper tracks "Sneaky" drifting
// toward "Firearm" during a Stealing→Robbery shift).
type Fig6Result struct {
	TrackedConcept string
	TargetConcept  string
	Trajectory     retrieval.Trajectory
	// DecodedStart/End are the node's top-1 retrieved words before and
	// after adaptation.
	DecodedStart, DecodedEnd string
	// TopKEnd lists the final top-5 retrieved words, the qualitative
	// evidence Fig. 6 presents.
	TopKEnd []string
}

// RunFig6 reproduces Fig. 6: run the Stealing→Robbery adaptation protocol
// while recording the tracked node's token embedding every adaptation
// round, then decode the trajectory through Interpretable KG Retrieval.
func RunFig6(env *Env, tracked, target string) (Fig6Result, error) {
	res := Fig6Result{TrackedConcept: tracked, TargetConcept: target}
	s := env.Scale
	retr := retrieval.New(env.Space)
	rec := retrieval.NewTrajectoryRecorder(retr, tracked, target)
	// node reads the tracked node's live token bank; tick 0 binds it.
	var node func() *tensor.Tensor

	arm := Arm{
		Mission: concept.Stealing,
		Phases: []dataset.Phase{
			{Class: concept.Stealing, Steps: s.SegmentFrames},
			{Class: concept.Robbery, Steps: 2 * s.SegmentFrames},
		},
		Stream: env.StreamConfig(true),
		Salt:   101,
		Tick: func(det *core.Detector, g *kg.Graph, tick, _ int) error {
			if tick == 0 {
				n := findNode(g, tracked)
				if n == nil {
					return fmt.Errorf("experiments: tracked concept %q not in generated KG (level-1 fanout too small?)", tracked)
				}
				bank := det.GNN(0).Tokens()
				node = func() *tensor.Tensor { return bank.Bank(n.ID).Data }
				res.DecodedStart = retr.NodePhrase(node(), retrieval.Euclidean)
			}
			rec.Record(100*tick, node()) // the paper numbers snapshots 100, 200, …
			return nil
		},
	}
	// Fig. 6 inspects the *alternating* phase: pruning would replace the
	// tracked node and end the trajectory, so give it effectively
	// unlimited patience.
	arm.Stream.Adapt.Patience = 1 << 20
	if _, err := Deploy(env, arm); err != nil {
		return res, err
	}
	res.Trajectory = rec.Trajectory()
	res.DecodedEnd = retr.NodePhrase(node(), retrieval.Euclidean)
	for _, m := range retr.NearestWords(tensor.MeanAxis0(node()), 5, retrieval.Euclidean) {
		res.TopKEnd = append(res.TopKEnd, m.Word)
	}
	return res, nil
}

func findNode(g *kg.Graph, conceptText string) *kg.Node {
	for _, n := range g.Nodes() {
		if n.Kind == kg.Reasoning && n.Concept == conceptText {
			return n
		}
	}
	return nil
}

// Render prints the trajectory table of Fig. 6: distance to the initial
// concept vs. distance to the target concept per snapshot, plus the
// retrieved words.
func (r Fig6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — %q drifting toward %q under Stealing→Robbery adaptation\n",
		r.TrackedConcept, r.TargetConcept)
	fmt.Fprintf(&b, "%-10s %-14s %-14s %-16s\n", "iteration", "dist(initial)", "dist(target)", "top-1 word")
	tr := r.Trajectory
	for i := range tr.Iterations {
		fmt.Fprintf(&b, "%-10d %-14.4f %-14.4f %-16s\n",
			tr.Iterations[i], tr.DistInitial[i], tr.DistTarget[i], tr.TopWord[i])
	}
	fmt.Fprintf(&b, "decoded: start %q → end %q; final top-5: %s\n",
		r.DecodedStart, r.DecodedEnd, strings.Join(r.TopKEnd, ", "))
	if n := len(tr.DistTarget); n > 0 {
		fmt.Fprintf(&b, "net drift toward target: %+.4f (dist %.4f → %.4f)\n",
			tr.NetDrift(), tr.DistTarget[0], tr.DistTarget[n-1])
	}
	return b.String()
}

// CSV renders the trajectory series.
func (r Fig6Result) CSV() string {
	var b strings.Builder
	b.WriteString("iteration,dist_initial,dist_target,top_word\n")
	tr := r.Trajectory
	for i := range tr.Iterations {
		fmt.Fprintf(&b, "%d,%.6f,%.6f,%s\n", tr.Iterations[i], tr.DistInitial[i], tr.DistTarget[i], tr.TopWord[i])
	}
	return b.String()
}

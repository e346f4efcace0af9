package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgekg/internal/autograd"
	"edgekg/internal/concept"
	"edgekg/internal/kggen"
	"edgekg/internal/oracle"
	"edgekg/internal/tensor"
	"edgekg/internal/tensor/kernels"
)

// FuzzGNNEvalMatchesTape drives ForwardEval, which computes only the rows
// that reach the embedding terminal, against the tape Forward over the
// whole graph on random KG shapes: depth 1–4, level fanouts 1–6 and a
// batch of 1–24 frames, with random frozen BatchNorm statistics. The
// mutate bits prune and re-create a node and Rebind (bit 0), and write a
// token-bank page in place (bit 1), after both forwards have run once;
// bit 2 warms the eval memo after those mutations (WarmEval at both
// widths) instead of leaving the first compared forward to rebuild it. At
// float64 the two must agree bit for bit on every backend.
func FuzzGNNEvalMatchesTape(f *testing.F) {
	space := testSpace(f)
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(5), uint8(5), uint8(23), uint8(3))
	f.Add(int64(3), uint8(2), uint8(2), uint8(3), uint8(7), uint8(1))
	f.Add(int64(4), uint8(3), uint8(5), uint8(1), uint8(11), uint8(2))
	f.Add(int64(5), uint8(3), uint8(0), uint8(5), uint8(23), uint8(3))
	f.Add(int64(6), uint8(2), uint8(4), uint8(2), uint8(5), uint8(7))
	f.Add(int64(7), uint8(1), uint8(3), uint8(4), uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, depth, fan0, fan, batch, mutate uint8) {
		rng := rand.New(rand.NewSource(seed))
		classes := concept.AnomalyClasses()
		mission := classes[rng.Intn(len(classes))].String()
		llm := oracle.NewSim(concept.Builtin(), rng, oracle.Config{EdgeProb: 0.5 + 0.5*rng.Float64()})
		opts := kggen.Options{
			Depth: 1 + int(depth%4), InitialFanout: 1 + int(fan0%6), Fanout: 1 + int(fan%6),
			MaxCorrectionIters: 3, Tokenize: space.Tokenizer().Encode,
		}
		g, _, err := kggen.Generate(llm, mission, opts, rng)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(rng, g, space, Config{Width: 1 + rng.Intn(8)})
		if err != nil {
			t.Fatal(err)
		}
		randomizeNorms(rng, m)
		m.SetTraining(false)
		frames := tensor.RandN(rng, 1, 1+int(batch%24), space.Dim())
		forwardEval := func() *tensor.Tensor {
			ws := tensor.NewWorkspace()
			defer ws.Release()
			return ForwardEval(ws, m, frames).Clone()
		}
		forwardEval() // build the eval forms, memo and bank cache the mutations must not leave stale

		if mutate&1 != 0 {
			ids := m.Tokens().NodeIDs()
			if _, err := g.ReplaceNode(rng, ids[rng.Intn(len(ids))], "created-fuzz", nil, 0.9); err != nil {
				t.Fatal(err)
			}
			if err := m.Rebind(); err != nil {
				t.Fatal(err)
			}
		}
		if mutate&2 != 0 {
			ids := m.Tokens().NodeIDs()
			page := m.Tokens().Bank(ids[rng.Intn(len(ids))]).Data.Data()
			for i := range page {
				page[i] += rng.NormFloat64()
			}
		}

		// The warm-memo arm rebuilds the memo ahead, as Deploy and the
		// adapter do, and then requires that no forward below rebuilds it
		// and that float32 reads it as a cold copy of the model does.
		var warm *evalMemo[float64]
		if mutate&4 != 0 {
			WarmEval[float64](m)
			WarmEval[float32](m)
			warm = memoSlot[float64](m).Load()
			requireBits(t, "float32 through the warm memo", evalOut[float32](coldClone(t, m), frames), evalOut[float32](m, frames))
		}

		for _, name := range kernels.Names() {
			restore, err := kernels.Use(name)
			if err != nil {
				t.Fatal(err)
			}
			want := m.Forward(autograd.Constant(frames)).Data.Data()
			got := forwardEval().Data()
			restore()
			ctx := fmt.Sprintf("%s: depth %d, fanouts %d/%d, %d frames, %d nodes", name,
				opts.Depth, opts.InitialFanout, opts.Fanout, frames.Rows(), g.NumNodes())
			if len(got) != len(want) {
				t.Fatalf("%s: %d values, want %d", ctx, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: value %d: eval %.17g, tape %.17g", ctx, i, got[i], want[i])
				}
			}
		}
		if warm != nil && memoSlot[float64](m).Load() != warm {
			t.Fatal("a forward rebuilt the memo WarmEval had just built")
		}
	})
}

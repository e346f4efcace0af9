package gnn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"edgekg/internal/tensor"
)

// randomizeNorms gives every BatchNorm layer random frozen statistics and
// affine parameters, so no layer is close to the identity.
func randomizeNorms(rng *rand.Rand, m *Model) {
	for _, ly := range m.layers {
		for _, v := range [][]float64{ly.bn.RunningMean.Data(), ly.bn.Gamma.Data.Data(), ly.bn.Beta.Data.Data()} {
			for i := range v {
				v[i] = rng.NormFloat64()
			}
		}
		for i, v := range ly.bn.RunningVar.Data() {
			ly.bn.RunningVar.Data()[i] = v * (0.25 + rng.Float64())
		}
	}
}

// frozenModel is newTestModel in inference mode with random norms.
func frozenModel(t *testing.T, seed int64) (*Model, *tensor.Tensor) {
	t.Helper()
	m, space, _ := newTestModel(t)
	rng := rand.New(rand.NewSource(seed))
	randomizeNorms(rng, m)
	m.SetTraining(false)
	return m, tensor.RandN(rng, 1, 3, space.Dim())
}

// evalOut runs ForwardEval at width T and returns its output widened to
// float64, which keeps every float32 bit.
func evalOut[T tensor.Float](m *Model, frames *tensor.Tensor) []float64 {
	ws := tensor.NewWorkspace()
	defer ws.Release()
	out := ForwardEval(ws, m, tensor.Narrow[T](frames)).Data()
	wide := make([]float64, len(out))
	for i, v := range out {
		wide[i] = float64(v)
	}
	return wide
}

// coldClone returns a deep clone of m without eval memos: what a model
// freshly built with m's graph, banks and weights computes.
func coldClone(t *testing.T, m *Model) *Model {
	t.Helper()
	c, err := m.CloneShared()
	if err != nil {
		t.Fatal(err)
	}
	c.memo64.Store(nil)
	c.memo32.Store(nil)
	return c
}

func requireBits(t *testing.T, ctx string, want, got []float64) {
	t.Helper()
	if !slicesEqualBits(want, got) {
		t.Fatalf("%s: %v, want %v", ctx, got, want)
	}
}

// writePage adds d to every value of node id's bank the way adaptation
// writes one: in place, after taking a private copy of a shared page.
func writePage(m *Model, id int, d float64) {
	b := m.Tokens().Bank(m.Tokens().NodeIDs()[id])
	b.EnsurePrivate()
	for i := range b.Data.Data() {
		b.Data.Data()[i] += d
	}
}

func TestEvalMemoSharedByClonesUntilTheyAdapt(t *testing.T) {
	testEvalMemoSharedByClones[float64](t)
	testEvalMemoSharedByClones[float32](t)
}

// testEvalMemoSharedByClones pins, at width T, that a copy-on-write clone
// scores through its source's memo without rebuilding it, and that a
// clone that adapts builds its own: the source's memo and scores stay as
// they were, and the clone scores as a cold copy of itself does.
func testEvalMemoSharedByClones[T tensor.Float](t *testing.T) {
	m, frames := frozenModel(t, 31)
	WarmEval[T](m)
	memo := memoSlot[T](m).Load()
	want := evalOut[T](m, frames)

	c, err := m.CloneCOW()
	if err != nil {
		t.Fatal(err)
	}
	requireBits(t, "unadapted clone", want, evalOut[T](c, frames))
	if memoSlot[T](c).Load() != memo {
		t.Fatal("an unadapted clone rebuilt the memo it shares with its source")
	}

	writePage(c, 0, 0.5)
	got := evalOut[T](c, frames)
	requireBits(t, "adapted clone", evalOut[T](coldClone(t, c), frames), got)
	if memoSlot[T](c).Load() == memo {
		t.Fatal("an adapted clone kept its source's memo")
	}
	if memoSlot[T](m).Load() != memo {
		t.Fatal("a clone's adaptation replaced its source's memo")
	}
	requireBits(t, "source after the clone adapted", want, evalOut[T](m, frames))
	if slicesEqualBits(want, got) {
		t.Fatal("the clone's write left its scores unmoved")
	}
}

func slicesEqualBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEvalMemoConcurrentRebuild runs concurrent forwards over one model
// right after its banks moved, at both widths, so that several callers
// find the memo stale at once and rebuild and publish it together. Every
// forward must return a cold copy's bits. Run under -race it pins that
// the memo is published, never mutated.
func TestEvalMemoConcurrentRebuild(t *testing.T) {
	m, frames := frozenModel(t, 32)
	for round := 0; round < 4; round++ {
		writePage(m, round%len(m.Tokens().NodeIDs()), 0.25)
		cold := coldClone(t, m)
		want64, want32 := evalOut[float64](cold, frames), evalOut[float32](cold, frames)
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 8; k++ {
					if !slicesEqualBits(want64, evalOut[float64](m, frames)) {
						errs <- "float64"
						return
					}
					if !slicesEqualBits(want32, evalOut[float32](m, frames)) {
						errs <- "float32"
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for w := range errs {
			t.Fatalf("round %d: a concurrent %s forward differs from a cold copy's", round, w)
		}
	}
}

// raceEnabled is set by race_flag_test.go when the race detector is on.
var raceEnabled bool

// TestEvalMemoRebuildAllocs pins what a memo rebuild allocates: the memo,
// its snapshot list, key and rows. Intermediates come from a workspace.
// Under the race detector sync.Pool drops a quarter of the workspaces put
// back, and each drop is re-made, so the count there says nothing.
func TestEvalMemoRebuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled workspaces under the race detector")
	}
	m, _ := frozenModel(t, 33)
	for _, c := range []struct {
		name string
		warm func(*Model)
		want float64
	}{{"float64", WarmEval[float64], 4}, {"float32", WarmEval[float32], 4}} {
		c.warm(m)
		page := m.Tokens().Bank(m.Tokens().NodeIDs()[0]).Data.Data()
		got := testing.AllocsPerRun(100, func() {
			page[0] += 0.125
			c.warm(m)
		})
		if got != c.want {
			t.Errorf("%s: a rebuild makes %.1f allocations, want %.0f", c.name, got, c.want)
		}
	}
}

package tensor

// Property-based tests for Workspace reuse: whatever garbage a previous
// borrower left behind, re-acquired buffers must come back fully zeroed,
// live buffers must never alias each other, and the guarantees must hold
// identically under every kernel backend (backends write through the same
// pooled storage on the hot paths, so a stale-data leak here would show up
// as silent cross-request corruption in the serving tier).

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"edgekg/internal/tensor/kernels"
)

// dirtySizes spans tiny and power-of-two lengths and their neighbours,
// plus one size above the retain cap, whose slab Release drops.
var dirtySizes = []int{1, 31, 32, 33, 100, 1024, 4095, 4096, 1 << 12, 1<<22 + 1}

func requireAllZero[T Float](t *testing.T, ctx string, s []T) {
	t.Helper()
	for i, v := range s {
		if v != 0 || math.Signbit(float64(v)) {
			t.Fatalf("%s: element %d = %v (%#x), want +0", ctx, i, v, math.Float64bits(float64(v)))
		}
	}
}

// TestWorkspaceReuseZeroed hammers the acquire→pollute→release cycle with
// random sizes and checks every re-acquired buffer is zeroed, including
// NaN/Inf pollution left by a previous borrower.
func TestWorkspaceReuseZeroed(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	poisons := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300, math.SmallestNonzeroFloat64}
	for round := 0; round < 200; round++ {
		ws := NewWorkspace()
		n := dirtySizes[rng.Intn(len(dirtySizes))]
		if rng.Intn(2) == 0 {
			n = 1 + rng.Intn(5000)
		}
		buf := Scratch[float64](ws, n)
		requireAllZero(t, "acquired buffer", buf)
		for i := range buf {
			buf[i] = poisons[rng.Intn(len(poisons))]
		}
		tens := Alloc[float64](ws, 1+rng.Intn(40), 1+rng.Intn(40))
		requireAllZero(t, "acquired tensor", tens.Data())
		for i, d := 0, tens.Data(); i < len(d); i++ {
			d[i] = poisons[rng.Intn(len(poisons))]
		}
		ws.Release()
	}
	// After all that pollution, fresh acquisitions must still be clean.
	ws := NewWorkspace()
	defer ws.Release()
	for _, n := range dirtySizes {
		requireAllZero(t, "post-pollution acquire", Scratch[float64](ws, n))
	}
}

// TestWorkspaceNoAliasing verifies that buffers lent by one workspace (and
// by concurrent workspaces on other goroutines) never share storage:
// writing a distinct tag into each buffer must survive every other write.
func TestWorkspaceNoAliasing(t *testing.T) {
	ws := NewWorkspace()
	defer ws.Release()
	bufs := make([][]float64, 0, 16)
	for i := 0; i < 16; i++ {
		bufs = append(bufs, Scratch[float64](ws, 64+i))
	}
	for tag, b := range bufs {
		for i := range b {
			b[i] = float64(tag + 1)
		}
	}
	for tag, b := range bufs {
		for i, v := range b {
			if v != float64(tag+1) {
				t.Fatalf("buffer %d element %d overwritten to %v: buffers alias", tag, i, v)
			}
		}
	}

	// Concurrent workspaces: each goroutine tags its own buffers and
	// verifies them; run with -race this also checks pool synchronisation.
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			for round := 0; round < 50; round++ {
				w := NewWorkspace()
				a := Scratch[float64](w, 256)
				b := Scratch[float64](w, 256)
				for i := range a {
					a[i] = float64(g)
					b[i] = float64(-g - 1)
				}
				for i := range a {
					if a[i] != float64(g) || b[i] != float64(-g-1) {
						w.Release()
						done <- errAliased
						return
					}
				}
				w.Release()
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errAliased = errorString("workspace buffers aliased across goroutines")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestWorkspaceReuseAcrossBackends runs real backend kernels out of pooled
// buffers under every backend and checks that reuse stays clean: results
// must not change because a buffer was previously used by a different
// backend's kernels.
func TestWorkspaceReuseAcrossBackends(t *testing.T) {
	const n = 513 // exercises asm tails
	rng := rand.New(rand.NewSource(72))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = x[i] + y[i]
	}
	for round := 0; round < 4; round++ {
		for _, name := range kernels.Names() {
			restore, err := kernels.Use(name)
			if err != nil {
				t.Fatal(err)
			}
			ws := NewWorkspace()
			dst := Scratch[float64](ws, n)
			requireAllZero(t, name+" acquired", dst)
			kernels.Active().Add(x, y, dst)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("%s round %d: element %d = %v, want %v (stale pooled data?)", name, round, i, dst[i], want[i])
				}
			}
			// Leave the buffer dirty on purpose; the next backend must see
			// zeros anyway.
			ws.Release()
			restore()
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// allocPoisons is what a previous borrower may leave in a lent tensor.
var allocPoisons = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}

func poisonAll[T Float](rng *rand.Rand, d []T) {
	for i := range d {
		d[i] = T(allocPoisons[rng.Intn(len(allocPoisons))])
	}
}

// TestAllocReusedHeaderZeroed lends, poisons and releases tensors round
// after round. The pooled workspace comes back with the headers it made,
// and a reused header must carry zeroed storage of the new shape.
func TestAllocReusedHeaderZeroed(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	seen := map[*Dense[float64]]bool{}
	reused := 0
	for round := 0; round < 100; round++ {
		ws := NewWorkspace()
		for i := 0; i < 3; i++ {
			r, c := 1+rng.Intn(40), 1+rng.Intn(40)
			x := Alloc[float64](ws, r, c)
			if seen[x] {
				reused++
			}
			seen[x] = true
			if x.Rows() != r || x.Cols() != c || len(x.Data()) != r*c {
				t.Fatalf("round %d: lent shape %v with %d elements, want [%d %d]", round, x.Shape(), len(x.Data()), r, c)
			}
			requireAllZero(t, "lent tensor", x.Data())
			poisonAll(rng, x.Data())
		}
		ws.Release()
	}
	if reused == 0 {
		t.Fatal("no header was lent twice; the test checked nothing")
	}
}

// TestAllocMixesWidths lends float64 and float32 tensors interleaved from
// one workspace: each keeps its own width, shape and storage.
func TestAllocMixesWidths(t *testing.T) {
	for round := 0; round < 3; round++ {
		ws := NewWorkspace()
		var f64s []*Dense[float64]
		var f32s []*Dense[float32]
		for i := 0; i < 6; i++ {
			f64s = append(f64s, Alloc[float64](ws, 2+i, 3))
			f32s = append(f32s, Alloc[float32](ws, 3, 2+i))
		}
		for i := range f64s {
			requireAllZero(t, "float64 lend", f64s[i].Data())
			requireAllZero(t, "float32 lend", f32s[i].Data())
			if f64s[i].DType() != F64 || f32s[i].DType() != F32 {
				t.Fatalf("lend %d: dtypes %v and %v", i, f64s[i].DType(), f32s[i].DType())
			}
			if f64s[i].Rows() != 2+i || f32s[i].Cols() != 2+i {
				t.Fatalf("lend %d: shapes %v and %v", i, f64s[i].Shape(), f32s[i].Shape())
			}
			for j := range f64s[i].Data() {
				f64s[i].Data()[j] = float64(i + 1)
			}
			for j := range f32s[i].Data() {
				f32s[i].Data()[j] = -float32(i + 1)
			}
		}
		for i := range f64s {
			for _, v := range f64s[i].Data() {
				if v != float64(i+1) {
					t.Fatalf("round %d: float64 lend %d overwritten to %v", round, i, v)
				}
			}
			for _, v := range f32s[i].Data() {
				if v != -float32(i+1) {
					t.Fatalf("round %d: float32 lend %d overwritten to %v", round, i, v)
				}
			}
		}
		ws.Release()
	}
}

// TestAllocNilIsNewOf pins the tape's form: with no workspace Alloc is
// NewOf — a fresh zeroed tensor the caller owns, header plus data.
func TestAllocNilIsNewOf(t *testing.T) {
	a, b := Alloc[float64](nil, 3, 4), NewOf[float64](3, 4)
	if !slices.Equal(a.Shape(), b.Shape()) || a.DType() != b.DType() || len(a.Data()) != len(b.Data()) {
		t.Fatalf("Alloc(nil) = %v %v, NewOf = %v %v", a.Shape(), a.DType(), b.Shape(), b.DType())
	}
	requireAllZero(t, "Alloc(nil)", a.Data())
	if c := Alloc[float64](nil, 3, 4); &c.Data()[0] == &a.Data()[0] {
		t.Fatal("two Alloc(nil) calls share storage")
	}
	if f := Alloc[float32](nil, 5); f.DType() != F32 || f.Size() != 5 {
		t.Fatalf("Alloc[float32](nil, 5) = %v %v", f.Shape(), f.DType())
	}
	if got := testing.AllocsPerRun(100, func() { Alloc[float64](nil, 3, 4) }); got != 2 {
		t.Fatalf("Alloc[float64](nil, …) made %v allocations, want 2 (header and data)", got)
	}
	if got := testing.AllocsPerRun(100, func() { Alloc[float32](nil, 3, 4) }); got != 2 {
		t.Fatalf("Alloc[float32](nil, …) made %v allocations, want 2 (header and data)", got)
	}
}

// TestAllocSteadyStateAllocatesNothing is the point of lending: once the
// pools are warm, a NewWorkspace → 24 lends → Release cycle — a served
// frame's worth — makes no heap allocation.
func TestAllocSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	cycle := func() {
		ws := NewWorkspace()
		for i := 0; i < 12; i++ {
			Alloc[float64](ws, 1+i, 16)
			Alloc[float32](ws, 16, 1+i)
		}
		ws.Release()
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("steady-state lend cycle made %v allocations, want 0", got)
	}
}

// TestAllocReleaseClearsHeaders: after Release no lent header still points
// at pooled storage, so a header kept by mistake reads nothing until the
// workspace lends it again.
func TestAllocReleaseClearsHeaders(t *testing.T) {
	ws := NewWorkspace()
	var f64s []*Dense[float64]
	var f32s []*Dense[float32]
	for i := 0; i < 5; i++ {
		f64s = append(f64s, Alloc[float64](ws, 4, 4))
		f32s = append(f32s, Alloc[float32](ws, 4, 4))
	}
	ws.Release()
	for i := range f64s {
		if f64s[i].Data() != nil || f32s[i].Data() != nil {
			t.Fatalf("lend %d still holds data after Release", i)
		}
	}
}

// TestWorkspaceGrowthKeepsEarlierLends drives a fresh workspace through
// a cycle whose lends overflow its slab again and again. A lend that
// starts a new slab must leave every earlier lend's bytes where they
// were, every lent slice must end at its own length (cap == len, so an
// append cannot reach the next lend), and once released the grown slab
// carries the same cycle without a single allocation.
func TestWorkspaceGrowthKeepsEarlierLends(t *testing.T) {
	sizes := []int{3, 17, 64, 5, 1000, 1, 4096, 0, 33, 2}
	cycle := func(ws *Workspace, check bool) {
		var f64s [][]float64
		var f32s [][]float32
		grew := 0
		for i, n := range sizes {
			before := len(ws.f64.slab)
			x := Scratch[float64](ws, n)
			if len(ws.f64.slab) != before {
				grew++
			}
			y := Alloc[float32](ws, n).Data()
			if !check {
				continue
			}
			if cap(x) != n || cap(y) != n {
				t.Fatalf("lend %d of %d: caps %d and %d, want cap == len", i, n, cap(x), cap(y))
			}
			requireAllZero(t, "float64 lend", x)
			requireAllZero(t, "float32 lend", y)
			for j := range x {
				x[j] = float64(i + 1)
				y[j] = -float32(i + 1)
			}
			f64s, f32s = append(f64s, x), append(f32s, y)
			for k := range f64s {
				for j := range f64s[k] {
					if f64s[k][j] != float64(k+1) || f32s[k][j] != -float32(k+1) {
						t.Fatalf("after lend %d: lend %d element %d reads %v / %v, want %d", i, k, j, f64s[k][j], f32s[k][j], k+1)
					}
				}
			}
		}
		if check && grew < 3 {
			t.Fatalf("the slab grew %d times in the cycle, want several mid-cycle overflows", grew)
		}
	}
	ws := &Workspace{}
	cycle(ws, true)
	ws.Release()

	if raceEnabled {
		t.Skip("sync.Pool drops workspaces at random under the race detector")
	}
	pooled := func() {
		ws := NewWorkspace()
		cycle(ws, false)
		ws.Release()
	}
	for i := 0; i < 4; i++ {
		pooled()
	}
	if got := testing.AllocsPerRun(100, pooled); got != 0 {
		t.Fatalf("a released workspace's cycle made %v allocations, want 0", got)
	}
}

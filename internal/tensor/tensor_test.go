package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"edgekg/internal/flops"
)

func TestNewShapeAndSize(t *testing.T) {
	cases := []struct {
		shape []int
		size  int
	}{
		{[]int{}, 1},
		{[]int{3}, 3},
		{[]int{2, 4}, 8},
		{[]int{2, 3, 4}, 24},
		{[]int{0, 5}, 0},
	}
	for _, c := range cases {
		tt := New(c.shape...)
		if tt.Size() != c.size {
			t.Errorf("New(%v).Size() = %d, want %d", c.shape, tt.Size(), c.size)
		}
		if tt.Dims() != len(c.shape) {
			t.Errorf("New(%v).Dims() = %d, want %d", c.shape, tt.Dims(), len(c.shape))
		}
	}
}

func TestFromSliceOwnership(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	m := FromSlice(d, 2, 2)
	if m.At2(1, 0) != 3 {
		t.Fatalf("At2(1,0) = %v, want 3", m.At2(1, 0))
	}
	d[2] = 99 // FromSlice takes ownership; mutation is visible
	if m.At2(1, 0) != 99 {
		t.Fatalf("FromSlice should wrap, not copy")
	}
}

func TestFromSliceBadLength(t *testing.T) {
	defer expectPanic(t, "FromSlice length mismatch")
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetMultiDim(t *testing.T) {
	tt := New(2, 3, 4)
	tt.Set(7.5, 1, 2, 3)
	if got := tt.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := tt.Data()[1*12+2*4+3]; got != 7.5 {
		t.Fatalf("row-major layout broken: %v", got)
	}
}

func TestAtOutOfRange(t *testing.T) {
	defer expectPanic(t, "index out of range")
	New(2, 2).At(2, 0)
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := a.Clone()
	b.Data()[0] = 42
	if a.Data()[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set2(0, 1, 42)
	if a.At2(0, 1) != 42 {
		t.Fatal("Reshape must share data")
	}
	defer expectPanic(t, "reshape size mismatch")
	a.Reshape(4, 2)
}

func TestAddSubMulDiv(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{4, 3, 2, 1}, 2, 2)
	if got := Add(a, b); !AllClose(got, Full(5, 2, 2), 0) {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(a, b); !AllClose(got, FromSlice([]float64{-3, -1, 1, 3}, 2, 2), 0) {
		t.Errorf("Sub = %v", got)
	}
	if got := Mul(a, b); !AllClose(got, FromSlice([]float64{4, 6, 6, 4}, 2, 2), 0) {
		t.Errorf("Mul = %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "Add shape mismatch")
	Add(New(2, 2), New(2, 3))
}

func TestAddRow(t *testing.T) {
	m := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	v := FromSlice([]float64{10, 20, 30}, 3)
	got := AddRow(m, v)
	want := FromSlice([]float64{11, 22, 33, 14, 25, 36}, 2, 3)
	if !AllClose(got, want, 0) {
		t.Errorf("AddRow = %v, want %v", got, want)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !AllClose(got, want, 1e-12) {
		t.Errorf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandN(rng, 1, 4, 4)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set2(i, i, 1)
	}
	if got := MatMul(a, id); !AllClose(got, a, 1e-12) {
		t.Error("A·I != A")
	}
	if got := MatMul(id, a); !AllClose(got, a, 1e-12) {
		t.Error("I·A != A")
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandN(rng, 1, 5, 3)
	b := RandN(rng, 1, 5, 4)
	got := MatMulT1(a, b) // aᵀ·b : (3×4)
	want := MatMul(Transpose(a), b)
	if !AllClose(got, want, 1e-12) {
		t.Errorf("MatMulT1 disagrees with explicit transpose")
	}
	c := RandN(rng, 1, 6, 3)
	d := RandN(rng, 1, 4, 3)
	got = MatMulT2(c, d) // c·dᵀ : (6×4)
	want = MatMul(c, Transpose(d))
	if !AllClose(got, want, 1e-12) {
		t.Errorf("MatMulT2 disagrees with explicit transpose")
	}
}

func TestMatMulInnerDimMismatch(t *testing.T) {
	defer expectPanic(t, "inner dim mismatch")
	MatMul(New(2, 3), New(4, 2))
}

func TestMatVecAndOuter(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	x := FromSlice([]float64{1, 1}, 2)
	got := MatVec(a, x)
	if !AllClose(got, FromSlice([]float64{3, 7}, 2), 1e-12) {
		t.Errorf("MatVec = %v", got)
	}
	// The outer product x·yᵀ is the (m×1)·(1×n) matmul.
	o := MatMul(FromSlice([]float64{1, 2}, 2, 1), FromSlice([]float64{3, 4, 5}, 1, 3))
	want := FromSlice([]float64{3, 4, 5, 6, 8, 10}, 2, 3)
	if !AllClose(o, want, 0) {
		t.Errorf("outer product = %v", o)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		a := RandN(rng, 1, r, c)
		return AllClose(Transpose(Transpose(a)), a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: matmul distributes over addition, (A+B)·C = A·C + B·C.
func TestMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := RandN(rng, 1, m, k)
		b := RandN(rng, 1, m, k)
		c := RandN(rng, 1, k, n)
		lhs := MatMul(Add(a, b), c)
		rhs := Add(MatMul(a, c), MatMul(b, c))
		return AllClose(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReductions(t *testing.T) {
	m := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := m.Sum(); got != 21 {
		t.Errorf("Sum = %v", got)
	}
	if got := SumAxis0(m); !AllClose(got, FromSlice([]float64{5, 7, 9}, 3), 0) {
		t.Errorf("SumAxis0 = %v", got)
	}
	if got := MeanAxis0(m); !AllClose(got, FromSlice([]float64{2.5, 3.5, 4.5}, 3), 0) {
		t.Errorf("MeanAxis0 = %v", got)
	}
}

func TestVarAxis0(t *testing.T) {
	m := FromSlice([]float64{1, 10, 3, 10, 5, 10}, 3, 2)
	got := VarAxis0(m)
	// col0: mean 3, var ((4)+(0)+(4))/3 = 8/3 ; col1: 0
	want := FromSlice([]float64{8.0 / 3, 0}, 2)
	if !AllClose(got, want, 1e-12) {
		t.Errorf("VarAxis0 = %v, want %v", got, want)
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := FromSlice([]float64{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	s := SoftmaxRows(m)
	for i := 0; i < 2; i++ {
		sum := 0.0
		for j := 0; j < 3; j++ {
			p := s.At2(i, j)
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("softmax out of range or NaN: %v", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
	// Large-but-equal logits must give uniform distribution (stability).
	if math.Abs(s.At2(1, 0)-1.0/3) > 1e-12 {
		t.Errorf("stability shift failed: %v", s.At2(1, 0))
	}
}

// Property: softmax is invariant to adding a constant to a row.
func TestSoftmaxShiftInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := RandN(rng, 3, 2, 4)
		shift := Add(m, Full(rng.NormFloat64()*10, m.Shape()...))
		return AllClose(SoftmaxRows(m), SoftmaxRows(shift), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGatherScatter(t *testing.T) {
	m := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	g := Gather(m, []int{2, 0, 2})
	want := FromSlice([]float64{5, 6, 1, 2, 5, 6}, 3, 2)
	if !AllClose(g, want, 0) {
		t.Errorf("Gather = %v", g)
	}
	dst := New(3, 2)
	ScatterAddRows(dst, []int{2, 0, 2}, g)
	want = FromSlice([]float64{1, 2, 0, 0, 10, 12}, 3, 2)
	if !AllClose(dst, want, 0) {
		t.Errorf("ScatterAddRows = %v, want %v", dst, want)
	}
}

// Property: ScatterAddRows is the adjoint of Gather —
// <Gather(m, rows), s> == <m, ScatterAdd(rows, s)> for all m, s.
// This is exactly the identity autograd relies on for the gather backward.
func TestGatherScatterAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, c := 2+rng.Intn(5), 1+rng.Intn(4)
		k := 1 + rng.Intn(7)
		rows := make([]int, k)
		for i := range rows {
			rows[i] = rng.Intn(n)
		}
		m := RandN(rng, 1, n, c)
		s := RandN(rng, 1, k, c)
		lhs := Dot(Gather(m, rows), s)
		scat := New(n, c)
		ScatterAddRows(scat, rows, s)
		rhs := Dot(m, scat)
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConcat(t *testing.T) {
	m1 := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	m2 := FromSlice([]float64{5, 6}, 2, 1)
	got := ConcatCols(m1, m2)
	want := FromSlice([]float64{1, 2, 5, 3, 4, 6}, 2, 3)
	if !AllClose(got, want, 0) {
		t.Errorf("ConcatCols = %v", got)
	}
	got = ConcatRows(m1, FromSlice([]float64{7, 8}, 1, 2))
	want = FromSlice([]float64{1, 2, 3, 4, 7, 8}, 3, 2)
	if !AllClose(got, want, 0) {
		t.Errorf("ConcatRows = %v", got)
	}
}

func TestSliceRows(t *testing.T) {
	m := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	got := SliceRows(m, 1, 3)
	want := FromSlice([]float64{3, 4, 5, 6}, 2, 2)
	if !AllClose(got, want, 0) {
		t.Errorf("SliceRows = %v", got)
	}
	// The slice must be a copy.
	got.Set2(0, 0, 99)
	if m.At2(1, 0) == 99 {
		t.Error("SliceRows must copy")
	}
}

func TestNormsAndDistances(t *testing.T) {
	a := FromSlice([]float64{3, 4}, 2)
	if got := Norm2(a); got != 5 {
		t.Errorf("Norm2 = %v", got)
	}
	b := FromSlice([]float64{0, 0}, 2)
	if got := L2Distance(a, b); got != 5 {
		t.Errorf("L2Distance = %v", got)
	}
	if got := CosineSimilarity(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("CosineSimilarity(a,a) = %v", got)
	}
	if got := CosineSimilarity(a, b); got != 0 {
		t.Errorf("cosine with zero vector = %v, want 0", got)
	}
	n := Normalize(a)
	if math.Abs(Norm2(n)-1) > 1e-12 {
		t.Errorf("Normalize norm = %v", Norm2(n))
	}
}

func TestRandUnitVector(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		v := RandUnitVector(rng, 8)
		if math.Abs(Norm2(v)-1) > 1e-9 {
			t.Fatalf("unit vector norm %v", Norm2(v))
		}
	}
}

func TestGlorotUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := GlorotUniform(rng, 8, 8)
	limit := math.Sqrt(6.0 / 16.0)
	for _, v := range w.Data() {
		if v < -limit || v > limit {
			t.Fatalf("Glorot value %v outside ±%v", v, limit)
		}
	}
}

func TestFlopCounting(t *testing.T) {
	var c flops.Counter
	prev := flops.SetActive(&c)
	defer flops.SetActive(prev)
	a := Ones(4, 4)
	b := Ones(4, 4)
	MatMul(a, b)
	if got := c.Ops(); got != 2*4*4*4 {
		t.Errorf("MatMul flops = %d, want %d", got, 2*4*4*4)
	}
	before := c.Ops()
	Add(a, b)
	if got := c.Ops() - before; got != 16 {
		t.Errorf("Add flops = %d, want 16", got)
	}
}

func TestStringRendering(t *testing.T) {
	small := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if s := small.String(); len(s) == 0 {
		t.Error("empty String for small tensor")
	}
	big := New(100, 100)
	if s := big.String(); s != "Tensor[100 100][10000 elems]" {
		t.Errorf("big String = %q", s)
	}
}

func expectPanic(t *testing.T, context string) {
	t.Helper()
	if r := recover(); r == nil {
		t.Errorf("%s: expected panic, got none", context)
	}
}

// TestNewCostsTwoAllocations pins the constructor's promise (struct +
// data, shape stored inline): the variadic shape must not escape — it did
// while checkShape's panic message formatted it directly, which cost every
// call site a third allocation.
func TestNewCostsTwoAllocations(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { New(4, 4) }); got != 2 {
		t.Errorf("New(4, 4): %.0f allocs, want 2", got)
	}
	if got := testing.AllocsPerRun(100, func() { NewOf[float32](4, 4) }); got != 2 {
		t.Errorf("NewOf[float32](4, 4): %.0f allocs, want 2", got)
	}
}

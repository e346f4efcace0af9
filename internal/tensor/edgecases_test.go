package tensor

// Edge-case coverage for the reshaping/scatter ops the backend dispatch
// rides on: empty operands, repeated scatter indices, and degenerate 1×N /
// N×1 geometries, run under every registered backend (ScatterAddRows
// dispatches; Transpose is a pure copy but must agree regardless).

import (
	"math"
	"testing"

	"edgekg/internal/tensor/kernels"
)

// forEachBackend runs fn once per registered backend with it active.
func forEachBackend(t *testing.T, fn func(t *testing.T, name string)) {
	for _, name := range kernels.Names() {
		restore, err := kernels.Use(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { fn(t, name) })
		restore()
	}
}

func TestScatterAddRowsRepeatedIndices(t *testing.T) {
	forEachBackend(t, func(t *testing.T, name string) {
		dst := New(3, 2)
		src := FromSlice([]float64{1, 2, 10, 20, 100, 200, 0.5, 0.25}, 4, 2)
		// All four source rows land on row 1; contributions accumulate in
		// source order.
		ScatterAddRows(dst, []int{1, 1, 1, 1}, src)
		want := []float64{0, 0, 111.5, 222.25, 0, 0}
		for i, v := range dst.Data() {
			if v != want[i] {
				t.Fatalf("element %d = %v, want %v", i, v, want[i])
			}
		}
	})
}

func TestScatterAddRowsEmpty(t *testing.T) {
	forEachBackend(t, func(t *testing.T, name string) {
		// Zero rows to scatter: a no-op that must not panic.
		dst := New(2, 3)
		ScatterAddRows(dst, nil, New(0, 3))
		for i, v := range dst.Data() {
			if v != 0 {
				t.Fatalf("element %d = %v after empty scatter", i, v)
			}
		}
		// Zero-width rows: indices exist but each row carries no data.
		dstW := New(2, 0)
		ScatterAddRows(dstW, []int{0, 1, 0}, New(3, 0))
	})
}

func TestScatterAddRowsSpecialValues(t *testing.T) {
	forEachBackend(t, func(t *testing.T, name string) {
		dst := New(1, 2)
		negZero := math.Copysign(0, -1)
		src := FromSlice([]float64{math.Inf(1), negZero, math.Inf(-1), 0}, 2, 2)
		ScatterAddRows(dst, []int{0, 0}, src)
		d := dst.Data()
		if !math.IsNaN(d[0]) {
			t.Fatalf("Inf + -Inf accumulated to %v, want NaN", d[0])
		}
		// -0 + 0 is +0 under round-to-nearest.
		if d[1] != 0 || math.Signbit(d[1]) {
			t.Fatalf("-0 + 0 accumulated to %v (%#x), want +0", d[1], math.Float64bits(d[1]))
		}
	})
}

func TestTransposeDegenerate(t *testing.T) {
	forEachBackend(t, func(t *testing.T, name string) {
		// 1×N row vector ↔ N×1 column vector.
		row := FromSlice([]float64{1, 2, 3, 4, 5}, 1, 5)
		col := Transpose(row)
		if col.Rows() != 5 || col.Cols() != 1 {
			t.Fatalf("Transpose(1×5) shape = %v", col.Shape())
		}
		back := Transpose(col)
		for i, v := range back.Data() {
			if v != row.Data()[i] {
				t.Fatalf("double transpose element %d = %v", i, v)
			}
		}
		// Empty on either axis.
		for _, shape := range [][2]int{{0, 4}, {4, 0}, {0, 0}} {
			tr := Transpose(New(shape[0], shape[1]))
			if tr.Rows() != shape[1] || tr.Cols() != shape[0] {
				t.Fatalf("Transpose(%v) shape = %v", shape, tr.Shape())
			}
		}
		// Size above the 32×32 blocking tile, non-square, with a NaN
		// payload that must survive the copy bit-for-bit.
		big := New(37, 41)
		big.Data()[0] = math.NaN()
		for i := 1; i < len(big.Data()); i++ {
			big.Data()[i] = float64(i)
		}
		tr := Transpose(big)
		for i := 0; i < 37; i++ {
			for j := 0; j < 41; j++ {
				got := tr.At2(j, i)
				want := big.At2(i, j)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("transpose[%d,%d] = %v, want %v", j, i, got, want)
				}
			}
		}
	})
}

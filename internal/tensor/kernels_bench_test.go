package tensor

// Per-backend kernel microbenchmarks:
//
//	go test ./internal/tensor -bench 'PerBackend' -run '^$'
//
// Each bench runs the same kernel under every registered backend so a
// single run shows the scalar → unrolled → avx2 trajectory on this host.

import (
	"fmt"
	"math/rand"
	"testing"

	"edgekg/internal/tensor/kernels"
)

func benchPerBackend(b *testing.B, fn func(b *testing.B, bk kernels.Backend[float64])) {
	for _, name := range kernels.Names() {
		bk, _ := kernels.Get[float64](name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			fn(b, bk)
		})
	}
}

func benchData(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// BenchmarkMatMulPerBackend times MatMul at the served shapes, where the
// per-call cost shows (the quick model's 1×16×16, 4×16×16 and 1×64×16,
// the full model's 8×128×128 and 1×128×512), and at 64×64×64.
func BenchmarkMatMulPerBackend(b *testing.B) {
	for _, d := range [][3]int{{1, 16, 16}, {4, 16, 16}, {1, 64, 16}, {8, 128, 128}, {1, 128, 512}, {64, 64, 64}} {
		m, k, n := d[0], d[1], d[2]
		a := benchData(m*k, 1)
		bb := benchData(k*n, 2)
		out := make([]float64, m*n)
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			benchPerBackend(b, func(b *testing.B, bk kernels.Backend[float64]) {
				b.SetBytes(8 * int64(m*k+k*n+m*n))
				for i := 0; i < b.N; i++ {
					clear(out)
					bk.MatMul(a, bb, out, k, n, 0, m)
				}
			})
		})
	}
}

func BenchmarkMatMulT2PerBackend(b *testing.B) {
	const m, k, n = 64, 64, 64
	a := benchData(m*k, 3)
	bt := benchData(n*k, 4)
	out := make([]float64, m*n)
	benchPerBackend(b, func(b *testing.B, bk kernels.Backend[float64]) {
		b.SetBytes(8 * int64(m*k+n*k+m*n))
		for i := 0; i < b.N; i++ {
			bk.MatMulT2(a, bt, out, k, n, 0, m)
		}
	})
}

func BenchmarkDotPerBackend(b *testing.B) {
	x := benchData(4096, 5)
	y := benchData(4096, 6)
	benchPerBackend(b, func(b *testing.B, bk kernels.Backend[float64]) {
		b.SetBytes(8 * 2 * 4096)
		var s float64
		for i := 0; i < b.N; i++ {
			s += bk.Dot(x, y)
		}
		_ = s
	})
}

func BenchmarkAxpyPerBackend(b *testing.B) {
	x := benchData(4096, 7)
	y := benchData(4096, 8)
	benchPerBackend(b, func(b *testing.B, bk kernels.Backend[float64]) {
		b.SetBytes(8 * 2 * 4096)
		for i := 0; i < b.N; i++ {
			bk.Axpy(0.5, x, y)
		}
	})
}

func BenchmarkMulAccPerBackend(b *testing.B) {
	x := benchData(4096, 9)
	y := benchData(4096, 10)
	dst := make([]float64, 4096)
	benchPerBackend(b, func(b *testing.B, bk kernels.Backend[float64]) {
		b.SetBytes(8 * 3 * 4096)
		for i := 0; i < b.N; i++ {
			bk.MulAcc(x, y, dst)
		}
	})
}

func BenchmarkSumPerBackend(b *testing.B) {
	x := benchData(4096, 11)
	benchPerBackend(b, func(b *testing.B, bk kernels.Backend[float64]) {
		b.SetBytes(8 * 4096)
		var s float64
		for i := 0; i < b.N; i++ {
			s += bk.Sum(x)
		}
		_ = s
	})
}

// BenchmarkELUPerBackend runs ELU over one 512-wide row of N(0,1) values,
// half of them through exp.
func BenchmarkELUPerBackend(b *testing.B) {
	x := benchData(512, 12)
	dst := make([]float64, 512)
	benchPerBackend(b, func(b *testing.B, bk kernels.Backend[float64]) {
		b.SetBytes(8 * 2 * 512)
		for i := 0; i < b.N; i++ {
			bk.ELU(x, dst)
		}
	})
}

// BenchmarkGELUPerBackend runs GELU over one 512-wide row of N(0,1)
// values, the temporal block's feed-forward width.
func BenchmarkGELUPerBackend(b *testing.B) {
	x := benchData(512, 12)
	dst := make([]float64, 512)
	benchPerBackend(b, func(b *testing.B, bk kernels.Backend[float64]) {
		b.SetBytes(8 * 2 * 512)
		for i := 0; i < b.N; i++ {
			bk.GELU(x, dst)
		}
	})
}

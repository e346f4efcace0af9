package kernels

import "testing"

// orderCase is a sum whose value depends on the order it is added in. x
// is exact at float32 and float64; canon is its sum in the order every
// backend adds (avx2's), serial and four its sums one element at a time
// and over four accumulators combined as (s0+s1)+(s2+s3).
type orderCase struct {
	name                string
	x                   []float64
	canon, serial, four float64
}

// bigAmongOnes returns n values: big, then ones.
func bigAmongOnes(n int, big float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	x[0] = big
	return x
}

// TestReductionsSumInTheCanonicalOrder pins every backend's Sum, Dot,
// MatVec and MatMulT2 to the literal canonical sum, not only to each
// other: a host without AVX2 compares scalar with unrolled alone, and the
// two could drift together.
//
// At float64 (8 lanes) 1e16+1 rounds back to 1e16, so the ones vanish in
// a serial sum but pair up in lanes 1..7. The cancelling lanes make
// halving, ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)), give 2 where adding
// neighbours gives 0. At float32 (16 lanes) 2^24 plays 1e16's part, and
// the cancelling lanes make the last step, (c0+c1) + (c2+c3) as VHADDPS
// pairs them, give 1 where halving gives 2.
func TestReductionsSumInTheCanonicalOrder(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		requireOrder[float64](t, []orderCase{
			{"1e16 among ones", bigAmongOnes(19, 1e16), 1e16 + 16, 1e16, 1e16 + 12},
			{"cancelling lanes", []float64{1e16, 1, -1e16, 1, 0, 0, 0, 0}, 2, 1, 0},
		})
	})
	t.Run("f32", func(t *testing.T) {
		requireOrder[float32](t, []orderCase{
			{"2^24 among ones", bigAmongOnes(35, 0x1p24), 0x1p24 + 32, 0x1p24, 0x1p24 + 24},
			{"cancelling lanes", []float64{0x1p24, 0, -0x1p24, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, 1, 2, 1},
		})
	})
}

func requireOrder[T Float](t *testing.T, cases []orderCase) {
	for _, c := range cases {
		x, twos := make([]T, len(c.x)), make([]T, len(c.x))
		for i, v := range c.x {
			x[i], twos[i] = T(v), 2
		}
		// The case's claim: the other orders give other sums.
		var serial T
		var acc [4]T
		n4 := len(x) - len(x)%4
		for i, v := range x[:n4] {
			acc[i%4] += v
		}
		four := (acc[0] + acc[1]) + (acc[2] + acc[3])
		for i, v := range x {
			serial += v
			if i >= n4 {
				four += v
			}
		}
		if serial != T(c.serial) || four != T(c.four) {
			t.Fatalf("%s: serial sum %v, four-accumulator sum %v; the case says %v, %v", c.name, serial, four, c.serial, c.four)
		}

		want := T(c.canon)
		for _, name := range Names() {
			b, _ := Get[T](name)
			out := make([]T, 2)
			b.MatVec(x, twos, out, len(x), 0, 1)
			b.MatMulT2(x, twos, out[1:], len(x), 1, 0, 1)
			for _, r := range []struct {
				kernel    string
				got, want T
			}{
				{"Sum", b.Sum(x), want},
				{"Dot", b.Dot(x, twos), 2 * want},
				{"MatVec", out[0], 2 * want},
				{"MatMulT2", out[1], 2 * want},
			} {
				if err := CompareExact(r.want, r.got); err != nil {
					t.Errorf("%s/%s/%s: %v", name, c.name, r.kernel, err)
				}
			}
		}
	}
}

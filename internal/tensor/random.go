package tensor

import (
	"math"
	"math/rand"
)

// RandN returns a tensor with elements drawn from N(0, stddev²) using rng.
// Passing an explicit *rand.Rand keeps every experiment in the repository
// reproducible from a single seed.
func RandN(rng *rand.Rand, stddev float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * stddev
	}
	return t
}

// RandUniform returns a tensor with elements drawn uniformly from [lo, hi).
func RandUniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = lo + rng.Float64()*(hi-lo)
	}
	return t
}

// GlorotUniform returns a (fanIn×fanOut) matrix initialised with the
// Glorot/Xavier uniform scheme, the default for the dense sub-layers of the
// hierarchical GNN.
func GlorotUniform(rng *rand.Rand, fanIn, fanOut int) *Tensor {
	limit := glorotLimit(fanIn, fanOut)
	return RandUniform(rng, -limit, limit, fanIn, fanOut)
}

func glorotLimit(fanIn, fanOut int) float64 {
	if fanIn+fanOut == 0 {
		return 0
	}
	return math.Sqrt(6.0 / float64(fanIn+fanOut))
}

// RandUnitVector returns a 1-D tensor of dimension dim uniformly distributed
// on the unit sphere. Node-creation (Fig. 4C) uses it for the replacement
// node's random token embedding.
func RandUnitVector(rng *rand.Rand, dim int) *Tensor {
	for {
		v := RandN(rng, 1, dim)
		n := Norm2(v)
		if n > 1e-12 {
			return ScaleInPlace(v, 1/n)
		}
	}
}

package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAUCPerfectSeparation(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	auc, err := AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 1 {
		t.Errorf("AUC = %v, want 1", auc)
	}
	// Inverted scores give 0.
	inv := []float64{0.1, 0.2, 0.8, 0.9}
	auc, _ = AUC(inv, labels)
	if auc != 0 {
		t.Errorf("inverted AUC = %v, want 0", auc)
	}
}

func TestAUCKnownValue(t *testing.T) {
	// scores: pos {0.8, 0.4}, neg {0.6, 0.2}: pairs (0.8>0.6), (0.8>0.2),
	// (0.4<0.6), (0.4>0.2) → 3/4.
	auc, err := AUC([]float64{0.8, 0.4, 0.6, 0.2}, []bool{true, true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.75) > 1e-12 {
		t.Errorf("AUC = %v, want 0.75", auc)
	}
}

func TestAUCTies(t *testing.T) {
	// All scores equal: AUC must be exactly 0.5 under midrank handling.
	auc, err := AUC([]float64{0.5, 0.5, 0.5, 0.5}, []bool{true, false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 1e-12 {
		t.Errorf("tied AUC = %v, want 0.5", auc)
	}
}

func TestAUCErrors(t *testing.T) {
	if _, err := AUC([]float64{1, 2}, []bool{true}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := AUC([]float64{1, 2}, []bool{true, true}); err == nil {
		t.Error("single-class labels accepted")
	}
	if _, err := AUC([]float64{math.NaN(), 2}, []bool{true, false}); err == nil {
		t.Error("NaN score accepted")
	}
}

// Property: AUC is invariant under strictly monotone transforms of scores.
func TestAUCMonotoneInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(20)
		scores := make([]float64, n)
		labels := make([]bool, n)
		pos := 0
		for i := range scores {
			scores[i] = rng.NormFloat64()
			labels[i] = rng.Float64() < 0.5
			if labels[i] {
				pos++
			}
		}
		if pos == 0 || pos == n {
			return true // AUC undefined; skip
		}
		a1, err1 := AUC(scores, labels)
		warped := make([]float64, n)
		for i, s := range scores {
			warped[i] = math.Exp(2*s) + 1 // strictly increasing
		}
		a2, err2 := AUC(warped, labels)
		return err1 == nil && err2 == nil && math.Abs(a1-a2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: random scores give AUC near 0.5 in expectation.
func TestAUCRandomScoresNearHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sum := 0.0
	const runs = 50
	for r := 0; r < runs; r++ {
		n := 200
		scores := make([]float64, n)
		labels := make([]bool, n)
		for i := range scores {
			scores[i] = rng.Float64()
			labels[i] = i%2 == 0
		}
		a, err := AUC(scores, labels)
		if err != nil {
			t.Fatal(err)
		}
		sum += a
	}
	if avg := sum / runs; math.Abs(avg-0.5) > 0.03 {
		t.Errorf("mean random AUC = %v, want ≈0.5", avg)
	}
}

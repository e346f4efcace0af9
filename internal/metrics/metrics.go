// Package metrics implements the evaluation machinery of Sec. IV: exact
// ROC-AUC with tie handling (the paper's headline metric).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// AUC returns the area under the ROC curve for binary labels (true =
// positive/anomalous) and real-valued scores, computed exactly via the
// Mann-Whitney U statistic with midrank tie handling. It returns an error
// when either class is absent.
func AUC(scores []float64, labels []bool) (float64, error) {
	if len(scores) != len(labels) {
		return 0, fmt.Errorf("metrics: %d scores vs %d labels", len(scores), len(labels))
	}
	var pos, neg int
	for _, l := range labels {
		if l {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0, fmt.Errorf("metrics: AUC undefined with %d positives and %d negatives", pos, neg)
	}
	type pair struct {
		s   float64
		pos bool
	}
	ps := make([]pair, len(scores))
	for i, s := range scores {
		if math.IsNaN(s) {
			return 0, fmt.Errorf("metrics: NaN score at index %d", i)
		}
		ps[i] = pair{s, labels[i]}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].s < ps[j].s })
	// Midranks over tie groups.
	rankSumPos := 0.0
	i := 0
	for i < len(ps) {
		j := i
		for j < len(ps) && ps[j].s == ps[i].s {
			j++
		}
		midrank := float64(i+j+1) / 2 // average of ranks i+1..j
		for k := i; k < j; k++ {
			if ps[k].pos {
				rankSumPos += midrank
			}
		}
		i = j
	}
	u := rankSumPos - float64(pos)*float64(pos+1)/2
	return u / (float64(pos) * float64(neg)), nil
}

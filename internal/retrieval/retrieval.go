// Package retrieval implements Interpretable KG Retrieval (Sec. III-E):
// decoding the continuously-learned token embeddings back into
// human-readable vocabulary words by nearest-neighbour search over the
// frozen BPE token-embedding table. Euclidean distance is the paper's
// preferred metric; cosine and dot-product are implemented for the
// comparison the paper mentions.
package retrieval

import (
	"fmt"
	"sort"
	"strings"

	"edgekg/internal/embed"
	"edgekg/internal/tensor"
)

// Metric selects the similarity measure for the nearest-token search.
type Metric int

// Supported metrics. Euclidean "outperformed the others" in the paper's
// experiments and is the default everywhere.
const (
	Euclidean Metric = iota
	Cosine
	Dot
)

// String returns the metric name.
func (m Metric) String() string {
	switch m {
	case Euclidean:
		return "euclidean"
	case Cosine:
		return "cosine"
	case Dot:
		return "dot"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// Match is one retrieved vocabulary token.
type Match struct {
	TokenID int
	// Word is the decoded surface form (end-of-word marker stripped).
	Word string
	// Distance is metric-dependent: for Euclidean it is the L2 distance
	// (smaller = closer); for Cosine and Dot it is the negated similarity
	// so that smaller is always closer and callers can sort uniformly.
	Distance float64
}

// Retriever performs nearest-token searches against a space's token table.
type Retriever struct {
	space *embed.Space
	table *tensor.Tensor
}

// New returns a Retriever over the space's frozen token table.
func New(space *embed.Space) *Retriever {
	return &Retriever{space: space, table: space.TokenTable()}
}

// Nearest returns the k vocabulary tokens closest to the given embedding
// under the metric, ordered closest-first.
func (r *Retriever) Nearest(embedding *tensor.Tensor, k int, metric Metric) []Match {
	if embedding.Size() != r.space.Dim() {
		panic(fmt.Sprintf("retrieval: embedding dim %d != %d", embedding.Size(), r.space.Dim()))
	}
	vocab := r.table.Rows()
	matches := make([]Match, 0, vocab)
	for id := 0; id < vocab; id++ {
		row := tensor.FromSlice(append([]float64(nil), r.table.Row(id)...), r.space.Dim())
		var d float64
		switch metric {
		case Euclidean:
			d = tensor.L2Distance(embedding, row)
		case Cosine:
			d = -tensor.CosineSimilarity(embedding, row)
		case Dot:
			d = -tensor.Dot(embedding, row)
		default:
			panic(fmt.Sprintf("retrieval: unknown metric %d", int(metric)))
		}
		matches = append(matches, Match{
			TokenID:  id,
			Word:     r.space.Tokenizer().TokenWord(id),
			Distance: d,
		})
	}
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Distance != matches[j].Distance {
			return matches[i].Distance < matches[j].Distance
		}
		return matches[i].TokenID < matches[j].TokenID
	})
	if k > len(matches) {
		k = len(matches)
	}
	return matches[:k]
}

// NearestWords returns the k closest *whole-word* tokens (end-of-word
// marker present, surface length ≥ 3). Interior subword fragments make
// poor figure labels; the paper's Fig. 6 annotates whole concept words.
func (r *Retriever) NearestWords(embedding *tensor.Tensor, k int, metric Metric) []Match {
	all := r.Nearest(embedding, r.table.Rows(), metric)
	out := make([]Match, 0, k)
	for _, m := range all {
		if len(out) >= k {
			break
		}
		if r.space.Tokenizer().IsWordFinal(m.TokenID) && len(m.Word) >= 3 {
			out = append(out, m)
		}
	}
	return out
}

// DecodeBank retrieves the top-k nearest tokens for every row of a node's
// learned token matrix (numTokens × dim).
func (r *Retriever) DecodeBank(bank *tensor.Tensor, k int, metric Metric) [][]Match {
	out := make([][]Match, bank.Rows())
	for i := 0; i < bank.Rows(); i++ {
		row := tensor.FromSlice(append([]float64(nil), bank.Row(i)...), bank.Cols())
		out[i] = r.Nearest(row, k, metric)
	}
	return out
}

// NodePhrase renders a node's learned token matrix as its top-1 decoded
// words joined with spaces — the interpretable concept the adapted KG
// displays.
func (r *Retriever) NodePhrase(bank *tensor.Tensor, metric Metric) string {
	per := r.DecodeBank(bank, 1, metric)
	words := make([]string, 0, len(per))
	for _, ms := range per {
		if len(ms) > 0 && ms[0].Word != "" {
			words = append(words, ms[0].Word)
		}
	}
	return strings.Join(words, " ")
}

// Trajectory records how one node's pooled embedding moves between two
// concept anchors over adaptation iterations — the data behind Fig. 6
// (e.g. "Sneaky" drifting toward "Firearm").
type Trajectory struct {
	Iterations []int
	// DistInitial and DistTarget are Euclidean distances from the pooled
	// node embedding to the initial and target concept word vectors.
	DistInitial []float64
	DistTarget  []float64
	// TopWord is the top-1 retrieved word at each recorded iteration.
	TopWord []string
}

// TrajectoryRecorder accumulates a Trajectory.
type TrajectoryRecorder struct {
	r               *Retriever
	initial, target *tensor.Tensor
	traj            Trajectory
}

// NewTrajectoryRecorder anchors a recorder at two concept words.
func NewTrajectoryRecorder(r *Retriever, initialWord, targetWord string) *TrajectoryRecorder {
	return &TrajectoryRecorder{
		r:       r,
		initial: r.space.TextEncode(initialWord),
		target:  r.space.TextEncode(targetWord),
	}
}

// Record logs the node's pooled embedding at an iteration count.
func (tr *TrajectoryRecorder) Record(iteration int, bank *tensor.Tensor) {
	pooled := tensor.MeanAxis0(bank)
	tr.traj.Iterations = append(tr.traj.Iterations, iteration)
	tr.traj.DistInitial = append(tr.traj.DistInitial, tensor.L2Distance(pooled, tr.initial))
	tr.traj.DistTarget = append(tr.traj.DistTarget, tensor.L2Distance(pooled, tr.target))
	top := tr.r.Nearest(pooled, 1, Euclidean)
	word := ""
	if len(top) > 0 {
		word = top[0].Word
	}
	tr.traj.TopWord = append(tr.traj.TopWord, word)
}

// Trajectory returns the recorded series.
func (tr *TrajectoryRecorder) Trajectory() Trajectory { return tr.traj }

// NetDrift summarises a trajectory as the reduction in distance to the
// target anchor: positive values mean the embedding ended closer to the
// target than it started, negative values that it moved away.
func (t Trajectory) NetDrift() float64 {
	if len(t.Iterations) < 2 {
		return 0
	}
	return t.DistTarget[0] - t.DistTarget[len(t.DistTarget)-1]
}

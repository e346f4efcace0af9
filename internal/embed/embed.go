// Package embed implements the frozen "large joint embedding model" of
// Fig. 2 — the ImageBind-Huge substitute. It constructs a synthetic joint
// text/image space with the single property the method depends on: concept
// phrases and video frames expressing those concepts map to nearby points,
// so inner products along the KG's sensor→reasoning→embedding paths carry
// signal and token-embedding gradients move nodes toward the concepts
// present in pseudo-anomalous frames.
//
// Construction: every concept word receives a deterministic unit vector
// (hash-seeded Gaussian). A fixed random matrix with orthonormal columns
// ("camera") renders semantic vectors to higher-dimensional pixel
// features; the image encoder is its transpose, so encode(render(x)) ≈ x
// with noise attenuated. Token embeddings are aligned to word vectors by
// averaging the vectors of every word a token appears in, giving the BPE
// vocabulary a meaningful geometry for Interpretable KG Retrieval.
package embed

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"

	"edgekg/internal/bpe"
	"edgekg/internal/tensor"
)

// Space is the joint embedding space. It is immutable after construction
// and safe for concurrent readers: the only mutable state is the word
// vector memo, which WordVector guards with its own lock so concurrent
// frame synthesis and retrieval across serving streams never race.
type Space struct {
	dim    int
	pixDim int
	seed   int64

	tok        *bpe.Tokenizer
	camera     *tensor.Tensor // (pixDim × dim), orthonormal columns
	tokenTable *tensor.Tensor // (vocab × dim), aligned to word vectors

	// camEval caches the camera per width for EncodeImageBatchEval. The
	// space is immutable, so it is never dropped: at float64 the slot is
	// the camera itself, at float32 one narrowing lasts the process.
	camEval tensor.WidthCache

	wordMu    sync.RWMutex
	wordCache map[string]*tensor.Tensor
}

// Config sizes the space.
type Config struct {
	// Dim is the semantic dimensionality (ImageBind-Huge's 1024 scaled to
	// laptop size; 32 by default).
	Dim int
	// PixDim is the raw frame-feature dimensionality; must be ≥ Dim.
	PixDim int
	// Seed makes the whole space reproducible.
	Seed int64
}

// DefaultConfig returns the experiment suite's dimensions.
func DefaultConfig() Config { return Config{Dim: 32, PixDim: 96, Seed: 7} }

// NewSpace builds the joint space over the words of corpus. The tokenizer
// is trained by the caller (usually on the ontology's concept list) and
// retained for retrieval decoding.
func NewSpace(tok *bpe.Tokenizer, corpus []string, cfg Config) (*Space, error) {
	if cfg.Dim < 2 {
		return nil, fmt.Errorf("embed: dim %d too small", cfg.Dim)
	}
	if cfg.PixDim < cfg.Dim {
		return nil, fmt.Errorf("embed: pixDim %d must be ≥ dim %d", cfg.PixDim, cfg.Dim)
	}
	s := &Space{
		dim:       cfg.Dim,
		pixDim:    cfg.PixDim,
		seed:      cfg.Seed,
		tok:       tok,
		wordCache: make(map[string]*tensor.Tensor),
	}
	s.camera = orthonormalColumns(rand.New(rand.NewSource(cfg.Seed^0x5eed)), cfg.PixDim, cfg.Dim)
	s.buildTokenTable(corpus)
	return s, nil
}

// Dim returns the semantic dimensionality.
func (s *Space) Dim() int { return s.dim }

// PixDim returns the raw frame-feature dimensionality.
func (s *Space) PixDim() int { return s.pixDim }

// Tokenizer returns the BPE tokenizer the space was built with.
func (s *Space) Tokenizer() *bpe.Tokenizer { return s.tok }

// WordVector returns the deterministic unit vector of a word. Unknown
// words get vectors too (hash-seeded), mirroring how a real joint model
// embeds any string.
func (s *Space) WordVector(word string) *tensor.Tensor {
	s.wordMu.RLock()
	v, ok := s.wordCache[word]
	s.wordMu.RUnlock()
	if ok {
		return v
	}
	h := fnv.New64a()
	h.Write([]byte(word))
	rng := rand.New(rand.NewSource(int64(h.Sum64()) ^ s.seed))
	v = tensor.RandUnitVector(rng, s.dim)
	s.wordMu.Lock()
	// A concurrent caller may have memoised the word already; keep the
	// first entry so every caller shares one tensor. The vector itself is
	// deterministic, so either copy has identical data.
	if prev, ok := s.wordCache[word]; ok {
		v = prev
	} else {
		s.wordCache[word] = v
	}
	s.wordMu.Unlock()
	return v
}

// buildTokenTable aligns token embeddings to word vectors: each token
// accumulates the unit vectors of the words it tokenizes, averaged.
// Whole-word tokens (the common case after BPE training on the concept
// corpus) end up at exactly their word's vector.
func (s *Space) buildTokenTable(corpus []string) {
	vocab := s.tok.VocabSize()
	table := tensor.New(vocab, s.dim)
	counts := make([]float64, vocab)
	for _, w := range corpus {
		wv := s.WordVector(w)
		ids := s.tok.Encode(w)
		if len(ids) == 0 {
			continue
		}
		for _, id := range ids {
			row := table.Row(id)
			for j, v := range wv.Data() {
				row[j] += v
			}
			counts[id]++
		}
	}
	rng := rand.New(rand.NewSource(s.seed ^ 0x70cc))
	for id := 0; id < vocab; id++ {
		row := table.Row(id)
		if counts[id] > 0 {
			inv := 1 / counts[id]
			for j := range row {
				row[j] *= inv
			}
			continue
		}
		// Tokens never seen in the corpus (rare merges, <unk>) get small
		// random vectors so retrieval distances remain well-defined.
		rv := tensor.RandUnitVector(rng, s.dim)
		for j := range row {
			row[j] = 0.1 * rv.Data()[j]
		}
	}
	s.tokenTable = table
}

// TokenTable returns a copy of the aligned token-embedding table,
// (vocab × dim). Models clone it into their trainable per-KG tables; the
// retrieval stage compares learned embeddings against the original.
func (s *Space) TokenTable() *tensor.Tensor { return s.tokenTable.Clone() }

// TokenVector returns a copy of one token's embedding row.
func (s *Space) TokenVector(id int) *tensor.Tensor {
	row := s.tokenTable.Row(id)
	out := make([]float64, len(row))
	copy(out, row)
	return tensor.FromSlice(out, len(row))
}

// TextEncode embeds a phrase: mean of its token embeddings, normalised.
// This is the frozen text branch of the joint model.
func (s *Space) TextEncode(phrase string) *tensor.Tensor {
	ids := s.tok.Encode(phrase)
	if len(ids) == 0 {
		return tensor.New(s.dim)
	}
	acc := tensor.New(s.dim)
	for _, id := range ids {
		row := s.tokenTable.Row(id)
		for j := range row {
			acc.Data()[j] += row[j]
		}
	}
	tensor.ScaleInPlace(acc, 1/float64(len(ids)))
	return tensor.Normalize(acc)
}

// Render projects a semantic vector into pixel-feature space with additive
// Gaussian noise of the given standard deviation — the synthetic camera.
func (s *Space) Render(rng *rand.Rand, sem *tensor.Tensor, noise float64) *tensor.Tensor {
	if sem.Size() != s.dim {
		panic(fmt.Sprintf("embed: Render semantic dim %d != %d", sem.Size(), s.dim))
	}
	pix := tensor.MatVec(s.camera, sem)
	if noise > 0 {
		for i := range pix.Data() {
			pix.Data()[i] += rng.NormFloat64() * noise
		}
	}
	return pix
}

// EncodeImage maps a pixel-feature vector back to semantic space — the
// frozen image encoder E_I of Sec. III-C. Because the camera's columns
// are orthonormal, EncodeImage(Render(x)) = x + attenuated noise.
func (s *Space) EncodeImage(pix *tensor.Tensor) *tensor.Tensor {
	if pix.Size() != s.pixDim {
		panic(fmt.Sprintf("embed: EncodeImage pixel dim %d != %d", pix.Size(), s.pixDim))
	}
	return tensor.MatVec(tensor.Transpose(s.camera), pix)
}

// EncodeImageBatch encodes a (batch × pixDim) matrix of frames into a
// (batch × dim) matrix of semantic vectors.
func (s *Space) EncodeImageBatch(pix *tensor.Tensor) *tensor.Tensor {
	return EncodeImageBatchEval[float64](nil, s, pix)
}

// EncodeImageBatchEval is EncodeImageBatch at width T — the image-encode
// stage of Detector.ScoreVideo: the frame matrix is narrowed to T and
// projected through the camera at T. The frozen image encoder has no
// trainable state, so there is no tape to leave out.
func EncodeImageBatchEval[T tensor.Float](ws *tensor.Workspace, s *Space, pix *tensor.Tensor) *tensor.Dense[T] {
	if pix.Cols() != s.pixDim {
		panic(fmt.Sprintf("embed: EncodeImageBatch pixel dim %d != %d", pix.Cols(), s.pixDim))
	}
	cam := tensor.Cached[T, tensor.Dense[T]](&s.camEval)
	if cam == nil {
		cam = tensor.Publish[T](&s.camEval, tensor.Narrow[T](s.camera))
	}
	return tensor.MatMulIn(ws, tensor.NarrowIn[T](ws, pix), cam)
}

// orthonormalColumns returns an (n × k) matrix with orthonormal columns
// via modified Gram-Schmidt on a random Gaussian matrix.
func orthonormalColumns(rng *rand.Rand, n, k int) *tensor.Tensor {
	m := tensor.RandN(rng, 1, n, k)
	for j := 0; j < k; j++ {
		// Orthogonalise column j against all previous columns.
		for p := 0; p < j; p++ {
			dot := 0.0
			for i := 0; i < n; i++ {
				dot += m.At2(i, j) * m.At2(i, p)
			}
			for i := 0; i < n; i++ {
				m.Set2(i, j, m.At2(i, j)-dot*m.At2(i, p))
			}
		}
		norm := 0.0
		for i := 0; i < n; i++ {
			norm += m.At2(i, j) * m.At2(i, j)
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			// Degenerate column (vanishingly unlikely): re-draw.
			for i := 0; i < n; i++ {
				m.Set2(i, j, rng.NormFloat64())
			}
			j--
			continue
		}
		for i := 0; i < n; i++ {
			m.Set2(i, j, m.At2(i, j)/norm)
		}
	}
	return m
}

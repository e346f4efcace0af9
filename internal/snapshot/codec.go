package snapshot

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"edgekg/internal/core"
	"edgekg/internal/flops"
	"edgekg/internal/kg"
	"edgekg/internal/tensor"
)

// The version 2 form, the only one this build writes:
//
//	magic "\x89EKG" · version (uvarint) · streams
//
// streams is a slice of StreamState, and every value is written field by
// field in declaration order, recursively:
//
//   - an int is a zig-zag varint, a uint64 an unsigned one, a bool one byte
//     (0 or 1);
//   - a float is its IEEE-754 bit pattern, 8 bytes little-endian
//     (tensor.AppendFloats), so NaN, −0 and subnormals round-trip;
//   - a string is its length and its bytes; a graph is kg.Graph's JSON,
//     kept as such a length-prefixed blob;
//   - a slice, a map or a byte blob starts with a count n+1, where 0 stands
//     for nil, so a decoded state marshals to the same JSON as the
//     original; map entries follow in ascending key order, which keeps the
//     encoding deterministic;
//   - a pointer to a section is a presence bool, then the section;
//   - a tensor is its shape as a slice of unsigned varints (nil for a nil
//     tensor), then the values the shape calls for.
//
// One function per type, codec's methods below, lays out both directions,
// so the writer and the reader cannot disagree. The reader bounds every
// count by the bytes left before it allocates (each element takes at least
// a known number of bytes), refuses trailing bytes, unsorted or repeated
// map keys and non-canonical bools, and checks nothing else: whether the
// state fits a detector is CheckDetector's, MonitorState.Validate's and the
// restoring stream's business, as it is for the JSON form.
const magic = "\x89EKG"

// AppendStream appends the version 2 checkpoint holding the one stream ss
// to dst: the body of an export reply and of a restore request, and the
// bytes Save writes for a 1-stream checkpoint.
func AppendStream(dst []byte, ss *StreamState) []byte {
	c := codec{b: appendHeader(dst)}
	c.count(1, true, 0)
	c.stream(ss)
	return c.b
}

// Encode returns cp in the version 2 form.
func Encode(cp *Checkpoint) ([]byte, error) {
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	c := codec{b: appendHeader(nil)}
	sliceOf(&c, &cp.Streams, minStream, (*codec).stream)
	return c.b, nil
}

func appendHeader(dst []byte) []byte {
	return binary.AppendUvarint(append(dst, magic...), Version)
}

// Decode reads a checkpoint in the version 2 form. It never returns a
// partially decoded checkpoint, and the checkpoint does not alias b.
func Decode(b []byte) (*Checkpoint, error) {
	if !bytes.HasPrefix(b, []byte(magic)) {
		return nil, fmt.Errorf("snapshot: not an %s file (no %q header)", Format, magic)
	}
	c := codec{dec: true, b: b[len(magic):], size: len(b)}
	var version uint64
	c.uint(&version)
	if c.err == nil && version != Version {
		return nil, fmt.Errorf("snapshot: checkpoint format version %d, this build reads version %d", version, Version)
	}
	cp := &Checkpoint{Format: Format, Version: Version}
	sliceOf(&c, &cp.Streams, minStream, (*codec).stream)
	if c.err == nil && len(c.b) > 0 {
		c.fail("%d trailing bytes", len(c.b))
	}
	if c.err != nil {
		return nil, c.err
	}
	return cp, nil
}

// DecodeStream decodes what AppendStream wrote: a version 2 checkpoint of
// exactly one stream.
func DecodeStream(b []byte) (*StreamState, error) {
	cp, err := Decode(b)
	if err != nil {
		return nil, err
	}
	if len(cp.Streams) != 1 {
		return nil, fmt.Errorf("snapshot: checkpoint of %d streams, want 1", len(cp.Streams))
	}
	return &cp.Streams[0], nil
}

// minStream is the size of the smallest stream, the zero StreamState.
var minStream = func() int {
	c := codec{}
	c.stream(&StreamState{})
	return len(c.b)
}()

// codec writes values to b, or, when dec is set, reads them from b into
// the values it is handed. The first read error sticks: every later read
// yields zero values and no counts, so a decode runs out quickly.
type codec struct {
	dec  bool
	b    []byte
	size int // the length of the whole input, for error offsets
	err  error
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		at := c.size - len(c.b)
		c.err = fmt.Errorf("snapshot: corrupt checkpoint at byte %d: %s", at, fmt.Sprintf(format, args...))
	}
	c.b = nil
}

func (c *codec) uint(v *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *v)
		return
	}
	x, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail("truncated or overlong varint")
		return
	}
	*v, c.b = x, c.b[n:]
}

func (c *codec) int64(v *int64) {
	if !c.dec {
		c.b = binary.AppendVarint(c.b, *v)
		return
	}
	x, n := binary.Varint(c.b)
	if n <= 0 {
		c.fail("truncated or overlong varint")
		return
	}
	*v, c.b = x, c.b[n:]
}

func (c *codec) int(v *int) {
	x := int64(*v)
	c.int64(&x)
	if c.dec {
		if int64(int(x)) != x {
			c.fail("integer %d overflows int", x)
		}
		*v = int(x)
	}
}

func (c *codec) nodeID(id *kg.NodeID) { c.int((*int)(id)) }

func (c *codec) bool(v *bool) {
	if !c.dec {
		b := byte(0)
		if *v {
			b = 1
		}
		c.b = append(c.b, b)
		return
	}
	switch {
	case len(c.b) == 0:
		c.fail("truncated")
	case c.b[0] > 1:
		c.fail("bool byte %d", c.b[0])
	default:
		*v, c.b = c.b[0] == 1, c.b[1:]
	}
}

func (c *codec) f64(v *float64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
		return
	}
	if len(c.b) < 8 {
		c.fail("truncated")
		return
	}
	*v, c.b = math.Float64frombits(binary.LittleEndian.Uint64(c.b)), c.b[8:]
}

func (c *codec) f64Bits(v *tensor.F64Bits) { c.f64((*float64)(v)) }

// count writes n+1, or 0 when present is false (a nil slice or map), and
// returns its arguments; decoding, it returns what it read, and refuses a
// count of elements of at least min bytes each that the bytes left cannot
// hold.
func (c *codec) count(n int, present bool, min int) (int, bool) {
	if !c.dec {
		v := uint64(0)
		if present {
			v = uint64(n) + 1
		}
		c.uint(&v)
		return n, present
	}
	var v uint64
	c.uint(&v)
	if v == 0 {
		return 0, false
	}
	if min > 0 && v-1 > uint64(len(c.b)/min) {
		c.fail("count %d of %d-byte elements exceeds the %d bytes left", v-1, min, len(c.b))
		return 0, false
	}
	return int(v - 1), true
}

// blob is a length-prefixed byte slice, nil kept apart from empty. A
// decoded blob is a copy.
func (c *codec) blob(v *[]byte) {
	n, ok := c.count(len(*v), *v != nil, 1)
	if !c.dec {
		c.b = append(c.b, *v...)
		return
	}
	if !ok {
		*v = nil
		return
	}
	*v = append(make([]byte, 0, n), c.b[:n]...)
	c.b = c.b[n:]
}

func (c *codec) str(s *string) {
	n := uint64(len(*s))
	c.uint(&n)
	if !c.dec {
		c.b = append(c.b, *s...)
		return
	}
	if n > uint64(len(c.b)) {
		c.fail("string of %d bytes, %d are left", n, len(c.b))
		return
	}
	*s = string(c.b[:n])
	c.b = c.b[n:]
}

func (c *codec) floats(f *[]float64) {
	n, ok := c.count(len(*f), *f != nil, 8)
	if !c.dec {
		c.b = tensor.AppendFloats(c.b, *f)
		return
	}
	if !ok {
		*f = nil
		return
	}
	*f = make([]float64, n)
	tensor.DecodeFloats(*f, c.b)
	c.b = c.b[8*n:]
}

func (c *codec) tensor(tp **tensor.Tensor) {
	t := *tp
	if !c.dec {
		if t == nil {
			c.count(0, false, 0)
			return
		}
		c.count(t.Dims(), true, 0)
		for i := range t.Dims() {
			c.b = binary.AppendUvarint(c.b, uint64(t.Dim(i)))
		}
		c.b = tensor.AppendFloats(c.b, t.Data())
		return
	}
	rank, ok := c.count(0, false, 1)
	if !ok {
		*tp = nil
		return
	}
	shape := make([]int, rank)
	size := 1
	for i := range shape {
		var d uint64
		c.uint(&d)
		// Guarded multiply: a shape like [1<<60, 16] must not wrap around
		// to the length of a short payload.
		if d > math.MaxInt || d != 0 && uint64(size) > uint64(len(c.b)/8)/d {
			c.fail("tensor shape wants more values than the %d bytes left hold", len(c.b))
			return
		}
		shape[i] = int(d)
		size *= int(d)
	}
	if c.err != nil {
		return
	}
	if 8*size > len(c.b) {
		c.fail("tensor shape %v wants %d values, %d bytes are left", shape, size, len(c.b))
		return
	}
	data := make([]float64, size)
	tensor.DecodeFloats(data, c.b)
	c.b = c.b[8*size:]
	*tp = tensor.FromSlice(data, shape...)
}

// sliceOf codes a slice whose elements each take at least min bytes.
func sliceOf[V any](c *codec, s *[]V, min int, elem func(*codec, *V)) {
	n, ok := c.count(len(*s), *s != nil, min)
	if c.dec {
		*s = nil
		if ok {
			*s = make([]V, n)
		}
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// mapOf codes a map whose entries each take at least min bytes, in
// ascending key order.
func mapOf[K cmp.Ordered, V any](c *codec, m *map[K]V, min int, key func(*codec, *K), val func(*codec, *V)) {
	n, ok := c.count(len(*m), *m != nil, min)
	if !c.dec {
		// The entries in one slice, which is the one allocation: key and
		// val see their addresses.
		entries := make([]entry[K, V], 0, n)
		for k, v := range *m {
			entries = append(entries, entry[K, V]{k, v})
		}
		slices.SortFunc(entries, func(a, b entry[K, V]) int { return cmp.Compare(a.k, b.k) })
		for i := range entries {
			key(c, &entries[i].k)
			val(c, &entries[i].v)
		}
		return
	}
	*m = nil
	if !ok {
		return
	}
	// One k and v for all entries: key and val see their addresses, so
	// each is a heap allocation.
	var k, prev K
	var v V
	out := make(map[K]V, n)
	for i := 0; i < n && c.err == nil; i++ {
		key(c, &k)
		if i > 0 && k <= prev {
			c.fail("map key %v after %v", k, prev)
			return
		}
		val(c, &v)
		out[k], prev = v, k
	}
	*m = out
}

type entry[K, V any] struct {
	k K
	v V
}

// ptrTo codes a pointer to a section: a presence bool, then the section.
func ptrTo[V any](c *codec, p **V, section func(*codec, *V)) {
	present := *p != nil
	c.bool(&present)
	if c.dec {
		*p = nil
		if present && c.err == nil {
			*p = new(V)
		}
	}
	if *p != nil {
		section(c, *p)
	}
}

func (c *codec) stream(ss *StreamState) {
	c.int(&ss.ID)
	c.config(&ss.Config)
	c.bool(&ss.Released)
	c.int(&ss.Frames)
	c.int(&ss.AdaptRounds)
	c.int(&ss.TriggeredRounds)
	c.int(&ss.PrunedNodes)
	c.int(&ss.CreatedNodes)
	c.str(&ss.LastErr)
	c.uint(&ss.RNG)
	c.floats((*[]float64)(&ss.Scores))
	c.detector(&ss.Detector)
	c.monitor(&ss.Monitor)
	ptrTo(c, &ss.Adapter, (*codec).adapter)
	ptrTo(c, &ss.Pending, (*codec).pending)
	mapOf(c, &ss.Ledger, 4, (*codec).str, (*codec).phase)
}

func (c *codec) config(p *ConfigPin) {
	c.int(&p.MonitorN)
	c.int(&p.MonitorLag)
	c.bool(&p.AnchoredReference)
	c.int(&p.AdaptEveryFrames)
	c.int(&p.AdaptLagFrames)
	c.int(&p.ScoreHistory)
}

func (c *codec) detector(ds *DetectorState) {
	sliceOf(c, &ds.Graphs, 2, (*codec).graph)
}

func (c *codec) graph(gs *GraphState) {
	c.blob((*[]byte)(&gs.Graph))
	sliceOf(c, &gs.Banks, 2, (*codec).bank)
}

func (c *codec) bank(bs *BankState) {
	c.int(&bs.Node)
	c.tensor(&bs.Tokens)
}

func (c *codec) monitor(m *core.MonitorState) {
	c.int(&m.N)
	c.int(&m.RefLag)
	c.bool(&m.Anchored)
	c.f64Bits(&m.Reference)
	c.bool(&m.HasRef)
	c.int(&m.Seq)
	sliceOf(c, &m.Frames, 1, (*codec).tensor)
	c.floats((*[]float64)(&m.Scores))
	sliceOf(c, &m.Seqs, 1, (*codec).int)
	c.floats((*[]float64)(&m.Means))
}

func (c *codec) adapter(a *core.AdapterState) {
	c.int(&a.Created)
	sliceOf(c, &a.Trackers, 1, func(c *codec, m *map[kg.NodeID]core.TrackerState) {
		mapOf(c, m, 11, (*codec).nodeID, (*codec).tracker)
	})
	sliceOf(c, &a.RowNorms, 1, func(c *codec, m *map[kg.NodeID]tensor.Floats) {
		mapOf(c, m, 2, (*codec).nodeID, func(c *codec, f *tensor.Floats) { c.floats((*[]float64)(f)) })
	})
	c.int(&a.OptStep)
	mapOf(c, &a.OptM, 2, (*codec).str, (*codec).tensor)
	mapOf(c, &a.OptV, 2, (*codec).str, (*codec).tensor)
}

func (c *codec) tracker(tr *core.TrackerState) {
	c.f64Bits(&tr.LastDist)
	c.bool(&tr.HasLast)
	c.int(&tr.IncStreak)
}

func (c *codec) pending(p *PendingState) {
	c.int(&p.SwapFrame)
	c.report(&p.Report)
	c.str(&p.Err)
	c.detector(&p.ScoreDet)
}

func (c *codec) report(r *core.AdaptReport) {
	c.bool(&r.Triggered)
	c.int(&r.K)
	c.f64Bits(&r.DeltaM)
	c.f64Bits(&r.Loss)
	sliceOf(c, &r.NodeDistances, 1, func(c *codec, m *map[kg.NodeID]tensor.F64Bits) {
		mapOf(c, m, 9, (*codec).nodeID, (*codec).f64Bits)
	})
	sliceOf(c, &r.Pruned, 1, (*codec).nodeID)
	sliceOf(c, &r.Created, 1, (*codec).nodeID)
}

func (c *codec) phase(p *flops.PhaseTotals) {
	c.int64(&p.Ops)
	c.int64(&p.Bytes)
	c.int64(&p.Events)
}

package tensor

import (
	"math/bits"
	"sync"
)

// Scratch-buffer pooling. The hot paths of the GNN forward/backward and the
// fused graph kernels need short-lived float buffers (edge counts,
// assembly templates, backward intermediates) on every call; allocating
// them fresh dominated the allocation profile of BenchmarkGNNForward.
// Buffers are pooled per width in power-of-two size classes and handed
// out through a Workspace, which tracks everything it lent so one Release
// returns the lot. The pools traffic in *[]T and the Workspace retains
// those pointers, so a full lend/release cycle allocates nothing.

// Size classes cover 2^5 .. 2^22 elements. Requests outside the range are
// allocated directly and dropped on Release (they are rare and huge, and
// pinning them in a pool would hold memory hostage).
const (
	minClassBits = 5
	maxClassBits = 22
	numClasses   = maxClassBits - minClassBits + 1
)

var (
	floatPools [2][numClasses]sync.Pool // indexed by F64, F32
	wsPool     = sync.Pool{New: func() any { return &Workspace{} }}
)

// classFor returns the pool class index for a request of n elements, or -1
// when the request falls outside the pooled range.
func classFor(n int) int {
	if n <= 0 {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2(n))
	if b < minClassBits {
		b = minClassBits
	}
	if b > maxClassBits {
		return -1
	}
	return b - minClassBits
}

func getFloats[T Float](n int) *[]T {
	c := classFor(n)
	if c < 0 {
		s := make([]T, n)
		return &s
	}
	if v := floatPools[DTypeOf[T]()][c].Get(); v != nil {
		p := v.(*[]T)
		s := (*p)[:n]
		for i := range s {
			s[i] = 0
		}
		*p = s
		return p
	}
	s := make([]T, n, 1<<(c+minClassBits))
	return &s
}

func putFloats[T Float](p *[]T) {
	if c := classFor(cap(*p)); c >= 0 && cap(*p) == 1<<(c+minClassBits) {
		floatPools[DTypeOf[T]()][c].Put(p)
	}
}

// Workspace lends pooled scratch buffers and tensors. Everything obtained
// from a Workspace is valid only until its Release: retaining a buffer or
// tensor past Release, or returning one to a caller, is a use-after-free
// class bug — copy the data out instead. That holds for a lent tensor's
// header too: the workspace keeps the headers it has made and lends them
// again after Release. Workspaces are pooled, headers included, so the
// steady-state cost of NewWorkspace, any number of lends and Release is
// zero allocations.
//
// A Workspace is not safe for concurrent use; give each goroutine its own.
type Workspace struct {
	floats  []any    // *[]float64 or *[]float32, as lent
	headers [2][]any // by DType: every *Dense[T] this workspace has made
	lent    [2]int   // how many of headers[d] are on loan
}

// NewWorkspace returns a workspace from the pool.
func NewWorkspace() *Workspace {
	return wsPool.Get().(*Workspace)
}

// Scratch lends a zeroed []T of length n from w.
func Scratch[T Float](w *Workspace, n int) []T {
	p := getFloats[T](n)
	w.floats = append(w.floats, p)
	return *p
}

// Alloc returns a zeroed tensor of the given shape. With a nil ws it is
// NewOf, a fresh tensor the caller owns (the tape's form). With a
// workspace the tensor is lent: pooled storage behind one of ws's own
// headers, so a steady-state lend allocates nothing. It must not outlive
// ws.Release nor be returned: the header is lent again after it.
func Alloc[T Float](ws *Workspace, shape ...int) *Dense[T] {
	if ws == nil {
		return NewOf[T](shape...)
	}
	d := DTypeOf[T]()
	if ws.lent[d] == len(ws.headers[d]) {
		ws.headers[d] = append(ws.headers[d], new(Dense[T]))
	}
	t := ws.headers[d][ws.lent[d]].(*Dense[T])
	ws.lent[d]++
	t.data = Scratch[T](ws, checkShape(shape))
	t.setShape(shape)
	return t
}

// Release returns every lent buffer (and the workspace itself) to the
// pools and clears every lent tensor's data. The workspace must not be
// used afterwards.
func (w *Workspace) Release() {
	for i, p := range w.floats {
		switch p := p.(type) {
		case *[]float64:
			putFloats(p)
		case *[]float32:
			putFloats(p)
		}
		w.floats[i] = nil
	}
	w.floats = w.floats[:0]
	for _, h := range w.headers[F64][:w.lent[F64]] {
		h.(*Dense[float64]).data = nil
	}
	for _, h := range w.headers[F32][:w.lent[F32]] {
		h.(*Dense[float32]).data = nil
	}
	w.lent = [2]int{}
	wsPool.Put(w)
}

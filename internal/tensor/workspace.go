package tensor

import "sync"

// Scratch lending. The hot paths of the GNN forward/backward, the fused
// graph kernels and the scoring engine need short-lived float buffers on
// every call; allocating them fresh dominated the allocation profile of
// BenchmarkGNNForward. A Workspace is a bump arena per width: a lend is
// the next zeroed stretch of one slab, and Release rewinds the slab for
// the next borrower. Workspaces are pooled with their slabs and headers,
// so a full lend/release cycle allocates nothing once the slab has grown
// to the cycle's size.

// maxRetained is the largest slab (in elements) a released workspace
// keeps; a bigger one is dropped so one huge request does not pin its
// memory in the pool.
const maxRetained = 1 << 22

var wsPool = sync.Pool{New: func() any { return &Workspace{} }}

// arena is a Workspace's storage at one width.
type arena[T Float] struct {
	slab    []T         // lends are cut from slab[used:]
	used    int         // elements of slab on loan
	headers []*Dense[T] // every header this workspace has made
	lent    int         // how many of headers are on loan
}

// lend cuts the next n zeroed elements, with cap == len so an append
// never reaches the next lend. A request that does not fit starts a fresh
// slab at least twice the size; earlier lends keep the old one alive.
func (a *arena[T]) lend(n int) []T {
	if n > len(a.slab)-a.used {
		a.slab, a.used = make([]T, max(2*len(a.slab), n)), 0
	}
	s := a.slab[a.used : a.used+n : a.used+n]
	a.used += n
	clear(s)
	return s
}

// rewind takes back every lend and clears every lent header's data.
func (a *arena[T]) rewind() {
	for _, h := range a.headers[:a.lent] {
		h.data = nil
	}
	a.lent, a.used = 0, 0
	if len(a.slab) > maxRetained {
		a.slab = nil
	}
}

// Workspace lends scratch buffers and tensors. Everything obtained from a
// Workspace is valid only until its Release: retaining a buffer or
// tensor past Release, or returning one to a caller, is a use-after-free
// class bug — copy the data out instead. That holds for a lent tensor's
// header too: the workspace keeps the headers it has made and lends them
// again after Release. Workspaces are pooled, slabs and headers included,
// so the steady-state cost of NewWorkspace, any number of lends and
// Release is zero allocations.
//
// A Workspace is not safe for concurrent use; give each goroutine its own.
type Workspace struct {
	f64 arena[float64]
	f32 arena[float32]
}

// arenaOf returns w's arena at width T.
func arenaOf[T Float](w *Workspace) *arena[T] {
	if a, ok := any(&w.f64).(*arena[T]); ok {
		return a
	}
	return any(&w.f32).(*arena[T])
}

// NewWorkspace returns a workspace from the pool.
func NewWorkspace() *Workspace {
	return wsPool.Get().(*Workspace)
}

// Scratch lends a zeroed []T of length n from w.
func Scratch[T Float](w *Workspace, n int) []T {
	return arenaOf[T](w).lend(n)
}

// Alloc returns a zeroed tensor of the given shape. With a nil ws it is
// NewOf, a fresh tensor the caller owns (the tape's form). With a
// workspace the tensor is lent: arena storage behind one of ws's own
// headers, so a steady-state lend allocates nothing. It must not outlive
// ws.Release nor be returned: the header is lent again after it.
func Alloc[T Float](ws *Workspace, shape ...int) *Dense[T] {
	if ws == nil {
		return NewOf[T](shape...)
	}
	a := arenaOf[T](ws)
	if a.lent == len(a.headers) {
		a.headers = append(a.headers, new(Dense[T]))
	}
	t := a.headers[a.lent]
	a.lent++
	t.data = a.lend(checkShape(shape))
	t.setShape(shape)
	return t
}

// Release takes back every lend, clears every lent tensor's data and
// returns the workspace to the pool. The workspace must not be used
// afterwards.
func (w *Workspace) Release() {
	w.f64.rewind()
	w.f32.rewind()
	wsPool.Put(w)
}

// Package autograd implements tape-free, define-by-run reverse-mode
// automatic differentiation over internal/tensor.
//
// Every operation eagerly computes its result and records a closure that
// propagates the adjoint to its parents. Backward performs a depth-first
// topological sort from the loss and runs the closures in reverse order.
// Operations whose inputs do not require gradients record nothing, so
// inference and frozen-model adaptation (Sec. III-D: only KG token
// embeddings are trainable after deployment) pay no tape overhead for the
// frozen parts of the network.
//
// The op set is exactly what the paper's models need: dense algebra for
// eq. (1) and (5), the hierarchical edge message/aggregate ops for
// eqs. (2)–(3), batch/layer normalisation, ELU and softmax for eq. (4),
// attention primitives for the temporal transformer, and embedding gathers
// for the KG token tables.
package autograd

import (
	"fmt"
	"sync/atomic"

	"edgekg/internal/tensor"
)

// Value is a node in the computation graph: a tensor plus the bookkeeping
// needed to backpropagate through the operation that produced it.
type Value struct {
	// Data holds the forward result. It is never nil.
	Data *tensor.Tensor
	// Grad accumulates the adjoint during Backward. It is nil until the
	// first accumulation (or for values that do not require gradients).
	Grad *tensor.Tensor

	requiresGrad bool
	// shared is nonzero while Data may be aliased by a copy-on-write
	// sibling leaf (CloneCOW): in-place writers must call EnsurePrivate
	// first. Accessed atomically (a plain uint32 rather than atomic.Bool so
	// Value stays freely copyable): sibling streams fault concurrently with
	// backbone re-clones during stream rehydration.
	shared  uint32
	parents []*Value
	// parentsBack inlines parent storage for ops with ≤3 parents (the
	// overwhelming majority), so building a tape node does not allocate a
	// parent slice.
	parentsBack [3]*Value
	backFn      func(grad *tensor.Tensor)
	op          string
}

// NewLeaf returns a leaf Value wrapping data. If requiresGrad is true the
// leaf accumulates gradients during Backward — use it for parameters.
func NewLeaf(data *tensor.Tensor, requiresGrad bool) *Value {
	return &Value{Data: data, requiresGrad: requiresGrad, op: "leaf"}
}

// Param is shorthand for NewLeaf(data, true).
func Param(data *tensor.Tensor) *Value { return NewLeaf(data, true) }

// Constant is shorthand for NewLeaf(data, false); gradients do not flow
// into it.
func Constant(data *tensor.Tensor) *Value { return NewLeaf(data, false) }

// RequiresGrad reports whether gradients accumulate into v.
func (v *Value) RequiresGrad() bool { return v.requiresGrad }

// SetRequiresGrad toggles gradient accumulation on a leaf. Freezing the
// decision model at deployment (Fig. 2C, "Froze Model") and unfreezing the
// KG token embeddings for adaptation both go through here. It panics on
// non-leaf values: interior nodes' gradient flow is decided by their
// parents.
func (v *Value) SetRequiresGrad(b bool) {
	if v.op != "leaf" {
		panic("autograd: SetRequiresGrad on non-leaf value " + v.op)
	}
	v.requiresGrad = b
	if !b {
		v.Grad = nil
	}
}

// CloneCOW returns a leaf aliasing v's Data under copy-on-write: both
// sides are marked shared and whichever side writes first materializes a
// private tensor via EnsurePrivate, leaving the other side's bits
// untouched. The clone carries its own requires-grad flag and Grad field,
// so freezing, unfreezing or accumulating gradients on one side never
// affects the other — which is what lets per-stream serving clones alias
// a frozen backbone's token pages until they actually adapt.
func (v *Value) CloneCOW() *Value {
	c := NewLeaf(v.Data, v.requiresGrad)
	c.MarkShared()
	v.MarkShared()
	return c
}

// SharedData reports whether v's Data may be aliased by a COW sibling.
func (v *Value) SharedData() bool { return atomic.LoadUint32(&v.shared) != 0 }

// MarkShared flags v's Data as COW-aliased. It reports whether this call
// changed the flag (false when v was already shared), which lets a failed
// multi-part clone roll back exactly the marks it introduced and nothing
// more.
func (v *Value) MarkShared() bool { return atomic.CompareAndSwapUint32(&v.shared, 0, 1) }

// UnmarkShared clears the COW flag without copying. Only valid when every
// alias created against this mark has been discarded unused — the
// clone-failure rollback path (see gnn.Model.DiscardClone).
func (v *Value) UnmarkShared() { atomic.StoreUint32(&v.shared, 0) }

// EnsurePrivate gives v exclusive ownership of its Data, cloning the
// tensor when it is COW-aliased. Aliases keep the old tensor — a sibling
// concurrently reading (a stream scoring on its snapshot) never observes
// the writer's updates. It reports whether a copy was made, so callers
// holding raw row slices know to re-fetch them.
func (v *Value) EnsurePrivate() bool {
	if atomic.LoadUint32(&v.shared) == 0 {
		return false
	}
	v.Data = v.Data.Clone()
	atomic.StoreUint32(&v.shared, 0)
	return true
}

// Op returns the name of the operation that produced v ("leaf" for leaves).
func (v *Value) Op() string { return v.op }

// Shape returns the shape of the underlying tensor.
func (v *Value) Shape() []int { return v.Data.Shape() }

// Detach returns a new constant leaf sharing v's data. Use it to cut the
// graph, e.g. when feeding the previous frame's embedding into the temporal
// window without backpropagating through history.
func (v *Value) Detach() *Value { return Constant(v.Data) }

// ZeroGrad drops the accumulated gradient.
func (v *Value) ZeroGrad() { v.Grad = nil }

// accumulate adds g into v.Grad, allocating on first use.
func (v *Value) accumulate(g *tensor.Tensor) {
	if v.Grad == nil {
		v.Grad = g.Clone()
		return
	}
	tensor.AddInPlace(v.Grad, g)
}

// newOp builds an interior graph node. If no parent requires gradients the
// node is constant-folded: no parents or closure are retained.
func newOp(op string, data *tensor.Tensor, parents []*Value, back func(grad *tensor.Tensor)) *Value {
	needs := false
	for _, p := range parents {
		if p.requiresGrad {
			needs = true
			break
		}
	}
	if !needs {
		return &Value{Data: data, op: op}
	}
	v := &Value{Data: data, requiresGrad: true, backFn: back, op: op}
	if len(parents) <= len(v.parentsBack) {
		copy(v.parentsBack[:], parents)
		v.parents = v.parentsBack[:len(parents)]
	} else {
		v.parents = parents
	}
	return v
}

// newOp3 is newOp for ops with up to three parents, taking them as direct
// arguments (nil for absent) so hot call sites allocate no parent slice at
// all. Non-nil parents must be packed first.
func newOp3(op string, data *tensor.Tensor, a, b, c *Value, back func(grad *tensor.Tensor)) *Value {
	needs := a != nil && a.requiresGrad || b != nil && b.requiresGrad || c != nil && c.requiresGrad
	if !needs {
		return &Value{Data: data, op: op}
	}
	v := &Value{Data: data, requiresGrad: true, backFn: back, op: op}
	n := 0
	for _, p := range [3]*Value{a, b, c} {
		if p != nil {
			v.parentsBack[n] = p
			n++
		}
	}
	v.parents = v.parentsBack[:n]
	return v
}

// Backward runs reverse-mode differentiation from v, accumulating into the
// Grad fields of every reachable Value that requires gradients. For a
// scalar v the seed adjoint is 1; for tensors it is all-ones. Call ZeroGrad
// on parameters (or optimizer.ZeroGrad) between steps — Backward
// accumulates.
func (v *Value) Backward() {
	v.BackwardWith(tensor.Ones(v.Data.Shape()...))
}

// BackwardWith runs Backward seeding the output adjoint with seed, which
// must match v's shape.
func (v *Value) BackwardWith(seed *tensor.Tensor) {
	if !v.Data.SameShape(seed) {
		panic(fmt.Sprintf("autograd: Backward seed shape %v does not match value shape %v", seed.Shape(), v.Data.Shape()))
	}
	if !v.requiresGrad {
		return
	}
	order := topoSort(v)
	v.accumulate(seed)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backFn == nil || n.Grad == nil {
			continue
		}
		n.backFn(n.Grad)
	}
}

// topoSort returns the reachable graph in topological order (parents before
// children) using an iterative DFS so deep graphs cannot overflow the
// goroutine stack.
func topoSort(root *Value) []*Value {
	var order []*Value
	visited := make(map[*Value]bool)
	type frame struct {
		v    *Value
		next int
	}
	stack := []frame{{v: root}}
	visited[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.v.parents) {
			p := f.v.parents[f.next]
			f.next++
			if !visited[p] && p.requiresGrad {
				visited[p] = true
				stack = append(stack, frame{v: p})
			}
			continue
		}
		order = append(order, f.v)
		stack = stack[:len(stack)-1]
	}
	return order
}

// Scalar returns the single element of a scalar (or 1-element) Value.
func (v *Value) Scalar() float64 {
	if v.Data.Size() != 1 {
		panic(fmt.Sprintf("autograd: Scalar on value of size %d", v.Data.Size()))
	}
	return v.Data.Data()[0]
}

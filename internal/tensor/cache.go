package tensor

import "sync/atomic"

// WidthCache holds an owner's eval-only weight snapshot, one slot per
// element width: at float64 the snapshot is a set of views of the live
// parameter tensors (Narrow is the identity there), at float32 it holds
// the narrowed copies. The owner (temporal.Model, a gnn layer,
// decision.Head, embed.Space) builds a slot on the first forward at that
// width and Drops both whenever its weights are about to change, so a
// stale-weight read is impossible under the deploy-then-serve contract.
// The zero value is an empty cache.
type WidthCache struct {
	slots [2]atomic.Pointer[any] // indexed by F64, F32
}

// Cached returns the width-T snapshot, or nil when none is built. S is
// the owner's snapshot type at T.
func Cached[T Float, S any](c *WidthCache) *S {
	if p := c.slots[DTypeOf[T]()].Load(); p != nil {
		return (*p).(*S)
	}
	return nil
}

// Publish installs s as the width-T snapshot and returns the one that
// won: concurrent scorers may race to build, the first store wins and
// duplicates are dropped — all are built from the same frozen weights,
// so any of them is correct.
func Publish[T Float, S any](c *WidthCache, s *S) *S {
	var boxed any = s
	slot := &c.slots[DTypeOf[T]()]
	if !slot.CompareAndSwap(nil, &boxed) {
		if p := slot.Load(); p != nil {
			return (*p).(*S)
		}
	}
	return s
}

// Drop empties both slots; the next forward at either width rebuilds
// from the current weights.
func (c *WidthCache) Drop() {
	c.slots[0].Store(nil)
	c.slots[1].Store(nil)
}

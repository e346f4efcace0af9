package tensor

import "fmt"

// DType identifies the element width of a numeric buffer. The tensor
// package stores float64 (the training/adaptation truth) and float32 (the
// inference fast path); every byte-accounting path — the flops ledger, the
// serve memory budget, PageBytes on token banks — sizes buffers through
// DType.Bytes instead of a hardcoded 8.
type DType uint8

const (
	// F64 is IEEE-754 binary64, the canonical width: all trainable state,
	// checkpoints and bit-exact pins live here.
	F64 DType = iota
	// F32 is IEEE-754 binary32, the inference compute width.
	F32
)

// Bytes returns the storage size of one element.
func (d DType) Bytes() int {
	switch d {
	case F64:
		return 8
	case F32:
		return 4
	}
	panic(fmt.Sprintf("tensor: unknown DType %d", uint8(d)))
}

// String returns the canonical lowercase name ("f64", "f32").
func (d DType) String() string {
	switch d {
	case F64:
		return "f64"
	case F32:
		return "f32"
	}
	return fmt.Sprintf("DType(%d)", uint8(d))
}

// DTypeOf returns the DType of element width T, F64 or F32. It is also
// how width-generic code picks its per-width slot (pools, caches).
func DTypeOf[T Float]() DType {
	var z T
	if _, ok := any(z).(float32); ok {
		return F32
	}
	return F64
}

// DType returns the tensor's element width, F64 or F32.
func (t *Dense[T]) DType() DType { return DTypeOf[T]() }

// MemBytes returns the resident size of the tensor's backing storage.
func (t *Dense[T]) MemBytes() int { return len(t.data) * t.DType().Bytes() }

package tensor

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// AppendFloats appends the binary form of f to dst: each value's IEEE-754
// bit pattern, 8 bytes little-endian. It is the one float64 codec: frames
// on the wire, the v2 checkpoint's floats and tensors, and the base64 inside
// the JSON forms below are all this loop. Bit patterns round-trip every
// value, including negative zero, subnormals, infinities and NaN payloads,
// where decimal formatting either loses the distinction or refuses to
// marshal.
func AppendFloats(dst []byte, f []float64) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8*len(f))[:n+8*len(f)]
	for i, v := range f {
		binary.LittleEndian.PutUint64(dst[n+8*i:], math.Float64bits(v))
	}
	return dst
}

// DecodeFloats fills dst from the first 8·len(dst) bytes of b, which
// AppendFloats wrote. b must be at least that long.
func DecodeFloats(dst []float64, b []byte) {
	b = b[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// Floats is a []float64 that marshals as the base64 of its AppendFloats
// form instead of decimal JSON numbers: a resumed trajectory is compared
// bitwise against the uninterrupted one. Floats, F64Bits and the tensor's
// own JSON form below are the version 1 checkpoint's float encoding;
// every component that exports state declares its fields with them.
type Floats []float64

// appendFloats appends the JSON form of f — a string holding the base64
// of its little-endian bit patterns — to dst.
func appendFloats(dst []byte, f []float64) []byte {
	raw := AppendFloats(nil, f)
	dst = append(slices.Grow(dst, 2+base64.StdEncoding.EncodedLen(len(raw))), '"')
	dst = base64.StdEncoding.AppendEncode(dst, raw)
	return append(dst, '"')
}

// MarshalJSON implements json.Marshaler.
func (f Floats) MarshalJSON() ([]byte, error) {
	return appendFloats(nil, f), nil
}

// UnmarshalJSON implements json.Unmarshaler. base64 needs no JSON escapes,
// so a string carrying any is rejected as not base64 rather than unquoted.
func (f *Floats) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return errors.New("tensor: float payload is not a string")
	}
	buf, err := base64.StdEncoding.AppendDecode(nil, data[1:len(data)-1])
	if err != nil {
		return fmt.Errorf("tensor: float payload is not base64: %w", err)
	}
	if len(buf)%8 != 0 {
		return fmt.Errorf("tensor: float payload length %d is not a multiple of 8", len(buf))
	}
	out := make(Floats, len(buf)/8)
	DecodeFloats(out, buf)
	*f = out
	return nil
}

// F64Bits is a float64 scalar that marshals as its 16-hex-digit IEEE-754
// bit pattern — the scalar counterpart of Floats, for fields that must
// round-trip bit-exactly (and must not abort a checkpoint save when a
// degenerate trajectory leaves a NaN behind, which encoding/json refuses
// to marshal as a number).
type F64Bits float64

// MarshalJSON implements json.Marshaler.
func (f F64Bits) MarshalJSON() ([]byte, error) {
	return json.Marshal(fmt.Sprintf("%016x", math.Float64bits(float64(f))))
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *F64Bits) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("tensor: float scalar is not a string: %w", err)
	}
	bits, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return fmt.Errorf("tensor: float scalar %q is not a 64-bit hex pattern: %w", s, err)
	}
	*f = F64Bits(math.Float64frombits(bits))
	return nil
}

// errWireWidth rejects the wire form at float32: exported state is
// canonical float64 at either scoring width.
var errWireWidth = errors.New("tensor: only float64 tensors have a wire form")

// MarshalJSON implements json.Marshaler for the float64 tensor:
// {"shape":[…],"data":"<Floats>"}.
func (t *Dense[T]) MarshalJSON() ([]byte, error) {
	data, ok := any(t.data).([]float64)
	if !ok {
		return nil, errWireWidth
	}
	out := make([]byte, 0, 64+base64.StdEncoding.EncodedLen(8*len(data)))
	out = append(out, `{"shape":[`...)
	for i, d := range t.shape {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendInt(out, int64(d), 10)
	}
	out = append(out, `],"data":`...)
	out = appendFloats(out, data)
	return append(out, '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler for the float64 tensor. The
// input comes from outside the process: a shape with no dimensions, a
// negative one, or a product that overflows or disagrees with the payload
// length is an error.
func (t *Dense[T]) UnmarshalJSON(b []byte) error {
	dst, ok := any(t).(*Tensor)
	if !ok {
		return errWireWidth
	}
	var w struct {
		Shape []int  `json:"shape"`
		Data  Floats `json:"data"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if len(w.Shape) == 0 {
		return errors.New("tensor: wire tensor has no shape")
	}
	size := 1
	for _, d := range w.Shape {
		if d < 0 {
			return fmt.Errorf("tensor: wire tensor has negative dimension in shape %v", w.Shape)
		}
		// Guarded multiply: a shape like [1<<60, 16] must not wrap around
		// to the length of a short payload.
		if d != 0 && size > len(w.Data)/d {
			return fmt.Errorf("tensor: wire tensor shape %v wants more than the %d values its payload has", w.Shape, len(w.Data))
		}
		size *= d
	}
	if size != len(w.Data) {
		return fmt.Errorf("tensor: wire tensor shape %v wants %d values, payload has %d", w.Shape, size, len(w.Data))
	}
	dst.data = w.Data
	dst.setShape(w.Shape)
	return nil
}

package tensor

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestFloatsBitExactRoundTrip pins the codec guarantee the resume
// equivalence suite stands on: every float64 bit pattern — negative zero,
// subnormals, infinities, NaN payloads — survives the JSON round trip
// unchanged.
func TestFloatsBitExactRoundTrip(t *testing.T) {
	vals := Floats{
		0, math.Copysign(0, -1), 1.0 / 3.0, -math.Pi,
		math.SmallestNonzeroFloat64, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF8DEADBEEF0001), // NaN with payload
	}
	data, err := json.Marshal(vals)
	if err != nil {
		t.Fatal(err)
	}
	var back Floats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(vals) {
		t.Fatalf("round trip changed length: %d -> %d", len(vals), len(back))
	}
	for i := range vals {
		if math.Float64bits(back[i]) != math.Float64bits(vals[i]) {
			t.Errorf("value %d: %x -> %x", i, math.Float64bits(vals[i]), math.Float64bits(back[i]))
		}
	}
	// The form is fixed: a JSON string, and the empty string for no values
	// whether the slice is nil or not.
	if got, _ := json.Marshal(Floats{1}); string(got) != `"AAAAAAAA8D8="` {
		t.Errorf("Floats{1} marshals as %s", got)
	}
	for _, empty := range []Floats{nil, {}} {
		if got, _ := json.Marshal(empty); string(got) != `""` {
			t.Errorf("empty Floats marshals as %s", got)
		}
	}
}

// TestScalarFloatsSurviveNaN pins the scalar counterpart: F64Bits carries
// NaN, infinities and negative zero through JSON bit-exactly — as a value,
// as a struct field and as a map value — where a plain float64 would abort
// json.Marshal.
func TestScalarFloatsSurviveNaN(t *testing.T) {
	type section struct {
		Ref   F64Bits         `json:"ref"`
		Dists map[int]F64Bits `json:"dists"`
	}
	in := section{
		Ref: F64Bits(math.Float64frombits(0x7FF8DEADBEEF0001)),
		Dists: map[int]F64Bits{
			1: F64Bits(math.Inf(1)), 2: F64Bits(math.Inf(-1)),
			3: F64Bits(math.Copysign(0, -1)), 4: 0.1,
		},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("NaN scalar failed to marshal: %v", err)
	}
	if !strings.Contains(string(data), `"ref":"7ff8deadbeef0001"`) {
		t.Errorf("scalar form changed: %s", data)
	}
	var back section
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(float64(back.Ref)) != math.Float64bits(float64(in.Ref)) {
		t.Errorf("ref %x -> %x", math.Float64bits(float64(in.Ref)), math.Float64bits(float64(back.Ref)))
	}
	for k, v := range in.Dists {
		if math.Float64bits(float64(back.Dists[k])) != math.Float64bits(float64(v)) {
			t.Errorf("dist %d: %v -> %v", k, v, back.Dists[k])
		}
	}
	for _, bad := range []string{`1.5`, `"xyz"`, `"7ff8deadbeef00011"`} {
		var f F64Bits
		if err := json.Unmarshal([]byte(bad), &f); err == nil {
			t.Errorf("scalar %s accepted", bad)
		}
	}
}

// TestTensorCodec pins the tensor wire form and its shape validation.
func TestTensorCodec(t *testing.T) {
	src := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	data, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"shape":[2,3],"data":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhAAAAAAAAAEEAAAAAAAAAUQAAAAAAAABhA"}`
	if string(data) != want {
		t.Fatalf("wire form\n %s\nwant\n %s", data, want)
	}
	var back Tensor
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Rows() != 2 || back.Cols() != 3 {
		t.Fatalf("shape %v after round trip", back.Shape())
	}
	for i, v := range back.Data() {
		if v != src.Data()[i] {
			t.Fatalf("data[%d] = %v, want %v", i, v, src.Data()[i])
		}
	}
	// The decoded tensor owns its storage.
	back.Data()[0] = 99
	if src.Data()[0] == 99 {
		t.Fatal("decoded tensor aliases its source")
	}
	// Pointer fields decode null to nil without calling the tensor.
	var holder struct{ T *Tensor }
	if err := json.Unmarshal([]byte(`{"T":null}`), &holder); err != nil || holder.T != nil {
		t.Fatalf("null tensor: %v, %v", holder.T, err)
	}

	three := `"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA"` // Floats{1, 2, 3}
	for name, doc := range map[string]string{
		"shape/data mismatch": `{"shape":[2,2],"data":` + three + `}`,
		"missing shape":       `{"data":` + three + `}`,
		"negative dimension":  `{"shape":[-1,2],"data":""}`,
		// 2^60 · 16 wraps to 0 in 64-bit arithmetic — the length of the
		// empty payload.
		"overflowing product":  `{"shape":[1152921504606846976,16],"data":""}`,
		"overflow past a zero": `{"shape":[4611686018427387904,4,0],"data":""}`,
		"payload not base64":   `{"shape":[1],"data":"!"}`,
		"payload not floats":   `{"shape":[1],"data":"AAAA"}`,
		"not an object":        `[1,2]`,
	} {
		var bad Tensor
		if err := json.Unmarshal([]byte(doc), &bad); err == nil {
			t.Errorf("%s accepted: %s", name, doc)
		}
	}
	// An empty dimension is a valid, empty tensor.
	var empty Tensor
	if err := json.Unmarshal([]byte(`{"shape":[0,16],"data":""}`), &empty); err != nil || empty.Size() != 0 {
		t.Errorf("empty tensor: size %d, %v", empty.Size(), err)
	}
	// The wire form is canonical float64.
	if _, err := json.Marshal(NewOf[float32](2)); err == nil {
		t.Error("float32 tensor marshalled")
	}
}

package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"edgekg/internal/core"
	"edgekg/internal/flops"
	"edgekg/internal/tensor"
)

// v1Fixtures are the version 1 JSON checkpoints in testdata, each written
// by an older build.
var v1Fixtures = []string{
	"../../testdata/deploy_checkpoint_pr12.json",
	"../../testdata/stream_checkpoint_pr17.json",
	"../../testdata/stream_checkpoint_pr26.json",
}

// filled returns a StreamState with every field set, found by reflection
// so that a field added later is filled too: n elements in every slice and
// map (n = 0 gives empty, non-nil ones), every pointer set, every number
// distinct and non-zero. Fields tagged `json:"-"` are left zero: they are
// not part of the state, and the codec must drop them (see
// TestReportGateIsNotCheckpointed).
func filled(t testing.TB, n int) *StreamState {
	t.Helper()
	seq := 0
	tensorType := reflect.TypeFor[*tensor.Tensor]()
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		seq++
		switch v.Kind() {
		case reflect.Pointer:
			if v.Type() == tensorType {
				v.Set(reflect.ValueOf(tensor.FromSlice([]float64{float64(seq), -0.5, 1e-310}, 1, 3)))
				return
			}
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem(), path)
		case reflect.Struct:
			for i := range v.NumField() {
				if f := v.Type().Field(i); f.Tag.Get("json") != "-" {
					fill(v.Field(i), path+"."+f.Name)
				}
			}
		case reflect.Slice:
			s := reflect.MakeSlice(v.Type(), n, n)
			for i := range n {
				fill(s.Index(i), path+"[]")
			}
			v.Set(s)
		case reflect.Map:
			m := reflect.MakeMap(v.Type())
			for range n {
				k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				fill(k, path+"[key]")
				fill(e, path+"[]")
				m.SetMapIndex(k, e)
			}
			v.Set(m)
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(seq * (1 - 2*(seq%2)) << (seq % 40)))
		case reflect.Uint64:
			v.SetUint(1<<63 | uint64(seq))
		case reflect.Uint8:
			v.SetUint(uint64('a' + seq%26))
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Float64:
			v.SetFloat(float64(seq) + 0.25)
		case reflect.String:
			v.SetString(fmt.Sprintf("s%d", seq))
		default:
			t.Fatalf("%s: no filler for a %v", path, v.Kind())
		}
	}
	ss := new(StreamState)
	fill(reflect.ValueOf(ss).Elem(), "StreamState")
	return ss
}

// TestCodecCoversEveryField pins that the binary form carries every field
// of StreamState and of the sections it holds: a state with every field
// set, and one whose slices and maps are all empty, and the zero state
// (all nil) each decode to a state deeply equal to the original.
func TestCodecCoversEveryField(t *testing.T) {
	for name, ss := range map[string]*StreamState{
		"filled": filled(t, 2),
		"empty":  filled(t, 0),
		"zero":   {},
	} {
		got, err := DecodeStream(AppendStream(nil, ss))
		if err != nil || !reflect.DeepEqual(got, ss) {
			a, _ := json.Marshal(ss)
			b, _ := json.Marshal(got)
			t.Errorf("%s state changed across the binary form (%v):\n%s\nvs\n%s", name, err, a, b)
		}
	}
}

// TestReportGateIsNotCheckpointed pins that a pending round's gate and
// selected Seqs move no checkpoint byte and read back as zero values.
func TestReportGateIsNotCheckpointed(t *testing.T) {
	ss := filled(t, 1)
	want := AppendStream(nil, ss)
	ss.Pending.Report.Gate = core.GateTrained
	ss.Pending.Report.Positives, ss.Pending.Report.Anchors = []int{7, 3}, []int{1}
	if got := AppendStream(nil, ss); !bytes.Equal(got, want) {
		t.Fatal("the report's gate or selection moved the encoded state")
	}
	back, err := DecodeStream(want)
	if err != nil {
		t.Fatal(err)
	}
	rep := back.Pending.Report
	if rep.Gate != core.GateUnrecorded || rep.Positives != nil || rep.Anchors != nil {
		t.Fatalf("decoded gate %d, positives %v, anchors %v; want GateUnrecorded and none", rep.Gate, rep.Positives, rep.Anchors)
	}
}

// TestV1FixturesSurviveV2 pins the upgrade path of every committed version
// 1 file: Load, Save (version 2), Load again gives a state whose JSON is
// the first load's byte for byte.
func TestV1FixturesSurviveV2(t *testing.T) {
	for _, fixture := range v1Fixtures {
		v1, err := Load(fixture)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "checkpoint.json")
		if err := Save(path, v1); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil || !bytes.HasPrefix(data, []byte(magic)) {
			t.Fatalf("%s: Save did not write version 2: %.8q, %v", fixture, data, err)
		}
		v2, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		a, err := json.Marshal(v1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(v2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: state changed across version 2 (%d JSON bytes, then %d)", fixture, len(a), len(b))
		}
	}
}

// TestDecodeRefusesMalformedInput pins the decoder's own checks on a state
// with every section: every proper prefix, a trailing byte, an unknown
// version, a foreign header, a count the bytes left cannot hold, a tensor
// shape whose product overflows, a bool byte other than 0 or 1, and map
// keys out of order are each an error.
func TestDecodeRefusesMalformedInput(t *testing.T) {
	good := AppendStream(nil, filled(t, 2))
	if _, err := DecodeStream(good); err != nil {
		t.Fatal(err)
	}
	for n := range len(good) {
		if _, err := Decode(good[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte state decoded", n, len(good))
		}
	}
	// A stream whose one token bank has the given shape and no values.
	bank := func(shape ...uint64) []byte {
		pi := tensor.FromSlice([]float64{math.Pi}, 1, 1)
		enc := AppendStream(nil, &StreamState{Detector: DetectorState{Graphs: []GraphState{{Banks: []BankState{{Tokens: pi}}}}}})
		at := bytes.Index(enc, tensor.AppendFloats(nil, pi.Data())) - 3 // rank+1, 1, 1
		b := binary.AppendUvarint(bytes.Clone(enc[:at]), uint64(len(shape))+1)
		for _, d := range shape {
			b = binary.AppendUvarint(b, d)
		}
		return append(b, enc[at+3+8:]...)
	}
	if _, err := Decode(bank(0, 16)); err != nil {
		t.Fatalf("the shape mutations' base does not decode: %v", err)
	}
	// The zero state's AnchoredReference: the header (5 bytes), the stream
	// count, ID, MonitorN and MonitorLag (1 byte each).
	badBool := AppendStream(nil, &StreamState{})
	badBool[9] = 2
	swapped := AppendStream(nil, &StreamState{Ledger: map[string]flops.PhaseTotals{"a": {}, "b": {}}})
	swapped[bytes.Index(swapped, []byte{1, 'a'})+1] = 'c' // "c" before "b"
	for name, tc := range map[string]struct {
		b    []byte
		want string
	}{
		"a trailing byte":              {append(bytes.Clone(good), 0), "trailing"},
		"version 3":                    {append([]byte(magic), append([]byte{3}, good[5:]...)...), "version 3"},
		"version 1 bytes":              {append([]byte(magic), append([]byte{1}, good[5:]...)...), "version 1"},
		"a foreign header":             {append([]byte("EKG\x89"), good[4:]...), "not an"},
		"empty":                        {nil, "not an"},
		"a stream count past the body": {append(binary.AppendUvarint(bytes.Clone(good[:5]), 1<<40), good[6:]...), "exceeds"},
		"a shape that wraps":           {bank(1<<60, 16), "tensor shape"},
		"a shape past the body":        {bank(1<<20, 16), "tensor shape"},
		"a dimension past int":         {bank(0, 1<<63), "tensor shape"},
		"a bool byte of 2":             {badBool, "bool byte 2"},
		"map keys out of order":        {swapped, "map key"},
	} {
		if _, err := Decode(tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error naming %q", name, err, tc.want)
		}
	}
}

// FuzzDecodeStreamState throws arbitrary bytes at the version 2 decoder —
// what a checkpoint or spill file, or a POST …/restore body, holds. The
// decoder must return an error or a checkpoint, never panic; a decoded
// checkpoint re-encodes to bytes that decode to the same state (the same
// bytes again); and what the decoder allocates stays within a fixed multiple
// of the input's length, whatever counts the input claims.
func FuzzDecodeStreamState(f *testing.F) {
	for _, fixture := range v1Fixtures {
		cp, err := Load(fixture)
		if err != nil {
			f.Fatal(err)
		}
		b, err := Encode(cp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(AppendStream(nil, filled(f, 2)))
	f.Add(AppendStream(nil, &StreamState{}))
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cp, err := Decode(b)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256*uint64(len(b))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(b), alloc)
		}
		if err != nil {
			return
		}
		again, err := Encode(cp)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(again)
		if err != nil {
			t.Fatalf("a re-encoded state does not decode: %v", err)
		}
		if third, _ := Encode(back); !bytes.Equal(third, again) {
			t.Fatal("a decoded state changed across a second round trip")
		}
	})
}

// FuzzLoadV1 throws arbitrary bytes at Load's version 1 path, the JSON
// reader kept for checkpoint files older builds wrote. It must return the
// package's own error or a checkpoint, never panic; and a checkpoint it
// returns upgrades as Load then Save would: it encodes to version 2, or
// Encode reports why not, and the bytes decode.
func FuzzLoadV1(f *testing.F) {
	for _, fixture := range v1Fixtures {
		b, err := os.ReadFile(fixture)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cp, err := decodeV1(b)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "snapshot: ") {
				t.Fatalf("an error not of this package: %v", err)
			}
			return
		}
		v2, err := Encode(cp)
		if err != nil {
			return
		}
		if _, err := Decode(v2); err != nil {
			t.Fatalf("a version 1 checkpoint's version 2 form does not decode: %v", err)
		}
	})
}

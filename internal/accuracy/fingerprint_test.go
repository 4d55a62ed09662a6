package accuracy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"

	"lqs/internal/plan"
	"lqs/internal/progress"
)

// estimatorFingerprint is the digest of every Estimate and Explanation the
// four modes produce over every poll of the committed corpus. Any change
// to an estimator output, down to one bit of one float, moves it; a change
// meant to be behaviour-preserving must leave it alone.
const estimatorFingerprint = "3eae4855cd97dc82359b7e85be8d4f065792ea51c00dd4f39e7e15f2a8d4620b"

// TestEstimatorFingerprint replays every committed trace, final snapshot
// included, through each mode twice — once polled with Estimate, once
// with Explain — and hashes every exported field of every result: the
// Estimate with its bounds and ensemble record, and the Explanation with
// its terms, candidates and per-candidate contributions.
func TestEstimatorFingerprint(t *testing.T) {
	h := sha256.New()
	for _, spec := range corpus() {
		tf, err := ReadTraceFile(tracePath(spec.name))
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		p, cat, err := tf.Rebuild()
		if err != nil {
			t.Fatal(err)
		}
		tr := tf.Trace()
		snaps := tr.Snapshots
		if tr.Final != nil {
			snaps = append(snaps[:len(snaps):len(snaps)], tr.Final)
		}
		for _, mode := range Modes() {
			polled := progress.NewEstimator(p, cat, mode.Opts)
			explained := progress.NewEstimator(p, cat, mode.Opts)
			for _, s := range snaps {
				hashValue(h, reflect.ValueOf(polled.Estimate(s)))
				x, est := explained.Explain(s)
				hashValue(h, reflect.ValueOf(x))
				hashValue(h, reflect.ValueOf(est))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != estimatorFingerprint {
		t.Errorf("estimator fingerprint %s, want %s", got, estimatorFingerprint)
	}
}

var (
	planType   = reflect.TypeOf((*plan.Plan)(nil))
	reasonType = reflect.TypeOf(progress.Reason{})
)

// hashValue writes v into h bit for bit: floats by their IEEE bits,
// strings and slices length-prefixed, nil pointers and slices marked, and
// every exported struct field in declaration order. The plan an
// Explanation points at is the input, not an output, and is skipped. A
// degrade reason is hashed as the text it displays.
func hashValue(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	if v.Type() == reasonType {
		v = reflect.ValueOf(v.Interface().(progress.Reason).String())
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.Type() == planType {
			return
		}
		if v.IsNil() {
			put(0)
			return
		}
		put(1)
		hashValue(h, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				hashValue(h, v.Field(i))
			}
		}
	case reflect.Slice:
		if v.IsNil() {
			put(math.MaxUint64)
			return
		}
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint8:
		put(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	default:
		panic("hashValue: unhandled kind " + v.Kind().String())
	}
}

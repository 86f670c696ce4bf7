package codec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sketchml/internal/gradient"
)

// oracleRawDecodeInto is Raw.DecodeInto as it stood before the bulk pass: a
// checked reader call per field, then gradient.Validate over the result. It
// is kept as the reference the production decoder must match — same accept
// or reject, same error text, same Dim, keys and value bits.
func oracleRawDecodeInto(data []byte, dst *gradient.Sparse) error {
	r := reader{data: data}
	if err := checkTag(&r, tagRaw); err != nil {
		return err
	}
	flags, err := r.u8()
	if err != nil {
		return err
	}
	f32 := flags&1 != 0
	wide := flags&2 != 0
	dim, err := r.u64()
	if err != nil {
		return err
	}
	count, err := r.u32()
	if err != nil {
		return err
	}
	kb, vb := 4, 8
	if wide {
		kb = 8
	}
	if f32 {
		vb = 4
	}
	if int64(r.remain()) < int64(count)*int64(kb+vb) {
		return errTruncated
	}
	dst.Dim = dim
	dst.Keys, dst.Values = dst.Keys[:0], dst.Values[:0]
	for i := uint32(0); i < count; i++ {
		var k uint64
		if wide {
			k, err = r.u64()
		} else {
			var k32 uint32
			k32, err = r.u32()
			k = uint64(k32)
		}
		if err != nil {
			return err
		}
		dst.Keys = append(dst.Keys, k)
	}
	for i := uint32(0); i < count; i++ {
		var v float64
		if f32 {
			var v32 float32
			v32, err = r.f32()
			v = float64(v32)
		} else {
			v, err = r.f64()
		}
		if err != nil {
			return err
		}
		dst.Values = append(dst.Values, v)
	}
	if err := dst.Validate(); err != nil {
		return fmt.Errorf("codec: corrupt raw message: %w", err)
	}
	return nil
}

// oracleRawEmit is the per-element append loop Raw.Encode and Raw.MergeInto
// both carried before appendRaw. flags and count are the caller's, so it
// also writes the messages no encoder would.
func oracleRawEmit(flags byte, dim uint64, count uint32, keys []uint64, vals []float64) []byte {
	out := []byte{tagRaw, flags}
	out = appendU64(out, dim)
	out = appendU32(out, count)
	for _, k := range keys {
		if flags&2 != 0 {
			out = appendU64(out, k)
		} else {
			out = appendU32(out, uint32(k))
		}
	}
	for _, v := range vals {
		if flags&1 != 0 {
			out = appendF32(out, float32(v))
		} else {
			out = appendF64(out, v)
		}
	}
	return out
}

func rawFlags(f32 bool, dim uint64) byte {
	var flags byte
	if f32 {
		flags |= 1
	}
	if wideKeys(dim) {
		flags |= 2
	}
	return flags
}

// requireRawMatchesOracle decodes data with Raw.DecodeInto, into a
// destination that has been used before, and with the oracle.
func requireRawMatchesOracle(t testing.TB, what string, data []byte, dst *gradient.Sparse) {
	t.Helper()
	var want gradient.Sparse
	wantErr := oracleRawDecodeInto(data, &want)
	err := (&Raw{}).DecodeInto(data, dst)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, oracle says %v", what, err, wantErr)
	}
	if err != nil {
		return
	}
	requireSameGradient(t, &want, dst)
}

// TestRawMatchesOracle is the differential test of the bulk Raw paths:
// Encode and MergeInto write the parent's bytes, DecodeInto reads every
// message — well-formed, truncated, lying or hostile — as the parent did.
func TestRawMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	dst := &gradient.Sparse{}
	nnzs := []int{0, 1, 40000}
	if !thorough() {
		nnzs[2] = 4000
	}
	for _, f32 := range []bool{false, true} {
		for _, dim := range []uint64{2_000_000, 1 << 40} {
			c := &Raw{Float32: f32}
			var prev []byte
			for _, nnz := range nnzs {
				what := fmt.Sprintf("f32=%v dim=%d nnz=%d", f32, dim, nnz)
				g := randomGradient(rng, dim, nnz)
				msg, err := c.Encode(g)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				want := oracleRawEmit(rawFlags(f32, dim), dim, uint32(nnz), g.Keys, g.Values)
				if !bytes.Equal(msg, want) {
					t.Fatalf("%s: Encode differs from the parent's bytes", what)
				}
				requireRawMatchesOracle(t, what, msg, dst)
				requireRawMatchesOracle(t, what+" +trailing", append(msg[:len(msg):len(msg)], 1, 2, 3), dst)

				if prev != nil {
					requireRawMergeMatchesOracle(t, what, c, prev, msg)
				}
				prev = msg
			}
		}
	}
	// A float64 input keeps the merged message float64, either side.
	a, _ := (&Raw{Float32: true}).Encode(randomGradient(rng, 1000, 50))
	b, _ := (&Raw{}).Encode(randomGradient(rng, 1000, 70))
	requireRawMergeMatchesOracle(t, "f32+f64", &Raw{}, a, b)
	requireRawMergeMatchesOracle(t, "f64+f32", &Raw{}, b, a)
	requireRawMergeMatchesOracle(t, "self", &Raw{}, a, a)

	// Every truncated prefix of a small message, at each layout.
	for flags := byte(0); flags < 4; flags++ {
		dim := uint64(100)
		msg := oracleRawEmit(flags, dim, 3, []uint64{2, 50, 99}, []float64{0.5, -0.25, math.Copysign(0, -1)})
		for n := 0; n <= len(msg); n++ {
			requireRawMatchesOracle(t, fmt.Sprintf("flags %d prefix %d", flags, n), msg[:n:n], dst)
		}
		for _, count := range []uint32{0, 2, 4, 1 << 31, math.MaxUint32} {
			lie := append([]byte(nil), msg...)
			lie[10], lie[11], lie[12], lie[13] = byte(count), byte(count>>8), byte(count>>16), byte(count>>24)
			requireRawMatchesOracle(t, fmt.Sprintf("flags %d count %d", flags, count), lie, dst)
		}
	}

	// What Validate refuses, and what it lets through, in both key widths and
	// both value widths. Narrow keys under a wide Dim and wide keys under a
	// narrow one are legal spellings the flags allow.
	inf, nan := math.Inf(1), math.NaN()
	for _, m := range []struct {
		what string
		dim  uint64
		keys []uint64
		vals []float64
	}{
		{"ascending", 10, []uint64{0, 1, 9}, []float64{1, 2, 3}},
		{"unsorted", 10, []uint64{3, 1, 9}, []float64{1, 2, 3}},
		{"duplicate", 10, []uint64{3, 3, 9}, []float64{1, 2, 3}},
		{"duplicate zero", 10, []uint64{0, 0}, []float64{1, 2}},
		{"key = Dim", 10, []uint64{3, 10}, []float64{1, 2}},
		{"key = Dim first", 10, []uint64{10}, []float64{1}},
		{"key > Dim then descending", 10, []uint64{11, 3}, []float64{1, 2}},
		{"Dim 0", 0, []uint64{0}, []float64{1}},
		{"Dim 0 empty", 0, nil, nil},
		{"NaN", 10, []uint64{1, 2}, []float64{1, nan}},
		{"+Inf", 10, []uint64{1, 2}, []float64{inf, 1}},
		{"-Inf", 10, []uint64{1, 2}, []float64{1, -inf}},
		{"-0.0", 10, []uint64{1, 2}, []float64{math.Copysign(0, -1), 0}},
		{"denormal and max", 10, []uint64{1, 2}, []float64{5e-324, math.MaxFloat64}},
		{"bad key before bad value", 10, []uint64{5, 4}, []float64{nan, 1}},
		{"bad value before bad key", 10, []uint64{4, 5, 5}, []float64{1, inf, 1}},
		{"last key of a wide Dim", math.MaxUint64, []uint64{7, math.MaxUint64 - 1}, []float64{1, 2}},
		{"max key", math.MaxUint64, []uint64{7, math.MaxUint64}, []float64{1, 2}},
		{"max key then zero", math.MaxUint64, []uint64{math.MaxUint64, 0}, []float64{1, 2}},
	} {
		for flags := byte(0); flags < 4; flags++ {
			msg := oracleRawEmit(flags, m.dim, uint32(len(m.keys)), m.keys, m.vals)
			requireRawMatchesOracle(t, fmt.Sprintf("%s, flags %d", m.what, flags), msg, dst)
		}
	}
	// float64 values that overflow float32 become ±Inf on an f32 wire.
	requireRawMatchesOracle(t, "f32 overflow", oracleRawEmit(1, 10, 1, []uint64{1}, []float64{1e300}), dst)
}

// requireRawMergeMatchesOracle merges a and b with Raw.MergeInto, into a
// buffer that has been used before, and the parent's way: decode both, sum
// the union, emit element by element.
func requireRawMergeMatchesOracle(t testing.TB, what string, c *Raw, a, b []byte) {
	t.Helper()
	ms := getMergeScratch()
	defer putMergeScratch(ms)
	if err := oracleRawDecodeInto(a, &ms.ga); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := oracleRawDecodeInto(b, &ms.gb); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	keys, vals, err := oracleMergeSum(&ms.ga, &ms.gb)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	dim := ms.ga.Dim
	want := oracleRawEmit(rawFlags(a[1]&b[1]&1 != 0, dim), dim, uint32(len(keys)), keys, vals)
	for _, buf := range [][]byte{nil, make([]byte, 3), make([]byte, 0, len(want)+100)} {
		got, err := c.MergeInto(buf, a, b)
		if err != nil {
			t.Fatalf("%s: MergeInto: %v", what, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: MergeInto differs from the parent's bytes (dst cap %d)", what, cap(buf))
		}
	}
}

// oracleMergeSum is the parent's key-union sum of two merge inputs, a walk
// of both key lists: a key in one input keeps its value, a shared key sums
// a's value and b's, and exact-zero sums are dropped.
func oracleMergeSum(a, b *gradient.Sparse) ([]uint64, []float64, error) {
	if a.Dim != b.Dim {
		return nil, nil, fmt.Errorf("codec: merge dimension mismatch: %d vs %d", a.Dim, b.Dim)
	}
	var keys []uint64
	var vals []float64
	i, j := 0, 0
	for i < len(a.Keys) || j < len(b.Keys) {
		var k uint64
		var v float64
		switch {
		case j == len(b.Keys) || (i < len(a.Keys) && a.Keys[i] < b.Keys[j]):
			k, v = a.Keys[i], a.Values[i]
			i++
		case i == len(a.Keys) || b.Keys[j] < a.Keys[i]:
			k, v = b.Keys[j], b.Values[j]
			j++
		default:
			k, v = a.Keys[i], a.Values[i]+b.Values[j]
			i++
			j++
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("codec: merge produced non-finite value at key %d", k)
		}
		if v == 0 {
			continue
		}
		keys = append(keys, k)
		vals = append(vals, v)
	}
	return keys, vals, nil
}

// TestRawHostileCountAllocatesNothing: a 14-byte message whose header claims
// 2³² − 1 entries is refused before anything is sized from it.
func TestRawHostileCountAllocatesNothing(t *testing.T) {
	msg := oracleRawEmit(0, 2_000_000, math.MaxUint32, nil, nil)
	if len(msg) != rawHeaderLen {
		t.Fatalf("header is %d bytes", len(msg))
	}
	for _, extra := range []int{0, 14, 4096} {
		data := append(msg[:len(msg):len(msg)], make([]byte, extra)...)
		var dst gradient.Sparse
		var err error
		allocs := testing.AllocsPerRun(10, func() { err = (&Raw{}).DecodeInto(data, &dst) })
		if err != errTruncated {
			t.Errorf("%d-byte body: error %v, want %v", extra, err, errTruncated)
		}
		if allocs != 0 || cap(dst.Keys) != 0 || cap(dst.Values) != 0 {
			t.Errorf("%d-byte body: %v allocations, dst grew to %d keys", extra, allocs, cap(dst.Keys))
		}
	}
}

package trainer

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/gradient"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("sketch bytes")
	for _, kind := range []byte{frameGrad, frameReport} {
		for _, round := range []int{0, 1, 41, 1 << 20} {
			f := appendFrame(nil, kind, round, payload)
			if len(f) != frameHeaderLen+len(payload) {
				t.Fatalf("frame length %d", len(f))
			}
			k, r, p, err := parseFrame(f)
			if err != nil {
				t.Fatalf("kind 0x%02x round %d: %v", kind, round, err)
			}
			if k != kind || r != round || !bytes.Equal(p, payload) {
				t.Fatalf("round-trip mangled: kind 0x%02x round %d payload %q", k, r, p)
			}
		}
	}
}

// TestFrameRejectsCorruption holds the envelope's guarantee: flipping any
// single byte — kind, round, checksum or payload — fails the parse instead of
// returning a silently altered frame, and so does any error burst of up to
// 32 bits. (A CRC-32 catches every such burst that lies inside the bytes it
// covers or inside the stored sum; one that straddles the two is caught with
// probability 1 − 2⁻³², which the seeded sample below never meets.)
func TestFrameRejectsCorruption(t *testing.T) {
	big := make([]byte, 4096-frameHeaderLen)
	rand.New(rand.NewSource(20)).Read(big)
	frames := map[string][]byte{
		"21B": appendFrame(nil, frameGrad, 7, []byte("some payload")),
		"4KB": appendFrame(nil, frameGrad, 1<<20, big),
		"agg": appendAggFrame(nil, 3, 2, []byte("a merged codec message")),
	}
	allMasks := make([]byte, 255)
	for i := range allMasks {
		allMasks[i] = byte(i + 1)
	}
	if n := len(frames["21B"]); n != 21 {
		t.Fatalf("small frame is %d bytes, want 21", n)
	}
	for name, base := range frames {
		if _, _, _, err := parseFrame(base); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f := append([]byte(nil), base...)
		rng := rand.New(rand.NewSource(int64(len(base))))
		masks := []byte{0x01, 0x41, 0x80, 0xFF, 0}
		for i := range f {
			masks[len(masks)-1] = byte(1 + rng.Intn(255))
			flips := masks
			if len(f) <= 64 { // a small frame takes every one of the 255 flips
				flips = allMasks
			}
			for _, m := range flips {
				f[i] ^= m
				if _, _, _, err := parseFrame(f); err == nil {
					t.Errorf("%s: flip 0x%02x at byte %d went undetected", name, m, i)
				}
				f[i] ^= m
			}
			// Bursts starting in byte i: first and last bit set, the bits
			// between them random, 1 to 32 bits long.
			for s := 0; s < 4; s++ {
				width := 1 + rng.Intn(32)
				burst := uint64(rng.Uint32())>>(32-width) | 1 | 1<<(width-1)
				burst <<= rng.Intn(8)
				var span [5]byte
				for j := range span {
					span[j] = byte(burst >> (8 * j))
				}
				n := min(len(span), len(f)-i)
				if bytes.Equal(span[:n], make([]byte, n)) {
					continue // the burst fell off the end of the frame
				}
				for j := 0; j < n; j++ {
					f[i+j] ^= span[j]
				}
				if _, _, _, err := parseFrame(f); err == nil {
					t.Errorf("%s: %d-bit burst 0x%x at byte %d went undetected", name, width, burst, i)
				}
				for j := 0; j < n; j++ {
					f[i+j] ^= span[j]
				}
			}
		}
		if !bytes.Equal(f, base) {
			t.Fatalf("%s: the test did not restore its frame", name)
		}
	}
	if _, _, _, err := parseFrame([]byte{frameGrad, 1, 2, 0, 0, 0, 0, 0}); err == nil {
		t.Error("short frame accepted")
	}
	if _, _, _, err := parseFrame(nil); err == nil {
		t.Error("empty frame accepted")
	}
}

// TestFrameSumIsCRC32C pins the envelope to a documented standard rather
// than a local hash: the stored sum is CRC-32C (Castagnoli) of the frame
// with the sum's four bytes cut out, little-endian, and the algorithm
// answers the standard check string.
func TestFrameSumIsCRC32C(t *testing.T) {
	if got := frameSum([]byte("1234"), []byte("56789")); got != 0xE3069283 {
		t.Fatalf(`CRC-32C("123456789") = 0x%08x, want 0xE3069283`, got)
	}
	tab := crc32.MakeTable(crc32.Castagnoli)
	prefix := []byte("already in the buffer")
	msg := []byte("a merged codec message")
	for name, f := range map[string][]byte{
		"frame":    appendFrame(prefix, frameGrad, 41, msg)[len(prefix):],
		"agg":      appendAggFrame(prefix, 41, 3, msg)[len(prefix):],
		"stop":     appendFrame(nil, frameStop, 9, nil),
		"agg/zero": appendAggFrame(nil, 0, 1, nil),
	} {
		covered := append(append([]byte(nil), f[:frameSumAt]...), f[frameHeaderLen:]...)
		want := crc32.Checksum(covered, tab)
		if got := binary.LittleEndian.Uint32(f[frameSumAt:]); got != want {
			t.Errorf("%s: stored sum 0x%08x, CRC-32C of the covered bytes 0x%08x", name, got, want)
		}
		if _, _, _, err := parseFrame(f); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	f := appendFrame(nil, frameGrad, 1, msg)
	want := fmt.Sprintf("got 0x00000007, want 0x%08x", binary.LittleEndian.Uint32(f[frameSumAt:]))
	binary.LittleEndian.PutUint32(f[frameSumAt:], 7)
	if _, _, _, err := parseFrame(f); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("mismatch error %v does not read %q", err, want)
	}
}

// FuzzParseFrame feeds parseFrame arbitrary bytes: it must never panic, and
// whatever it accepts re-encodes to the same bytes (the envelope has one
// spelling per frame).
func FuzzParseFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{frameGrad, 1, 2})
	f.Add(appendFrame(nil, frameStop, 3, nil))
	f.Add(appendFrame(nil, frameGrad, 7, []byte("some gradient payload")))
	f.Add(appendFrame(nil, frameReport, 1<<31, make([]byte, workerReportLen)))
	f.Add(appendAggFrame(nil, 12, 4, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}))
	flipped := appendFrame(nil, frameGrad, 7, []byte("some gradient payload"))
	flipped[frameSumAt] ^= 1
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, round, payload, err := parseFrame(data)
		if err != nil {
			return
		}
		if again := appendFrame(nil, kind, round, payload); !bytes.Equal(again, data) {
			t.Fatalf("accepted frame %x re-encodes to %x", data, again)
		}
		if kind == frameAgg {
			if count, msg, err := parseAggFrame(payload); err == nil {
				if again := appendAggFrame(nil, round, count, msg); !bytes.Equal(again, data) {
					t.Fatalf("accepted aggregate frame %x re-encodes to %x", data, again)
				}
			}
		}
	})
}

// TestFrameBuiltInPlaceMatchesAppendFrame: a sender that begins a frame,
// encodes its gradient straight into it and seals it — a worker into its
// send buffer, the driver into its broadcast buffer — sends the bytes
// appendFrame wraps around Encode's message, whatever the buffer held
// before, for Raw, SketchML on both pane plans, and a codec that has no
// AppendEncode.
func TestFrameBuiltInPlaceMatchesAppendFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	kv := map[uint64]float64{}
	for len(kv) < 5000 {
		kv[uint64(rng.Intn(1<<20))] = rng.NormFloat64()
	}
	g := gradient.FromMap(1<<20, kv)
	serial, concurrent := codec.DefaultOptions(), codec.DefaultOptions()
	serial.Parallelism, concurrent.Parallelism = 1, 2
	for name, c := range map[string]codec.Codec{
		"raw": &codec.Raw{}, "sketchml-par1": codec.MustSketchML(serial),
		"sketchml-par2": codec.MustSketchML(concurrent), "encode-only": encodeOnly{&codec.Raw{}},
	} {
		msg, err := c.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, 2*len(msg))
		rng.Read(junk)
		link, recv := cluster.Pair(4)
		drv := broadcastDriver(0, link)
		for _, round := range []int{0, 7, 1 << 20} {
			want := appendFrame(nil, frameGrad, round, msg)
			frame, err := codec.EncodeAppend(c, beginFrame(junk[:0], frameGrad, round), g)
			if err != nil {
				t.Fatal(err)
			}
			sealFrame(frame)
			if !bytes.Equal(frame, want) {
				t.Errorf("%s round %d: frame built in place differs from appendFrame's", name, round)
			}
			drv.frame = append(drv.frame[:0], junk...)
			frame, err = codec.EncodeAppend(c, beginFrame(drv.frame[:0], frameGrad, round), g)
			if err != nil {
				t.Fatal(err)
			}
			if err := drv.broadcast(frame); err != nil {
				t.Fatal(err)
			}
			got := recvFrames(t, recv, 1)[0]
			if !bytes.Equal(got, want) {
				t.Errorf("%s round %d: the broadcast frame differs from appendFrame's", name, round)
			}
		}
	}
}

// encodeOnly is a codec without AppendEncode, which EncodeAppend serves
// by appending Encode's message.
type encodeOnly struct{ raw *codec.Raw }

func (e encodeOnly) Name() string                                 { return e.raw.Name() }
func (e encodeOnly) Encode(g *gradient.Sparse) ([]byte, error)    { return e.raw.Encode(g) }
func (e encodeOnly) Decode(data []byte) (*gradient.Sparse, error) { return e.raw.Decode(data) }

// frameSizes are the Raw row's two frames: a worker message (40 000
// nonzeros) and the aggregate (122 000).
var frameSizes = []struct {
	name string
	nnz  int
}{{"480KB", 40000}, {"1464KB", 122000}}

// TestFrameZeroAlloc is the envelope's allocation contract: appending into
// a buffer that already has the frame's size and parsing a frame (the
// payload returned aliases it) allocate nothing, at both sizes.
func TestFrameZeroAlloc(t *testing.T) {
	for _, size := range frameSizes {
		payload := make([]byte, 14+12*size.nnz)
		frame := appendFrame(nil, frameGrad, 1, payload)
		if allocs := testing.AllocsPerRun(10, func() {
			frame = appendFrame(frame[:0], frameGrad, 2, payload)
		}); allocs != 0 {
			t.Errorf("%s: appendFrame into a sized buffer allocates %v objects/op, want 0", size.name, allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if _, _, _, err := parseFrame(frame); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: parseFrame allocates %v objects/op, want 0", size.name, allocs)
		}
	}
}

// BenchmarkFrame measures the two passes every frame's bytes take — the
// sender's append and each receiver's parse — at the Raw row's two sizes.
func BenchmarkFrame(b *testing.B) {
	for _, size := range frameSizes {
		payload := make([]byte, 14+12*size.nnz)
		rand.New(rand.NewSource(1)).Read(payload)
		frame := appendFrame(nil, frameGrad, 1, payload)
		b.Run("append/"+size.name, func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frame = appendFrame(frame[:0], frameGrad, i, payload)
			}
		})
		b.Run("parse/"+size.name, func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := parseFrame(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

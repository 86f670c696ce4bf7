package trainer

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Frame envelope. Every message in the bulk-synchronous loop is
// self-describing: [kind byte][round uint32 LE][crc uint32 LE][payload].
// The round tag is what makes degraded rounds safe — a gradient that
// arrives after its round's deadline expired is recognized as stale
// instead of being mistaken for the current round's contribution, so a
// worker that was slow (or partitioned) for a while rejoins the protocol
// seamlessly once its link heals. The kind byte separates gradient traffic
// from end-of-run reports, letting the driver's report collection discard
// late gradient frames. The checksum — CRC-32C (Castagnoli) over kind, round
// and payload, all 32 bits of it — turns in-flight corruption into a detected
// parse failure rather than a silently-applied junk gradient: every error
// burst of up to 32 bits inside the covered bytes is caught (so every
// single-byte flip anywhere in the frame is), and longer corruption passes
// once in 2³². A truncated CRC would keep neither property.
const (
	frameGrad   byte = 0x47 // 'G': gradient (worker→driver) or aggregate (driver→worker)
	frameReport byte = 0x52 // 'R': a worker's end-of-run report
	frameStop   byte = 0x53 // 'S': driver→worker drain notice — finish up, report, exit
	frameAgg    byte = 0x41 // 'A': merged partial aggregate (tree gather links)
)

const (
	frameSumAt     = 5 // offset of the checksum: after kind and round
	frameHeaderLen = frameSumAt + 4
)

// frameAgg payload prefix: [count uint16 LE][codec msg]. count is how many
// worker gradients the carried message already sums (what the driver divides
// by to keep the aggregate an unbiased mean).
const aggHeaderLen = 2

// appendAggFrame wraps a merged codec message in the aggregate envelope,
// appending to dst. It writes the agg prefix directly into the frame so no
// intermediate payload buffer is needed; the checksum consequently covers
// kind, round, count, and the message bytes.
func appendAggFrame(dst []byte, round, count int, msg []byte) []byte {
	dst = append(dst, frameAgg)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(round))
	sumAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // checksum placeholder
	dst = binary.LittleEndian.AppendUint16(dst, uint16(count))
	dst = append(dst, msg...)
	binary.LittleEndian.PutUint32(dst[sumAt:], frameSum(dst[sumAt-frameSumAt:sumAt], dst[sumAt+4:]))
	return dst
}

// parseAggFrame splits a frameAgg payload (as returned by parseFrame) into
// the aggregate prefix and the codec message, which aliases payload.
func parseAggFrame(payload []byte) (count int, msg []byte, err error) {
	if len(payload) < aggHeaderLen {
		return 0, nil, fmt.Errorf("trainer: aggregate payload too short (%d bytes)", len(payload))
	}
	count = int(binary.LittleEndian.Uint16(payload))
	if count < 1 {
		return 0, nil, fmt.Errorf("trainer: aggregate frame with zero gradient count")
	}
	return count, payload[aggHeaderLen:], nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameSum is CRC-32C of hdr‖payload: the standard library's Castagnoli
// checksum, which is the CPU's CRC instruction on amd64 and arm64 and
// slicing-by-8 elsewhere — the same 32 bits on every host, at memory speed
// where it matters (a Raw aggregate is 1.46 MB, summed by its sender and by
// every receiver).
func frameSum(hdr, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdr, castagnoli), castagnoli, payload)
}

// appendFrame wraps payload in the envelope, appending to dst.
func appendFrame(dst []byte, kind byte, round int, payload []byte) []byte {
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(round))
	dst = binary.LittleEndian.AppendUint32(dst, frameSum(dst[len(dst)-frameSumAt:], payload))
	return append(dst, payload...)
}

// parseFrame splits a received message into its envelope fields and
// verifies the checksum. The returned payload aliases msg.
func parseFrame(msg []byte) (kind byte, round int, payload []byte, err error) {
	if len(msg) < frameHeaderLen {
		return 0, 0, nil, fmt.Errorf("trainer: frame too short (%d bytes)", len(msg))
	}
	kind = msg[0]
	if kind != frameGrad && kind != frameReport && kind != frameStop && kind != frameAgg {
		return 0, 0, nil, fmt.Errorf("trainer: unknown frame kind 0x%02x", kind)
	}
	payload = msg[frameHeaderLen:]
	got, want := binary.LittleEndian.Uint32(msg[frameSumAt:]), frameSum(msg[:frameSumAt], payload)
	if got != want {
		return 0, 0, nil, fmt.Errorf("trainer: frame checksum mismatch (got 0x%08x, want 0x%08x)", got, want)
	}
	return kind, int(binary.LittleEndian.Uint32(msg[1:frameSumAt])), payload, nil
}

package codec

import (
	"sketchml/internal/obs"
	"sketchml/internal/quantizer"
)

// codecMetrics is the SketchML codec's pre-resolved instrument set. It is
// nil when Options.Metrics is unset, so the hot path pays exactly one
// pointer compare per gated block — in particular time.Now is never called
// with metrics disabled, keeping the zero-value path allocation-free and
// inside the <5% overhead budget on BenchmarkEncodeDecode.
type codecMetrics struct {
	encodes  *obs.Counter // messages encoded
	decodes  *obs.Counter // messages decoded
	inFloats *obs.Counter // input float64 values across all encodes
	outBytes *obs.Counter // wire bytes produced by Encode
	inBytes  *obs.Counter // wire bytes consumed by Decode

	encodeNs     *obs.Histogram // whole-message encode latency
	decodeNs     *obs.Histogram // whole-message decode latency
	paneEncodeNs *obs.Histogram // per-sign-pane encode latency
	paneDecodeNs *obs.Histogram // per-sign-pane decode latency
	bucketIdx    *obs.Histogram // quantile bucket-index distribution
}

func newCodecMetrics(reg *obs.Registry) *codecMetrics {
	if reg == nil {
		return nil
	}
	return &codecMetrics{
		encodes:      reg.Counter("codec.encodes"),
		decodes:      reg.Counter("codec.decodes"),
		inFloats:     reg.Counter("codec.in_floats"),
		outBytes:     reg.Counter("codec.wire_bytes"),
		inBytes:      reg.Counter("codec.decode_bytes"),
		encodeNs:     reg.Histogram("codec.encode_ns"),
		decodeNs:     reg.Histogram("codec.decode_ns"),
		paneEncodeNs: reg.Histogram("codec.pane_encode_ns"),
		paneDecodeNs: reg.Histogram("codec.pane_decode_ns"),
		bucketIdx:    reg.Histogram("codec.bucket_index"),
	}
}

// observeBucketIndexes feeds a pane's quantile bucket indexes into the
// distribution histogram. The indexes are pre-aggregated in tally (the
// pane's reused scratch) so the histogram sees one batched ObserveN per
// distinct bucket (at most q atomic bursts per pane) instead of one
// observation per gradient value.
func (m *codecMetrics) observeBucketIndexes(tally *[]int64, idx []uint32, q int) {
	if m == nil || len(idx) == 0 {
		return
	}
	*tally = quantizer.Resize(*tally, q)
	counts := *tally
	clear(counts)
	for _, b := range idx {
		if int(b) < q {
			counts[b]++
		}
	}
	for b, n := range counts {
		m.bucketIdx.ObserveN(int64(b), n)
	}
}

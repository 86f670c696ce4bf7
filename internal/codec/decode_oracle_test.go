package codec

import (
	"fmt"
	"math"

	"sketchml/internal/bitpack"
	"sketchml/internal/gradient"
	"sketchml/internal/hashing"
	"sketchml/internal/keycoding"
	"sketchml/internal/sketch/minmax"
)

// oracleDecode is the SketchML decoder as it stood before the rank scatter,
// the block query and the flat stores: every key list its own slice, every
// key its own Grouped.Query, pane 1 negated value by value, and the lists
// put in order by comparing all their heads for each output key. It is kept
// here, unpooled, as the reference the production decoder must match bit
// for bit — and error for error — on every message. Its key lists come from
// keycoding's own Elias–Fano decoder, whose reference is decodeEFBitLoop
// in keycoding.
func oracleDecode(data []byte) (*gradient.Sparse, error) {
	r := reader{data: data}
	if err := checkTag(&r, tagSketchML); err != nil {
		return nil, err
	}
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	if flags&smFlagEFKeys == 0 || flags&smFlagDeltaKeys != 0 {
		return nil, fmt.Errorf("codec: flags %#02x: retired or missing key code", flags)
	}
	quant := flags&smFlagQuantize != 0
	mm := flags&smFlagMinMax != 0
	dim, err := r.u64()
	if err != nil {
		return nil, err
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	seed, err := r.u64()
	if err != nil {
		return nil, err
	}
	dst := &gradient.Sparse{Dim: dim}

	if !quant {
		keys, err := oracleKeys(&r)
		if err != nil {
			return nil, err
		}
		dst.Keys = keys
		if uint32(len(keys)) != count {
			return nil, fmt.Errorf("codec: key count %d, header says %d", len(keys), count)
		}
		if int64(r.remain()) < int64(len(keys))*8 {
			return nil, errTruncated
		}
		dst.Values = make([]float64, len(keys))
		for i := range dst.Values {
			if dst.Values[i], err = r.f64(); err != nil {
				return nil, err
			}
		}
		if err := dst.Validate(); err != nil {
			return nil, fmt.Errorf("codec: corrupt message: %w", err)
		}
		return dst, nil
	}

	if _, err := r.u32(); err != nil {
		return nil, err
	}
	// An entry costs a message at least its highs bit.
	if int(count) < 0 || int(count) > 8*len(data) {
		return nil, fmt.Errorf("codec: count %d exceeds message size %d", count, len(data))
	}
	var keyLists [][]uint64
	var valLists [][]float64
	for paneID := uint64(0); paneID < 2; paneID++ {
		start := len(valLists)
		keyLists, valLists, err = oraclePane(&r, keyLists, valLists, mm, paneID, seed)
		if err != nil {
			return nil, fmt.Errorf("codec: pane %d: %w", paneID, err)
		}
		if paneID == 1 {
			for _, list := range valLists[start:] {
				for i := range list {
					list[i] = -list[i]
				}
			}
		}
	}
	if err := oracleMerge(dst, keyLists, valLists); err != nil {
		return nil, err
	}
	if uint32(len(dst.Keys)) != count {
		return nil, fmt.Errorf("codec: decoded %d entries, header says %d", len(dst.Keys), count)
	}
	return dst, nil
}

func oracleKeys(r *reader) ([]uint64, error) {
	keys, used, err := keycoding.DecodeEFInto(r.rest(), nil)
	if err != nil {
		return nil, err
	}
	if err := r.advance(used); err != nil {
		return nil, err
	}
	return keys, nil
}

func oraclePane(r *reader, keyLists [][]uint64, valLists [][]float64, mm bool, paneID, seed uint64) ([][]uint64, [][]float64, error) {
	paneCount, err := r.u32()
	if err != nil {
		return nil, nil, err
	}
	if paneCount == 0 {
		return keyLists, valLists, nil
	}
	nMeans, err := r.u32()
	if err != nil {
		return nil, nil, err
	}
	if nMeans == 0 || nMeans > 1<<16 {
		return nil, nil, fmt.Errorf("implausible means count %d", nMeans)
	}
	means := make([]float64, nMeans)
	for i := range means {
		if means[i], err = r.f64(); err != nil {
			return nil, nil, err
		}
	}

	if !mm {
		keys, err := oracleKeys(r)
		if err != nil {
			return nil, nil, err
		}
		idx, used, err := bitpack.DecodeBlockInto(r.rest(), nil)
		if err != nil {
			return nil, nil, err
		}
		if err := r.advance(used); err != nil {
			return nil, nil, err
		}
		if len(idx) != len(keys) {
			return nil, nil, fmt.Errorf("%d indexes for %d keys", len(idx), len(keys))
		}
		vals := make([]float64, len(keys))
		for i, id := range idx {
			if int(id) >= len(means) {
				return nil, nil, fmt.Errorf("index %d out of %d buckets", id, len(means))
			}
			vals[i] = means[id]
		}
		return append(keyLists, keys), append(valLists, vals), nil
	}

	// MinMax: packed sketches, the pane's one key list, and each key's group
	// number when there is more than one group, queried key by key.
	grouped, used, err := minmax.DecodeGroupedPackedReuse(r.rest(), hashing.Mix64(paneID, seed), nil)
	if err != nil {
		return nil, nil, err
	}
	if err := r.advance(used); err != nil {
		return nil, nil, err
	}
	keys, err := oracleKeys(r)
	if err != nil {
		return nil, nil, err
	}
	groups := make([]uint32, len(keys))
	if grouped.NumGroups() > 1 {
		if groups, used, err = bitpack.DecodePackedInto(r.rest(), len(keys), bitpack.BitsFor(grouped.NumGroups()), nil); err != nil {
			return nil, nil, err
		}
		if err := r.advance(used); err != nil {
			return nil, nil, err
		}
	}
	vals := make([]float64, len(keys))
	for i, k := range keys {
		b, ok := grouped.Query(int(groups[i]), k)
		if !ok {
			return nil, nil, fmt.Errorf("group %d: key %d missing from sketch", groups[i], k)
		}
		if b >= len(means) {
			b = len(means) - 1
		}
		vals[i] = means[b]
	}
	return append(keyLists, keys), append(valLists, vals), nil
}

func oracleMerge(dst *gradient.Sparse, keyLists [][]uint64, valLists [][]float64) error {
	pos := make([]int, len(keyLists))
	for {
		best := -1
		var bestKey uint64 = math.MaxUint64
		for i, l := range keyLists {
			if pos[i] < len(l) && l[pos[i]] <= bestKey {
				if l[pos[i]] == bestKey && best >= 0 {
					return fmt.Errorf("codec: duplicate key %d across lists", bestKey)
				}
				best = i
				bestKey = l[pos[i]]
			}
		}
		if best < 0 {
			break
		}
		dst.Keys = append(dst.Keys, bestKey)
		dst.Values = append(dst.Values, valLists[best][pos[best]])
		pos[best]++
	}
	if err := dst.Validate(); err != nil {
		return fmt.Errorf("codec: merged gradient invalid: %w", err)
	}
	return nil
}

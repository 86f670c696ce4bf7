package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ParseLibSVM reads a dataset in LibSVM format — one instance per line:
//
//	<label> <index>:<value> <index>:<value> ...
//
// Indexes in the file are 1-based (the format's convention) and are stored
// 0-based. dim of 0 auto-sizes the feature space to the largest index seen;
// a positive dim enforces that bound. Indexes must be strictly ascending,
// zero-valued features included, and labels and values must be finite; an
// error names the offending line.
func ParseLibSVM(r io.Reader, dim uint64) (*Dataset, error) {
	d := &Dataset{Dim: dim}
	var maxKey uint64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		label, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad label %q: %w", lineNo, fields[0], err)
		}
		if math.IsNaN(label) || math.IsInf(label, 0) {
			return nil, fmt.Errorf("dataset: line %d: non-finite label %q", lineNo, fields[0])
		}
		in := Instance{Label: label}
		var prev uint64
		for j, f := range fields[1:] {
			colon := strings.IndexByte(f, ':')
			if colon <= 0 {
				return nil, fmt.Errorf("dataset: line %d: bad feature %q", lineNo, f)
			}
			idx, err := strconv.ParseUint(f[:colon], 10, 64)
			if err != nil || idx == 0 {
				return nil, fmt.Errorf("dataset: line %d: bad index %q", lineNo, f[:colon])
			}
			val, err := strconv.ParseFloat(f[colon+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad value %q: %w", lineNo, f[colon+1:], err)
			}
			if math.IsNaN(val) || math.IsInf(val, 0) {
				return nil, fmt.Errorf("dataset: line %d: non-finite value %q", lineNo, f[colon+1:])
			}
			key := idx - 1 // to 0-based
			if j > 0 && key <= prev {
				return nil, fmt.Errorf("dataset: line %d: indexes not strictly ascending", lineNo)
			}
			prev = key
			if dim > 0 && key >= dim {
				return nil, fmt.Errorf("dataset: line %d: index %d exceeds dim %d", lineNo, idx, dim)
			}
			if val != 0 {
				in.Keys = append(in.Keys, key)
				in.Values = append(in.Values, val)
			}
			if key > maxKey {
				maxKey = key
			}
		}
		d.Instances = append(d.Instances, in)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read: %w", err)
	}
	if dim == 0 {
		d.Dim = maxKey + 1
	}
	return d, nil
}

// WriteLibSVM writes the dataset in LibSVM format (1-based indexes).
func WriteLibSVM(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	for i := range d.Instances {
		in := &d.Instances[i]
		if _, err := fmt.Fprintf(bw, "%g", in.Label); err != nil {
			return err
		}
		for j, k := range in.Keys {
			if _, err := fmt.Fprintf(bw, " %d:%g", k+1, in.Values[j]); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

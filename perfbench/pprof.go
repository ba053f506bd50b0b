package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is read with a minimal protobuf decoder over the four
// profile.proto messages bucketing needs, so no pprof module is required.
// Field numbers are those of github.com/google/pprof/proto/profile.proto.
const (
	profSample   = 2 // Profile.sample
	profLocation = 4 // Profile.location
	profFunction = 5 // Profile.function
	profStrings  = 6 // Profile.string_table

	sampleLocationID = 1 // Sample.location_id (leaf first)
	sampleValue      = 2 // Sample.value

	locationID   = 1 // Location.id
	locationLine = 4 // Location.line (inlined callees first)

	lineFunctionID = 1 // Line.function_id

	functionID   = 1 // Function.id
	functionName = 2 // Function.name (string table index)
)

// pbField is one decoded protobuf field: a varint or a byte slice.
type pbField struct {
	num   int
	wire  int
	v     uint64
	bytes []byte
}

// pbFields decodes the fields of one message.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = uvarint(b)
			if n <= 0 {
				return nil, errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("pprof: bad length")
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("pprof: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// ints returns a repeated integer field, packed or not.
func ints(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// leafSamples decodes a gzipped CPU profile and returns the sample count
// attributed to each leaf function name — pprof's flat attribution, with
// inlined functions kept as their own frames.
func leafSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	leafFunc := map[uint64]uint64{} // location id -> innermost function id
	type sample struct {
		leaf  uint64
		count int64
	}
	var samples []sample
	for _, f := range fields {
		switch f.num {
		case profStrings:
			strs = append(strs, string(f.bytes))
		case profFunction:
			var id, name uint64
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			for _, g := range sub {
				switch g.num {
				case functionID:
					id = g.v
				case functionName:
					name = g.v
				}
			}
			funcName[id] = name
		case profLocation:
			var id, fn uint64
			first := true
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			for _, g := range sub {
				switch {
				case g.num == locationID:
					id = g.v
				case g.num == locationLine && first:
					first = false
					line, err := pbFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == lineFunctionID {
							fn = h.v
						}
					}
				}
			}
			leafFunc[id] = fn
		case profSample:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s sample
			var locs, vals []uint64
			for _, g := range sub {
				var v []uint64
				if g.num == sampleLocationID || g.num == sampleValue {
					if v, err = ints(g); err != nil {
						return nil, err
					}
				}
				switch g.num {
				case sampleLocationID:
					locs = append(locs, v...)
				case sampleValue:
					vals = append(vals, v...)
				}
			}
			if len(locs) == 0 || len(vals) == 0 {
				continue
			}
			s.leaf, s.count = locs[0], int64(vals[0])
			samples = append(samples, s)
		}
	}
	out := make(map[string]int64)
	for _, s := range samples {
		name := "?"
		if fn, ok := leafFunc[s.leaf]; ok {
			if si, ok := funcName[fn]; ok && int(si) < len(strs) {
				name = strs[si]
			}
		}
		out[name] += s.count
	}
	return out, nil
}

// moduleOf buckets a function name: abm/internal/<module>/... by its
// first path element (so obs/hist counts as obs), the Go runtime as
// "runtime", this benchmark's own code as "perfbench", and anything else
// (other standard-library packages) as "" — unbucketed.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "abm/internal/"); ok {
		if i := strings.IndexAny(rest, "/."); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "main."):
		return "perfbench"
	}
	return ""
}

// moduleShares buckets the flat samples of one or more profiles by
// module; the shares sum to 1, the "" bucket holding what no module
// claims.
func moduleShares(profiles [][]byte) (map[string]float64, int64, error) {
	byModule := make(map[string]int64)
	var total int64
	for _, gz := range profiles {
		leaves, err := leafSamples(gz)
		if err != nil {
			return nil, 0, err
		}
		for fn, n := range leaves {
			byModule[moduleOf(fn)] += n
			total += n
		}
	}
	out := make(map[string]float64)
	for mod, n := range byModule {
		out[mod] = float64(n) / float64(total)
	}
	return out, total, nil
}

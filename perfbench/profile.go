package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator's modules under internal/ that self time
// is attributed to, plus the Go runtime; everything else is "other".
var layers = []string{
	"workload", "cpu", "cache", "core", "memctrl", "sched", "pagepolicy",
	"dram", "addrmap", "engine", "experiment", "runtime",
}

const otherLayer = "other"

var layerSet = func() map[string]bool {
	m := make(map[string]bool)
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// funcPackage returns the import path of a symbol name as pprof
// records it, e.g. "cloudmc/internal/memctrl.(*Controller).Tick" ->
// "cloudmc/internal/memctrl".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiation arguments
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOf buckets a leaf frame's function name into a layer.
func layerOf(funcName string) string {
	pkg := funcPackage(funcName)
	if rest, ok := strings.CutPrefix(pkg, "cloudmc/internal/"); ok {
		if layerSet[rest] {
			return rest
		}
		return otherLayer
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return otherLayer
}

// profileSample is one CPU-profile sample: its leaf function name (""
// when the sample has no location), its CPU time, and whether it was
// taken during a cell's set-up (its goroutine carried the set-up
// phase label).
type profileSample struct {
	leaf  string
	ns    int64
	setup bool
}

// leafSelfTime buckets a runtime/pprof CPU profile by the layer of each
// sample's leaf frame and returns CPU nanoseconds per layer. Set-up
// samples are left out; unlabelled samples (GC workers and other
// runtime goroutines) are kept.
func leafSelfTime(gz []byte) (map[string]int64, error) {
	samples, err := parseCPUProfile(gz)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range samples {
		if s.setup {
			continue
		}
		l := otherLayer
		if s.leaf != "" {
			l = layerOf(s.leaf)
		}
		out[l] += s.ns
	}
	return out, nil
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof writes, keeping only what leaf bucketing needs: each
// sample's innermost function and its cpu/nanoseconds value.
func parseCPUProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs, vals []uint64
		labels     [][2]uint64 // (key, str) string indices
	}
	var (
		strs        []string
		sampleTypes [][2]uint64 // (type, unit) string indices
		samples     []rawSample
		locFunc     = map[uint64]uint64{} // location id -> leaf function id
		funcName    = map[uint64]uint64{} // function id -> name string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, w, v, pb)
				case 2:
					s.vals = appendVarints(s.vals, w, v, pb)
				case 3:
					var kv [2]uint64
					err := eachField(pb, func(ln, _ int, v uint64, _ []byte) error {
						if ln == 1 || ln == 2 {
							kv[ln-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			var haveFn bool
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !haveFn: // the first line is the innermost (inlined) frame
					haveFn = true
					return eachField(lb, func(ln, _ int, v uint64, _ []byte) error {
						if ln == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if haveFn {
				locFunc[id] = fn
			}
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, st := range sampleTypes {
		if str(st[0]) == "cpu" && str(st[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps := profileSample{ns: int64(s.vals[cpu])}
		for _, kv := range s.labels {
			ps.setup = ps.setup || (str(kv[0]) == phaseLabel && str(kv[1]) == phaseSetup)
		}
		if len(s.locs) > 0 {
			if fn, ok := locFunc[s.locs[0]]; ok {
				ps.leaf = str(funcName[fn])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendVarints appends a repeated integer field's values, packed
// (wire type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, packed []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// eachField walks a protobuf message, calling fn with each field's
// number, wire type, and its integer value (varint and fixed types) or
// bytes (length-delimited).
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

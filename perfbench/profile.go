package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// CPU-profile attribution. The benchmark profiles the engine call of each
// traced iteration with runtime/pprof and charges every sample to one of
// the repo's modules: the innermost frame that belongs to storagesim's
// internal packages (or to this benchmark) takes the sample, and frames of
// the runtime and standard library count toward their caller. Package sim
// is split by source file into its kernel, its fabric solver and its
// domain-parallel group.

// frame is one function in a sampled stack.
type frame struct {
	fn   string // fully qualified function name
	file string // source file path
}

// stackSample is one profile sample: its frames, innermost first, and the
// CPU nanoseconds it stands for.
type stackSample struct {
	frames []frame
	value  int64
}

// layers are the host_share names the benchmark reports; samples of any
// other module go to "other".
var layers = []string{
	"cache", "fsbase", "fsapi", "vast", "gpfs", "device", "netsim",
	"sim.kernel", "sim.fabric", "sim.group",
	"traffic", "resilience", "stats", "dlio", "ior", "trace",
	"bench", "runtime", "other",
}

const internalPrefix = "storagesim/internal/"

// moduleOf names the module a frame belongs to, or "" for a frame of the
// runtime or standard library.
func moduleOf(f frame) string {
	switch {
	case strings.HasPrefix(f.fn, internalPrefix):
		rest := f.fn[len(internalPrefix):]
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if pkg == "sim" {
			return simLayer(path.Base(f.file))
		}
		return pkg
	case strings.HasPrefix(f.fn, "main."), strings.HasPrefix(f.fn, "storagesim/perfbench"):
		return "bench"
	}
	return ""
}

// simLayer splits package sim by source file.
func simLayer(file string) string {
	switch {
	case strings.HasPrefix(file, "domain"):
		return "sim.group"
	case file == "pipe.go" || file == "solver.go" || file == "accounting.go":
		return "sim.fabric"
	}
	return "sim.kernel"
}

// attribute sums sample values per layer. Samples with no repo frame at
// all (GC workers, the scheduler's idle loop) go to "runtime".
func attribute(samples []stackSample) map[string]int64 {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	out := map[string]int64{}
	for _, s := range samples {
		layer := "runtime"
		for _, f := range s.frames {
			if m := moduleOf(f); m != "" {
				layer = m
				break
			}
		}
		if !known[layer] {
			layer = "other"
		}
		out[layer] += s.value
	}
	return out
}

// parseProfile decodes a gzip-compressed pprof profile (the format
// runtime/pprof writes) into stack samples, keeping the "cpu" value.
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type line struct{ fn uint64 }
	type function struct{ name, file int64 }
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		valTypes  []int64 // string index of each sample value's type
		samples   []sample
		locations = map[uint64][]line{}
		functions = map[uint64]function{}
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			valTypes = append(valTypes, typ)
		case 2: // sample
			var s sample
			if err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendPacked(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var lines []line
			if err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					var l line
					if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							l.fn = v
						}
						return nil
					}); err != nil {
						return err
					}
					lines = append(lines, l)
				}
				return nil
			}); err != nil {
				return err
			}
			locations[id] = lines
		case 5: // function
			var id uint64
			var f function
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			functions[id] = f
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	valueIdx := len(valTypes) - 1
	for i, t := range valTypes {
		if str(t) == "cpu" {
			valueIdx = i
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ss := stackSample{value: s.values[valueIdx]}
		for _, id := range s.locs {
			// A location lists inlined functions innermost first.
			for _, l := range locations[id] {
				f := functions[l.fn]
				ss.frames = append(ss.frames, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// eachField walks the top-level fields of a protobuf message, handing each
// to fn with its number, wire type, varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked handles a repeated varint field in either encoding: one
// value per field, or a packed run.
func appendPacked(wire int, v uint64, data []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// The engine layers run inside gpu.Run and have no hook of their own, so
// the traced pass attributes host time to them from a runtime/pprof CPU
// profile. A "self_share" counts samples whose leaf frame is in the package
// or function; a "cum_share" counts samples with the function anywhere on
// the stack. Both are fractions of all samples of the traced pass.

const pkgPrefix = "laperm/internal/"

// selfPackages are the packages with a <pkg>.self_share metric.
var selfPackages = []string{"mem", "smx", "isa", "core", "gpu", "serve", "trace", "exp", "spec", "telemetry", "kernels"}

// selfFuncs and cumFuncs name single functions (by their full symbol) and
// the metrics they feed.
var selfFuncs = map[string][]string{
	"mem.mshr.self_share":  {"laperm/internal/mem.(*mshrTable).lookup"},
	"mem.cache.self_share": {"laperm/internal/mem.(*Cache).Probe", "laperm/internal/mem.(*Cache).access"},
}

var cumFuncs = map[string][]string{
	"serve.cache_put.cum_share":    {"laperm/internal/serve.(*Cache).Put"},
	"serve.cache_read.cum_share":   {"laperm/internal/serve.(*Cache).ReadArtifact"},
	"serve.respond_json.cum_share": {"laperm/internal/serve.writeJSON"},
	"gpu.simulate.cum_share":       {"laperm/internal/gpu.(*Simulator).RunContext"},
	"trace.encode.cum_share": {
		"laperm/internal/trace.WritePerfetto",
		"laperm/internal/trace.(*Recorder).WriteJSONL",
	},
}

// profileShares reads a CPU profile and returns every share metric.
func profileShares(path string) (map[string]value, error) {
	stacks, err := readProfile(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile %s: %w", path, err)
	}
	var total int64
	counts := map[string]int64{}
	for _, st := range stacks {
		total += st.n
		if len(st.funcs) == 0 {
			continue
		}
		leaf := st.funcs[0]
		if pkg, ok := strings.CutPrefix(packageOf(leaf), pkgPrefix); ok {
			counts[pkg+".self_share"] += st.n
		}
		for metric, fns := range selfFuncs {
			for _, fn := range fns {
				if leaf == fn {
					counts[metric] += st.n
				}
			}
		}
		for metric, fns := range cumFuncs {
			if onStack(st.funcs, fns) {
				counts[metric] += st.n
			}
		}
	}
	out := map[string]value{}
	share := func(name string) {
		v := 0.0
		if total > 0 {
			v = float64(counts[name]) / float64(total)
		}
		out[name] = value{v, "ratio", int(total)}
	}
	for _, p := range selfPackages {
		share(p + ".self_share")
	}
	for m := range selfFuncs {
		share(m)
	}
	for m := range cumFuncs {
		share(m)
	}
	return out, nil
}

func onStack(stack, fns []string) bool {
	for _, f := range stack {
		for _, fn := range fns {
			if f == fn {
				return true
			}
		}
	}
	return false
}

// packageOf returns the import path of a symbol such as
// "laperm/internal/mem.(*mshrTable).lookup".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// stack is one profile sample: its count and its function names, leaf
// first (inlined frames expanded).
type stack struct {
	n     int64
	funcs []string
}

// readProfile decodes the gzipped profile.proto that runtime/pprof writes,
// keeping only what the share metrics need: samples (field 2), locations
// (4), functions (5) and the string table (6).
func readProfile(path string) ([]stack, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
	)
	err = eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			var vals []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{n: s.count}
		for _, l := range s.locs {
			for _, fid := range locFns[l] {
				if i := fnName[fid]; i >= 0 && int(i) < len(strs) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func eachField(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short protobuf fixed64")
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad protobuf length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short protobuf fixed32")
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b set) or not.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}

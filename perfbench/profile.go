package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"path"
	"strings"
)

// profLayers lists the prof.* shares in report order. Each CPU-profile
// sample is charged to exactly one of them, so the shares sum to 1.
var profLayers = []string{
	"prof.workloads", "prof.compiler", "prof.isa",
	"prof.core.cpu", "prof.core.cache1p", "prof.core.cache2p", "prof.core.mshr",
	"prof.core.coherence", "prof.core.other",
	"prof.sim", "prof.mem", "prof.experiments",
	"prof.serve", "prof.serve.client", "prof.obs", "prof.bench",
	"prof.syscall", "prof.go.gc", "prof.go.maps", "prof.go.other",
}

// coreFiles maps internal/core source files to layers: each file holds one
// component (the CPU window, a cache class, the MSHR file, the snoop hub).
var coreFiles = map[string]string{
	"cpu.go":       "prof.core.cpu",
	"cache1p.go":   "prof.core.cache1p",
	"cache2p2l.go": "prof.core.cache2p",
	"mshr.go":      "prof.core.mshr",
	"coherence.go": "prof.core.coherence",
}

// gcRoots are runtime functions whose presence anywhere on a stack marks the
// sample as garbage-collector work (background marking, assists, sweeping).
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.sweepone", "runtime.wbBufFlush",
	"runtime.markroot", "runtime.gcDrain",
}

type frame struct{ fn, file string }

// layerOf charges one stack (leaf first) to a layer. Go map operations and
// system calls are charged by the leaf frame; garbage collection by any
// frame; everything else to the nearest frame in the repository, folded by
// package (and inside internal/core by source file).
func layerOf(stack []frame) string {
	if len(stack) == 0 {
		return "prof.go.other"
	}
	for _, f := range stack {
		for _, g := range gcRoots {
			if f.fn == g {
				return "prof.go.gc"
			}
		}
	}
	leaf := stack[0].fn
	switch {
	case strings.HasPrefix(leaf, "runtime.map"), strings.HasPrefix(leaf, "internal/runtime/maps."),
		strings.HasPrefix(leaf, "runtime.memhash"), strings.HasPrefix(leaf, "runtime.strhash"),
		strings.HasPrefix(leaf, "runtime.aeshash"):
		return "prof.go.maps"
	case strings.HasPrefix(leaf, "syscall."), strings.HasPrefix(leaf, "internal/runtime/syscall."),
		strings.HasPrefix(leaf, "runtime/internal/syscall."):
		return "prof.syscall"
	}
	for _, f := range stack {
		pkg, rest, ok := strings.Cut(f.fn, ".")
		if !ok || !strings.HasPrefix(pkg, "mdacache/") {
			continue
		}
		switch pkg {
		case "mdacache/internal/core":
			if l, ok := coreFiles[path.Base(f.file)]; ok {
				return l
			}
			return "prof.core.other"
		case "mdacache/internal/serve":
			if strings.HasPrefix(rest, "(*Client)") {
				return "prof.serve.client"
			}
			return "prof.serve"
		case "mdacache/internal/workloads", "mdacache/internal/compiler", "mdacache/internal/isa",
			"mdacache/internal/sim", "mdacache/internal/mem", "mdacache/internal/experiments",
			"mdacache/internal/obs":
			return "prof." + path.Base(pkg)
		default:
			return "prof.bench"
		}
	}
	return "prof.go.other"
}

// foldProfile decodes a gzipped pprof CPU profile and adds each sample's
// count to its layer in acc.
func foldProfile(data []byte, acc map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64][2]uint64{} // id -> name, filename string indices
		locs    = map[uint64][]uint64{}  // id -> function ids, leaf first
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.vals = appendVarints(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var idx [2]uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					idx[0] = v
				case 4:
					idx[1] = v
				}
				return nil
			})
			funcs[id] = idx
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	var stack []frame
	for _, s := range samples {
		stack = stack[:0]
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				idx := funcs[fid]
				stack = append(stack, frame{fn: str(idx[0]), file: str(idx[1])})
			}
		}
		if len(s.vals) > 0 { // vals[0] is the sample count
			acc[layerOf(stack)] += int64(s.vals[0])
		}
	}
	return nil
}

var errProto = errors.New("perfbench: malformed profile")

// eachField walks the fields of one protobuf message, calling fn with the
// field number and either its varint value or its bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var payload []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, whether it was
// written packed (b) or as a single value (v).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

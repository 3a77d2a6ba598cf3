package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profileLayers are the layers CPU self time is split into, in report
// order. Every package of the repository maps to one of them (see
// layerOf); "other" catches the rest of the standard library.
var profileLayers = []string{
	"rng", "gf", "rs", "interleave", "memsim", "pagesim", "mbusim", "markov", "fault",
	"campaign", "spec", "expdata", "fabric", "gzip", "json", "net", "gc", "runtime", "other",
}

// repoLayers maps each internal package (path below repro/internal/)
// to its profile layer.
var repoLayers = map[string]string{
	"gf":            "gf",
	"gfpoly":        "gf",
	"rs":            "rs",
	"interleave":    "interleave",
	"memsim":        "memsim",
	"arbiter":       "memsim", // the duplex arbiter memsim trials decode through
	"array":         "memsim", // whole-memory Monte Carlo over memsim workers
	"pagesim":       "pagesim",
	"mbusim":        "mbusim",
	"hamming":       "mbusim", // SEC-DED protection mbusim compares against
	"markov":        "markov",
	"simplex":       "markov",
	"duplex":        "markov",
	"tmr":           "markov",
	"core":          "markov",
	"reliability":   "markov",
	"complexity":    "markov",
	"scrub":         "fault", // scrub schedules shared by the simulators
	"burstlen":      "fault", // MBU burst-length draws shared by the simulators
	"campaign":      "campaign",
	"campaign/spec": "spec",
	"expdata":       "expdata",
	"textplot":      "expdata",
	"fabric":        "fabric",
}

// profiler records CPU profiles over the traced parts of a run and
// accumulates their CPU time by layer.
type profiler struct {
	buf bytes.Buffer
	on  bool
	ns  map[string]float64
	err error
}

func newProfiler() *profiler { return &profiler{ns: make(map[string]float64)} }

func (p *profiler) start() {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		p.err = err
		return
	}
	p.on = true
}

// stop ends the current profile and folds it into the layer totals.
func (p *profiler) stop() {
	if !p.on {
		return
	}
	pprof.StopCPUProfile()
	p.on = false
	if err := layerCPU(p.buf.Bytes(), p.ns); err != nil && p.err == nil {
		p.err = err
	}
}

// addShares reports each layer's share of the profiled CPU time.
func (p *profiler) addShares(out *outcome) error {
	if p.err != nil {
		return p.err
	}
	total := 0.0
	for _, v := range p.ns {
		total += v
	}
	for _, l := range profileLayers {
		out.set(l+".cpu_frac", ratio(p.ns[l], total), "frac")
	}
	return nil
}

// gcMarkers identify garbage-collector work among runtime functions.
var gcMarkers = []string{"gc", "scanobject", "greyobject", "markroot", "markbits", "findobject",
	"scanblock", "scanstack", "scanframe", "sweep", "wbbuf", "heapbits", "typepointers"}

// funcPackage returns the import path of a Go symbol name such as
// "repro/internal/rs.(*Decoder).decode" or "slices.Sort[...]".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOf maps a function's symbol name to its profile layer.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		if l, ok := repoLayers[rest]; ok {
			return l
		}
		return "other"
	}
	switch {
	case pkg == "math/rand" || pkg == "math/rand/v2":
		return "rng"
	case pkg == "compress/gzip" || pkg == "compress/flate" || pkg == "hash/crc32":
		return "gzip"
	case pkg == "encoding/json" || pkg == "strconv": // strconv formats the floats of JSON and CSV artifacts
		return "json"
	case strings.HasPrefix(pkg, "net") || strings.HasPrefix(pkg, "crypto") || pkg == "bufio" ||
		strings.HasPrefix(pkg, "vendor/golang.org/x/net"):
		return "net"
	case pkg == "runtime":
		lower := strings.ToLower(fn)
		if strings.Contains(lower, "malloc") {
			return "runtime" // allocation, not collection
		}
		for _, m := range gcMarkers {
			if strings.Contains(lower, m) {
				return "gc"
			}
		}
		return "runtime"
	}
	return "other"
}

// layerCPU parses a gzip-compressed pprof CPU profile and adds each
// layer's sampled CPU nanoseconds into ns, attributing every sample to
// its leaf (innermost, after inlining) function.
func layerCPU(profile []byte, ns map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		layer := "other"
		if fnID, ok := p.locLeaf[s.locs[0]]; ok {
			layer = layerOf(p.strings[p.funcName[fnID]])
		}
		ns[layer] += float64(s.values[len(s.values)-1]) // the last sample value is CPU nanoseconds
	}
	return nil
}

// profileData is the subset of profile.proto the layer split needs.
type profileData struct {
	samples  []profileSample
	locLeaf  map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string table index
	strings  []string
}

type profileSample struct {
	locs   []uint64
	values []int64
}

// protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

var errProto = errors.New("profile: malformed protobuf")

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

// protoFields decodes the top-level fields of one protobuf message.
func protoFields(b []byte, fn func(f protoField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case wireVarint:
			f.value, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case wireI64:
			if len(b) < 8 {
				return errProto
			}
			f.value, b = binary.LittleEndian.Uint64(b), b[8:]
		case wireI32:
			if len(b) < 4 {
				return errProto
			}
			f.value, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field, packed or not.
func varints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == wireVarint {
		return append(dst, f.value), nil
	}
	if f.wire != wireBytes {
		return dst, errProto
	}
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errProto
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

func parseProfile(b []byte) (*profileData, error) {
	p := &profileData{locLeaf: make(map[uint64]uint64), funcName: make(map[uint64]int64)}
	err := protoFields(b, func(f protoField) error {
		switch f.num {
		case 2: // sample
			var s profileSample
			var vals []uint64
			err := protoFields(f.data, func(g protoField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = varints(s.locs, g)
				case 2:
					vals, err = varints(vals, g)
				}
				return err
			})
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id, leaf uint64
			haveLeaf := false
			err := protoFields(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.value
				case 4: // line; the first is the innermost inlined function
					if haveLeaf {
						return nil
					}
					haveLeaf = true
					return protoFields(g.data, func(h protoField) error {
						if h.num == 1 {
							leaf = h.value
						}
						return nil
					})
				}
				return nil
			})
			if haveLeaf {
				p.locLeaf[id] = leaf
			}
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = int64(g.value)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}

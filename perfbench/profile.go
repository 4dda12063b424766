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

// The rsm workloads build their replicas inside rsmbench, so no public
// hook reaches the layers below; the traced run instead takes a CPU
// profile of the benchmark's own process and charges each sample to the
// innermost repro/internal/<pkg> frame on its stack — what
// `go tool pprof -traces` shows, decoded here from the profile's protobuf
// so the benchmark needs no tool at run time. Samples without such a frame
// go to runtime.gc (background GC workers) or other.

// profileLayers lists the layers a profile is split into, in report order.
var profileLayers = []string{
	"sim", "simnet", "core", "consensus", "storage", "trace",
	"rsm", "rsmbench", "scenario", "runtime.gc", "other",
}

// layerOf maps a repro/internal package path (without the prefix) to its
// layer.
func layerOf(pkg string) string {
	switch {
	case pkg == "core/consensus" || strings.HasPrefix(pkg, "core/consensus/"):
		return "consensus"
	case strings.HasPrefix(pkg, "core/"):
		return "core"
	case pkg == "harness" || pkg == "scenario":
		return "scenario"
	case pkg == "sim", pkg == "simnet", pkg == "storage", pkg == "trace", pkg == "rsm", pkg == "rsmbench":
		return pkg
	}
	return "other"
}

// funcLayer returns the layer of a repro/internal function name, or "" for
// functions outside repro/internal.
func funcLayer(name string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(name, prefix) {
		return ""
	}
	rest := name[len(prefix):]
	// The package path ends at the first '.' after the last '/'.
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return layerOf(rest)
	}
	return layerOf(rest[:slash+1+dot])
}

// cpuProfile collects one CPU profile of the running process.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each layer's share of the samples and
// the sample count.
func (p *cpuProfile) stop() (map[string]float64, int64, error) {
	pprof.StopCPUProfile()
	return layerShares(p.buf.Bytes())
}

// layerShares decodes a gzipped pprof profile and splits its samples by
// layer.
func layerShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0] // sample count
		counts[prof.sampleLayer(s.locs)] += n
		total += n
	}
	shares := make(map[string]float64, len(profileLayers))
	for _, l := range profileLayers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, total, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

// sampleLayer charges a stack (leaf first) to its innermost repro/internal
// frame.
func (p *profile) sampleLayer(locs []uint64) string {
	gc := false
	for _, loc := range locs {
		for _, fn := range p.locFuncs[loc] {
			name := p.name(fn)
			if l := funcLayer(name); l != "" {
				return l
			}
			if name == "runtime.gcBgMarkWorker" || name == "runtime.bgsweep" || name == "runtime.bgscavenge" {
				gc = true
			}
		}
	}
	if gc {
		return "runtime.gc"
	}
	return "other"
}

func (p *profile) name(fn uint64) string {
	i := p.funcNames[fn]
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile reads the parts of profile.proto the attribution needs:
// samples (field 2), locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcNames: make(map[uint64]int64)}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s profSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, d)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, d); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

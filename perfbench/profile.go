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

// Layer CPU shares come from a runtime/pprof CPU profile, because rnic,
// fabric, chash, sim.Resource and the join's own allocations are reached
// only inside another layer's call, where the benchmark cannot put a span.
// Only samples of timed phases count, told apart by the profile label
// timedStart sets. Each is charged to the innermost frame that belongs to
// the simulator or the benchmark: runtime and standard-library leaves
// (malloc, memclr, map code, GC assists) count for the layer that called
// them. Samples with no such frame at all — background GC, the scheduler —
// carry no label; they count as the runtime's own.

// layerPackages maps an import-path prefix to the layer it belongs to.
var layerPackages = []struct{ prefix, layer string }{
	{"rdmasem/internal/sim.", "sim"},
	{"rdmasem/internal/verbs.", "verbs"},
	{"rdmasem/internal/rnic.", "rnic"},
	{"rdmasem/internal/fabric.", "fabric"},
	{"rdmasem/internal/mem.", "mem"},
	{"rdmasem/internal/chash.", "chash"},
	{"rdmasem/internal/apps/join.", "join"},
	{"rdmasem/internal/txn.", "txn"},
	{"rdmasem/internal/telemetry.", "telemetry"},
	{"main.", "bench"},
	{"rdmasem/perfbench.", "bench"}, // the same code, compiled as a test
}

// shareLayers are the layers a share is reported for; "other" collects the
// simulator packages no metric names (core, shuffle, dlog, cluster, ...).
var shareLayers = []string{"sim", "verbs", "rnic", "fabric", "mem", "chash", "join", "txn", "telemetry", "bench", "runtime", "other"}

// layerOf maps a fully qualified function name to a layer, or "" for a
// frame outside the simulator and the benchmark.
func layerOf(fn string) string {
	for _, p := range layerPackages {
		if strings.HasPrefix(fn, p.prefix) {
			return p.layer
		}
	}
	if strings.HasPrefix(fn, "rdmasem/") {
		return "other"
	}
	return ""
}

// profileShares decodes a gzipped pprof CPU profile and returns each
// layer's share of sampled CPU time, and the number of samples.
func profileShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	funcLayer := map[uint64]string{}
	for id, nameIdx := range p.funcName {
		if nameIdx < uint64(len(p.strings)) {
			funcLayer[id] = layerOf(p.strings[nameIdx])
		}
	}
	labelKey, labelValue := -1, -1
	for i, str := range p.strings {
		switch str {
		case timedLabelKey:
			labelKey = i
		case timedLabelValue:
			labelValue = i
		}
	}
	ns := map[string]int64{}
	var total, samples int64
	for _, s := range p.samples {
		layer := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] { // innermost inlined frame first
				if l := funcLayer[fn]; l != "" {
					layer = l
					break frames
				}
			}
		}
		isTimed := s.labelKey == labelKey && s.labelValue == labelValue && labelKey >= 0
		if !isTimed && layer != "runtime" {
			continue // set-up or checks
		}
		ns[layer] += s.value
		total += s.value
		samples += s.count
	}
	shares := map[string]float64{}
	for _, l := range shareLayers {
		if total > 0 {
			shares[l] = float64(ns[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, samples, nil
}

// profile is the part of a pprof profile.proto the shares need.
type profile struct {
	strings  []string
	funcName map[uint64]uint64   // function id -> string index
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	samples  []sample
}

type sample struct {
	locs                 []uint64 // leaf first
	count                int64    // samples
	value                int64    // CPU nanoseconds
	labelKey, labelValue int      // string indices of the sample's label; -1 for none
}

// decodeProfile reads the protobuf wire format of profile.proto: fields 2
// (sample, with its locations, values and label), 4 (location), 5
// (function) and 6 (string_table).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{funcName: map[uint64]uint64{}, locFuncs: map[uint64][]uint64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			s := sample{labelKey: -1, labelValue: -1}
			var vals []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendScalars(s.locs, w, v, d)
				case 2:
					vals = appendScalars(vals, w, v, d)
				case 3:
					return eachField(d, func(lf, _ int, lv uint64, _ []byte) error {
						switch lf {
						case 1:
							s.labelKey = int(lv)
						case 2:
							s.labelValue = int(lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) >= 2 {
				s.count, s.value = int64(vals[0]), int64(vals[1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5:
			var id, name uint64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, handing each field's number, wire
// type, varint value (wire type 0) or bytes (wire type 2) to fn.
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
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendScalars appends a repeated varint field, packed or not.
func appendScalars(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

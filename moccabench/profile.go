package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuSample is one decoded profile sample: its CPU time and its call
// stack as function names, innermost frame first (inlined frames
// included, in call order).
type cpuSample struct {
	cpuNS int64
	stack []string
}

// decodeCPUProfile parses the gzipped protobuf that runtime/pprof writes
// (perftools.profiles.Profile). Only the fields a per-package split
// needs are read: samples, locations, functions and the string table.
func decodeCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples    []rawSample
		locLines   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName   = map[uint64]int64{}    // function id -> string index
		strs       []string
		valueTypes []int64 // string index of each sample value's type
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					valueTypes = append(valueTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, wt int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, wt, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, wt, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
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

	cpuIdx := -1
	for i, t := range valueTypes {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	lookup := func(fid uint64) string {
		if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, errors.New("profile: sample without cpu value")
		}
		cs := cpuSample{cpuNS: s.values[cpuIdx]}
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				cs.stack = append(cs.stack, lookup(fid))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message. Varint
// fields arrive in v, length-delimited fields in b; fixed-width fields
// are skipped (the profile messages read here use none).
func eachField(msg []byte, fn func(num, wireType int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints adds a repeated varint field's values, which the encoder
// may write packed (one length-delimited run) or one field per value.
func appendVarints(dst *[]uint64, wireType int, v uint64, b []byte) error {
	if wireType == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

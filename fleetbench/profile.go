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

// profilePackages are the repo packages whose CPU share the traced run
// reports, plus gcBucket for the garbage collector.
var profilePackages = []string{
	"netsim", "packet", "datapath", "nox", "core", "policy",
	"measure", "hwdb", "telemetry", "flight", "shardrpc",
}

const gcBucket = "runtime_gc"

// profileShares decodes a gzipped pprof CPU profile and returns each
// bucket's share of the sampled CPU time. A sample whose stack runs
// through the garbage collector is charged to gcBucket; any other sample
// to the innermost frame that belongs to a repo package (so runtime and
// standard-library leaves are charged to the repo code that called them),
// or to "other" when no repo frame is on the stack.
func profileShares(gz []byte, repoPrefix string) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	byBucket := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds in Go's CPU profiles
		total += v
		byBucket[p.bucket(s.locs, repoPrefix)] += v
	}
	out := map[string]float64{}
	for k, v := range byBucket {
		if total > 0 {
			out[k] = float64(v) / float64(total)
		}
	}
	return out, nil
}

type pSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples []pSample
	locFns  map[uint64][]uint64 // location → function ids, innermost first
	fnName  map[uint64]int64    // function → string-table index
	strs    []string
}

func (p *profile) bucket(locs []uint64, repoPrefix string) string {
	repo := ""
	for _, l := range locs {
		for _, fn := range p.locFns[l] {
			name := p.str(p.fnName[fn])
			if isGC(name) {
				return gcBucket
			}
			if repo == "" && strings.HasPrefix(name, repoPrefix) {
				repo = pkgOf(name)
			}
		}
	}
	if repo == "" {
		return "other"
	}
	return repo
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// isGC reports whether a runtime function belongs to the collector:
// mark workers and assists, sweeping, scavenging and write-barrier
// flushes.
func isGC(name string) bool {
	if !strings.HasPrefix(name, "runtime.") {
		return false
	}
	if strings.HasPrefix(name, "runtime.gc") {
		return true
	}
	for _, s := range []string{"sweep", "scavenge", "markroot", "scanobject", "wbBufFlush"} {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

// pkgOf returns the last element of a function's package path:
// "repro/internal/fleet/shardrpc.(*Client).call" → "shardrpc".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		fn = fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return fn
}

// decodeProfile reads the fields of profile.proto the shares need:
// samples, locations (with their inlined lines), functions and the
// string table.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFns: map[uint64][]uint64{}, fnName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 2: // sample
			var s pSample
			err := eachField(sub, func(n, w int, v uint64, sub []byte) error {
				switch n {
				case 1:
					return varints(w, v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(w, v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(sub, func(n, w int, v uint64, sub []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(sub, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(sub, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.fnName[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and either its varint value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
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
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated varint field in either encoding: one value
// per field (wire type 0) or packed into bytes (wire type 2).
func varints(wire int, v uint64, sub []byte, yield func(uint64)) error {
	if wire == 0 {
		yield(v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errTruncated
		}
		yield(x)
		sub = sub[n:]
	}
	return nil
}

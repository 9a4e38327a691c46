package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/hwdb"
)

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set so far.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// vitals is one reading of the Go runtime's own books.
type vitals struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64 // seconds; advance only when a GC cycle ends
}

var vitalNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readVitals() vitals {
	s := make([]metrics.Sample, len(vitalNames))
	for i, n := range vitalNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return vitals{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// gcFrac is the GC's share of CPU between two readings. The runtime only
// updates its CPU classes when a GC cycle ends, so with no cycle in
// between the share is reported as 0.
func gcFrac(a, b vitals) float64 {
	if b.gcCycles == a.gcCycles || b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// liveHeap forces a GC and returns the bytes it found live, so memory
// retained by rings, flow tables and the recorder is what is counted.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// books is a fleet-wide reading of the counters the checks and the
// per-layer metrics are deltas of, summed over every home.
type books struct {
	frames, punts      uint64 // datapath port rx packets, punts to the controller
	admitted, denied   uint64 // forwarder flow decisions
	inserts, dropped   uint64 // watched hwdb tables
	delivered, lost    uint64 // federated hub books
	recDelivered       uint64 // flight recorder books
	recView, recStored uint64
	recCompacted       uint64
}

func readBooks(r *rig) books {
	var b books
	for _, h := range r.homes {
		rt := h.Router
		for _, p := range rt.Datapath.Ports() {
			b.frames += p.Stats().RxPackets
		}
		b.punts += rt.Datapath.PuntCount()
		a, d := rt.Forwarder.Counters()
		b.admitted += a
		b.denied += d
		for _, name := range fleet.WatchedTables() {
			if t, ok := rt.DB.Table(name); ok {
				ins, drop := t.Stats()
				b.inserts += ins
				b.dropped += drop
			}
		}
	}
	fs := r.f.Hub().Stats()
	b.delivered, b.lost = fs.Delivered, fs.Lost
	rs := r.rec.Stats()
	b.recDelivered, b.recView, b.recStored, b.recCompacted = rs.Delivered, rs.ViewRows, rs.Stored, rs.Compacted
	return b
}

// measureTables are the hwdb tables a measurement poll writes.
var measureTables = []string{hwdb.TableFlows, hwdb.TableFlowPerf, hwdb.TableLinks}

// measureInserts sums one home's inserts into the tables a poll writes.
func measureInserts(db *hwdb.DB) uint64 {
	var n uint64
	for _, name := range measureTables {
		if t, ok := db.Table(name); ok {
			ins, _ := t.Stats()
			n += ins
		}
	}
	return n
}

// quantile returns the q-quantile of ds by the nearest-rank method.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

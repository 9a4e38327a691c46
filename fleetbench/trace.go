package main

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/engine"
)

// Span names, one per layer boundary the benchmark calls across.
const (
	spanTick       = "tick"           // one fleet tick (Coordinator.Step on remote fleets)
	spanShardStep  = "shard.step"     // one shard's barrier share of a tick
	spanShardSync  = "shard.sync"     // a remote worker's Engine.Sync
	spanNetStep    = "netsim.step"    // Router.Net.Step, which drives the datapath fast path
	spanSettle     = "core.settle"    // Router.Settle
	spanPoll       = "measure.poll"   // Router.PollMeasure
	spanSync       = "telemetry.sync" // Coordinator.Sync
	spanParse      = "hwdb.parse"     // hwdb.Parse of the Figure-1 query
	spanSelect     = "hwdb.select"    // DB.Select of the Figure-1 query
	spanFleetQuery = "hwdb.fleet_query"
)

// span is one timed call; start and end are nanoseconds since the log's
// epoch, parent is 0 for a root.
type span struct {
	id, parent uint64
	name       string
	tick       int32 // -1 outside the tick loop
	shard      int16 // -1 for coordinator-side spans
	home       int32 // -1 when not a per-home call
	start, end int64
}

// spanLog keeps every span in memory until the run writes them out. Each
// recording goroutine owns one buffer; the mutex only orders the final
// read against the writers.
type spanLog struct {
	epoch  time.Time
	nextID atomic.Uint64
	bufs   []*spanBuf
}

type spanBuf struct {
	log   *spanLog
	mu    sync.Mutex
	spans []span
	// Measurement-poll books: rows the polls on this buffer's goroutine
	// inserted, and how many polls ran.
	pollRows, polls uint64
}

// newSpanLog makes one buffer for the coordinator side (index 0) and one
// per shard. The buffers grow only once the traced window records, so the
// untraced window's heap reading does not count them.
func newSpanLog() *spanLog {
	l := &spanLog{epoch: time.Now()}
	for i := 0; i <= shards; i++ {
		l.bufs = append(l.bufs, &spanBuf{log: l})
	}
	return l
}

func (l *spanLog) now() int64      { return int64(time.Since(l.epoch)) }
func (l *spanLog) newID() uint64   { return l.nextID.Add(1) }
func (l *spanLog) coord() *spanBuf { return l.bufs[0] }
func (l *spanLog) shard(s int) *spanBuf {
	return l.bufs[s+1]
}

func (b *spanBuf) add(s span) {
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// all returns every recorded span.
func (l *spanLog) all() []span {
	var out []span
	for _, b := range l.bufs {
		b.mu.Lock()
		out = append(out, b.spans...)
		b.mu.Unlock()
	}
	return out
}

// durations returns the durations of every span with the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.name == name {
			out = append(out, time.Duration(s.end-s.start))
		}
	}
	return out
}

// write stores the spans as gzipped tab-separated lines: id, parent,
// name, tick, shard, home, start_ns, end_ns.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\tname\ttick\tshard\thome\tstart_ns\tend_ns")
	for _, s := range l.all() {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n", s.id, s.parent, s.name, s.tick, s.shard, s.home, s.start, s.end)
	}
	err = errors.Join(bw.Flush(), zw.Close())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// stepShard steps one shard's homes in ascending ID order exactly as the
// engine does — traffic, settle, measurement poll — recording a span
// around each call. Like the engine it keeps stepping after a failed home
// and returns the first error, naming the home.
func stepShard(b *spanBuf, homes []*fleet.Home, dt float64, tick int32, shard int, parent uint64) error {
	l := b.log
	id := l.newID()
	start := l.now()
	var first error
	for _, h := range homes {
		home := int32(h.ID)
		rt := h.Router

		t0 := l.now()
		rt.Net.Step(dt)
		t1 := l.now()
		b.add(span{id: l.newID(), parent: id, name: spanNetStep, tick: tick, shard: int16(shard), home: home, start: t0, end: t1})

		err := rt.Settle()
		t2 := l.now()
		b.add(span{id: l.newID(), parent: id, name: spanSettle, tick: tick, shard: int16(shard), home: home, start: t1, end: t2})
		if err != nil {
			if first == nil {
				first = fmt.Errorf("fleet: home %d: %w", h.ID, err)
			}
			continue
		}

		rows0 := measureInserts(rt.DB)
		t3 := l.now()
		rt.PollMeasure()
		t4 := l.now()
		rows := measureInserts(rt.DB) - rows0
		b.add(span{id: l.newID(), parent: id, name: spanPoll, tick: tick, shard: int16(shard), home: home, start: t3, end: t4})
		b.mu.Lock()
		b.pollRows += rows
		b.polls++
		b.mu.Unlock()
	}
	b.add(span{id: id, parent: parent, name: spanShardStep, tick: tick, shard: int16(shard), home: -1, start: start, end: l.now()})
	return first
}

// tracedTickInProcess is Coordinator.Step driven by hand so each layer
// can be timed: one goroutine per shard steps that shard's homes, then —
// after the barrier — the benchmark-owned simulated clock advances by dt
// and Coordinator.Sync runs.
func tracedTickInProcess(r *rig, l *spanLog, perShard [][]*fleet.Home, tick int32) (time.Duration, error) {
	id := l.newID()
	start := l.now()
	errs := make([]error, len(perShard))
	var wg sync.WaitGroup
	for s, homes := range perShard {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = stepShard(l.shard(s), homes, dt, tick, s, id)
		}()
	}
	wg.Wait()
	r.clk.Advance(time.Duration(dt * float64(time.Second)))
	s0 := l.now()
	r.f.Sync()
	end := l.now()
	l.coord().add(span{id: l.newID(), parent: id, name: spanSync, tick: tick, shard: -1, home: -1, start: s0, end: end})
	l.coord().add(span{id: id, name: spanTick, tick: tick, shard: -1, home: -1, start: start, end: end})
	return time.Duration(end - start), errors.Join(errs...)
}

// tickRef is the coordinator's current tick, read by the remote workers'
// timing decorators to parent their spans.
type tickRef struct {
	id   atomic.Uint64
	tick atomic.Int32
}

// tracedTickRemote times Coordinator.Step on a remote fleet, whose homes
// the coordinator cannot step by hand: the workers' timing decorators
// record the shard-side spans.
func tracedTickRemote(r *rig, l *spanLog, ref *tickRef, tick int32) (time.Duration, error) {
	id := l.newID()
	ref.id.Store(id)
	ref.tick.Store(tick)
	start := l.now()
	err := r.f.Step(dt)
	end := l.now()
	l.coord().add(span{id: id, name: spanTick, tick: tick, shard: -1, home: -1, start: start, end: end})
	return time.Duration(end - start), err
}

// deriveRemoteSync adds, for each remote tick, the coordinator's Sync
// phase as a span: from the first worker's Sync entry to the return of
// Coordinator.Step, which calls Sync last. It returns each tick's
// shardrpc overhead: the coordinator tick minus the slowest worker's
// Step plus Sync.
func deriveRemoteSync(l *spanLog) []time.Duration {
	type shardTimes struct {
		step, sync int64
		syncStart  int64
	}
	spans := l.all()
	per := map[int32]map[int16]*shardTimes{}
	for _, s := range spans {
		if s.name != spanShardStep && s.name != spanShardSync {
			continue
		}
		m := per[s.tick]
		if m == nil {
			m = map[int16]*shardTimes{}
			per[s.tick] = m
		}
		st := m[s.shard]
		if st == nil {
			st = &shardTimes{}
			m[s.shard] = st
		}
		if s.name == spanShardStep {
			st.step = s.end - s.start
		} else {
			st.sync = s.end - s.start
			st.syncStart = s.start
		}
	}
	var overhead []time.Duration
	for _, s := range spans {
		if s.name != spanTick {
			continue
		}
		m := per[s.tick]
		if len(m) == 0 {
			continue
		}
		var slowest int64
		syncStart := s.end
		for _, st := range m {
			slowest = max(slowest, st.step+st.sync)
			if st.syncStart > 0 {
				syncStart = min(syncStart, st.syncStart)
			}
		}
		overhead = append(overhead, time.Duration(s.end-s.start-slowest))
		l.coord().add(span{id: l.newID(), parent: s.id, name: spanSync, tick: s.tick, shard: -1, home: -1, start: syncStart, end: s.end})
	}
	return overhead
}

// timedBackend is the worker-side timing decorator of a remote shard:
// while on, its Step drives the engine's homes by hand (as the engine
// would) with a span around each layer call, and its Sync is timed;
// while off it is the engine itself.
type timedBackend struct {
	*engine.Engine
	shard int
	log   *spanLog
	ref   *tickRef
	on    atomic.Bool

	mu    sync.Mutex
	homes []*fleet.Home
}

func (b *timedBackend) setHomes(hs []*fleet.Home) {
	b.mu.Lock()
	b.homes = hs
	b.mu.Unlock()
}

func (b *timedBackend) Step(dt float64) error {
	if !b.on.Load() {
		return b.Engine.Step(dt)
	}
	b.mu.Lock()
	homes := b.homes
	b.mu.Unlock()
	return stepShard(b.log.shard(b.shard), homes, dt, b.ref.tick.Load(), b.shard, b.ref.id.Load())
}

func (b *timedBackend) Sync() {
	if !b.on.Load() {
		b.Engine.Sync()
		return
	}
	l := b.log
	start := l.now()
	b.Engine.Sync()
	l.shard(b.shard).add(span{id: l.newID(), parent: b.ref.id.Load(), name: spanShardSync,
		tick: b.ref.tick.Load(), shard: int16(b.shard), home: -1, start: start, end: l.now()})
}

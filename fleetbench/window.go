package main

import (
	"fmt"
	"regexp"
	"strconv"
	"time"

	"repro/internal/fleet"
	"repro/internal/hwdb"
)

// window is what one stretch of ticks measured: the warm-up, the timed
// window or a query window.
type window struct {
	ticks   int
	wall    time.Duration
	cpu     time.Duration   // process user+sys CPU over the window
	tick    []time.Duration // per Coordinator.Step (or traced tick)
	before  books
	after   books
	vBefore vitals
	vAfter  vitals
	heap    uint64 // live heap after the window, forced GC

	homeSteps, failedSteps int
	queries                queryTimes
	stepErrs               []error
}

// queryTimes collects dashboard query latencies and failures. With spans
// set (a traced run) the home query is timed as its two parts, hwdb.Parse
// and DB.Select, and every query is recorded as a span.
type queryTimes struct {
	home, fleet   []time.Duration
	parse, selct  []time.Duration // traced split of the home query
	attempted     int
	failed        int
	firstFailure  error
	emptyFailures int

	spans *spanBuf
	tick  int32 // the tick the queries follow; -1-t for tick t of a query window
}

func (q *queryTimes) fail(err error) {
	q.failed++
	if q.firstFailure == nil {
		q.firstFailure = err
	}
}

// homeRe finds the home a Step error names ("fleet: home 12: ...").
var homeRe = regexp.MustCompile(`home (\d+)`)

// failedHomes counts the home-steps a Step error fails: each home the
// error names, or every home when it names none.
func failedHomes(err error, homes int) int {
	seen := map[uint64]bool{}
	for _, m := range homeRe.FindAllStringSubmatch(err.Error(), -1) {
		if id, perr := strconv.ParseUint(m[1], 10, 64); perr == nil {
			seen[id] = true
		}
	}
	if len(seen) == 0 || len(seen) > homes {
		return homes
	}
	return len(seen)
}

// runWindow drives ticks closed-loop through Coordinator.Step from this
// goroutine: the next tick, and that tick's dashboard queries, start only
// after the previous ones return.
func runWindow(r *rig, ticks int) *window {
	w := &window{ticks: ticks, tick: make([]time.Duration, 0, ticks)}
	w.before = readBooks(r)
	liveHeap() // start from a collected heap
	w.vBefore = readVitals()
	cpu0 := cpuTime()
	start := time.Now()
	for t := 0; t < ticks; t++ {
		t0 := time.Now()
		err := r.f.Step(dt)
		w.tick = append(w.tick, time.Since(t0))
		w.countStep(err, len(r.homes))
		if r.w.dashboard {
			dashboard(r, &w.queries, t)
		}
	}
	w.wall = time.Since(start)
	w.cpu = cpuTime() - cpu0
	w.vAfter = readVitals()
	w.after = readBooks(r)
	w.heap = liveHeap()
	return w
}

func (w *window) countStep(err error, homes int) {
	w.homeSteps += homes
	if err != nil {
		w.failedSteps += failedHomes(err, homes)
		if len(w.stepErrs) < 4 {
			w.stepErrs = append(w.stepErrs, err)
		}
	}
}

// dashboard runs the queries due after tick t (0-based) of a dashboard
// workload's window: the Figure-1 query on every home when the tick ends
// a simulated second, then the fleet view query, which refreshes every
// tick so that its p99 has ten samples beyond it.
func dashboard(r *rig, q *queryTimes, t int) {
	q.tick = int32(t)
	if (t+1)%int(1/dt) == 0 {
		for _, h := range r.homes {
			q.home = append(q.home, homeQuery1(h, q))
		}
	}
	q.fleet = append(q.fleet, fleetQuery1(r, q))
}

// queryWindow times the dashboard on a workload whose timed window runs
// none: it keeps stepping the fleet past the window, untimed, and after
// each tick runs perTick home queries (round-robin over the homes) and
// perTick fleet queries. The queries read a live, busy fleet, spread over
// seconds of the run rather than one burst, while their own allocations
// stay out of the timed window.
func queryWindow(r *rig, ticks, perTick int, spans *spanBuf) *window {
	w := &window{queries: queryTimes{spans: spans}}
	i := 0
	for t := 0; t < ticks; t++ {
		w.countStep(r.f.Step(dt), len(r.homes))
		w.queries.tick = int32(-1 - t)
		for j := 0; j < perTick; j++ {
			h := r.homes[i%len(r.homes)]
			i++
			w.queries.home = append(w.queries.home, homeQuery1(h, &w.queries))
			w.queries.fleet = append(w.queries.fleet, fleetQuery1(r, &w.queries))
		}
	}
	return w
}

// homeQuery1 runs the Figure-1 query once on one home.
func homeQuery1(h *fleet.Home, q *queryTimes) time.Duration {
	q.attempted++
	if q.spans == nil {
		t0 := time.Now()
		res, err := h.Router.DB.Query(homeQuery)
		d := time.Since(t0)
		checkResult(res, err, homeQuery, q)
		return d
	}
	l := q.spans.log
	t0 := l.now()
	st, err := hwdb.Parse(homeQuery)
	t1 := l.now()
	q.spans.add(span{id: l.newID(), name: spanParse, tick: q.tick, shard: -1, home: int32(h.ID), start: t0, end: t1})
	if err != nil {
		q.fail(err)
		return time.Duration(t1 - t0)
	}
	sel, ok := st.(*hwdb.SelectStmt)
	if !ok {
		q.fail(fmt.Errorf("not a SELECT: %s", homeQuery))
		return time.Duration(t1 - t0)
	}
	res, err := h.Router.DB.Select(sel)
	t2 := l.now()
	q.spans.add(span{id: l.newID(), name: spanSelect, tick: q.tick, shard: -1, home: int32(h.ID), start: t1, end: t2})
	q.parse = append(q.parse, time.Duration(t1-t0))
	q.selct = append(q.selct, time.Duration(t2-t1))
	checkResult(res, err, homeQuery, q)
	return time.Duration(t2 - t0)
}

// fleetQuery1 runs the fleet view query once on the coordinator.
func fleetQuery1(r *rig, q *queryTimes) time.Duration {
	q.attempted++
	t0 := time.Now()
	res, err := r.f.DB().Query(fleetQuery)
	d := time.Since(t0)
	if q.spans != nil {
		l := q.spans.log
		end := l.now()
		q.spans.add(span{id: l.newID(), name: spanFleetQuery, tick: q.tick, shard: -1, home: -1, start: end - int64(d), end: end})
	}
	checkResult(res, err, fleetQuery, q)
	return d
}

// checkResult fails a query that errored or returned no rows.
func checkResult(res *hwdb.Result, err error, cql string, q *queryTimes) {
	switch {
	case err != nil:
		q.fail(fmt.Errorf("%s: %w", cql, err))
	case res == nil || len(res.Rows) == 0:
		q.emptyFailures++
		q.fail(fmt.Errorf("%s: no rows", cql))
	}
}

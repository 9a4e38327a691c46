// Command fleetbench is the repository's benchmark: it drives a fleet of
// Homework routers through one named workload and prints the end-to-end
// metrics (or, with --trace 1, the per-layer split) as the last line of
// its output, one JSON object. See README.md for the workloads, the
// metrics and what each per-layer metric should move.
//
//	bash fleetbench/run.sh --workload web-churn --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/fleet"
)

// setupRuns is how many times a run builds its fleet to report the
// median set-up time; the last build is the one measured.
const setupRuns = 9

// outDir holds what runs leave behind: span logs and the fingerprint log.
const outDir = ".bench_build/fleetbench"

const mib = 1 << 20

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "run length; the timed tick count is a fixed multiple of it")
	traced := fs.Int("trace", 0, "1: report the per-layer split from a traced run instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "fleetbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := bench(w, *seed, ticksPerSecond**seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	res.fp.Seconds, res.fp.Traced = *seconds, *traced == 1
	res.print()
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	w         workload
	seed      int64
	ticks     int
	attempted int
	failed    int
	bad       []string
	metrics   map[string]metric
	fp        fingerprint
	phases    []string // wall time of each phase of the run, for the summary
}

// phase records the wall time since the previous mark under name.
func (r *result) phase(name string, since *time.Time) {
	now := time.Now()
	r.phases = append(r.phases, fmt.Sprintf("%s %.1fs", name, now.Sub(*since).Seconds()))
	*since = now
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// print writes a readable summary, then the result object as the last
// line of standard output.
func (r *result) print() {
	fmt.Printf("fleetbench %s: seed %d, %d homes, %d shards, %d timed ticks of %gs\n",
		r.w.name, r.seed, r.w.homes, shards, r.ticks, dt)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.4f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	fmt.Printf("  %-36s %14.6f ratio (%d failed of %d attempted home-steps and queries)\n",
		"error_rate", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	if lo, hi, runs, err := recordFingerprint(outDir, r.fp); err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: fingerprint log: %v\n", err)
	} else {
		fmt.Printf("  fingerprint: flows rows %d, bytes %d, rows delivered %d\n", r.fp.FlowsRows, r.fp.Bytes, r.fp.Delivered)
		fmt.Printf("  spread over %d logged runs of this workload, seed, length and trace mode: flows rows %d..%d, bytes %d..%d, delivered %d..%d\n",
			runs, lo.FlowsRows, hi.FlowsRows, lo.Bytes, hi.Bytes, lo.Delivered, hi.Delivered)
	}
	fmt.Printf("  wall time by phase: %s; peak resident set %.0f MiB\n", strings.Join(r.phases, ", "), maxRSSMiB())
	for _, b := range r.bad {
		fmt.Printf("  CHECK FAILED: %s\n", b)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.bad) == 0, r.attempted, r.failed, r.metrics})
	fmt.Println(string(line))
}

// bench runs one workload: set-up (several times, for a steady set-up
// time), warm-up past the flow idle timeout, the untraced timed window
// and, when traced, a traced window on the same fleet.
func bench(w workload, seed int64, ticks int, traced bool) (*result, error) {
	var tr *tracing
	if traced {
		tr = &tracing{log: newSpanLog()}
	}
	res := &result{w: w, seed: seed, ticks: ticks, metrics: map[string]metric{}}
	mark := time.Now()
	var setups []float64
	var r *rig
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		ri, err := build(w, seed, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			ri.stop()
			runtime.GC() // the next build starts from the same heap
			continue
		}
		r = ri
	}
	defer r.stop()
	res.phase("set-up", &mark)

	warm := &window{}
	for i := 0; i < warmTicks; i++ {
		warm.countStep(r.f.Step(dt), len(r.homes))
	}
	res.phase("warm-up", &mark)

	uw := runWindow(r, ticks)
	res.phase("window", &mark)
	windows := []*window{warm, uw}
	q := &uw.queries

	var tw *tracedWindow
	if traced {
		tw = runTracedWindow(r, tr, ticks)
		res.phase("traced window", &mark)
		windows = append(windows, &tw.window)
		q = &tw.queries
	}
	if !w.dashboard {
		qw := queryWindow(r, w.queryTicks, w.queriesPerTick, q.spans)
		res.phase("query window", &mark)
		windows = append(windows, qw)
		q = &qw.queries
	}
	var stepErrs []error
	var qs []*queryTimes
	for _, x := range windows {
		res.attempted += x.homeSteps + x.queries.attempted
		res.failed += x.failedSteps + x.queries.failed
		stepErrs = append(stepErrs, x.stepErrs...)
		qs = append(qs, &x.queries)
	}
	res.bad = checkRun(r, uw, stepErrs, qs)
	res.phase("checks", &mark)
	t := r.f.Totals()
	res.fp = fingerprint{Workload: w.name, Seed: seed, FlowsRows: t.Flows, Bytes: t.Bytes, Delivered: r.f.Hub().Stats().Delivered}

	if traced {
		if err := layerMetrics(res, r, uw, tw, tr.log.all(), q); err != nil {
			return nil, err
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.tsv.gz", w.name, seed))
		if err := tr.log.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
		return res, nil
	}
	endToEnd(res, r, uw, q, setups)
	return res, nil
}

// endToEnd fills the metrics a user of the fleet would see, from the
// untraced window.
func endToEnd(res *result, r *rig, uw *window, q *queryTimes, setups []float64) {
	homeSteps := float64(uw.ticks * len(r.homes))
	res.set("home_steps_per_s", homeSteps/uw.wall.Seconds(), "1/s")
	res.set("cpu_us_per_home_step", us(uw.cpu)/homeSteps, "us")
	res.set("tick_p50_ms", ms(quantile(uw.tick, 0.50)), "ms")
	res.set("tick_p99_ms", ms(quantile(uw.tick, 0.99)), "ms")
	res.set("query_p50_us", us(quantile(q.home, 0.50)), "us")
	res.set("fleet_query_p50_us", us(quantile(q.fleet, 0.50)), "us")
	res.set("heap_per_home_mib", float64(uw.heap)/mib/float64(len(r.homes)), "MiB")
	res.set("setup_s", medianFloat(setups), "s")
}

// tracedWindow is what the traced window measured beyond the spans.
type tracedWindow struct {
	window
	log          *spanLog
	profile      []byte
	tableEntries float64 // mean flow-table entries per home over the ticks
	overhead     []time.Duration
}

// runTracedWindow drives the same fleet for another ticks ticks with a
// span around every layer call and the CPU profiler on.
func runTracedWindow(r *rig, tr *tracing, ticks int) *tracedWindow {
	tw := &tracedWindow{window: window{ticks: ticks, tick: make([]time.Duration, 0, ticks)}, log: tr.log}
	tw.queries.spans = tr.log.coord()
	l := tr.log
	perShard := make([][]*fleet.Home, shards)
	for s := range perShard {
		perShard[s] = r.shardHomes(s)
	}
	for _, tb := range r.timed {
		tb.on.Store(true)
	}
	var prof bytes.Buffer
	profErr := pprof.StartCPUProfile(&prof)
	tw.before = readBooks(r)
	var entries float64
	for t := 0; t < ticks; t++ {
		var d time.Duration
		var err error
		if r.w.remote {
			d, err = tracedTickRemote(r, l, &tr.ref, int32(t))
		} else {
			d, err = tracedTickInProcess(r, l, perShard, int32(t))
		}
		tw.tick = append(tw.tick, d)
		tw.countStep(err, len(r.homes))
		if r.w.dashboard {
			dashboard(r, &tw.queries, t)
		}
		var n int
		for _, h := range r.homes {
			n += h.Router.Datapath.Table().Len()
		}
		entries += float64(n) / float64(len(r.homes))
	}
	tw.after = readBooks(r)
	if profErr == nil {
		pprof.StopCPUProfile()
		tw.profile = prof.Bytes()
	}
	for _, tb := range r.timed {
		tb.on.Store(false)
	}
	tw.tableEntries = entries / float64(ticks)
	if r.w.remote {
		tw.overhead = deriveRemoteSync(l)
	}
	return tw
}

// layerMetrics fills the per-layer split: counts and spans from the
// traced window, runtime vitals from the untraced window that precedes
// it on the same fleet, so tracing's own allocations are not counted.
func layerMetrics(res *result, r *rig, uw *window, tw *tracedWindow, spans []span, q *queryTimes) error {
	homes := float64(len(r.homes))
	ticks := float64(tw.ticks)
	homeSteps := ticks * homes
	d := func(f func(b books) uint64) float64 { return float64(f(tw.after) - f(tw.before)) }
	frames := d(func(b books) uint64 { return b.frames })

	res.set("netsim.step_us_p50", us(quantile(durations(spans, spanNetStep), 0.5)), "us")
	res.set("netsim.frames_per_home_step", frames/homeSteps, "count")
	puntFrac := 0.0
	if frames > 0 {
		puntFrac = d(func(b books) uint64 { return b.punts }) / frames
	}
	res.set("datapath.punt_frac", puntFrac, "ratio")
	res.set("datapath.table_entries", tw.tableEntries, "count")
	settle := durations(spans, spanSettle)
	res.set("core.settle_us_p50", us(quantile(settle, 0.5)), "us")
	res.set("core.settle_us_p99", us(quantile(settle, 0.99)), "us")
	res.set("core.admitted_per_home_step", d(func(b books) uint64 { return b.admitted })/homeSteps, "count")
	res.set("measure.poll_us_p50", us(quantile(durations(spans, spanPoll), 0.5)), "us")
	var pollRows, polls uint64
	for _, b := range tw.log.bufs {
		b.mu.Lock()
		pollRows, polls = pollRows+b.pollRows, polls+b.polls
		b.mu.Unlock()
	}
	res.set("measure.rows_per_poll", float64(pollRows)/float64(max(polls, 1)), "count")
	res.set("hwdb.inserts_per_home_step", d(func(b books) uint64 { return b.inserts })/homeSteps, "count")
	res.set("hwdb.dropped", d(func(b books) uint64 { return b.dropped }), "count")
	res.set("hwdb.parse_us_p50", us(quantile(q.parse, 0.5)), "us")
	res.set("hwdb.select_us_p50", us(quantile(q.selct, 0.5)), "us")
	// The queries' p99s ride here, ungated: on a shared two-vCPU machine
	// their run-to-run spread exceeded any bound an end-to-end metric may
	// have.
	res.set("hwdb.query_p99_us", us(quantile(q.home, 0.99)), "us")
	res.set("hwdb.fleet_query_p99_us", us(quantile(q.fleet, 0.99)), "us")
	res.set("telemetry.sync_us_p50", us(quantile(durations(spans, spanSync), 0.5)), "us")
	res.set("telemetry.rows_per_tick", d(func(b books) uint64 { return b.delivered })/ticks, "count")
	res.set("telemetry.rows_lost", d(func(b books) uint64 { return b.lost }), "count")
	res.set("flight.rows_stored_per_tick", d(func(b books) uint64 { return b.recStored + b.recCompacted })/ticks, "count")
	// In-process fleets have no shardrpc hop: their overhead is 0.
	res.set("shardrpc.tick_overhead_us_p50", us(quantile(tw.overhead, 0.5)), "us")

	uwSteps := float64(uw.ticks) * homes
	res.set("runtime.alloc_bytes_per_home_step", float64(uw.vAfter.allocBytes-uw.vBefore.allocBytes)/uwSteps, "B")
	res.set("runtime.allocs_per_home_step", float64(uw.vAfter.allocObjects-uw.vBefore.allocObjects)/uwSteps, "count")
	res.set("runtime.gc_cycles", float64(uw.vAfter.gcCycles-uw.vBefore.gcCycles), "count")
	res.set("runtime.gc_cpu_frac", gcFrac(uw.vBefore, uw.vAfter), "ratio")
	res.set("runtime.heap_live_mib", float64(uw.heap)/mib, "MiB")

	if len(tw.profile) == 0 {
		return fmt.Errorf("no CPU profile from the traced window")
	}
	shares, err := profileShares(tw.profile, "repro/")
	if err != nil {
		return err
	}
	for _, p := range append(profilePackages, gcBucket) {
		res.set("profile."+p, shares[p], "ratio")
	}
	res.set("trace.overhead_frac", float64(quantile(tw.tick, 0.5))/float64(quantile(uw.tick, 0.5))-1, "ratio")
	return nil
}

package telemetry

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/hwdb"
	"repro/internal/trace"
)

// The streaming fleet endpoint is an hwdb.Server (so hwdb.Client drives
// it unchanged) with a fleet verb set:
//
//	EXEC        body = one CQL SELECT against the FleetStats view
//	            (including AS OF @<nanos> / HISTORY @<from> @<to> time
//	            travel when a flight recorder is attached to the view)
//	STATS       one-row tabular fleet totals + windowed rates
//	TRACE       per-stage punt-lifecycle latency summary (fleet-merged)
//	REPLAY      body = <home> <table> [@<from> [@<to>]]; scrubs the flight
//	            recorder's retained rows for one home's table
//	            (ERR when the server was built without a replay source)
//	SUBSCRIBE   body = [SUBSCRIBE] FLEET EVERY <n> <unit>; OK arg is the id
//	UNSUBSCRIBE body = id
//	PING
//
// Subscription pushes are per-home DELTAS: each push carries one row per
// home whose counters advanced since the previous push to that
// subscriber, with its current windowed rate. Ticks where nothing changed
// send no datagram at all — an idle fleet costs an idle subscriber
// nothing — and a client re-syncs by summing deltas, never by re-query.

// ReplayFunc scrubs a home's recorded table history between from and to
// (zero: open); flight.Recorder.Replay is one.
type ReplayFunc func(home uint64, table string, from, to time.Time) (*hwdb.Result, error)

// NewServer returns the fleet endpoint over folder. traceFn serves TRACE
// (fleet.TraceStats, typically; nil answers an empty table) and replayFn
// serves REPLAY (nil answers an error). Call Serve to start it.
func NewServer(folder *Folder, traceFn func() []trace.StageStats, replayFn ReplayFunc) *hwdb.Server {
	return hwdb.NewVerbServer(folder.clk, map[string]hwdb.Verb{
		"EXEC": func(body string) (*hwdb.Result, error) {
			return folder.View().Query(strings.TrimSpace(body))
		},
		"STATS":  func(string) (*hwdb.Result, error) { return statsResult(folder), nil },
		"TRACE":  func(string) (*hwdb.Result, error) { return traceResult(traceFn), nil },
		"REPLAY": func(body string) (*hwdb.Result, error) { return replayResult(replayFn, body) },
	}, func(body string) (time.Duration, hwdb.Producer, error) {
		every, err := parseFleetSubscribe(body)
		if err != nil {
			return 0, nil, err
		}
		return every, (&deltaFeed{folder: folder, seen: make(map[uint64]homeMark)}).next, nil
	})
}

// parseFleetSubscribe parses "[SUBSCRIBE] FLEET EVERY <n> <unit>".
func parseFleetSubscribe(body string) (time.Duration, error) {
	fields := strings.Fields(strings.ToUpper(strings.TrimSpace(body)))
	if len(fields) > 0 && fields[0] == "SUBSCRIBE" {
		fields = fields[1:]
	}
	if len(fields) != 4 || fields[0] != "FLEET" || fields[1] != "EVERY" {
		return 0, fmt.Errorf("body must be [SUBSCRIBE] FLEET EVERY <n> <unit>")
	}
	v, err := strconv.ParseFloat(fields[2], 64)
	if err != nil || !(v > 0) { // NaN too
		return 0, fmt.Errorf("bad period %q", fields[2])
	}
	var unit time.Duration
	switch fields[3] {
	case "MILLISECONDS", "MILLISECOND", "MS":
		unit = time.Millisecond
	case "SECONDS", "SECOND", "S":
		unit = time.Second
	case "MINUTES", "MINUTE", "M":
		unit = time.Minute
	default:
		return 0, fmt.Errorf("bad unit %q", fields[3])
	}
	d := time.Duration(v * float64(unit))
	if d <= 0 { // out of Duration range
		return 0, fmt.Errorf("bad period %q", fields[2])
	}
	return d, nil
}

// homeMark is the cumulative state last pushed to a subscriber for one
// home; the next push carries the delta past it.
type homeMark struct {
	flows, links         uint64
	packets, bytes, lost uint64
}

var pushCols = []string{"home", "hosts", "flows", "packets", "bytes", "links", "lost", "bytes_s", "pkts_s"}

// deltaFeed is one FLEET subscription's push producer. Each period it
// diffs the folder's per-home cumulative counters against what this
// subscriber has seen and pushes only the homes that moved; nothing moved
// -> no datagram. The push is built against the datagram budget row by
// row: a home's mark advances only when its row actually fits, so deltas
// that overflow one datagram are carried — never silently dropped — and
// each push resumes round-robin from where the previous one stopped, so a
// fleet too busy for one datagram cannot starve its high-ID homes.
type deltaFeed struct {
	folder *Folder
	seen   map[uint64]homeMark
	resume uint64 // first home ID to consider next push
}

func (d *deltaFeed) next(budget int) (string, bool) {
	hts := d.folder.HomeTotals()
	if len(hts) == 0 {
		return "", false
	}
	// Rotate the ascending-ID list so iteration starts at the resume
	// cursor and wraps, visiting every home once.
	start := 0
	for i, ht := range hts {
		if ht.Home >= d.resume {
			start = i
			break
		}
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(pushCols, "\t") + "\n")
	rows, full := 0, false
	for k := 0; k < len(hts); k++ {
		ht := hts[(start+k)%len(hts)]
		m := d.seen[ht.Home]
		if ht.Flows == m.flows && ht.Links == m.links && ht.Lost == m.lost {
			continue
		}
		line := deltaLine(ht, m)
		if sb.Len()+len(line) > budget {
			// The rest ride the next push; resume with this home.
			d.resume, full = ht.Home, true
			break
		}
		sb.WriteString(line)
		rows++
		d.seen[ht.Home] = homeMark{
			flows: ht.Flows, links: ht.Links,
			packets: ht.Packets, bytes: ht.Bytes, lost: ht.Lost,
		}
	}
	if !full {
		d.resume = 0
	}
	return sb.String(), rows > 0 // idle tick: no datagram
}

// deltaLine renders one home's delta-past-mark as a tabular body line in
// the same cell format hwdb.Result.Text emits (so ParseText reads it).
func deltaLine(ht HomeTotals, m homeMark) string {
	cells := []hwdb.Value{
		hwdb.Int64(int64(ht.Home)),
		hwdb.Int64(int64(ht.Hosts)),
		hwdb.Int64(int64(ht.Flows - m.flows)),
		hwdb.Int64(int64(ht.Packets - m.packets)),
		hwdb.Int64(int64(ht.Bytes - m.bytes)),
		hwdb.Int64(int64(ht.Links - m.links)),
		hwdb.Int64(int64(ht.Lost - m.lost)),
		hwdb.Float(ht.Rate.BytesPerSec),
		hwdb.Float(ht.Rate.PacketsPerSec),
	}
	var sb strings.Builder
	for i, v := range cells {
		if i > 0 {
			sb.WriteByte('\t')
		}
		sb.WriteString(v.Text())
	}
	sb.WriteByte('\n')
	return sb.String()
}

// replayResult parses "<home> <table> [@<from> [@<to>]]" (timestamps in
// unix nanoseconds, the leading @ optional) and scrubs fn.
func replayResult(fn ReplayFunc, body string) (*hwdb.Result, error) {
	if fn == nil {
		return nil, fmt.Errorf("no replay source (flight recorder not attached)")
	}
	fields := strings.Fields(strings.TrimSpace(body))
	if len(fields) < 2 || len(fields) > 4 {
		return nil, fmt.Errorf("body must be <home> <table> [<from> [<to>]]")
	}
	home, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad home id %q", fields[0])
	}
	parseTS := func(s string) (time.Time, error) {
		n, err := strconv.ParseInt(strings.TrimPrefix(s, "@"), 10, 64)
		if err != nil {
			return time.Time{}, fmt.Errorf("bad timestamp %q", s)
		}
		return time.Unix(0, n), nil
	}
	var from, to time.Time
	if len(fields) >= 3 {
		if from, err = parseTS(fields[2]); err != nil {
			return nil, err
		}
	}
	if len(fields) == 4 {
		if to, err = parseTS(fields[3]); err != nil {
			return nil, err
		}
	}
	return fn(home, fields[1], from, to)
}

// statsResult renders the live totals and fleet rate as one tabular row.
func statsResult(folder *Folder) *hwdb.Result {
	t := folder.Totals()
	r := folder.FleetRate()
	return &hwdb.Result{
		Cols: []string{"homes", "hosts", "flows", "links", "leases", "packets", "bytes", "lost", "bytes_s", "pkts_s"},
		Rows: [][]hwdb.Value{{
			hwdb.Int64(int64(t.Homes)),
			hwdb.Int64(int64(t.Hosts)),
			hwdb.Int64(int64(t.Flows)),
			hwdb.Int64(int64(t.Links)),
			hwdb.Int64(int64(t.Leases)),
			hwdb.Int64(int64(t.Packets)),
			hwdb.Int64(int64(t.Bytes)),
			hwdb.Int64(int64(t.Lost)),
			hwdb.Float(r.BytesPerSec),
			hwdb.Float(r.PacketsPerSec),
		}},
	}
}

// traceResult renders the punt-lifecycle stage summaries as a tabular
// result: one row per contract transition, latencies in microseconds.
func traceResult(fn func() []trace.StageStats) *hwdb.Result {
	res := &hwdb.Result{
		Cols: []string{"stage", "count", "p50_us", "p99_us", "max_us", "mean_us"},
	}
	if fn == nil {
		return res
	}
	for _, st := range fn() {
		res.Rows = append(res.Rows, []hwdb.Value{
			hwdb.Str(st.Stage),
			hwdb.Int64(int64(st.Count)),
			hwdb.Float(st.P50NS / 1e3),
			hwdb.Float(st.P99NS / 1e3),
			hwdb.Float(float64(st.MaxNS) / 1e3),
			hwdb.Float(st.MeanNS / 1e3),
		})
	}
	return res
}

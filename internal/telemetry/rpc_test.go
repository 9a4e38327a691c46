package telemetry

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/hwdb"
	"repro/internal/packet"
	"repro/internal/trace"
)

// serverRig is a one-home telemetry stack behind a live UDP endpoint,
// driven by the unmodified hwdb client (the endpoint speaks HWDB/1).
type serverRig struct {
	hub    *Hub
	folder *Folder
	db     *hwdb.DB
	srv    *hwdb.Server
	cli    *hwdb.Client
}

func newServerRig(t *testing.T, traceFn func() []trace.StageStats, replayFn ReplayFunc) *serverRig {
	t.Helper()
	clk := clock.Real{} // subscription ticks need a real clock here
	hub := NewHub()
	t.Cleanup(hub.Close)
	fed := NewFederation(FolderConfig{Clock: clk})
	fed.AttachMember(hub)
	folder := fed.Folder()
	db := hwdb.NewHomework(clk, 1024)
	folder.AddHome(7, func() int { return 2 })
	for _, name := range []string{hwdb.TableFlows, hwdb.TableLinks, hwdb.TableLeases} {
		tbl, _ := db.Table(name)
		hub.Watch(SourceID{Home: 7, Table: name}, tbl)
	}
	srv := NewServer(folder, traceFn, replayFn)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	cli, err := hwdb.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	return &serverRig{hub: hub, folder: folder, db: db, srv: srv, cli: cli}
}

func (r *serverRig) traffic(t *testing.T, n int, bytes uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := r.db.InsertFlow(packet.MAC{2, 1}, packet.FiveTuple{Proto: packet.ProtoTCP, DstPort: 80}, 1, bytes)
		if err != nil {
			t.Fatal(err)
		}
	}
	r.hub.Flush()
}

// TestServerExecQueriesView: EXEC runs CQL against the live FleetStats
// view through the standard hwdb client.
func TestServerExecQueriesView(t *testing.T) {
	r := newServerRig(t, nil, nil)
	if err := r.cli.Ping(); err != nil {
		t.Fatal(err)
	}
	r.traffic(t, 3, 1000)
	r.folder.Commit()

	res, err := r.cli.Exec("SELECT home, sum(bytes) AS b FROM FleetStats GROUP BY home")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "7" || res.Rows[0][1].Str != "3000" {
		t.Fatalf("view over RPC = %v", res.Rows)
	}
	// Non-SELECT statements are rejected: the view is read-only remotely.
	if _, err := r.cli.Exec("INSERT INTO FleetStats VALUES (1,1,1,1,1,1,1,1.0,1.0)"); err == nil {
		t.Fatal("remote INSERT into the view was accepted")
	}
}

// TestServerStatsVerb exercises the STATS verb over a raw datagram (the
// generic client has no STATS helper).
func TestServerStatsVerb(t *testing.T) {
	r := newServerRig(t, nil, nil)
	r.traffic(t, 2, 500)

	conn, err := net.Dial("udp", r.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("HWDB/1 1 STATS\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 65536)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := string(buf[:n])
	if !strings.HasPrefix(got, "HWDB/1 1 OK 1\n") {
		t.Fatalf("stats reply = %q", got)
	}
	res, err := hwdb.ParseText(got[strings.IndexByte(got, '\n')+1:])
	if err != nil {
		t.Fatal(err)
	}
	idx := func(col string) int {
		for i, c := range res.Cols {
			if c == col {
				return i
			}
		}
		t.Fatalf("no %s column in %v", col, res.Cols)
		return -1
	}
	row := res.Rows[0]
	if row[idx("homes")].Str != "1" || row[idx("hosts")].Str != "2" ||
		row[idx("flows")].Str != "2" || row[idx("bytes")].Str != "1000" {
		t.Fatalf("stats row = %v (cols %v)", row, res.Cols)
	}
}

// TestServerTraceVerb: TRACE renders the installed trace source's stage
// summaries as a tabular result (one row per transition, µs units); a
// server without a source answers with an empty table, not an error.
func TestServerTraceVerb(t *testing.T) {
	r := newServerRig(t, func() []trace.StageStats {
		return []trace.StageStats{
			{Stage: "punt->dispatch", Count: 42, P50NS: 1500, P99NS: 9000, MaxNS: 12000, MeanNS: 2000},
			{Stage: "punt->barrier", Count: 42, P50NS: 8000, P99NS: 64000, MaxNS: 90000, MeanNS: 11000},
		}
	}, nil)

	conn, err := net.Dial("udp", r.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("HWDB/1 1 TRACE\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 65536)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := string(buf[:n])
	if !strings.HasPrefix(got, "HWDB/1 1 OK 2\n") {
		t.Fatalf("trace reply = %q", got)
	}
	res, err := hwdb.ParseText(got[strings.IndexByte(got, '\n')+1:])
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"stage", "count", "p50_us", "p99_us", "max_us", "mean_us"}
	if strings.Join(res.Cols, ",") != strings.Join(want, ",") {
		t.Fatalf("trace cols = %v", res.Cols)
	}
	if res.Rows[0][0].Str != "punt->dispatch" || res.Rows[0][1].Str != "42" {
		t.Fatalf("trace row 0 = %v", res.Rows[0])
	}
	if res.Rows[0][2].Str != "1.5" { // 1500ns = 1.5µs
		t.Fatalf("p50_us = %q", res.Rows[0][2].Str)
	}

	// No source installed: empty table, OK status.
	srv2 := NewServer(r.folder, nil, nil)
	if err := srv2.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv2.Close() })
	conn2, err := net.Dial("udp", srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write([]byte("HWDB/1 9 TRACE\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn2.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err = conn2.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(buf[:n]); !strings.HasPrefix(got, "HWDB/1 9 OK 0\n") {
		t.Fatalf("sourceless trace reply = %q", got)
	}
}

// TestServerSubscribeDeltaPushes: a FLEET subscription pushes per-home
// deltas only when counters move — idle ticks send no datagram at all.
func TestServerSubscribeDeltaPushes(t *testing.T) {
	r := newServerRig(t, nil, nil)
	id, err := r.cli.Subscribe("FLEET EVERY 0.02 SECONDS")
	if err != nil {
		t.Fatal(err)
	}
	if r.srv.Subscriptions() != 1 {
		t.Fatalf("subscriptions = %d", r.srv.Subscriptions())
	}

	// Idle fleet: several periods elapse, no push arrives.
	if p, err := r.cli.WaitPush(200 * time.Millisecond); err == nil {
		t.Fatalf("idle fleet pushed %+v", p)
	}

	r.traffic(t, 4, 250)
	push, err := r.cli.WaitPush(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if push.SubID != id || len(push.Result.Rows) != 1 {
		t.Fatalf("push = %+v", push)
	}
	row := push.Result.Rows[0]
	if row[0].Str != "7" || row[2].Str != "4" || row[4].Str != "1000" {
		t.Fatalf("delta row = %v (cols %v)", row, push.Result.Cols)
	}

	// Idle again: the subscriber has seen everything; no more datagrams.
	if p, err := r.cli.WaitPush(200 * time.Millisecond); err == nil {
		t.Fatalf("caught-up subscriber pushed %+v", p)
	}

	// New activity pushes only the delta past the last push.
	r.traffic(t, 1, 100)
	push, err = r.cli.WaitPush(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	row = push.Result.Rows[0]
	if row[2].Str != "1" || row[4].Str != "100" {
		t.Fatalf("second delta row = %v", row)
	}

	if err := r.cli.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if r.srv.Subscriptions() != 0 {
		t.Fatalf("subscriptions after unsubscribe = %d", r.srv.Subscriptions())
	}
}

// TestServerSubscribePeriodFloor: a FLEET subscription faster than the
// 10 ms floor gets ERR and starts no run loop.
func TestServerSubscribePeriodFloor(t *testing.T) {
	r := newServerRig(t, nil, nil)
	for _, body := range []string{"FLEET EVERY 0.000001 SECONDS", "FLEET EVERY 9 MS"} {
		_, err := r.cli.Subscribe(body)
		if err == nil || !strings.Contains(err.Error(), "minimum") {
			t.Fatalf("%q: err = %v, want the period floor's ERR", body, err)
		}
		if n := r.srv.Subscriptions(); n != 0 {
			t.Fatalf("%q: subscriptions = %d, want 0", body, n)
		}
	}
}

// TestDeltaLineMatchesResultText pins the push row rendering to the
// hwdb tabular wire format, so ParseText on the client keeps working.
func TestDeltaLineMatchesResultText(t *testing.T) {
	ht := HomeTotals{
		Home: 5, Hosts: 3, Flows: 10, Links: 4, Packets: 100, Bytes: 9000,
		Lost: 2, Rate: Rate{BytesPerSec: 4500.5, PacketsPerSec: 50},
	}
	m := homeMark{flows: 4, links: 1, packets: 40, bytes: 2000, lost: 1}
	res := &hwdb.Result{Cols: pushCols, Rows: [][]hwdb.Value{{
		hwdb.Int64(5), hwdb.Int64(3), hwdb.Int64(6), hwdb.Int64(60),
		hwdb.Int64(7000), hwdb.Int64(3), hwdb.Int64(1),
		hwdb.Float(4500.5), hwdb.Float(50),
	}}}
	want := res.Text()
	got := strings.Join(pushCols, "\t") + "\n" + deltaLine(ht, m)
	if got != want {
		t.Fatalf("delta line diverges from Result.Text:\ngot  %q\nwant %q", got, want)
	}
}

// TestParseFleetSubscribe table-drives the subscription body grammar.
func TestParseFleetSubscribe(t *testing.T) {
	cases := []struct {
		body    string
		want    time.Duration
		wantErr bool
	}{
		{"FLEET EVERY 1 SECONDS", time.Second, false},
		{"SUBSCRIBE FLEET EVERY 0.5 SECONDS", 500 * time.Millisecond, false},
		{"fleet every 20 ms", 20 * time.Millisecond, false},
		{"FLEET EVERY 2 MINUTES", 2 * time.Minute, false},
		{"FLEET EVERY 0 SECONDS", 0, true},
		{"FLEET EVERY x SECONDS", 0, true},
		{"FLEET EVERY NaN SECONDS", 0, true},
		{"FLEET EVERY +Inf SECONDS", 0, true},
		{"FLEET EVERY 1e300 SECONDS", 0, true},
		{"FLEET EVERY 1 FORTNIGHTS", 0, true},
		{"SELECT * FROM Flows", 0, true},
		{"", 0, true},
	}
	for _, tc := range cases {
		got, err := parseFleetSubscribe(tc.body)
		if (err != nil) != tc.wantErr {
			t.Errorf("%q: err = %v, wantErr %v", tc.body, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("%q = %v, want %v", tc.body, got, tc.want)
		}
	}
}

// TestServerReplayVerb: REPLAY routes the parsed home/table/bounds to the
// installed replay source and errors when none is attached.
func TestServerReplayVerb(t *testing.T) {
	// The source runs on the server's datagram goroutine; the UDP reply
	// is not a synchronization edge, so the captures need a lock.
	var mu sync.Mutex
	var gotHome uint64
	var gotTable string
	var gotFrom, gotTo time.Time
	r := newServerRig(t, nil, func(home uint64, table string, from, to time.Time) (*hwdb.Result, error) {
		mu.Lock()
		gotHome, gotTable, gotFrom, gotTo = home, table, from, to
		mu.Unlock()
		return &hwdb.Result{
			Cols: []string{"timestamp", "n"},
			Rows: [][]hwdb.Value{{hwdb.TimeVal(time.Unix(0, 5)), hwdb.Int64(1)}},
		}, nil
	})
	srv0 := NewServer(r.folder, nil, nil)
	if err := srv0.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv0.Close() })

	conn0, err := net.Dial("udp", srv0.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn0.Close()
	conn, err := net.Dial("udp", r.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 65536)
	ask := func(conn net.Conn, seq, body string) string {
		t.Helper()
		if _, err := conn.Write([]byte("HWDB/1 " + seq + " REPLAY\n" + body)); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf[:n])
	}

	// No source installed: ERR mentioning the flight recorder.
	if got := ask(conn0, "1", "7 Flows"); !strings.HasPrefix(got, "HWDB/1 1 ERR no replay source") {
		t.Fatalf("sourceless replay reply = %q", got)
	}

	got := ask(conn, "2", "7 Flows @100 @200")
	if !strings.HasPrefix(got, "HWDB/1 2 OK 1\n") {
		t.Fatalf("replay reply = %q", got)
	}
	mu.Lock()
	if gotHome != 7 || gotTable != "Flows" || gotFrom.UnixNano() != 100 || gotTo.UnixNano() != 200 {
		t.Fatalf("source called with home=%d table=%q from=%d to=%d",
			gotHome, gotTable, gotFrom.UnixNano(), gotTo.UnixNano())
	}
	mu.Unlock()
	res, err := hwdb.ParseText(got[strings.IndexByte(got, '\n')+1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Cols[0] != "timestamp" {
		t.Fatalf("replay result = %+v", res)
	}

	// Bounds are optional: two-field body passes zero times through.
	if got := ask(conn, "3", "7 Links"); !strings.HasPrefix(got, "HWDB/1 3 OK 1\n") {
		t.Fatalf("replay reply = %q", got)
	}
	mu.Lock()
	if gotTable != "Links" || !gotFrom.IsZero() || !gotTo.IsZero() {
		t.Fatalf("open-bounds call: table=%q from=%v to=%v", gotTable, gotFrom, gotTo)
	}
	mu.Unlock()

	for i, bad := range []string{"", "7", "x Flows", "7 Flows @x", "7 Flows @1 @2 @3"} {
		seq := fmt.Sprintf("%d", 10+i)
		if got := ask(conn, seq, bad); !strings.HasPrefix(got, "HWDB/1 "+seq+" ERR") {
			t.Errorf("REPLAY %q reply = %q, want ERR", bad, got)
		}
	}
}

// TestDeltaFeedCarriesOverBudget: when one period's deltas overflow the
// push budget, the FLEET producer carries the rest instead of dropping
// them. Each home's delta is pushed exactly once, the summed deltas equal
// the folder's totals, and under constant activity the round-robin resume
// cursor reaches every home within any two consecutive pushes.
func TestDeltaFeedCarriesOverBudget(t *testing.T) {
	const homes = 3000
	clk := clock.NewSimulated()
	folder := NewFolder(FolderConfig{Clock: clk})
	db := hwdb.NewHomework(clk, 4)
	if err := db.InsertFlow(packet.MAC{2, 1}, packet.FiveTuple{Proto: packet.ProtoTCP, DstPort: 443}, 3, 1500); err != nil {
		t.Fatal(err)
	}
	flows, _ := db.Table(hwdb.TableFlows)
	row := flows.Snapshot()
	activity := func() {
		for h := uint64(1); h <= homes; h++ {
			folder.consume(Delta{Source: SourceID{Home: h, Table: hwdb.TableFlows}, Rows: row, Lost: h % 3})
		}
		clk.Advance(time.Second)
	}

	feed := &deltaFeed{folder: folder, seen: make(map[uint64]homeMark)}
	budget := hwdb.MaxDatagram - len("HWDB/1 0 PUSH 1\n")
	sums := make(map[uint64]homeMark)
	push := func() []uint64 {
		t.Helper()
		body, ok := feed.next(budget)
		if !ok {
			return nil
		}
		if len(body) > budget {
			t.Fatalf("push body %d bytes over a %d-byte budget", len(body), budget)
		}
		res, err := hwdb.ParseText(body)
		if err != nil {
			t.Fatal(err)
		}
		var carried []uint64
		for _, r := range res.Rows {
			n := make([]uint64, len(r))
			for i, v := range r[:7] {
				if n[i], err = strconv.ParseUint(v.Str, 10, 64); err != nil {
					t.Fatalf("cell %d of %v: %v", i, r, err)
				}
			}
			m := sums[n[0]]
			sums[n[0]] = homeMark{flows: m.flows + n[2], packets: m.packets + n[3],
				bytes: m.bytes + n[4], links: m.links + n[5], lost: m.lost + n[6]}
			carried = append(carried, n[0])
		}
		return carried
	}
	checkSums := func() {
		t.Helper()
		for _, ht := range folder.HomeTotals() {
			want := homeMark{flows: ht.Flows, packets: ht.Packets, bytes: ht.Bytes, links: ht.Links, lost: ht.Lost}
			if sums[ht.Home] != want {
				t.Fatalf("home %d: summed deltas %+v, folder totals %+v", ht.Home, sums[ht.Home], want)
			}
		}
	}

	// One burst: two pushes carry every home exactly once, then silence.
	activity()
	first, second := push(), push()
	if len(first) == 0 || len(first) == homes {
		t.Fatalf("first push carried %d of %d homes; the period must overflow one datagram", len(first), homes)
	}
	count := make(map[uint64]int)
	for _, h := range append(first, second...) {
		count[h]++
	}
	for h := uint64(1); h <= homes; h++ {
		if count[h] != 1 {
			t.Fatalf("home %d carried %d times over two pushes", h, count[h])
		}
	}
	if extra := push(); extra != nil {
		t.Fatalf("caught-up feed pushed %d rows", len(extra))
	}
	checkSums()

	// A fleet busy every period: no home waits more than two pushes.
	var last []uint64
	for i := 0; i < 6; i++ {
		activity()
		cur := push()
		if i > 0 {
			reached := make(map[uint64]bool)
			for _, h := range append(last, cur...) {
				reached[h] = true
			}
			if len(reached) != homes {
				t.Fatalf("push %d: two consecutive pushes reached %d of %d homes", i, len(reached), homes)
			}
		}
		last = cur
	}
	for push() != nil {
	}
	checkSums()
}

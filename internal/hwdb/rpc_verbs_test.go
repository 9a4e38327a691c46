package hwdb_test

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/hwdb"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// verbSets serves the per-home and the fleet verb set on loopback and
// returns a client socket to each, keyed by set name. The fleet set gets
// trace and replay sources so their handlers parse their arguments.
func verbSets(t testing.TB) map[string]net.Conn {
	t.Helper()
	clk := clock.Real{}
	folder := telemetry.NewFolder(telemetry.FolderConfig{Clock: clk})
	folder.AddHome(7, nil)
	servers := map[string]*hwdb.Server{
		"home": hwdb.NewServer(hwdb.NewHomework(clk, 64)),
		"fleet": telemetry.NewServer(folder,
			func() []trace.StageStats { return []trace.StageStats{{Stage: "punt->dispatch", Count: 1}} },
			func(home uint64, table string, from, to time.Time) (*hwdb.Result, error) {
				return &hwdb.Result{Cols: []string{"home"}, Rows: [][]hwdb.Value{{hwdb.Int64(int64(home))}}}, nil
			}),
	}
	conns := make(map[string]net.Conn)
	for name, srv := range servers {
		if err := srv.Serve("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		conn, err := net.Dial("udp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		conns[name] = conn
	}
	return conns
}

// exchange sends one request datagram and returns the reply to it,
// checking every datagram read on the way (pushes included) against the
// framing contract: at most MaxDatagram bytes, "HWDB/1 <seq> " first.
func exchange(t testing.TB, conn net.Conn, req []byte) string {
	t.Helper()
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	prefix := fmt.Sprintf("HWDB/1 %d ", requestSeq(string(req)))
	buf := make([]byte, 65536)
	for {
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("no reply to %.80q: %v", req, err)
		}
		got := string(buf[:n])
		if n > hwdb.MaxDatagram {
			t.Fatalf("%d-byte datagram exceeds MaxDatagram: %.80q", n, got)
		}
		if strings.HasPrefix(got, "HWDB/1 0 PUSH ") {
			continue
		}
		if !strings.HasPrefix(got, prefix) {
			t.Fatalf("reply %.80q to %.80q lacks %q", got, req, prefix)
		}
		return got
	}
}

// requestSeq is the sequence number a reply to req must echo: the
// header's, or 0 when the header is malformed.
func requestSeq(req string) uint64 {
	header, _, _ := strings.Cut(req, "\n")
	fields := strings.Fields(header)
	if len(fields) != 3 || fields[0] != "HWDB/1" {
		return 0
	}
	seq, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return seq
}

// crashVerb is a request whose echoed "ERR unknown verb" status alone is
// longer than MaxDatagram.
var crashVerb = "HWDB/1 1 " + strings.Repeat("X", 61000) + "\n"

// TestRPCOversizedRequest: a request whose echoed error text exceeds the
// datagram budget gets a capped ERR reply from both verb sets, and the
// server keeps answering.
func TestRPCOversizedRequest(t *testing.T) {
	for name, conn := range verbSets(t) {
		for _, req := range []string{
			crashVerb,
			"HWDB/1 2 EXEC\nSELECT * FROM " + strings.Repeat("T", 61000),
		} {
			if got := exchange(t, conn, []byte(req)); !strings.HasPrefix(got, "HWDB/1 "+strconv.FormatUint(requestSeq(req), 10)+" ERR ") {
				t.Errorf("%s: oversized request reply = %.80q, want ERR", name, got)
			}
		}
		if got := exchange(t, conn, []byte("HWDB/1 3 PING\n")); got != "HWDB/1 3 OK pong\n" {
			t.Errorf("%s: ping after oversized request = %q", name, got)
		}
	}
}

// FuzzHWDBRequest: any datagram through either verb set gets exactly one
// reply that fits MaxDatagram and echoes the request's sequence number;
// the server never panics.
func FuzzHWDBRequest(f *testing.F) {
	for _, seed := range []string{
		crashVerb,
		"HWDB/1 2 EXEC\nSELECT * FROM " + strings.Repeat("T", 61000),
		"HWDB/1 3 PING\n",
		"HWDB/1 4 EXEC\nSELECT mac, sum(bytes) FROM Flows GROUP BY mac",
		"HWDB/1 5 EXEC\nINSERT INTO Links VALUES (02:00:00:00:00:01, -42, 0, 54.0)",
		"HWDB/1 6 SUBSCRIBE\nSUBSCRIBE SELECT * FROM Links EVERY 0.01 SECONDS",
		"HWDB/1 7 SUBSCRIBE\nFLEET EVERY 10 MS",
		"HWDB/1 8 UNSUBSCRIBE\n1",
		"HWDB/1 9 STATS\n",
		"HWDB/1 10 TRACE\n",
		"HWDB/1 11 REPLAY\n7 Flows @100 @200",
		"HWDB/1 x PING\n",
		"garbage",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, req []byte) {
		if len(req) > 65507 { // largest IPv4 UDP payload
			req = req[:65507]
		}
		for _, conn := range verbSets(t) {
			exchange(t, conn, req)
		}
	})
}

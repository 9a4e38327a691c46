package shardrpc

import (
	"bufio"
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/fleet/engine"
	"repro/internal/hwdb"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// sampleRequests covers every request verb, including varint edge values.
func sampleRequests() []*Request {
	return []*Request{
		{Seq: 1, Verb: VerbAssign, ID: 0},
		{Seq: 2, Verb: VerbAssign, ID: math.MaxUint64},
		{Seq: 3, Verb: VerbDrain, ID: 42},
		{Seq: 4, Verb: VerbCordon, ID: 7},
		{Seq: 5, Verb: VerbUncordon, ID: 7},
		{Seq: 6, Verb: VerbStep, DT: 0.25},
		{Seq: 7, Verb: VerbStep, DT: -1.5},
		{Seq: 8, Verb: VerbSync, Now: time.Date(2011, 8, 15, 9, 0, 0, 0, time.UTC).UnixNano()},
		{Seq: 9, Verb: VerbSync, Now: -1},
		{Seq: 10, Verb: VerbStats},
		{Seq: 11, Verb: VerbTrace},
		{Seq: 12, Verb: VerbResync},
		{Seq: 13, Verb: VerbClose},
		{Seq: math.MaxUint64, Verb: VerbPing},
	}
}

func sampleSnapshot() *trace.Snapshot {
	s := &trace.Snapshot{Overwritten: 3}
	for i := range s.Hists {
		s.Hists[i].Count = uint64(i * 10)
		s.Hists[i].SumNS = uint64(i * 1000)
		s.Hists[i].MaxNS = int64(i * 100)
		for j := range s.Hists[i].Buckets {
			s.Hists[i].Buckets[j] = uint64(i + j)
		}
	}
	return s
}

func sampleStats() *engine.Stats {
	return &engine.Stats{
		Shard: 3, Homes: 17, Steps: 1 << 40,
		Hub: telemetry.HubStats{Sources: 68, Delivered: 123456, Lost: 7},
	}
}

func sampleBatch() *Batch {
	ts := time.Date(2011, 8, 15, 9, 0, 1, 500, time.UTC)
	return &Batch{
		Seq: 9, SentRows: 100, SentLost: 2,
		Deltas: []telemetry.Delta{
			{
				Source: telemetry.SourceID{Home: 4, Table: hwdb.TableFlows},
				Lost:   1,
				Rows: []hwdb.Row{
					{TS: ts, Vals: []hwdb.Value{
						hwdb.Int64(-9), hwdb.Float(3.5), hwdb.Str("aa:bb"),
						hwdb.Bool(true), {Type: hwdb.TTime, Int: ts.UnixNano()},
						{Type: hwdb.TMAC, Int: 0x0000_02aa_bbcc_ddee},
						{Type: hwdb.TIP, Int: 0x0a00_0001},
					}},
					{TS: ts.Add(time.Second), Vals: []hwdb.Value{hwdb.Int64(math.MaxInt64)}},
				},
			},
			{Source: telemetry.SourceID{Home: 5, Table: hwdb.TableLeases}, Lost: 0, Rows: nil},
		},
	}
}

// sampleResponses covers every response shape, including ERR.
func sampleResponses() []*Response {
	return []*Response{
		{Seq: 1, Verb: VerbAssign},
		{Seq: 2, Err: "fleet: home 3 already live"},
		{Seq: 3, Verb: VerbDrain, OK: true, Batch: sampleBatch()},
		{Seq: 4, Verb: VerbDrain, OK: false, Batch: &Batch{}},
		{Seq: 5, Verb: VerbCordon, OK: true},
		{Seq: 6, Verb: VerbUncordon, OK: false},
		{Seq: 7, Verb: VerbStep},
		{Seq: 8, Verb: VerbSync, Batch: sampleBatch()},
		{Seq: 9, Verb: VerbSync, Batch: &Batch{Seq: 4, SentRows: 10, SentLost: 1}},
		{Seq: 10, Verb: VerbStats, Stats: sampleStats()},
		{Seq: 11, Verb: VerbTrace, Snap: sampleSnapshot()},
		{Seq: 12, Verb: VerbTrace, Snap: &trace.Snapshot{}},
		{Seq: 13, Verb: VerbResync, Committed: &Books{Seq: 3, SentRows: 55, SentLost: 2}},
		{Seq: 14, Verb: VerbClose},
		{Seq: 15, Verb: VerbPing},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		payload := EncodeRequest(req)
		got, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", req.Verb, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", req.Verb, got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for i, resp := range sampleResponses() {
		payload := EncodeResponse(resp)
		got, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("case %d (%s): decode: %v", i, resp.Verb, err)
		}
		// Decoders canonicalize: an OK response with no batch decodes to
		// the empty batch the encoder wrote for it.
		want := resp
		if (resp.Verb == VerbSync || resp.Verb == VerbDrain) && resp.Err == "" && resp.Batch == nil {
			w := *resp
			w.Batch = &Batch{}
			want = &w
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d (%s): round trip mismatch:\n got %+v\nwant %+v", i, resp.Verb, got, want)
		}
	}
}

// TestDecodeTruncated feeds every strict prefix of every valid payload to
// the decoders: all must error (no field is optional and no padding is
// tolerated), none may panic or over-read.
func TestDecodeTruncated(t *testing.T) {
	for _, req := range sampleRequests() {
		payload := EncodeRequest(req)
		for i := 0; i < len(payload); i++ {
			if _, err := DecodeRequest(payload[:i]); err == nil {
				t.Fatalf("%s: truncation to %d/%d bytes decoded cleanly", req.Verb, i, len(payload))
			}
		}
	}
	for _, resp := range sampleResponses() {
		payload := EncodeResponse(resp)
		for i := 0; i < len(payload); i++ {
			if _, err := DecodeResponse(payload[:i]); err == nil {
				t.Fatalf("%s/%q: truncation to %d/%d bytes decoded cleanly", resp.Verb, resp.Err, i, len(payload))
			}
		}
	}
}

// TestDecodeCorrupt flips each byte of each valid payload through a few
// values: decoders may reject or may produce a different message, but
// must never panic (the harness converts panics to failures) and must
// stay within the payload.
func TestDecodeCorrupt(t *testing.T) {
	flip := []byte{0x00, 0xff, 0x80, 0x01}
	for _, resp := range sampleResponses() {
		payload := EncodeResponse(resp)
		for i := range payload {
			for _, b := range flip {
				mut := append([]byte(nil), payload...)
				mut[i] ^= b
				DecodeResponse(mut) //nolint:errcheck // looking for panics, not errors
				DecodeRequest(mut)  //nolint:errcheck
			}
		}
	}
}

// TestDecodeRejects pins a few deliberately hostile frames: giant
// declared lengths must fail before allocating, bad tags and dimension
// mismatches must be errors.
func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"no newline", []byte("HWSH/1 1 PING")},
		{"bad magic", []byte("HWDB/1 1 PING\n")},
		{"bad verb", []byte("HWSH/1 1 EXPLODE\n")},
		{"bad seq", []byte("HWSH/1 x PING\n")},
		{"trailing bytes", append([]byte("HWSH/1 1 PING\n"), 0x01)},
		// SYNC response declaring 2^60 deltas in a tiny frame: the count
		// guard must reject it without allocating.
		{"giant delta count", append([]byte("HWSH/1 1 OK SYNC\n"), []byte{
			0, 0, 0, // seq, rows, lost
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, // count
		}...)},
		// String length far past the frame end.
		{"giant string", append([]byte("HWSH/1 1 OK SYNC\n"), []byte{
			0, 0, 0, 1, // one delta
			1,          // home
			0xe8, 0x07, // table name length 1000
		}...)},
	}
	for _, tc := range cases {
		if _, err := DecodeResponse(tc.payload); err == nil {
			t.Errorf("%s: DecodeResponse accepted", tc.name)
		}
		if _, err := DecodeRequest(tc.payload); err == nil {
			t.Errorf("%s: DecodeRequest accepted", tc.name)
		}
	}

	// A column value with an unknown type tag.
	e := &enc{b: appendHeader(nil, "1", "OK", VerbSync)}
	e.uvarint(1) // batch seq
	e.uvarint(1) // sent rows
	e.uvarint(0) // sent lost
	e.uvarint(1) // one delta
	e.uvarint(1) // home
	e.str("Flows")
	e.uvarint(0) // lost
	e.uvarint(1) // one row
	e.varint(0)  // ts
	e.uvarint(1) // one val
	e.byte(99)   // bogus ColType
	e.varint(5)
	if _, err := DecodeResponse(e.b); err == nil {
		t.Error("bogus column type tag accepted")
	}

	// A trace snapshot with the wrong histogram count.
	e = &enc{b: appendHeader(nil, "1", "OK", VerbTrace)}
	e.uvarint(2) // wrong: engine snapshots always carry numTransitions
	if _, err := DecodeResponse(e.b); err == nil {
		t.Error("wrong histogram count accepted")
	}
}

// TestFrameIO pins the framing layer: length prefix honored, MaxFrame
// enforced on both sides, short reads surface as errors.
func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	payload := EncodeRequest(&Request{Seq: 5, Verb: VerbPing})
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(bufio.NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip mismatch: %q != %q", got, payload)
	}

	// Declared length beyond MaxFrame must be rejected before reading.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(huge))); err == nil {
		t.Error("oversized frame declaration accepted")
	}
	// Truncated frames error at every cut point.
	whole := buf.Bytes()
	for i := 0; i < len(whole); i++ {
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(whole[:i]))); err == nil {
			t.Errorf("truncated frame (%d/%d bytes) read cleanly", i, len(whole))
		}
	}
	if err := writeFrame(&buf, make([]byte, MaxFrame+1)); err == nil {
		t.Error("oversized frame write accepted")
	}
}

// TestErrMessageClamped pins that a pathological error message cannot
// break the header line discipline.
func TestErrMessageClamped(t *testing.T) {
	long := ""
	for i := 0; i < 100; i++ {
		long += "error with\nnewlines and length "
	}
	payload := EncodeResponse(&Response{Seq: 1, Err: long})
	got, err := DecodeResponse(payload)
	if err != nil {
		t.Fatalf("clamped ERR did not decode: %v", err)
	}
	if got.Err == "" || len(got.Err) > maxErrLen {
		t.Errorf("clamped ERR message len %d", len(got.Err))
	}
}

func FuzzShardRPCRoundTrip(f *testing.F) {
	for _, req := range sampleRequests() {
		f.Add(EncodeRequest(req))
	}
	for _, resp := range sampleResponses() {
		f.Add(EncodeResponse(resp))
	}
	f.Add([]byte("HWSH/1 1 ERR boom\n"))
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoders must never panic or over-read; when they accept a
		// payload, re-encoding must be canonical: encode(decode(data))
		// decodes to the same value and re-encodes to the same bytes.
		if req, err := DecodeRequest(data); err == nil {
			enc1 := EncodeRequest(req)
			req2, err := DecodeRequest(enc1)
			if err != nil {
				t.Fatalf("re-decode of re-encoded request failed: %v\nreq=%+v", err, req)
			}
			if enc2 := EncodeRequest(req2); !bytes.Equal(enc1, enc2) {
				t.Fatalf("request encoding not canonical:\n%q\n%q", enc1, enc2)
			}
		}
		if resp, err := DecodeResponse(data); err == nil {
			enc1 := EncodeResponse(resp)
			resp2, err := DecodeResponse(enc1)
			if err != nil {
				t.Fatalf("re-decode of re-encoded response failed: %v\nresp=%+v", err, resp)
			}
			if enc2 := EncodeResponse(resp2); !bytes.Equal(enc1, enc2) {
				t.Fatalf("response encoding not canonical:\n%q\n%q", enc1, enc2)
			}
		}
	})
}

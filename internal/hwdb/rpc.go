package hwdb

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
)

// The UDP RPC protocol. Requests and responses are single datagrams:
//
//	request:  "HWDB/1 <seq> <VERB>\n<body>"
//	response: "HWDB/1 <seq> OK [arg]\n<body>"  or  "HWDB/1 <seq> ERR <msg>\n"
//
// One Server speaks it for every verb set. PING, SUBSCRIBE (OK arg is the
// subscription id; periods under 10 ms get ERR) and UNSUBSCRIBE (body =
// id) are built in; every other verb is a registered Verb whose result
// becomes the tabular body.
// NewServer registers the per-home set: EXEC (body = one CQL statement;
// SELECT returns a tabular body) and CQL subscriptions (body = SUBSCRIBE
// <select> EVERY <n> <unit>). The fleet endpoint (telemetry.NewServer)
// registers EXEC over the read-only FleetStats view, STATS, TRACE and
// REPLAY, and FLEET EVERY <n> <unit> delta subscriptions.
//
// A subscription is a Producer that one run loop asks for a push body
// every period; each body it returns goes to the subscriber's address as
// an unsolicited datagram, and a period where it returns ok=false sends
// nothing:
//
//	"HWDB/1 0 PUSH <id>\n<tabular body>"
//
// Every datagram fits in MaxDatagram: an ERR status echoing request bytes
// is cut to maxStatus, and an oversize body is truncated at a line
// boundary and flagged with a "TRUNCATED" trailer line so clients can
// tighten their window or add LIMIT.
const (
	rpcMagic = "HWDB/1"
	// MaxDatagram is the largest datagram the server will send.
	MaxDatagram = 60000
	// maxStatus caps a reply's status text, so the header always leaves
	// room for the truncation trailer.
	maxStatus = 1024
	truncated = "TRUNCATED\n"
	// minSubscribePeriod is the shortest push period SUBSCRIBE accepts, in
	// every verb set: each subscription is a goroutine waking once a
	// period, so one datagram must not buy a microsecond timer.
	minSubscribePeriod = 10 * time.Millisecond
)

// Verb answers one request body. A nil result replies "OK 0" with no
// body; otherwise the reply is "OK <rows>" and the result's tabular text.
type Verb func(body string) (*Result, error)

// Producer returns a subscription's next push body, or ok=false to send
// nothing this period. Only the subscription's run loop calls it, so it
// may keep state without locking. budget is the longest body that fits
// the push datagram; a longer one is truncated.
type Producer func(budget int) (body string, ok bool)

// SubscribeFunc parses a SUBSCRIBE request body into the push period and
// the subscription's producer.
type SubscribeFunc func(body string) (every time.Duration, next Producer, err error)

// Server serves one verb set over UDP.
type Server struct {
	clk       clock.Clock
	verbs     map[string]Verb
	subscribe SubscribeFunc
	conn      *net.UDPConn

	mu     sync.Mutex
	subs   map[uint64]chan struct{} // id -> cancel
	nextID uint64
	closed bool
	wg     sync.WaitGroup
}

// NewServer creates a server for db with the per-home verb set. Call
// Serve to start it.
func NewServer(db *DB) *Server {
	return NewVerbServer(db.clk, map[string]Verb{
		"EXEC": func(body string) (*Result, error) { return db.Exec(strings.TrimSpace(body)) },
	}, db.subscribe)
}

// NewVerbServer creates a server for a custom verb set, keyed by
// upper-case verb name. clk paces subscription periods. Call Serve to
// start it.
func NewVerbServer(clk clock.Clock, verbs map[string]Verb, subscribe SubscribeFunc) *Server {
	return &Server{clk: clk, verbs: verbs, subscribe: subscribe, subs: make(map[uint64]chan struct{})}
}

// Serve binds addr (e.g. "127.0.0.1:0") and serves until Close.
func (s *Server) Serve(addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return err
	}
	s.conn = conn
	s.wg.Add(1)
	go s.loop()
	return nil
}

// Addr returns the bound address once Serve has been called.
func (s *Server) Addr() string {
	if s.conn == nil {
		return ""
	}
	return s.conn.LocalAddr().String()
}

// Close stops the server and cancels all subscriptions. Safe to defer
// before checking Serve's error (a never-served server closes to a no-op).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for id, cancel := range s.subs {
		close(cancel)
		delete(s.subs, id)
	}
	s.mu.Unlock()
	var err error
	if s.conn != nil {
		err = s.conn.Close()
	}
	s.wg.Wait()
	return err
}

// loop is the server's one read loop: every request gets exactly one
// reply, through the one write path.
func (s *Server) loop() {
	defer s.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, addr, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		var status, resp string
		seq, verb, body, err := parseRequest(string(buf[:n]))
		if err == nil {
			status, resp, err = s.dispatch(addr, verb, body)
		}
		if err != nil {
			status, resp = "ERR "+err.Error(), ""
		}
		if len(status) > maxStatus {
			status = status[:maxStatus]
		}
		_ = s.write(addr, fmt.Sprintf("%s %d %s\n", rpcMagic, seq, status), resp) // a lost reply is like any lost datagram
	}
}

// parseRequest splits one HWDB/1 request datagram into its sequence
// number, upper-cased verb and body.
func parseRequest(s string) (seq uint64, verb, body string, err error) {
	nl := strings.IndexByte(s, '\n')
	header := s
	if nl >= 0 {
		header, body = s[:nl], s[nl+1:]
	}
	fields := strings.Fields(header)
	if len(fields) != 3 || fields[0] != rpcMagic {
		return 0, "", "", fmt.Errorf("bad request header")
	}
	seq, err = strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, "", "", fmt.Errorf("bad sequence number")
	}
	return seq, strings.ToUpper(fields[2]), body, nil
}

// dispatch answers one parsed request with its reply status and body.
func (s *Server) dispatch(addr *net.UDPAddr, verb, body string) (status, resp string, err error) {
	switch verb {
	case "PING":
		return "OK pong", "", nil
	case "SUBSCRIBE":
		every, next, err := s.subscribe(body)
		if err != nil {
			return "", "", err
		}
		if every < minSubscribePeriod {
			return "", "", fmt.Errorf("period %v under the %v minimum", every, minSubscribePeriod)
		}
		return fmt.Sprintf("OK %d", s.addSubscription(addr, every, next)), "", nil
	case "UNSUBSCRIBE":
		id, err := strconv.ParseUint(strings.TrimSpace(body), 10, 64)
		if err != nil {
			return "", "", errors.New("bad subscription id")
		}
		if !s.removeSubscription(id) {
			return "", "", errors.New("no such subscription")
		}
		return "OK", "", nil
	}
	fn, ok := s.verbs[verb]
	if !ok {
		return "", "", fmt.Errorf("unknown verb %s", verb)
	}
	res, err := fn(body)
	if err != nil || res == nil {
		return "OK 0", "", err
	}
	return fmt.Sprintf("OK %d", len(res.Rows)), res.Text(), nil
}

// write sends header+body as one datagram. A body that would overflow
// MaxDatagram is cut at a line boundary and flagged with the TRUNCATED
// trailer; callers keep header shorter than MaxDatagram-len(truncated).
func (s *Server) write(addr *net.UDPAddr, header, body string) error {
	if len(header)+len(body) > MaxDatagram {
		keep := body[:MaxDatagram-len(header)-len(truncated)]
		if i := strings.LastIndexByte(keep, '\n'); i >= 0 {
			keep = keep[:i+1]
		}
		body = keep + truncated
	}
	_, err := s.conn.WriteToUDP([]byte(header+body), addr)
	return err
}

func (s *Server) addSubscription(addr *net.UDPAddr, every time.Duration, next Producer) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	if !s.closed {
		cancel := make(chan struct{})
		s.subs[s.nextID] = cancel
		s.wg.Add(1)
		go s.run(s.nextID, addr, every, next, cancel)
	}
	return s.nextID
}

func (s *Server) removeSubscription(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	cancel, ok := s.subs[id]
	if ok {
		close(cancel)
		delete(s.subs, id)
	}
	return ok
}

// Subscriptions returns the number of active subscriptions.
func (s *Server) Subscriptions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// run drives one subscription: each period it asks the producer for a
// push and sends what it returns, until cancelled or the socket closes.
func (s *Server) run(id uint64, addr *net.UDPAddr, every time.Duration, next Producer, cancel <-chan struct{}) {
	defer s.wg.Done()
	header := fmt.Sprintf("%s 0 PUSH %d\n", rpcMagic, id)
	for {
		select {
		case <-cancel:
			return
		case <-s.clk.After(every):
		}
		if body, ok := next(MaxDatagram - len(header)); ok && s.write(addr, header, body) != nil {
			return
		}
	}
}

// subscribe parses a CQL SUBSCRIBE statement into its period and a
// producer that pushes the SELECT's result. Idle subscriptions are free:
// a period where the result cannot have changed skips the SELECT entirely
// (no inserts since the last evaluation, and either the window is
// insert-driven — ROWS/ALL/NOW — or the last result was already empty,
// which only inserts can change), and a re-evaluated result identical to
// the last push is not re-sent. A subscription over an idle table
// therefore generates no datagrams at all until data first appears.
func (db *DB) subscribe(body string) (time.Duration, Producer, error) {
	st, err := Parse(strings.TrimSpace(body))
	if err != nil {
		return 0, nil, err
	}
	sub, ok := st.(*SubscribeStmt)
	if !ok {
		return 0, nil, errors.New("body must be a SUBSCRIBE statement")
	}
	q := sub.Query
	var (
		lastBody string
		havePush bool   // at least one push sent
		evaled   bool   // lastIns/lastRows are valid
		lastIns  uint64 // table insert count at the last evaluation
		lastRows int    // data rows in the last evaluation
	)
	return sub.Every, func(int) (string, bool) {
		t, haveTable := db.Table(q.Table)
		var ins uint64
		if haveTable {
			ins, _ = t.Stats()
			if evaled && ins == lastIns && (q.Win.Kind != WindowRange || lastRows == 0) {
				return "", false // nothing can have changed: skip the SELECT too
			}
		}
		res, err := db.Select(q)
		if err != nil {
			return "", false
		}
		evaled, lastIns, lastRows = haveTable, ins, len(res.Rows)
		body := res.Text()
		if havePush && body == lastBody || !havePush && len(res.Rows) == 0 {
			return "", false // unchanged, or idle from the start: no datagram
		}
		lastBody, havePush = body, true
		return body, true
	}, nil
}

// Client is a UDP RPC client. It is safe for sequential use; concurrent
// callers should use one Client each.
type Client struct {
	conn    *net.UDPConn
	seq     uint64
	timeout time.Duration

	mu     sync.Mutex
	pushes []Push
	pushCh chan Push
}

// Push is one subscription push received by a client.
type Push struct {
	SubID  uint64
	Result *Result
}

// Dial connects a client to a server address.
func Dial(addr string) (*Client, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, timeout: 2 * time.Second, pushCh: make(chan Push, 64)}
	return c, nil
}

// Close releases the client socket.
func (c *Client) Close() error { return c.conn.Close() }

// Pushes returns the channel on which subscription pushes are delivered
// while the client waits inside calls.
func (c *Client) Pushes() <-chan Push { return c.pushCh }

// call sends a request and waits for its matching response, queuing any
// pushes that arrive in between.
func (c *Client) call(verb, body string) (status string, respBody string, err error) {
	c.seq++
	seq := c.seq
	req := fmt.Sprintf("%s %d %s\n%s", rpcMagic, seq, verb, body)
	if _, err := c.conn.Write([]byte(req)); err != nil {
		return "", "", err
	}
	buf := make([]byte, 65536)
	deadline := time.Now().Add(c.timeout)
	for {
		if err := c.conn.SetReadDeadline(deadline); err != nil {
			return "", "", err
		}
		n, err := c.conn.Read(buf)
		if err != nil {
			return "", "", err
		}
		gotSeq, rest, pushed, perr := c.parseResponse(string(buf[:n]))
		if perr != nil {
			continue // ignore garbage
		}
		if pushed {
			continue
		}
		if gotSeq != seq {
			continue // stale response
		}
		nl := strings.IndexByte(rest, '\n')
		if nl < 0 {
			return rest, "", nil
		}
		return rest[:nl], rest[nl+1:], nil
	}
}

// parseResponse handles both replies and pushes; pushes are routed to the
// push channel and pushed=true is returned.
func (c *Client) parseResponse(s string) (seq uint64, rest string, pushed bool, err error) {
	if !strings.HasPrefix(s, rpcMagic+" ") {
		return 0, "", false, fmt.Errorf("bad magic")
	}
	s = s[len(rpcMagic)+1:]
	sp := strings.IndexByte(s, ' ')
	if sp < 0 {
		return 0, "", false, fmt.Errorf("bad header")
	}
	seq, err = strconv.ParseUint(s[:sp], 10, 64)
	if err != nil {
		return 0, "", false, err
	}
	rest = s[sp+1:]
	if strings.HasPrefix(rest, "PUSH ") {
		nl := strings.IndexByte(rest, '\n')
		if nl < 0 {
			return 0, "", false, fmt.Errorf("bad push")
		}
		id, err := strconv.ParseUint(strings.TrimSpace(rest[5:nl]), 10, 64)
		if err != nil {
			return 0, "", false, err
		}
		res, err := ParseText(rest[nl+1:])
		if err != nil {
			return 0, "", false, err
		}
		select {
		case c.pushCh <- Push{SubID: id, Result: res}:
		default:
		}
		return 0, "", true, nil
	}
	return seq, rest, false, nil
}

// Exec runs one CQL statement; for SELECT the result is non-nil.
func (c *Client) Exec(cql string) (*Result, error) {
	status, body, err := c.call("EXEC", cql)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(status, "ERR") {
		return nil, fmt.Errorf("hwdb: server: %s", strings.TrimPrefix(status, "ERR "))
	}
	if body == "" {
		return nil, nil
	}
	return ParseText(body)
}

// Subscribe registers a periodic subscription; returns its id.
func (c *Client) Subscribe(cql string) (uint64, error) {
	status, _, err := c.call("SUBSCRIBE", cql)
	if err != nil {
		return 0, err
	}
	if strings.HasPrefix(status, "ERR") {
		return 0, fmt.Errorf("hwdb: server: %s", strings.TrimPrefix(status, "ERR "))
	}
	id, err := strconv.ParseUint(strings.TrimSpace(strings.TrimPrefix(status, "OK")), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("hwdb: bad subscribe response %q", status)
	}
	return id, nil
}

// Unsubscribe cancels a subscription.
func (c *Client) Unsubscribe(id uint64) error {
	status, _, err := c.call("UNSUBSCRIBE", strconv.FormatUint(id, 10))
	if err != nil {
		return err
	}
	if strings.HasPrefix(status, "ERR") {
		return fmt.Errorf("hwdb: server: %s", strings.TrimPrefix(status, "ERR "))
	}
	return nil
}

// WaitPush blocks until a push arrives on the socket or the timeout
// elapses. Use after Subscribe when no other calls are in flight.
func (c *Client) WaitPush(timeout time.Duration) (Push, error) {
	select {
	case p := <-c.pushCh:
		return p, nil
	default:
	}
	buf := make([]byte, 65536)
	deadline := time.Now().Add(timeout)
	for {
		select {
		case p := <-c.pushCh:
			return p, nil
		default:
		}
		if err := c.conn.SetReadDeadline(deadline); err != nil {
			return Push{}, err
		}
		n, err := c.conn.Read(buf)
		if err != nil {
			return Push{}, err
		}
		_, _, pushed, perr := c.parseResponse(string(buf[:n]))
		if perr == nil && pushed {
			return <-c.pushCh, nil
		}
	}
}

// Ping checks server liveness.
func (c *Client) Ping() error {
	status, _, err := c.call("PING", "")
	if err != nil {
		return err
	}
	if !strings.HasPrefix(status, "OK") {
		return fmt.Errorf("hwdb: ping: %s", status)
	}
	return nil
}

// ParseText parses the tab-separated wire form back into a Result with
// string-typed cells (clients treat results as display data).
func ParseText(s string) (*Result, error) {
	sc := bufio.NewScanner(strings.NewReader(s))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	res := &Result{}
	first := true
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line == "TRUNCATED" {
			continue
		}
		fields := strings.Split(line, "\t")
		if first {
			res.Cols = fields
			first = false
			continue
		}
		row := make([]Value, len(fields))
		for i, f := range fields {
			row[i] = Str(f)
		}
		res.Rows = append(res.Rows, row)
	}
	if first {
		return nil, fmt.Errorf("hwdb: empty result body")
	}
	return res, sc.Err()
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// checkRun verifies the run's outputs and returns every check that
// failed. A run with any failure is reported as failed, not as slow.
func checkRun(r *rig, timed *window, stepErrs []error, qs []*queryTimes) []string {
	var bad []string
	for _, err := range stepErrs {
		bad = append(bad, fmt.Sprintf("Step returned an error: %v", err))
	}

	// Exact accounting: every row any watched table took is delivered or
	// lost, and none is lost. Flow-removed rows land from the controller's
	// goroutine when the expiry sweep fires, so settle and sync until the
	// books stop moving before comparing.
	b := settledBooks(r)
	if b.delivered+b.lost != b.inserts {
		bad = append(bad, fmt.Sprintf("federated delivered %d + lost %d != %d watched-table inserts", b.delivered, b.lost, b.inserts))
	}
	if b.lost != 0 {
		bad = append(bad, fmt.Sprintf("federation lost %d rows", b.lost))
	}
	if b.recDelivered+b.recView != b.recStored+b.recCompacted {
		bad = append(bad, fmt.Sprintf("recorder books off: delivered %d + view %d != stored %d + compacted %d",
			b.recDelivered, b.recView, b.recStored, b.recCompacted))
	}
	if b.denied != 0 {
		bad = append(bad, fmt.Sprintf("forwarder denied %d flows", b.denied))
	}
	admitted := timed.after.admitted - timed.before.admitted
	if r.w.churn && admitted == 0 {
		bad = append(bad, "no punts admitted in the timed window of a churn workload")
	}
	if !r.w.churn && admitted != 0 {
		bad = append(bad, fmt.Sprintf("%d punts admitted in the timed window of a workload that should bypass the control plane", admitted))
	}
	for _, q := range qs {
		if q.failed > 0 {
			bad = append(bad, fmt.Sprintf("%d of %d queries failed (%d returned no rows); first: %v", q.failed, q.attempted, q.emptyFailures, q.firstFailure))
		}
	}
	if r.f.Totals().Flows == 0 {
		bad = append(bad, "fleet folded no Flows rows")
	}
	return bad
}

// settledBooks reads the books once the fleet is quiescent: every home's
// control path settled and the hubs synced, repeated until delivered +
// lost matches the inserts or a bounded wait runs out.
func settledBooks(r *rig) books {
	var b books
	for i := 0; i < 100; i++ {
		for _, h := range r.homes {
			_ = h.Router.Settle() // a wedged home shows in the books below
		}
		r.f.Sync()
		b = readBooks(r)
		if b.delivered+b.lost == b.inserts {
			return b
		}
		time.Sleep(10 * time.Millisecond)
	}
	return b
}

// fingerprint is a run's output totals. At 64 homes the in-process fleet
// is not seed-identical (the datapath expiry sweep races the next tick),
// so runs are compared by their spread, never gated on equality.
type fingerprint struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Traced    bool   `json:"traced"`
	FlowsRows uint64 `json:"flows_rows"`
	Bytes     uint64 `json:"bytes"`
	Delivered uint64 `json:"delivered"`
}

// recordFingerprint appends fp to the log under dir and returns the
// min/max of each total over every logged run of the same workload, seed,
// length and trace mode — the run-to-run spread so far.
func recordFingerprint(dir string, fp fingerprint) (lo, hi fingerprint, runs int, err error) {
	if err = os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	path := filepath.Join(dir, "fingerprints.jsonl")
	line, _ := json.Marshal(fp)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	if _, err = f.Write(append(line, '\n')); err != nil {
		f.Close()
		return
	}
	if err = f.Close(); err != nil {
		return
	}
	f, err = os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var x fingerprint
		if json.Unmarshal(sc.Bytes(), &x) != nil || x.Workload != fp.Workload || x.Seed != fp.Seed || x.Seconds != fp.Seconds || x.Traced != fp.Traced {
			continue
		}
		if runs == 0 {
			lo, hi = x, x
		}
		runs++
		lo.FlowsRows, hi.FlowsRows = min(lo.FlowsRows, x.FlowsRows), max(hi.FlowsRows, x.FlowsRows)
		lo.Bytes, hi.Bytes = min(lo.Bytes, x.Bytes), max(hi.Bytes, x.Bytes)
		lo.Delivered, hi.Delivered = min(lo.Delivered, x.Delivered), max(hi.Delivered, x.Delivered)
	}
	return lo, hi, runs, sc.Err()
}

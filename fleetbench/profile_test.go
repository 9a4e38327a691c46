package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

var sink uint64

// burn spins on locals only, so race-detector instrumentation (which has
// no Go frames to charge) does not dilute the loop's share.
//
//go:noinline
func burn(d time.Duration) uint64 {
	var x uint64
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 100_000; i++ {
			x = x*6364136223846793005 + uint64(i)
		}
	}
	return x
}

// TestProfileSharesAttributesRepoFrames decodes a real CPU profile of a
// loop in this package and finds the loop's package holding most samples.
func TestProfileSharesAttributesRepoFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	sink = burn(400 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := profileShares(buf.Bytes(), "repro/")
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range shares {
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v, want 1: %v", total, shares)
	}
	if shares["fleetbench"] < 0.5 {
		t.Errorf("fleetbench share %v, want most samples: %v", shares["fleetbench"], shares)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/fleet/shardrpc.(*Client).call":     "shardrpc",
		"repro/internal/netsim.(*Network).Step":            "netsim",
		"repro/internal/packet.Checksum":                   "packet",
		"repro/internal/hwdb.aggregate[go.shape.*uint8/x]": "hwdb",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestIsGC(t *testing.T) {
	for fn, want := range map[string]bool{
		"runtime.gcBgMarkWorker":        true,
		"runtime.gcDrain":               true,
		"runtime.(*sweepLocked).sweep":  true,
		"runtime.bgscavenge":            true,
		"runtime.mallocgc":              false,
		"runtime.mapaccess2":            false,
		"repro/internal/core.sweepRows": false,
	} {
		if got := isGC(fn); got != want {
			t.Errorf("isGC(%q) = %v, want %v", fn, got, want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 1000; i++ {
		ds = append(ds, time.Duration(i))
	}
	if got := quantile(ds, 0.5); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := quantile(ds, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990 (10 samples beyond it)", got)
	}
}

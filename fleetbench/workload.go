package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/fleet"
	"repro/internal/fleet/engine"
	"repro/internal/fleet/shardrpc"
	"repro/internal/flight"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// dt is the simulated length of one fleet tick, independent of wall time.
const dt = 0.25

// shards is fixed rather than derived from GOMAXPROCS, so the load is the
// same on every machine: two shard engines (or two remote workers).
const shards = 2

// Dashboard queries: the paper's Figure-1 per-device bandwidth view on
// each home's hwdb, and the fleet-wide per-home byte view on the
// federated FleetStats table.
const (
	homeQuery  = "SELECT mac, proto, dport, sport, sum(bytes) AS bytes FROM Flows [RANGE 10 SECONDS] GROUP BY mac, proto, dport, sport"
	fleetQuery = "SELECT home, sum(bytes) AS bytes FROM FleetStats [RANGE 10 SECONDS] GROUP BY home"
)

// workload is one named input mix the benchmark drives through the fleet.
type workload struct {
	name   string
	homes  int
	remote bool // homes live on shardrpc workers served on loopback
	// churn marks the workloads whose premise is the punt→policy→install
	// path: admitted punts must be above 0 in the timed window (and
	// exactly 0 otherwise).
	churn bool
	// dashboard runs the queries inside the timed window: the per-home
	// Figure-1 query on every home once per simulated second and the fleet
	// view every tick. The other workloads time the same queries, 1 000 of
	// each, in a query window after it: queryTicks more ticks, each
	// followed by queriesPerTick home and fleet queries.
	dashboard                  bool
	queryTicks, queriesPerTick int
	populate                   func(h *fleet.Home, target string) error
}

// ticksPerSecond converts --seconds into the fixed number of timed ticks,
// so both sides of a comparison do identical work: at 20, every workload
// times 1 000 ticks, enough that 10 samples lie beyond tick_p99_ms.
const ticksPerSecond = 50

// warmTicks carries every workload past the forwarder's 30 s idle
// timeout (120 ticks of 0.25 s), so flow tables have levelled off before
// the timed window starts.
const warmTicks = 160

// setupTicks are the ticks that belong to set-up: tick 0 resolves the
// app targets, tick 1 punts and installs, tick 2 is the first measured.
const setupTicks = 3

var workloads = []workload{
	{
		name: "web-churn", homes: 64, churn: true, queryTicks: 200, queriesPerTick: 5,
		populate: churnedWeb,
	},
	{
		name: "stream-dashboard", homes: 16, dashboard: true,
		populate: func(h *fleet.Home, target string) error {
			if err := join(h, netsim.NewApp(netsim.AppVideo, target, 250_000), 0); err != nil {
				return err
			}
			return join(h, netsim.NewApp(netsim.AppVoIP, target, 12_000), 0)
		},
	},
	// 32 homes rather than 16: at 16 the tick is short enough that the
	// goroutine wake-ups around its loopback round trips set it, and on a
	// shared two-vCPU VM those moved tick_p50_ms by 0.29 (interquartile
	// range over median) across ten runs; at 32 it was 0.04–0.07.
	{
		name: "remote-churn", homes: 32, remote: true, churn: true, queryTicks: 250, queriesPerTick: 4,
		populate: churnedWeb,
	},
}

// churnedWeb is the BenchmarkFleetStep home: two wired hosts running the
// web profile, each opening a fresh connection every 0.75 s.
func churnedWeb(h *fleet.Home, target string) error {
	for i := 0; i < 2; i++ {
		if err := join(h, netsim.NewApp(netsim.AppWeb, target, 40_000), 0.75); err != nil {
			return err
		}
	}
	return nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// join adds one wired host running app to the home.
func join(h *fleet.Home, app *netsim.App, churnSec float64) error {
	host, err := h.Join("", false, netsim.Pos{})
	if err != nil {
		return err
	}
	if churnSec > 0 {
		app.SetFlowChurn(churnSec)
	}
	host.AddApp(app)
	return nil
}

// targetFor draws a home's literal upstream IP from the seed: the load is
// the same for every seed, the five-tuples are not.
func targetFor(seed int64, home uint64) string {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(home)))
	return fmt.Sprintf("203.0.113.%d", 1+r.Intn(250))
}

// rig is one built fleet: the coordinator, its simulated clock, the
// flight recorder and — in-process or worker-side — every home handle,
// which the checks and the traced run need.
type rig struct {
	w     workload
	seed  int64
	clk   *clock.Simulated
	f     *fleet.Coordinator
	rec   *flight.Recorder
	homes []*fleet.Home // ascending ID
	shard map[uint64]int

	// Remote workers: their engines, servers and, when traced, the timing
	// decorators the servers drive.
	engines []*engine.Engine
	servers []*shardrpc.Server
	timed   []*timedBackend
}

// tracing is a traced run's span log and the coordinator's current tick,
// shared with the remote workers' timing decorators.
type tracing struct {
	log *spanLog
	ref tickRef
}

// build brings a fleet up and runs the set-up ticks. With tr set, a
// remote fleet's workers are served through timing decorators.
func build(w workload, seed int64, tr *tracing) (*rig, error) {
	r := &rig{w: w, seed: seed, clk: clock.NewSimulated(), shard: make(map[uint64]int)}
	var mu sync.Mutex
	track := func(h *fleet.Home, s int) {
		mu.Lock()
		r.homes = append(r.homes, h)
		r.shard[h.ID] = s
		mu.Unlock()
	}
	if w.remote {
		addrs := make([]string, shards)
		for i := 0; i < shards; i++ {
			i := i
			wclk := clock.NewSimulated()
			eng := engine.New(engine.Config{
				Index: i, Clock: wclk, Seed: seed,
				OnAssign: func(h *fleet.Home) error {
					if err := w.populate(h, targetFor(seed, h.ID)); err != nil {
						return err
					}
					track(h, i)
					return nil
				},
			})
			r.engines = append(r.engines, eng)
			var backend shardrpc.Backend = eng
			if tr != nil {
				tb := &timedBackend{Engine: eng, shard: i, log: tr.log, ref: &tr.ref}
				r.timed = append(r.timed, tb)
				backend = tb
			}
			srv := shardrpc.NewServer(shardrpc.Config{Backend: backend, Hub: eng.Hub(), Clock: wclk})
			r.servers = append(r.servers, srv)
			if err := srv.Serve("127.0.0.1:0"); err != nil {
				r.stop()
				return nil, fmt.Errorf("serve worker %d: %w", i, err)
			}
			addrs[i] = srv.Addr()
		}
		r.f = fleet.New(fleet.Config{WorkerAddrs: addrs, Clock: r.clk, Seed: seed, StepTimeout: 60 * time.Second})
	} else {
		r.f = fleet.New(fleet.Config{Shards: shards, Clock: r.clk, Seed: seed})
	}
	// The recorder attaches before any home exists, with hwfleetd's
	// default window and retention, so its books reconcile from row zero.
	r.rec = flight.NewRecorder(flight.RecorderConfig{Window: flight.DefaultWindow, Retention: flight.DefaultRetention})
	r.rec.Attach(r.f.Hub())
	if err := r.rec.AttachView(r.f.DB(), telemetry.ViewTable); err != nil {
		r.stop()
		return nil, err
	}
	if _, err := r.f.AddHomes(w.homes); err != nil {
		r.stop()
		return nil, fmt.Errorf("add homes: %w", err)
	}
	if !w.remote {
		for _, h := range r.f.Homes() {
			if err := w.populate(h, targetFor(seed, h.ID)); err != nil {
				r.stop()
				return nil, fmt.Errorf("populate home %d: %w", h.ID, err)
			}
			s, _ := r.f.HomeShard(h.ID)
			track(h, s)
		}
	}
	mu.Lock()
	sort.Slice(r.homes, func(i, j int) bool { return r.homes[i].ID < r.homes[j].ID })
	built := len(r.homes)
	mu.Unlock()
	if built != w.homes {
		r.stop()
		return nil, fmt.Errorf("built %d of %d homes", built, w.homes)
	}
	for i, tb := range r.timed {
		tb.setHomes(r.shardHomes(i))
	}
	for i := 0; i < setupTicks; i++ {
		if err := r.f.Step(dt); err != nil {
			r.stop()
			return nil, fmt.Errorf("set-up tick %d: %w", i, err)
		}
	}
	return r, nil
}

// shardHomes returns one shard's homes in ascending ID order.
func (r *rig) shardHomes(s int) []*fleet.Home {
	var out []*fleet.Home
	for _, h := range r.homes {
		if r.shard[h.ID] == s {
			out = append(out, h)
		}
	}
	return out
}

// stop tears the fleet down and waits for every worker to end.
func (r *rig) stop() {
	if r.f != nil {
		r.f.Stop()
	}
	for _, s := range r.servers {
		s.Close()
	}
	for _, e := range r.engines {
		e.Close()
	}
}

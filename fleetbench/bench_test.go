package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must honour: the
// metric names each mode reports.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func names(list []struct{ Name string }) []string {
	var out []string
	for _, m := range list {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func TestSpecNamesTheWorkloads(t *testing.T) {
	for _, w := range readSpec(t).Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
}

// TestBenchReportsEveryMetric runs each workload's mix on two homes,
// untraced and traced: the output checks pass and the metrics are exactly
// the ones BENCHMARK.json lists for the mode.
func TestBenchReportsEveryMetric(t *testing.T) {
	s := readSpec(t)
	t.Chdir(t.TempDir()) // span and fingerprint logs land here
	for _, w := range workloads {
		w.homes = 2
		for _, traced := range []bool{false, true} {
			res, err := bench(w, 7, 40, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(res.bad) > 0 || res.failed > 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: checks %v, %d of %d failed", w.name, traced, res.bad, res.failed, res.attempted)
			}
			want := names(s.EndToEnd)
			if traced {
				want = names(s.PerLayer)
			}
			var got []string
			for n := range res.metrics {
				got = append(got, n)
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("%s traced=%v: metrics %v, want %v", w.name, traced, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s traced=%v: metrics %v, want %v", w.name, traced, got, want)
				}
			}
		}
	}
}

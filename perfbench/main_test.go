package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSpecMatches pins the benchmark's workloads and metric lists to
// BENCHMARK.json, names and units in order.
func TestSpecMatches(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	same := func(kind string, got []metricSpec, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: benchmark %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
}

// TestWorkloadsTiny runs every workload, untraced and traced, at a tiny
// length: every check must pass and every metric must be printed by name
// with its unit.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", name, traced), func(t *testing.T) {
				var log bytes.Buffer
				p := params{seed: 7, dur: 150 * time.Millisecond, traced: traced, scale: tinyScale, tmpDir: t.TempDir(), log: &log}
				out, err := runWorkload(name, p)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", out.Correct, out.Attempted, out.Failed, log.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v (present %t), want unit %s", m.name, got, ok, m.unit)
					}
					if !strings.Contains(log.String(), fmt.Sprintf("metric %-36s", m.name)) {
						t.Errorf("report does not print %s", m.name)
					}
				}
				for _, m := range want {
					if !traced && out.Metrics[m.name].Value <= 0 {
						t.Errorf("end-to-end metric %s reads %v", m.name, out.Metrics[m.name].Value)
					}
				}
			})
		}
	}
}

func TestMidMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{100, 1, 2, 3}, 2.5},
		{[]float64{9, 1, 4, 5, 6, 2, 3, 1000}, 4.5},
	} {
		if got := midMean(c.xs); got != c.want {
			t.Errorf("midMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "a", Start: 1, End: 3},
		{ID: 2, Parent: 0, Name: "b", Start: 2, End: 5},
		{ID: 3, Parent: 0, Name: "c", Start: 7, End: 12},
		{ID: 4, Parent: 1, Name: "d", Start: 1, End: 2},
	}
	self := tr.selfTimes()
	for name, want := range map[string]time.Duration{"op": 3, "a": 1, "b": 3, "c": 5, "d": 1} {
		if got := self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self time of %s = %v, want %v", name, got, want)
		}
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "reproduce", "--seconds", "0"},
		{"--workload", "reproduce", "--trace", "2"},
		{"--workload", "reproduce", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nonesuch"}, &out, &errOut); code != 1 {
		t.Errorf("unknown workload: exit %d, want 1", code)
	}
}

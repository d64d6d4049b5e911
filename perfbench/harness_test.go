package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []benchMetric           `json:"end_to_end"`
	PerLayer  []benchMetric           `json:"per_layer"`
}

type benchMetric struct{ Name, Unit string }

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func lookup(rep *report, name string) (metric, bool) {
	for _, m := range rep.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// tiny shrinks every workload so the whole suite runs in seconds.
func tiny(t *testing.T) {
	t.Helper()
	savedOff, savedWire := offlineWorkloads, wireWorkload
	t.Cleanup(func() { offlineWorkloads, wireWorkload = savedOff, savedWire })
	offlineWorkloads = map[string]offlineSpec{
		"offline-diurnal":   {scenario: "diurnal", n: 2000, algorithm: "firstfit", instances: 2},
		"offline-lightpath": {scenario: "lightpath", n: 300, algorithm: "bestfit", instances: 2},
		"offline-clustered": {scenario: "clustered", n: 1200, algorithm: "firstfit", intra: true, instances: 2},
	}
	wireWorkload.rate = 20_000
	wireWorkload.chunk = 512
}

// buildDaemon builds busyschedd for the wire workload.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "busyschedd")
	out, err := exec.Command("go", "build", "-o", bin, "busytime/cmd/busyschedd").CombinedOutput()
	if err != nil {
		t.Fatalf("building busyschedd: %v\n%s", err, out)
	}
	return bin
}

func tinyConfig(daemon string, trace bool) runConfig {
	return runConfig{seed: 7, duration: 400 * time.Millisecond, trace: trace, daemon: daemon}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload BENCHMARK.json
// names, untraced and traced, and checks the result carries exactly the
// metrics BENCHMARK.json lists, with its units, and no failed operation.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	tiny(t)
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadNames()) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness runs %v", len(b.Workloads), workloadNames())
	}
	daemon := buildDaemon(t)
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			rep, err := runWorkload(context.Background(), w.Name, tinyConfig(daemon, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, rep.Failed, rep.Attempted, rep.Errors)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := lookup(rep, m.Name)
				switch {
				case !ok:
					t.Errorf("%s trace=%v: no metric %s", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s in %s, BENCHMARK.json says %s", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedResultCountsAsFailed perturbs every result's cost before the
// gates run: each offline solve and each wire tenant must count as failed.
func TestCorruptedResultCountsAsFailed(t *testing.T) {
	tiny(t)
	daemon := buildDaemon(t)
	for _, name := range workloadNames() {
		cfg := tinyConfig(daemon, false)
		cfg.corrupt = true
		rep, err := runWorkload(context.Background(), name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Failed == 0 {
			t.Errorf("%s: corrupted results passed every gate", name)
		}
		var sb strings.Builder
		if err := rep.write(&sb, hostProvenance(cfg.seed, 1, false)); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != rep.Failed {
			t.Errorf("%s: result line says correct=%v failed=%d, want false and %d", name, res.Correct, res.Failed, rep.Failed)
		}
	}
}

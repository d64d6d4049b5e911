package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one named, measured number of a run.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run produced: the operation tally the
// correctness gates kept, the metrics, and run details (sample counts,
// sizes) printed beside the metrics.
type report struct {
	Workload  string
	Attempted int
	Failed    int
	Errors    []string // first few gate failures, for the log
	Metrics   []metric
	Details   map[string]any
}

func newReport(workload string) *report {
	return &report{Workload: workload, Details: map[string]any{}}
}

func (r *report) set(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit})
}

// fail counts one failed operation and keeps the first few reasons.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// failN counts n failed operations with one reason.
func (r *report) failN(n int, format string, args ...any) {
	for ; n > 0; n-- {
		r.fail(format, args...)
	}
}

// gate counts one attempted check and, when err is non-nil, its failure.
func (r *report) gate(err error) {
	r.Attempted++
	if err != nil {
		r.fail("%v", err)
	}
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// write prints the human-readable block (provenance, details, one metric per
// line with its unit) and then the result line.
func (r *report) write(w io.Writer, prov provenance) error {
	head, err := json.Marshal(map[string]any{"workload": r.Workload, "provenance": prov, "details": r.Details})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", head)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "# failed: %s\n", e)
	}
	res := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "# %-28s %16.6g %s\n", m.Name, m.Value, m.Unit)
		res.Metrics[m.Name] = m
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// provenance describes where and how a result was measured.
type provenance struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
}

func hostProvenance(seed int64, seconds int, traced bool) provenance {
	p := provenance{
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			p.Commit += "+modified"
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, of a process
// ("self" or a pid) in MB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(i)
	return xs[i] + time.Duration(frac*float64(xs[i+1]-xs[i]))
}

// weighted is a latency observed by Weight operations at once.
type weighted struct {
	D      time.Duration
	Weight int
}

// weightedQuantile returns the q-quantile of the operations behind xs: the
// smallest latency with at least q of the total weight at or below it. xs
// is sorted in place.
func weightedQuantile(xs []weighted, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	slices.SortFunc(xs, func(a, b weighted) int { return int(a.D - b.D) })
	total := 0
	for _, x := range xs {
		total += x.Weight
	}
	target := q * float64(total)
	seen := 0
	for _, x := range xs {
		seen += x.Weight
		if float64(seen) >= target {
			return x.D
		}
	}
	return xs[len(xs)-1].D
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median returns the median of xs (sorted in place).
func median(xs []time.Duration) time.Duration { return quantile(xs, 0.5) }

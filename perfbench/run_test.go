package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type declared struct {
	Name, Unit string
}

// declaredMetrics reads the metric lists from the repository's
// BENCHMARK.json, which the last output line must match.
func declaredMetrics(t *testing.T) (endToEnd, perLayer []declared) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// TestRunEveryWorkload runs each workload briefly in both modes and checks
// the contract of the last output line: all checks pass, and the metrics
// are exactly the ones BENCHMARK.json declares for the mode, with their
// units.
func TestRunEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every stack for several seconds")
	}
	endToEnd, perLayer := declaredMetrics(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "5", "--seconds", "1", "--trace", trace, "--out", t.TempDir()}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s%s", w.name, trace, code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed uint64
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", w.name, trace, err)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != len(want) {
				t.Fatalf("%s trace %s: correct %v attempted %d failed %d, %d metrics (want %d)",
					w.name, trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %s: metric %s printed as %+v, want unit %s", w.name, trace, d.Name, m, d.Unit)
				}
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "embedded", "--seconds", "0"},
		{"--workload", "embedded", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want a failure and no result", args, code, out.String())
		}
	}
}

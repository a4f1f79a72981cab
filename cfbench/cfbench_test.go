package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestQuickWorkloads runs every workload in quick mode, untraced and
// traced, and checks that the result line prints exactly the metrics
// BENCHMARK.json declares, each with its unit, and that every verdict
// matched its known answer.
func TestQuickWorkloads(t *testing.T) {
	f := readBenchmarkFile(t)
	var declared []string
	for _, w := range f.Workloads {
		declared = append(declared, w.Name)
	}
	var known []string
	for name := range workloads {
		known = append(known, name)
	}
	sort.Strings(declared)
	sort.Strings(known)
	if fmt.Sprint(declared) != fmt.Sprint(known) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark implements %v", declared, known)
	}
	e2e := map[string]string{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range f.PerLayer {
		layer[m.Name] = m.Unit
	}

	for _, name := range known {
		for _, traced := range []string{"0", "1"} {
			t.Run(name+"/trace"+traced, func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.jsonl")
				var out bytes.Buffer
				code := run([]string{"--workload", name, "--seed", "7", "--seconds", "1",
					"--trace", traced, "--quick", "--spans", spans}, &out)
				if code != 0 {
					t.Fatalf("exit code %d; output:\n%s", code, out.String())
				}
				res := lastResult(t, out.String())
				if !res.Correct || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d; output:\n%s", res.Correct, res.Attempted, out.String())
				}
				want := e2e
				if traced == "1" {
					want = layer
					if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
						t.Errorf("traced run wrote no spans: %v", err)
					}
				}
				for n, unit := range want {
					got, ok := res.Metrics[n]
					if !ok {
						t.Errorf("metric %s missing", n)
						continue
					}
					if got.Unit != unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", n, got.Unit, unit)
					}
					if !strings.Contains(out.String(), fmt.Sprintf("# metric %-26s", n)) {
						t.Errorf("metric %s has no detail line", n)
					}
				}
				for n := range res.Metrics {
					if _, ok := want[n]; !ok {
						t.Errorf("metric %s printed but not declared in BENCHMARK.json", n)
					}
				}
			})
		}
	}
}

// lastResult parses the last line of the output strictly: exactly the
// keys correct, attempted, failed and metrics.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	var last string
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		last = sc.Text()
	}
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	var res result
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	return res
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Fatalf("unknown workload printed %q", out.String())
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the definitions in this package")

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the measured window the benchmark's runs use.
const runSeconds = 24

func wantBenchmark() benchmarkFile {
	b := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadJSON{Name: w.name, Why: w.why})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, layerJSON{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return b
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program emits identical, and checks the names and units against the
// benchmark contract's character sets.
func TestBenchmarkJSONMatches(t *testing.T) {
	want := wantBenchmark()
	if *update {
		out, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from the definitions; rerun with -update\n got %+v\nwant %+v", got, want)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("bad or repeated metric %+v", d)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better %q", d.Name, d.Better)
			}
			seen[d.Name] = true
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] || len(w.why) > 200 {
			t.Errorf("bad workload %q", w.name)
		}
		seen[w.name] = true
	}
}

// TestFillRejectsUndeclaredAndMissing checks that the output builder
// refuses a metric set that differs from the declared one.
func TestFillRejectsUndeclaredAndMissing(t *testing.T) {
	vals := map[string]float64{}
	for _, d := range endToEnd {
		vals[d.Name] = 1
	}
	if out, problems := fill(endToEnd, vals); len(problems) != 0 || len(out) != len(endToEnd) {
		t.Fatalf("complete set: %d metrics, problems %v", len(out), problems)
	}
	vals["extra"] = 1
	delete(vals, "setup_s")
	if _, problems := fill(endToEnd, vals); len(problems) != 2 {
		t.Fatalf("want 2 problems, got %v", problems)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload at a small input size, untraced and
// traced, and checks the result line: all results correct, nothing
// failed, and every metric of the mode present.
func TestSmoke(t *testing.T) {
	for _, name := range []string{"mixed-mem", "reorg-mem", "churn-mem"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				code, err := run([]string{"--workload", name, "--seed", "7", "--seconds", "1",
					"--trace", trace, "--scale", "0.02", "--dir", t.TempDir()}, &out)
				if code != 0 || err != nil {
					t.Fatalf("exit %d: %v\n%s", code, err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

// TestArguments checks that a bad workload name is refused without a
// result line.
func TestArguments(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"--workload", "nope"}, &out)
	if code == 0 || err == nil || out.Len() != 0 {
		t.Fatalf("exit %d, err %v, output %q", code, err, out.String())
	}
}

// TestSpecMatches checks that BENCHMARK.json declares exactly the
// metrics the benchmark reports, with the same units.
func TestSpecMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

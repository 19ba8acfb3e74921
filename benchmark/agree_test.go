package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := func(mid float64) []float64 { // spread (q3-q1)/median = 1.5%
		return []float64{mid * 0.98, mid * 0.99, mid, mid, mid, mid, mid * 1.01, mid * 1.02}
	}
	noisy := []float64{70, 80, 90, 100, 100, 110, 120, 130}
	lower := boundedMetric{Name: "lat_p99_us", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		m    boundedMetric
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(100), verdictOK},
		{"within the bound", lower, steady(100), steady(108), verdictOK},
		{"latency up", lower, steady(100), steady(115), verdictWorse},
		{"latency down", lower, steady(100), steady(85), verdictBetter},
		{"throughput down", higher, steady(100), steady(85), verdictWorse},
		{"throughput up", higher, steady(100), steady(115), verdictBetter},
		{"a too noisy to tell", lower, noisy, steady(150), verdictUnresolved},
		{"b too noisy to tell", higher, steady(100), noisy, verdictUnresolved},
		{"one run a side", lower, []float64{100}, []float64{100}, verdictUnresolved},
	} {
		if got := judge(c.m, summarise(c.a), summarise(c.b)); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestAgreeFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64, failed uint64) string {
		var rs []*result
		for _, wl := range workloads {
			for i := 0; i < 5; i++ {
				e := map[string]float64{}
				for _, d := range endToEndDefs {
					e[d.name] = scale * (100 + float64(i)) // 1% steps: a tight set
				}
				rs = append(rs, &result{Workload: wl.name, Seed: uint64(i), Attempted: 1000, Failed: failed, EndToEnd: e})
			}
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	contract := filepath.Join("..", "BENCHMARK.json")
	base, same, slow, wrong := write("a.json", 1, 0), write("b.json", 1.01, 0), write("c.json", 1.5, 0), write("d.json", 1, 3)
	var out strings.Builder
	if code := agreeFiles(&out, contract, base, same); code != 0 {
		t.Errorf("sets 1%% apart disagree:\n%s", out.String())
	}
	out.Reset()
	if code := agreeFiles(&out, contract, base, slow); code != 1 || !strings.Contains(out.String(), verdictWorse) || !strings.Contains(out.String(), verdictBetter) {
		t.Errorf("sets 50%% apart: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := agreeFiles(&out, contract, base, wrong); code != 1 {
		t.Errorf("a set with wrong answers agrees:\n%s", out.String())
	}
}

// TestContractMatchesTheCode keeps BENCHMARK.json and the tables in the code
// from drifting apart: the same workloads, the same metrics, the same units.
func TestContractMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, spec.Workloads[i].Name, wl.name)
		}
	}
	for kind, pair := range map[string]struct {
		spec []entry
		defs []metricDef
	}{"end_to_end": {spec.EndToEnd, endToEndDefs}, "per_layer": {spec.PerLayer, perLayerDefs}} {
		if len(pair.spec) != len(pair.defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(pair.spec), len(pair.defs))
		}
		for i, d := range pair.defs {
			if e := pair.spec[i]; e.Name != d.name || e.Unit != d.unit || (e.Better != "lower" && e.Better != "higher") {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", kind, i, e, d)
			}
		}
	}
}

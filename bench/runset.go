package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// runRecord is one child run as the run and trace subcommands keep it.
type runRecord struct {
	Set      int    `json:"set"`
	Workload string `json:"workload"`
	result
	Detail detail `json:"detail"`
}

// runFile is what run and trace write and compare reads.
type runFile struct {
	Meta meta        `json:"meta"`
	Runs []runRecord `json:"runs"`
}

// child runs one workload in its own process, so no run inherits
// another's heap, caches or goroutines.
func child(self, name string, seed int64, seconds float64, traced bool) (detail, result, error) {
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return detail{}, result{}, fmt.Errorf("%s: %w", name, err)
	}
	d, r, err := lastJSONLines(out)
	if err != nil {
		return d, r, fmt.Errorf("%s: %w", name, err)
	}
	return d, r, nil
}

// runSets is the run and trace subcommands: every workload once per set,
// sets one after another, so runs to be compared are interleaved.
func runSets(args []string, traced bool) int {
	kind := "run"
	if traced {
		kind = "trace"
	}
	fs := flag.NewFlagSet(kind, flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed the workloads' inputs derive from")
	sets := fs.Int("sets", 1, "how many times to run every workload")
	seconds := fs.Float64("seconds", runSeconds, "how long each run measures")
	out := fs.String("o", "", "where to write the runs (default bench/out/"+kind+"-seed<N>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" {
		*out = filepath.Join("bench", "out", fmt.Sprintf("%s-seed%d.json", kind, *seed))
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	f := runFile{Meta: collectMeta(*seed, *seconds)}
	ok := true
	for set := 1; set <= *sets; set++ {
		for _, w := range workloads {
			d, r, err := child(self, w.name, *seed, *seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				ok = false
				continue
			}
			ok = ok && r.Correct
			f.Runs = append(f.Runs, runRecord{Set: set, Workload: w.name, result: r, Detail: d})
		}
	}
	fmt.Printf("commit %s, %s, %s, GOMAXPROCS %d, seed %d, calibration %.1f ms\n",
		f.Meta.Commit, f.Meta.Go, f.Meta.CPU, f.Meta.GOMAXPROCS, f.Meta.Seed, f.Meta.CalibrationMS)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, w := range workloads {
		for _, def := range defs {
			vs := f.values(w.name, def.name, 0)
			if len(vs) == 0 {
				continue
			}
			q1, q3 := quartiles(vs)
			fmt.Printf("%-14s %-28s %14.6g %-9s (%.6g–%.6g, n=%d)\n", w.name, def.name, median(vs), def.unit, q1, q3, len(vs))
		}
		for _, r := range f.Runs {
			if r.Workload != w.name {
				continue
			}
			var extra []string
			for _, k := range sortedKeys(r.Detail.Extra) {
				extra = append(extra, fmt.Sprintf("%s %.6g", k, r.Detail.Extra[k]))
			}
			fmt.Printf("%-14s set %d: correct %v, %d attempted, %d failed, digest %.12s (%s) %s\n",
				w.name, r.Set, r.Correct, r.Attempted, r.Failed, r.Detail.Digest, r.Detail.Golden, strings.Join(extra, ", "))
		}
	}
	if err := writeJSONFile(*out, f); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("wrote", *out)
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: a run failed or reported incorrect output")
		return 1
	}
	return 0
}

// values collects one metric of one workload across the file's runs;
// set 0 takes every set.
func (f runFile) values(workload, name string, set int) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if r.Workload == workload && (set == 0 || r.Set == set) {
			if m, ok := r.Metrics[name]; ok {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchmarkFile is BENCHMARK.json, the declaration the benchmark is run
// and judged by.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// loadRuns reads a run file; "file#N" keeps only its set N.
func loadRuns(arg string) (runFile, int, error) {
	path, setStr, hasSet := strings.Cut(arg, "#")
	set := 0
	if hasSet {
		n, err := strconv.Atoi(setStr)
		if err != nil || n < 1 {
			return runFile{}, 0, fmt.Errorf("%s: set must be a positive number", arg)
		}
		set = n
	}
	var f runFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, 0, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, 0, fmt.Errorf("%s: %w", path, err)
	}
	return f, set, nil
}

// verdict judges the new runs of one metric against the base runs under
// its bound, the largest relative worsening of the median allowed.
// "unresolved" means the runs spread wider than the bound and not every
// new run beats every base run, or that a side has fewer than minRuns
// runs, too few to tell a change beyond the bound from noise; "better"
// needs every new run to beat every base run and the median to improve by
// more than both the bound and the base runs' own spread.
func verdict(base, cur []float64, higherBetter bool, bound float64) string {
	mb, mc := median(base), median(cur)
	worse := (mc - mb) / mb
	beats := func(n, b float64) bool { return n < b }
	if higherBetter {
		worse = (mb - mc) / mb
		beats = func(n, b float64) bool { return n > b }
	}
	all := true
	for _, n := range cur {
		for _, b := range base {
			all = all && beats(n, b)
		}
	}
	known := len(base) >= minRuns && len(cur) >= minRuns
	switch {
	case max(spread(base), spread(cur)) > bound && !all:
		return "unresolved"
	case worse > bound && known:
		return "regressed"
	case all && -worse > max(bound, spread(base)) && known:
		return "better"
	case worse > bound || all && -worse > max(bound, spread(base)):
		return "unresolved"
	}
	return "no worse"
}

// minRuns is the fewest runs per side a verdict of regressed or better
// rests on: on the baseline machine two single runs of one commit differ
// by up to 30 %.
const minRuns = 3

// compare applies BENCHMARK.json's bounds to two run files, one row per
// workload and end-to-end metric. It exits 1 when any metric regressed.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare BASE.json[#SET] NEW.json[#SET]")
		return 2
	}
	b, err := loadBenchmark("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	base, baseSet, err := loadRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cur, curSet, err := loadRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%-14s %-14s %12s %12s %8s %7s %6s  %s\n", "workload", "metric", "base", "new", "change", "spread", "bound", "verdict")
	regressed := false
	for _, w := range b.Workloads {
		for _, m := range b.EndToEnd {
			bv, cv := base.values(w.Name, m.Name, baseSet), cur.values(w.Name, m.Name, curSet)
			if len(bv) == 0 || len(cv) == 0 {
				fmt.Printf("%-14s %-14s missing runs\n", w.Name, m.Name)
				continue
			}
			v := verdict(bv, cv, m.Better == "higher", m.Bound)
			regressed = regressed || v == "regressed"
			mb, mc := median(bv), median(cv)
			fmt.Printf("%-14s %-14s %12.6g %12.6g %+7.1f%% %6.1f%% %5.0f%%  %s\n", w.Name, m.Name, mb, mc,
				100*(mc-mb)/mb, 100*max(spread(bv), spread(cv)), 100*m.Bound, v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// writeGolden runs every workload on seeds 1 and 2 and writes their
// digests to bench/golden.json. Only a change that means to alter
// results should need it; its diff shows which workloads moved.
func writeGolden(args []string) int {
	fs := flag.NewFlagSet("golden", flag.ContinueOnError)
	seconds := fs.Float64("seconds", 1, "how long each run measures")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	g := map[string]map[string]string{}
	for _, w := range workloads {
		g[w.name] = map[string]string{}
		for _, seed := range []int64{1, 2} {
			d, r, err := child(self, w.name, seed, *seconds, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if len(d.Problems) > 0 || r.Failed > 0 {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: repetitions disagree or operations failed\n", w.name, seed)
				return 1
			}
			g[w.name][strconv.FormatInt(seed, 10)] = d.Digest
		}
	}
	path := filepath.Join("bench", "golden.json")
	if err := writeJSONFile(path, g); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("wrote", path)
	return 0
}

// Command specbench is the repository's benchmark. It drives one of three
// workloads through the simulator's public packages, checks that the
// simulated outputs are correct, and prints its metrics as one JSON object
// on the last line of standard output.
//
//	go run . -workload paper-all -seed 0 -seconds 25 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of untraced passes. With
// -trace 1 it alternates untraced and traced passes, replays each layer's
// captured input stream, and reports the per-layer metrics; the spans are
// written to $CARGO_TARGET_DIR/trace (default .bench_build/trace). See
// README.md for what each workload and metric is for.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// workload is one of the benchmark's three loads.
type workload struct {
	name string
	pass func(*env, *recorder) *pass
	// minPasses makes every run hold at least 100 simulations, the count
	// sim_ms_p90 needs (ten samples beyond it).
	minPasses int
}

var workloadList = []workload{
	{name: "paper-all", pass: paperAllPass, minPasses: 1},
	{name: "slices-serial", pass: slicesSerialPass, minPasses: 9},
	{name: "fastforward-oracle", pass: fastforwardPass, minPasses: 9},
}

// setupReps is how many times a run builds its set-up; setup_s is the
// median.
const setupReps = 9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("specbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-all, slices-serial or fastforward-oracle")
	seed := fs.Int64("seed", 0, "input seed: moves each program's warm-up by whole thousands of instructions (0 = the reference window)")
	seconds := fs.Int("seconds", 25, "how long the untraced passes measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	refPath := fs.String("reference", filepath.Join("specbench", "reference.json"), "reference digests for seed 0")
	update := fs.Bool("update-reference", false, "write this workload's seed-0 digests to -reference instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloadList {
		if workloadList[i].name == *name {
			wl = &workloadList[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed < 0 {
		fmt.Fprintf(stderr, "specbench: need -workload paper-all|slices-serial|fastforward-oracle, -seconds ≥ 1, -trace 0|1 and -seed ≥ 0\n")
		return 2
	}
	if *update && *seed != 0 {
		fmt.Fprintf(stderr, "specbench: -update-reference records seed 0 only\n")
		return 2
	}
	ref, err := loadReference(*refPath)
	if err != nil && !(*update && errors.Is(err, os.ErrNotExist)) {
		fmt.Fprintf(stderr, "specbench: %v\n", err)
		return 1
	}

	var setupTimes []float64
	var e *env
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		e = setup(*seed)
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}

	b := &bench{wl: wl, env: e, stdout: stdout, stderr: stderr}
	var res *result
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced(time.Duration(*seconds)*time.Second, median(setupTimes))
	}
	if err != nil {
		fmt.Fprintf(stderr, "specbench: %v\n", err)
		return 1
	}

	digests, tables := b.passes[0].digest()
	switch {
	case *update:
		if ref == nil {
			ref = &reference{Workloads: map[string]refEntry{}}
		}
		ref.Workloads[wl.name] = refEntry{Sims: len(b.passes[0].digests), Snapshots: digests, Tables: tables}
		if err := ref.save(*refPath); err != nil {
			fmt.Fprintf(stderr, "specbench: %v\n", err)
			return 1
		}
	case *seed == 0:
		want, ok := ref.Workloads[wl.name]
		if !ok || want.Snapshots != digests || want.Tables != tables || want.Sims != len(b.passes[0].digests) {
			b.problem("outputs differ from the stored seed-0 reference (snapshots %s, tables %s; want %+v)", digests, tables, want)
		}
	}
	for _, ps := range b.passes[1:] {
		if d, t := ps.digest(); d != digests || t != tables {
			b.problem("a repeated pass produced different outputs (snapshots %s vs %s)", d, digests)
		}
	}
	for _, ps := range b.passes {
		res.Attempted += ps.attempted
		res.Failed += ps.failed
		for _, p := range ps.problems {
			b.problem("%s", p)
		}
	}
	res.Correct = res.Failed == 0 && !b.bad
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "specbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// bench is one run of one workload.
type bench struct {
	wl             *workload
	env            *env
	passes         []*pass
	stdout, stderr io.Writer
	bad            bool
}

func (b *bench) problem(format string, args ...any) {
	b.bad = true
	fmt.Fprintf(b.stderr, "specbench: FAIL: "+format+"\n", args...)
}

// pass runs one pass of the workload on a freshly collected heap, so each
// pass starts from the same heap state, as a fresh process would.
func (b *bench) pass(rec *recorder) *pass {
	runtime.GC()
	return b.wl.pass(b.env, rec)
}

// digest returns the pass's combined snapshot digest and its tables'.
func (ps *pass) digest() (string, string) {
	t := ""
	if ps.tables != "" {
		t = digest(ps.tables)
	}
	return combine(ps.digests), t
}

// untraced runs passes until the next one would overrun the measuring
// time, and at least minPasses of them, and reports the end-to-end
// metrics.
func (b *bench) untraced(budget time.Duration, setupS float64) (*result, error) {
	var total pass
	var walls []float64
	start := time.Now()
	for len(b.passes) < b.wl.minPasses || time.Since(start)+b.passes[len(b.passes)-1].wall <= budget {
		ps := b.pass(nil)
		b.passes = append(b.passes, ps)
		walls = append(walls, ps.wall.Seconds())
		total.wall += ps.wall
		total.insts += ps.insts
		total.mallocs += ps.mallocs
		total.sims = append(total.sims, ps.sims...)
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	n := len(total.sims)
	if !supports(n, p90) {
		return nil, fmt.Errorf("%d simulations do not support a p90", n)
	}
	fmt.Fprintf(b.stdout, "%s seed %d: %d passes (%.3f..%.3f s), %d simulations (highest supported tail p%g, reported p90), %d instructions\n",
		b.wl.name, b.env.seed, len(b.passes), slices.Min(walls), slices.Max(walls), n, float64(tailPermille(n))/10, total.insts)
	return &result{Metrics: map[string]metric{
		"setup_s":         {setupS, "s"},
		"wall_s":          {median(walls), "s"},
		"sim_minst_per_s": {float64(total.insts) / total.wall.Seconds() / 1e6, "Minst/s"},
		"sim_ms_p50":      {percentileMs(total.sims, p50), "ms"},
		"sim_ms_p90":      {percentileMs(total.sims, p90), "ms"},
		"allocs_per_inst": {float64(total.mallocs) / float64(total.insts), "count"},
		"peak_rss_mb":     {rss, "MB"},
	}}, nil
}

// tracedRounds is how many (untraced, traced) pass pairs a traced run
// makes; the tracing overhead compares the two sides' medians.
const tracedRounds = 3

// traced runs tracedRounds pairs of an untraced pass and the same pass
// with spans recorded, keeps the last traced pass (plus paper-all's serial
// re-drive, which times each phase), runs the replay suite, and reports
// the per-layer metrics.
func (b *bench) traced() (*result, error) {
	var (
		up, tp   *pass
		rec      *recorder
		ms0, ms1 runtime.MemStats
		ups, tps []float64
	)
	for i := 0; i < tracedRounds; i++ {
		up = b.pass(nil)
		rec = newRecorder()
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		tp = b.wl.pass(b.env, rec)
		runtime.ReadMemStats(&ms1)
		b.passes = append(b.passes, up, tp)
		ups, tps = append(ups, up.wall.Seconds()), append(tps, tp.wall.Seconds())
	}
	untracedWall, tracedWall := median(ups), median(tps)
	if b.wl.name == "paper-all" {
		redrive(b.env, tp, rec)
	}
	if err := writeSpans(b.wl.name, b.env.seed, rec.spans); err != nil {
		return nil, err
	}

	lt, err := replaySuite(b.env)
	if err != nil {
		return nil, err
	}
	checked, overhead := tp.checked, tp.validated-tp.unchecked
	if checked == 0 {
		if checked, overhead, err = oracleProbe(b.env); err != nil {
			return nil, err
		}
	}
	if !supports(len(tp.chunks), p99) {
		return nil, fmt.Errorf("%d chunks do not support a p99", len(tp.chunks))
	}

	self := selfTimes(rec.spans)
	var s stats.Snapshot
	for i := range tp.snaps {
		s.Merge(&tp.snaps[i])
	}
	var footprint uint64
	for _, f := range tp.footprint {
		footprint += f
	}
	sim, hier, corr := &s.Sim, &s.Hier, &s.Corr
	used := sim.PredsUsed + sim.PredsLateUsed
	f := func(v uint64) float64 { return float64(v) }
	m := map[string]metric{
		"harness.sims":           {f(up.engine.Misses), "count"},
		"harness.memo_hits":      {f(up.engine.Hits), "count"},
		"harness.warm_builds":    {f(up.ckpt.WarmMisses), "count"},
		"harness.restores":       {f(up.ckpt.Restores), "count"},
		"harness.pool_busy_frac": {up.simWall.Seconds() / (float64(up.jobs) * up.wall.Seconds()), "frac"},
		"harness.warm_s":         {(self["Checkpointer.Warm"] + self["Core.Run/warm"]).Seconds(), "s"},
		"harness.restore_s":      {(self["cpu.Restore"] + self["cpu.New"]).Seconds(), "s"},
		"harness.measure_s":      {self["Core.Run/chunk"].Seconds(), "s"},
		"harness.ckpt_mb":        {f(tp.ckptBytes) / 1e6, "MB"},

		"cpu.ns_per_inst":       {ratio(f(uint64(tp.runTime.Nanoseconds())), f(tp.runInsts)), "ns"},
		"cpu.allocs_per_inst":   {ratio(f(tp.runMallocs), f(tp.runInsts)), "count"},
		"cpu.chunk_ms_p50":      {percentileMs(tp.chunks, p50), "ms"},
		"cpu.chunk_ms_p99":      {percentileMs(tp.chunks, p99), "ms"},
		"cpu.ipc":               {sim.IPC(), "inst/cycle"},
		"cpu.cycles":            {f(sim.Cycles), "count"},
		"cpu.wrong_path_frac":   {ratio(f(sim.MainWrongPath), f(sim.MainFetched)), "frac"},
		"cpu.helper_fetch_frac": {ratio(f(sim.HelperFetched), f(sim.MainFetched+sim.HelperFetched)), "frac"},

		"slicehw.forks":           {f(sim.Forks), "count"},
		"slicehw.forks_ignored":   {f(sim.ForksIgnored), "count"},
		"slicehw.preds_generated": {f(sim.PredsGenerated), "count"},
		"slicehw.pred_use_frac":   {ratio(f(used), f(sim.PredsGenerated)), "frac"},
		"slicehw.pred_accuracy":   {ratio(f(sim.PredsCorrect), f(sim.PredsCorrect+sim.PredsIncorrect)), "frac"},
		"slicehw.late_frac":       {ratio(f(sim.PredsLateUsed), f(used)), "frac"},
		"slicehw.kills":           {f(corr.LoopKills + corr.SliceKills), "count"},
		"slicehw.ns_per_op":       {lt.corrNs, "ns"},
		"slicehw.allocs_per_op":   {lt.corrAllocs, "count"},

		"cache.l1d_accesses":         {f(s.L1D.Accesses), "count"},
		"cache.l1d_miss_rate":        {ratio(f(s.L1D.Misses), f(s.L1D.Accesses)), "frac"},
		"cache.l2_miss_rate":         {ratio(f(s.L2.Misses), f(s.L2.Accesses)), "frac"},
		"cache.pvb_hit_rate":         {ratio(f(s.PVB.Hits), f(s.PVB.Hits+s.PVB.Misses)), "frac"},
		"cache.prefetch_useful_frac": {ratio(f(hier.PrefetchUseful), f(hier.PrefetchIssued)), "frac"},
		"cache.helper_covered":       {f(hier.HelperCovered), "count"},
		"cache.ns_per_access":        {lt.cacheNs, "ns"},
		"bpred.lookups":              {f(s.Bpred.YAGS.Lookups), "count"},
		"bpred.mispredict_rate":      {ratio(f(sim.Mispredicts), f(sim.Branches)), "frac"},
		"bpred.indirect_miss_rate":   {ratio(f(sim.IndirectMisses), f(sim.IndirectJumps)), "frac"},
		"bpred.ns_per_lookup":        {lt.bpredNs, "ns"},
		"isa.exec_ns_per_inst":       {lt.execNs, "ns"},
		"compiled.minst_per_s":       {lt.compiledMinst, "Minst/s"},
		"mem.ns_per_access":          {lt.memNs, "ns"},
		"mem.pager_ns_per_access":    {lt.pagerNs, "ns"},
		"mem.footprint_mb":           {f(footprint) / 1e6, "MB"},
		"oracle.checked_insts":       {f(checked), "count"},
		"oracle.overhead_s":          {overhead.Seconds(), "s"},
		"runtime.num_gc":             {f(uint64(ms1.NumGC - ms0.NumGC)), "count"},
		"runtime.gc_pause_ms":        {f(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6, "ms"},
		"trace.overhead_frac":        {tracedWall/untracedWall - 1, "frac"},
		"trace.spans":                {f(uint64(len(rec.spans))), "count"},
		"trace.sim_samples":          {f(uint64(len(tp.sims))), "count"},
		"trace.chunk_samples":        {f(uint64(len(tp.chunks))), "count"},
		"trace.replayed_accesses":    {f(uint64(lt.accesses)), "count"},
		"trace.replayed_lookups":     {f(uint64(lt.lookups)), "count"},
		"trace.replayed_slicehw_ops": {f(uint64(lt.corrOps)), "count"},
		"trace.untraced_wall_s":      {untracedWall, "s"},
		"trace.traced_wall_s":        {tracedWall, "s"},
	}
	fmt.Fprintf(b.stdout, "%s seed %d: median traced pass %.3fs vs untraced %.3fs (overhead %+.1f%%), %d spans, %d chunks\n",
		b.wl.name, b.env.seed, tracedWall, untracedWall, 100*m["trace.overhead_frac"].Value, len(rec.spans), len(tp.chunks))
	return &result{Metrics: m}, nil
}

// writeSpans writes a traced pass's spans once, after the pass.
func writeSpans(name string, seed int64, spans []span) error {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)), b, 0o644)
}

// peakRSS returns the process's peak resident memory (VmHWM) in MB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// --- reference ---

type refEntry struct {
	Sims      int    `json:"sims"`
	Snapshots string `json:"snapshots"`
	Tables    string `json:"tables,omitempty"`
}

// reference holds each workload's seed-0 output digests: the combined
// digest of every measured region's stats.Snapshot and, for paper-all, of
// its formatted tables.
type reference struct {
	Workloads map[string]refEntry `json:"workloads"`
}

func loadReference(path string) (*reference, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var r reference
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("reference %s: %w", path, err)
	}
	return &r, nil
}

func (r *reference) save(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

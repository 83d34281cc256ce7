// Command benchmark is the repository's end-to-end benchmark: it builds
// a seeded dataset in a real on-disk database, serves it with
// internal/server on loopback TCP, and drives it through one
// closed-loop server.Client connection. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/executor"
)

// setups is how many times a run that reports setup_s builds the
// dataset; setup_s is the median.
const setups = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: point_warm, point_cold, scan_warm, write_mix or point_fresh")
		seed    = flag.Int64("seed", 1, "seed of the dataset and the statement stream")
		seconds = flag.Int("seconds", 10, "nominal length of the measured window")
		trace   = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics and the traced layer ladder only; -1: both")
		scale   = flag.Float64("scale", 1, "scales the dataset and every statement count (the smoke test uses 0.01)")
		rundir  = flag.String("rundir", ".bench_build", "directory for the run's database, reference file and trace")
		aa      = flag.Int("aa", 0, "run every workload this many times and print the A/A study")
	)
	flag.Parse()
	// One P for the whole process: with two, a closed-loop round trip
	// measures futex wake-ups between them rather than the engine.
	runtime.GOMAXPROCS(1)

	if *aa > 0 {
		os.Exit(runAA(*aa, *seconds, *rundir))
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || *scale <= 0 || *trace < -1 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, *seconds, *scale, *trace, *rundir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// result is one run's outcome; its JSON form is the last line printed.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	planKind string
	order    []metricDef
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res *result) print(out *os.File) {
	fmt.Fprintf(out, "plan of the first exact match: %s\n", res.planKind)
	for _, d := range res.order {
		fmt.Fprintf(out, "%-34s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(out, "statements: %d attempted, %d failed\n", res.Attempted, res.Failed)
	line, _ := json.Marshal(res)
	fmt.Fprintf(out, "%s\n", line)
}

// runWorkload runs one workload on one seed and returns its metrics:
// the end-to-end ones with trace 0, the per-layer ones with trace 1,
// both with trace -1.
func runWorkload(w *workload, seed int64, seconds int, scale float64, trace int, rundir string) (*result, error) {
	if err := os.MkdirAll(rundir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(rundir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ref, err := newRefOp(dir)
	if err != nil {
		return nil, err
	}
	defer ref.close()

	// A reference block is a fifth of a slice's statement time.
	blockN := max(int(float64(seconds)*scale*1e6/6/slices100/refUS), 20)
	clk, err := newCalClock(ref, blockN)
	if err != nil {
		return nil, err
	}
	r := &run{w: w, seed: seed, scale: scale, seconds: seconds, dir: dir, clk: clk, ds: newDataset(seed, scale)}
	defer func() {
		if r.env != nil {
			r.env.close()
		}
	}()
	v := values{}

	// Set-up, several times when setup_s is reported; the last one stays.
	n := setups
	if trace == 1 {
		n = 1
	}
	var cal, raw []float64
	var last *setupStats
	for i := 0; i < n; i++ {
		if r.env != nil {
			if err := r.env.close(); err != nil {
				return nil, err
			}
			r.env = nil
		}
		if last, err = r.setup(); err != nil {
			return nil, err
		}
		cal = append(cal, last.cal)
		raw = append(raw, last.raw)
	}
	v["setup_s"] = median(cal)
	v["raw.setup_s"] = median(raw)
	for _, p := range []string{"load_words", "load_pts", "load_fresh", "analyze", "checkpoint", "reopen", "warmup"} {
		v["setup."+p+"_s"] = last.phase[p]
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	v["proc.heap_mb_after_setup"] = float64(ms.HeapAlloc) / (1 << 20)

	ws, err := r.window()
	if err != nil {
		return nil, err
	}
	counterMetrics(v, ws)
	windowMetrics(v, w, ws)
	// (At a smaller scale the heap is no bigger than the cold pool.)
	if w.coldPool > 0 && scale >= 1 && v["storage.pool_hit_ratio"] > 0.1 {
		r.fail(fmt.Errorf("%s: pool hit ratio %.3f, want a cold pool (≤ 0.1)", w.name, v["storage.pool_hit_ratio"]))
	}

	if w.writes {
		// Durability: crash, recover, and compare everything with the model.
		t0 := time.Now()
		if err := r.reopen(poolPages, true); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		f, err := clk.factor()
		if err != nil {
			return nil, err
		}
		v["recovery.reopen_ms"] = d.Seconds() * 1e3 * f
		r.checkRecovered()
	}

	// Space and write cost, after a final CHECKPOINT.
	r.mustExec("CHECKPOINT", "CHECKPOINT")
	if err := r.retire(); err != nil {
		return nil, err
	}
	v["write_bytes_per_user_byte"] = float64(r.walBytes+r.pageWrites*pageSize) / float64(r.m.userBytes)
	if err := spaceMetrics(v, r.dbDir(), r.m); err != nil {
		return nil, err
	}

	if trace != 0 {
		if err := r.ladder(v, ws, filepath.Join(rundir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}

	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}, planKind: r.planKind}
	if trace != 1 {
		res.order = append(res.order, endToEnd...)
	}
	if trace != 0 {
		res.order = append(res.order, perLayer...)
	}
	for _, d := range res.order {
		x := v[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			r.fail(fmt.Errorf("metric %s is %v", d.name, x))
			x = 0
		}
		res.Metrics[d.name] = metric{x, d.unit}
	}
	res.Failed = r.failed
	res.Correct = r.failed == 0
	return res, nil
}

// checkRecovered compares the recovered words table with the model
// through three paths: a full sequential scan over TCP, the trie's
// prefix path over the whole key space (forced through the index with
// Table.SelectIndexed, whatever the planner would choose), and the
// trie's exact-match path over TCP for every seventh live key. Every
// acknowledged write that is missing, and every row that should be
// gone, is a failed statement.
func (r *run) checkRecovered() {
	compare := func(path string, got map[string]string) {
		for name, id := range r.m.ids {
			if got[name] != fmt.Sprint(id) {
				r.fail(fmt.Errorf("after recovery, %s: %s has id %q, want %d", path, name, got[name], id))
			}
		}
		for name := range got {
			if _, live := r.m.ids[name]; !live {
				r.fail(fmt.Errorf("after recovery, %s: %s is back from the dead", path, name))
			}
		}
	}
	add := func(path string, got map[string]string, name, id string) {
		if _, dup := got[name]; dup {
			r.fail(fmt.Errorf("after recovery, %s: %s returned twice", path, name))
		}
		got[name] = id
	}

	r.attempted++
	if resp, err := r.env.c.Exec("SELECT * FROM words"); err != nil {
		r.fail(fmt.Errorf("after recovery, Seq Scan: %w", err))
	} else {
		got := make(map[string]string, len(resp.Rows))
		for _, row := range resp.Rows {
			add("Seq Scan", got, row[0], row[1])
		}
		compare("Seq Scan", got)
	}

	r.attempted++
	t, err := r.env.db.Table("words")
	if err != nil || len(t.Indexes) != 1 {
		r.fail(fmt.Errorf("after recovery: table words with one index: %v", err))
		return
	}
	got := make(map[string]string, len(r.m.ids))
	for digit := '0'; digit <= '9'; digit++ {
		pred := &executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText(string(digit))}
		err := t.SelectIndexed(t.Indexes[0], pred, func(row executor.Row) bool {
			add("trie prefix scan", got, row.Tuple[0].String(), row.Tuple[1].String())
			return true
		})
		if err != nil {
			r.fail(fmt.Errorf("after recovery, trie prefix scan: %w", err))
		}
	}
	compare("trie prefix scan", got)

	for i := 0; i < len(r.m.keys); i += 7 {
		key := r.m.keys[i]
		r.exec(stmt{kind: kExact, key: key, sql: "SELECT * FROM words WHERE name = '" + key + "'"}, i)
	}
}

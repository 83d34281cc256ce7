package executor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/storage"
	"repro/internal/syscat"
)

// ANALYZE collects planner statistics from a block sample of the heap,
// PostgreSQL-style: up to statsTarget*300 rows are read from a random
// subset of pages (not the whole table), per-column statistics are
// computed (ndistinct via the Duj1 estimator, null fraction, min/max,
// most-common values, an equi-depth histogram), and — for the explicit
// ANALYZE statement — the result is persisted as a WAL-logged statistics
// record in the system catalog, so the first plan after a reopen costs
// O(catalog) instead of O(rows).

// statsTarget mirrors PostgreSQL's default_statistics_target: the
// sample holds up to 300× this many rows.
const statsTarget = 100

// analyzeSampleCap is the row budget of one ANALYZE sample.
const analyzeSampleCap = 300 * statsTarget

// sampleHeap reads up to analyzeSampleCap rows from randomly chosen
// heap pages. Whole pages are taken (block sampling) until the budget
// is met; small tables are read in full. The rng makes page choice
// deterministic per (table, row count), so repeated ANALYZE of an
// unchanged table yields identical statistics.
func (t *Table) sampleHeap() ([]catalog.Tuple, error) {
	rng := rand.New(rand.NewSource(int64(t.oid)<<32 ^ t.Heap.Count()))
	dataPages := int(t.Heap.NumPages()) - 1 // page 0 is heap metadata
	if dataPages <= 0 {
		return nil, nil
	}
	var sample []catalog.Tuple
	var derr error
	// Lazy partial Fisher-Yates: draw distinct random pages one at a
	// time, so a huge table costs O(pages visited) — proportional to
	// the sample budget, not the heap (a full rng.Perm would allocate
	// and shuffle every page index up front).
	swapped := make(map[int]int)
	at := func(i int) int {
		if v, ok := swapped[i]; ok {
			return v
		}
		return i
	}
	draw := func(i int) int {
		j := i + rng.Intn(dataPages-i)
		pi := at(j)
		swapped[j] = at(i)
		return pi
	}
	// The sample's random page order defeats the heap scan's sequential
	// readahead, so pipeline by hand: draw the next page one iteration
	// early and prefetch it while the current page is decoded. The rng
	// consumes draws in the same order as the plain loop, keeping page
	// choice deterministic.
	bp := t.Heap.Pool()
	pending := -1
	for i := 0; i < dataPages && len(sample) < analyzeSampleCap; i++ {
		pi := pending
		if pi < 0 {
			pi = draw(i)
		}
		pending = -1
		if i+1 < dataPages && bp.ReadaheadPages() > 0 {
			pending = draw(i + 1)
			bp.Prefetch(storage.PageID(pending + 1))
		}
		err := t.Heap.ScanPageVersions(storage.PageID(pi+1), func(_ heap.RID, h heap.TupleHeader, rec []byte) bool {
			// Sample only versions a fresh snapshot could see: dead
			// versions (aborted inserts, deleted rows awaiting VACUUM)
			// would skew the statistics toward vanished data.
			if h.Flags&heap.FlagXminAborted != 0 || h.Xmax != 0 {
				return true
			}
			tup, err := catalog.DecodeTuple(rec)
			if err != nil {
				derr = err
				return false
			}
			sample = append(sample, tup)
			return true
		})
		if err != nil {
			return nil, err
		}
		if derr != nil {
			return nil, derr
		}
	}
	return sample, nil
}

// computeColumnStats derives one column's statistics from the sample.
// totalRows is the heap's live row count, used to extrapolate ndistinct
// beyond the sample via the Duj1 estimator PostgreSQL's ANALYZE uses:
//
//	D = n*d / (n - f1 + f1*n/N)
//
// where n = sample rows, N = total rows, d = distinct values in the
// sample, f1 = values seen exactly once.
func computeColumnStats(typ catalog.Type, column int, sample []catalog.Tuple, totalRows int64) catalog.ColumnStats {
	var cs catalog.ColumnStats
	n := len(sample)
	if n == 0 {
		return cs
	}
	counts := make(map[string]int, n)
	vals := make(map[string]catalog.Datum, n)
	for _, tup := range sample {
		d := tup[column]
		k := d.String()
		counts[k]++
		vals[k] = d
	}
	d := len(counts)
	f1 := 0
	for _, c := range counts {
		if c == 1 {
			f1++
		}
	}
	if int64(n) >= totalRows || f1 == 0 {
		// The sample covered everything (or every value repeats): the
		// sampled distinct count is the estimate.
		cs.NDistinct = int64(d)
	} else {
		denom := float64(n) - float64(f1) + float64(f1)*float64(n)/float64(totalRows)
		est := float64(n) * float64(d) / denom
		cs.NDistinct = int64(math.Round(est))
	}
	if cs.NDistinct < int64(d) {
		cs.NDistinct = int64(d)
	}
	if cs.NDistinct > totalRows && totalRows > 0 {
		cs.NDistinct = totalRows
	}

	// Most-common values: anything sampled more than once, by frequency
	// (ties broken by value for determinism), capped at MaxMCVs. Very
	// wide values are excluded from storage (they would bloat the
	// catalog record) but still counted in ndistinct above.
	type vc struct {
		key string
		cnt int
	}
	var common []vc
	for k, c := range counts {
		if c > 1 && storableStat(vals[k]) {
			common = append(common, vc{k, c})
		}
	}
	sort.Slice(common, func(i, j int) bool {
		if common[i].cnt != common[j].cnt {
			return common[i].cnt > common[j].cnt
		}
		return common[i].key < common[j].key
	})
	if len(common) > catalog.MaxMCVs {
		common = common[:catalog.MaxMCVs]
	}
	inMCV := make(map[string]bool, len(common))
	for _, c := range common {
		cs.MCVals = append(cs.MCVals, vals[c.key])
		cs.MCFreqs = append(cs.MCFreqs, float64(c.cnt)/float64(n))
		inMCV[c.key] = true
	}

	if !catalog.Ordered(typ) {
		return cs
	}
	// Min/max over the whole sample, histogram over the non-MCV rest —
	// equi-depth bounds across the sorted remaining instances.
	var rest []catalog.Datum
	for _, tup := range sample {
		d := tup[column]
		if !storableStat(d) {
			continue
		}
		if !cs.HasRange {
			cs.Min, cs.Max, cs.HasRange = d, d, true
		} else {
			if c, _ := catalog.Compare(d, cs.Min); c < 0 {
				cs.Min = d
			}
			if c, _ := catalog.Compare(d, cs.Max); c > 0 {
				cs.Max = d
			}
		}
		if !inMCV[d.String()] {
			rest = append(rest, d)
		}
	}
	if len(rest) >= 2 {
		sort.Slice(rest, func(i, j int) bool {
			c, _ := catalog.Compare(rest[i], rest[j])
			return c < 0
		})
		buckets := catalog.HistogramBuckets
		if len(rest)-1 < buckets {
			buckets = len(rest) - 1
		}
		for i := 0; i <= buckets; i++ {
			cs.Histogram = append(cs.Histogram, rest[i*(len(rest)-1)/buckets])
		}
	}
	return cs
}

// storableStat reports whether a datum is narrow enough to store in the
// catalog's statistics record.
func storableStat(d catalog.Datum) bool {
	return d.Typ != catalog.Text || len(d.S) <= catalog.MaxStatWidth
}

// shrinkStatsToFit degrades statistics whose encoded record would not
// fit one catalog heap page (possible with several wide VARCHAR
// columns): histograms go first (they are the largest), then MCV lists,
// then min/max. The per-column scalars (ndistinct, null fraction)
// always survive. Both the persisted record and the in-memory planner
// statistics come from the shrunk form, so plans stay identical across
// a reopen.
func shrinkStatsToFit(s *syscat.Stats, capacity int) {
	for pass := 0; pass < 3 && syscat.EncodedSize(*s) > capacity; pass++ {
		for i := range s.Cols {
			if syscat.EncodedSize(*s) <= capacity {
				break
			}
			switch pass {
			case 0:
				s.Cols[i].Histogram = nil
			case 1:
				s.Cols[i].MCVals = nil
				s.Cols[i].MCFreqs = nil
			case 2:
				s.Cols[i].HasRange = false
				s.Cols[i].Min = catalog.Datum{}
				s.Cols[i].Max = catalog.Datum{}
			}
		}
	}
}

// computeStats runs the whole per-column pass and assembles the catalog
// record.
func (t *Table) computeStats() (syscat.Stats, error) {
	sample, err := t.sampleHeap()
	if err != nil {
		return syscat.Stats{}, err
	}
	s := syscat.Stats{
		TableOID:   t.oid,
		Rows:       t.visibleCountLocked(),
		SampleRows: int64(len(sample)),
		Cols:       make([]catalog.ColumnStats, len(t.Columns)),
	}
	for i, c := range t.Columns {
		s.Cols[i] = computeColumnStats(c.Type, i, sample, s.Rows)
	}
	shrinkStatsToFit(&s, storage.SlotCapacity(t.db.pageSize))
	return s, nil
}

// StatsSource says where a table's planner statistics came from.
type StatsSource int

const (
	StatsNone        StatsSource = iota // never collected: the planner uses defaults
	StatsFromSample                     // in-memory sample (lazy refresh or CREATE INDEX); not persisted
	StatsFromAnalyze                    // the ANALYZE statement, persisted in the catalog
)

func (s StatsSource) String() string {
	switch s {
	case StatsFromSample:
		return "lazy sample"
	case StatsFromAnalyze:
		return "analyze"
	default:
		return "none"
	}
}

// installStats publishes freshly computed statistics to the planner and
// resets the churn counter. Caller holds the statement lock (the heap's
// version count is read as the drift baseline).
func (t *Table) installStats(s syscat.Stats, source StatsSource) {
	versions := t.Heap.Count()
	t.statsMu.Lock()
	t.colStats = s.Cols
	t.statsRows = s.Rows
	t.statsVersions = versions
	t.sampleRows = s.SampleRows
	t.statsSource = source
	t.churn = 0
	t.refreshAfter = 0
	t.statsMu.Unlock()
}

// analyzeInMemory refreshes the planner's statistics from a fresh block
// sample without touching the catalog — the lazy ensureStats path, and
// CREATE INDEX's auto-refresh. Nothing is persisted, so the next reopen
// samples again.
func (t *Table) analyzeInMemory() error {
	s, err := t.computeStats()
	if err != nil {
		return err
	}
	t.installStats(s, StatsFromSample)
	return nil
}

// Analyze is the ANALYZE statement: it block-samples the heap, computes
// per-column statistics, and persists them in the system catalog under
// the statement's commit marker — crash-atomic like DDL, the statistics
// record is replaced whole or not at all. After a successful ANALYZE the
// next Open loads the statistics with the schema, so the first plan
// never scans the heap.
func (t *Table) Analyze() error {
	if err := t.db.beginDDL(); err != nil {
		return err
	}
	defer t.db.stmtMu.Unlock()
	if err := t.checkAttached(); err != nil {
		return err
	}
	s, err := t.computeStats()
	if err != nil {
		return err
	}
	db := t.db
	prev, hadPrev := db.cat.GetStats(t.oid)
	if err := db.cat.SetStats(s); err != nil {
		return err
	}
	// Compensate the uncommitted catalog records on any later failure,
	// exactly like the DDL statements: left in place, the next
	// statement's commit marker would retroactively commit them.
	undo := func() {
		var rerr error
		if hadPrev {
			rerr = db.cat.RestoreStats(prev)
		} else {
			_, _, rerr = db.cat.RemoveStats(t.oid)
		}
		if rerr != nil {
			db.broken = rerr
		}
	}
	if f := db.faults.BeforeDDLCommit; f != nil {
		if err := f("ANALYZE " + t.Name); err != nil {
			return faultErr{err}
		}
	}
	if err := db.commitWAL(nil); err != nil {
		undo()
		return err
	}
	if err := db.flushCatalogIfUnlogged(); err != nil {
		undo()
		return err
	}
	t.installStats(s, StatsFromAnalyze)
	return nil
}

// AnalyzeAll runs Analyze over every table (the bare ANALYZE
// statement). One table's failure does not stop the rest — like
// PostgreSQL's ANALYZE, each table commits independently; the joined
// errors are reported at the end.
func (db *DB) AnalyzeAll() error {
	var errs []error
	for _, t := range db.Tables() {
		if err := t.Analyze(); err != nil {
			errs = append(errs, fmt.Errorf("executor: analyze %s: %w", t.Name, err))
		}
	}
	return errors.Join(errs...)
}

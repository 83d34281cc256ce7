package executor

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/geom"
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
	for i := 0; i < dataPages && len(sample) < analyzeSampleCap; i++ {
		j := i + rng.Intn(dataPages-i)
		pi := at(j)
		swapped[j] = at(i)
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
//
// As PostgreSQL's compute_scalar_stats does, the sample is sorted once
// — positions into it, not datums — and its runs of equal values are
// counted: d is the number of runs, f1 the runs of one, and the MCVs are
// the longest runs. Two values are equal when their text forms are: that
// is the identity the statistics have always counted by.
func computeColumnStats(typ catalog.Type, column int, sample []catalog.Tuple, totalRows int64) catalog.ColumnStats {
	var cs catalog.ColumnStats
	n := len(sample)
	if n == 0 {
		return cs
	}
	val := func(i int32) *catalog.Datum { return &sample[i][column] }
	// Ties go by sample position, so the last row of a run is the value's
	// last occurrence — the row a value's statistics have always shown.
	// INT and VARCHAR sort by their value alone, statOrder's order for them
	// (validateTuple admits no other type into their columns).
	var order []int32
	switch typ {
	case catalog.Int:
		order = sortedPositions(sample, column, func(d *catalog.Datum) int64 { return d.I }, cmp.Compare[int64])
	case catalog.Text:
		order = sortedPositions(sample, column, func(d *catalog.Datum) string { return d.S }, strings.Compare)
	default:
		order = sortedPositions(sample, column, func(d *catalog.Datum) *catalog.Datum { return d }, statOrder)
	}
	type run struct{ start, cnt int } // a run of order
	var common []run                  // the runs seen more than once, of storable values
	d, f1 := 0, 0
	for i := 0; i < n; {
		j := i + 1
		for j < n && statOrder(val(order[i]), val(order[j])) == 0 {
			j++
		}
		d++
		if j-i == 1 {
			f1++
		} else if storableStat(val(order[i])) {
			common = append(common, run{i, j - i})
		}
		i = j
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
	// (ties broken by text form for determinism), capped at MaxMCVs. Very
	// wide values are excluded from storage (they would bloat the
	// catalog record) but still counted in ndistinct above.
	slices.SortFunc(common, func(a, b run) int {
		if a.cnt != b.cnt {
			return b.cnt - a.cnt
		}
		return compareText(val(order[a.start]), val(order[b.start]))
	})
	common = common[:min(len(common), catalog.MaxMCVs)]
	for _, r := range common {
		cs.MCVals = append(cs.MCVals, *val(order[r.start+r.cnt-1]))
		cs.MCFreqs = append(cs.MCFreqs, float64(r.cnt)/float64(n))
	}

	if !catalog.Ordered(typ) {
		return cs
	}
	// Min/max over the whole sample, first met among equals.
	for _, tup := range sample {
		d := &tup[column]
		if !storableStat(d) {
			continue
		}
		if !cs.HasRange {
			cs.Min, cs.Max, cs.HasRange = *d, *d, true
			continue
		}
		if c, _ := catalog.Compare(*d, cs.Min); c < 0 {
			cs.Min = *d
		}
		if c, _ := catalog.Compare(*d, cs.Max); c > 0 {
			cs.Max = *d
		}
	}
	// The histogram: equi-depth bounds across the sorted non-MCV rest,
	// taken out of order in place.
	slices.SortFunc(common, func(a, b run) int { return a.start - b.start })
	rest := order[:0]
	for i := 0; i < n; i++ {
		if len(common) > 0 && i == common[0].start {
			i += common[0].cnt - 1
			common = common[1:]
		} else if storableStat(val(order[i])) {
			rest = append(rest, order[i])
		}
	}
	if len(rest) < 2 {
		return cs
	}
	if typ == catalog.Float {
		// Compare ties a float's −0 with its +0, and NaN with everything, so
		// which of two tied values lands on a bound depends on the order the
		// sort meets them in: sort the rest as it always was sorted, from
		// sample order through Compare.
		slices.Sort(rest)
		slices.SortFunc(rest, func(a, b int32) int {
			c, _ := catalog.Compare(*val(a), *val(b))
			return c
		})
	}
	buckets := min(catalog.HistogramBuckets, len(rest)-1)
	for i := 0; i <= buckets; i++ {
		cs.Histogram = append(cs.Histogram, *val(rest[i*(len(rest)-1)/buckets]))
	}
	return cs
}

// sortedPositions returns the positions of the sample ordered by the
// column's values under compare, ties by position. Each value's key is read
// once into the slice the sort moves, so a comparison reads no tuple.
func sortedPositions[K any](sample []catalog.Tuple, column int, key func(*catalog.Datum) K, compare func(a, b K) int) []int32 {
	type keyed struct {
		k  K
		at int32
	}
	ks := make([]keyed, len(sample))
	for i := range sample {
		ks[i] = keyed{key(&sample[i][column]), int32(i)}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := compare(a.k, b.k); c != 0 {
			return c
		}
		return cmp.Compare(a.at, b.at)
	})
	order := make([]int32, len(ks))
	for i := range ks {
		order[i] = ks[i].at
	}
	return order
}

// storableStat reports whether a datum is narrow enough to store in the
// catalog's statistics record.
func storableStat(d *catalog.Datum) bool {
	return d.Typ != catalog.Text || len(d.S) <= catalog.MaxStatWidth
}

// statOrder orders datums so that those whose text forms are equal — the
// identity ANALYZE counts values by — lie together: by type, then by
// value, a float's −0 before its +0 and NaN after every number; geometry
// coordinate by coordinate. For INT and VARCHAR it is Compare's order.
func statOrder(a, b *catalog.Datum) int {
	if a.Typ != b.Typ {
		return cmp.Compare(a.Typ, b.Typ)
	}
	switch a.Typ {
	case catalog.Int:
		return cmp.Compare(a.I, b.I)
	case catalog.Float:
		return cmp.Compare(floatKey(a.F), floatKey(b.F))
	case catalog.Text:
		return strings.Compare(a.S, b.S)
	case catalog.Point:
		return pointOrder(a.P, b.P)
	case catalog.Box:
		if c := pointOrder(a.B.Min, b.B.Min); c != 0 {
			return c
		}
		return pointOrder(a.B.Max, b.B.Max)
	case catalog.Segment:
		if c := pointOrder(a.G.A, b.G.A); c != 0 {
			return c
		}
		return pointOrder(a.G.B, b.G.B)
	}
	return 0
}

func pointOrder(a, b geom.Point) int {
	if c := cmp.Compare(floatKey(a.X), floatKey(b.X)); c != 0 {
		return c
	}
	return cmp.Compare(floatKey(a.Y), floatKey(b.Y))
}

// floatKey maps a float64 to an integer that orders as the float does,
// −0 below +0 and every NaN alike above every number: two keys are equal
// exactly when the floats print alike.
func floatKey(f float64) uint64 {
	if math.IsNaN(f) {
		return math.MaxUint64
	}
	k := math.Float64bits(f)
	if k>>63 != 0 {
		return ^k
	}
	return k | 1<<63
}

// compareText compares the text forms of two datums, as bytes, without
// allocating either.
func compareText(a, b *catalog.Datum) int {
	if a.Typ == catalog.Text && b.Typ == catalog.Text {
		return strings.Compare(a.S, b.S)
	}
	var ab, bb [128]byte
	return bytes.Compare(a.Append(ab[:0]), b.Append(bb[:0]))
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
func (t *Table) Analyze() (err error) {
	db := t.db
	if err := db.beginDDL(); err != nil {
		return err
	}
	defer func() { db.endDDL(err) }()
	if err := t.checkAttached(); err != nil {
		return err
	}
	s, err := t.computeStats()
	if err != nil {
		return err
	}
	if err := db.cat.SetStats(s); err != nil {
		return err
	}
	if f := db.faults.BeforeDDLCommit; f != nil {
		if err := f("ANALYZE " + t.Name); err != nil {
			return faultErr{err}
		}
	}
	if err := db.commitDDL(nil); err != nil {
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

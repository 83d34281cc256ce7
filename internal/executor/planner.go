package executor

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/obs"
)

// Cost-model constants, after PostgreSQL's defaults. The cost estimation
// mirrors the four quantities the paper's spgistcostestimate computes:
// index selectivity (from the operator's restrict procedure), index
// correlation (0 — SP-GiST index order is unrelated to heap order),
// startup cost, and total cost (startup + I/O, scaled by selectivity and
// index size).
const (
	seqPageCost    = 1.0
	randomPageCost = 4.0
	cpuTupleCost   = 0.01
	cpuIndexCost   = 0.005
	cpuOperCost    = 0.0025
)

// Pred is a WHERE clause of the form `col OP constant`.
type Pred struct {
	Column int
	Op     string
	Arg    catalog.Datum
}

// PlanKind discriminates access paths.
type PlanKind int

const (
	SeqScan PlanKind = iota
	IndexScan
	IndexNNScan
)

func (k PlanKind) String() string {
	switch k {
	case SeqScan:
		return "Seq Scan"
	case IndexScan:
		return "Index Scan"
	case IndexNNScan:
		return "Index NN Scan"
	default:
		return "?"
	}
}

// Plan is a chosen access path with its cost estimate.
type Plan struct {
	Kind        PlanKind
	Table       *Table
	Index       *IndexInfo // IndexScan / IndexNNScan
	Pred        *Pred      // nil for unqualified scans
	Selectivity float64
	StartupCost float64
	TotalCost   float64
	Rows        int64 // estimated result rows
	Recheck     bool  // heap tuples are rechecked against the operator

	// pred is the plan's own copy of the predicate Pred points to, so
	// the caller's need not outlive the call that planned it.
	pred Pred
	// op is Pred's operator, looked up once by whoever built the plan
	// (planSelect, SelectIndexed); set whenever Pred is.
	op *catalog.Operator
}

// String renders the plan line every SELECT response carries, so it is
// built with appends into one buffer rather than fmt.
func (p *Plan) String() string {
	b := make([]byte, 0, 160)
	b = append(b, p.Kind.String()...)
	b = append(b, " on "...)
	b = append(b, p.Table.Name...)
	if p.Index != nil {
		b = append(b, " using "...)
		b = append(b, p.Index.Name...)
		b = append(b, " ("...)
		b = append(b, p.Index.OpClass.Name...)
		b = append(b, ')')
	}
	if p.Pred != nil {
		b = append(b, "  filter: "...)
		b = append(b, p.Table.Columns[p.Pred.Column].Name...)
		b = append(b, ' ')
		b = append(b, p.Pred.Op...)
		b = append(b, ' ')
		b = p.Pred.Arg.Append(b)
	}
	b = append(b, "  (cost="...)
	b = appendCost(b, p.StartupCost)
	b = append(b, ".."...)
	b = appendCost(b, p.TotalCost)
	b = append(b, " rows="...)
	b = strconv.AppendInt(b, p.Rows, 10)
	b = append(b, ')')
	return string(b)
}

// appendCost appends x as strconv.AppendFloat(b, x, 'f', 2, 64) does,
// byte for byte. strconv formats every fixed number of decimals through
// its arbitrary-precision path; below 1e15, x·100 rounded half to even —
// the rounding strconv applies to x's exact binary value — is exact in
// integer arithmetic on x's mantissa. NaN, the infinities and larger
// values go to strconv.
func appendCost(b []byte, x float64) []byte {
	if !(math.Abs(x) < 1e15) {
		return strconv.AppendFloat(b, x, 'f', 2, 64)
	}
	bits := math.Float64bits(x)
	if bits>>63 != 0 {
		b = append(b, '-')
	}
	// |x| = mant · 2^exp, and exp < 0 because |x| < 1e15 < 2^50.
	biased := int(bits>>52) & 0x7ff
	mant, exp := bits&(1<<52-1), -1074
	if biased != 0 {
		mant, exp = mant|1<<52, biased-1075
	}
	n, shift := mant*100, uint(-exp) // n < 2^60
	var q uint64                     // |x|·100, rounded half to even
	if shift < 64 {
		q = n >> shift
		rest, half := n&(1<<shift-1), uint64(1)<<(shift-1)
		if rest > half || rest == half && q&1 == 1 {
			q++
		}
	} // else |x|·100 < 2^60 / 2^64 rounds to 0
	b = strconv.AppendUint(b, q/100, 10)
	return append(b, '.', byte('0'+q/10%10), byte('0'+q%10))
}

// staleRowsLocked is how many rows changed since the statistics were
// collected. The in-memory counter covers this session; the drift
// between the heap's version count then and now (versions, passed in by
// the caller, who holds the statement lock) covers churn from before a
// reopen — the counter itself is persisted only by a clean Close. A
// never-analyzed table reads as "everything changed". Caller holds
// statsMu.
func (t *Table) staleRowsLocked(versions int64) int64 {
	eff := t.churn
	if drift := versions - t.statsVersions; drift > eff {
		eff = drift
	} else if -drift > eff {
		eff = -drift
	}
	return eff
}

// stats returns what a restrict procedure consults for column. Its
// column statistics point into t.colStats, which ANALYZE and a lazy
// sample replace whole and never change in place, so they are read
// after the lock is dropped without being copied under it.
func (t *Table) stats(column int) catalog.TableStats {
	st := catalog.TableStats{Rows: t.Heap.Count()}
	t.statsMu.Lock()
	if t.statsSource != StatsNone && column < len(t.colStats) {
		st.Column = &t.colStats[column]
		st.StaleFrac = t.staleFracLocked(st.Rows)
	}
	t.statsMu.Unlock()
	return st
}

// staleFracLocked is the fraction of the analyzed table churned since,
// clamped to [0,1]. Caller holds statsMu.
func (t *Table) staleFracLocked(versions int64) float64 {
	eff := t.staleRowsLocked(versions)
	if eff == 0 {
		return 0
	}
	if eff >= t.statsRows {
		return 1
	}
	return float64(eff) / float64(t.statsRows)
}

// seqScanCost prices a full heap scan with a per-tuple filter.
func (t *Table) seqScanCost() float64 {
	return seqScanCost(float64(t.Heap.Count()), float64(t.Heap.NumPages()))
}

func seqScanCost(rows, heapPages float64) float64 {
	return heapPages*seqPageCost + rows*(cpuTupleCost+cpuOperCost)
}

// pagesFetched is the Mackert–Lohman estimate of how many distinct heap
// pages n randomly placed tuple fetches touch in a heap of T pages that
// fits in cache — PostgreSQL's index_pages_fetched without its
// effective_cache_size branch: min(2Tn/(2T+n), T). It is within ~2% of
// n while n ≪ T and saturates smoothly at T. The simpler min(n, T) is
// not a safe stand-in: at the default equality selectivity it alone
// comes to 0.005·rows·4 = 0.02·rows, more than a whole sequential scan
// (≈ 0.018·rows at 180 rows/page), so a table without usable statistics
// would seq-scan every exact match at every size.
func pagesFetched(n, T float64) float64 {
	if n <= 0 || T <= 0 {
		return 0
	}
	return math.Min(2*T*n/(2*T+n), T)
}

// indexScanCost prices an index scan as a pure function of the table's
// shape: touch sel*indexPages index pages randomly, process sel*rows
// index tuples, then fetch their heap pages randomly (correlation 0:
// SP-GiST index order is unrelated to heap order).
func indexScanCost(rows, heapPages, indexPages, sel float64) float64 {
	matched := sel * rows
	// Fixed descent overhead (root fetch). It keeps one-row tables on
	// sequential scans, like PostgreSQL.
	const startup = randomPageCost
	return startup +
		sel*indexPages*randomPageCost +
		matched*(cpuIndexCost+cpuTupleCost+cpuOperCost) +
		pagesFetched(matched, heapPages)*randomPageCost
}

// clampRows is PostgreSQL's clamp_row_est: a row estimate is rounded,
// and never below one — a unique-key equality must not print rows=0,
// which would also leave the estimate/actual ratio undefined.
func clampRows(est float64) int64 {
	if est <= 1 {
		return 1
	}
	return int64(math.Round(est))
}

// QError is the estimate/actual ratio of a row count or its inverse,
// whichever is ≥ 1, with both sides clamped to one row.
func QError(est, actual int64) float64 {
	e, a := float64(max(est, 1)), float64(max(actual, 1))
	if e > a {
		return e / a
	}
	return a / e
}

// PlanSelect chooses the cheapest access path for an optional predicate,
// comparing the sequential scan against every applicable index. It takes
// the shared statement lock (EXPLAIN is a read); statistics reads are
// safe under it — the planner's inputs (persisted or lazily sampled
// column statistics, churn counters) are guarded by the table's stats
// mutex, so concurrent EXPLAINs never race.
func (t *Table) PlanSelect(pred *Pred) (*Plan, error) {
	if err := t.lockRead(); err != nil {
		return nil, err
	}
	defer t.unlockRead()
	return t.planSelect(pred)
}

// planSelect is PlanSelect under an already-held statement lock.
func (t *Table) planSelect(pred *Pred) (*Plan, error) {
	if tr := obs.Current(); tr != nil {
		sp := tr.StartSpan("plan", "plan")
		defer sp.End()
	}
	rows := t.Heap.Count()
	if pred == nil {
		return &Plan{Kind: SeqScan, Table: t, TotalCost: t.seqScanCost(), Rows: rows}, nil
	}
	t.ensureStats()
	op, ok := catalog.LookupOperator(pred.Op, t.Columns[pred.Column].Type)
	if !ok {
		return nil, fmt.Errorf("executor: no operator %q for type %v",
			pred.Op, t.Columns[pred.Column].Type)
	}
	sel := op.Restrict(t.stats(pred.Column), pred.Arg)
	best := &Plan{
		Kind:        SeqScan,
		Table:       t,
		Selectivity: sel,
		TotalCost:   t.seqScanCost(),
		Rows:        clampRows(sel * float64(rows)),
		Recheck:     true,
		pred:        *pred,
		op:          op,
	}
	best.Pred = &best.pred
	heapPages := float64(t.Heap.NumPages())
	for _, ix := range t.Indexes {
		if ix.Column != pred.Column || !ix.OpClass.SupportsOp(pred.Op) {
			continue
		}
		cost := indexScanCost(float64(rows), heapPages, float64(ix.pool.DM().NumPages()), sel)
		if cost < best.TotalCost {
			best.Kind, best.Index, best.TotalCost = IndexScan, ix, cost
		}
	}
	return best, nil
}

// PlanNN chooses the access path for an ORDER BY col <-> q LIMIT k query:
// an index with an ordering operator when available, else a sequential
// scan with a full sort (priced accordingly). Shared lock, like
// PlanSelect.
func (t *Table) PlanNN(column int, arg catalog.Datum, k int) (*Plan, error) {
	if err := t.lockRead(); err != nil {
		return nil, err
	}
	defer t.unlockRead()
	return t.planNN(column, arg, k)
}

// planNN is PlanNN under an already-held statement lock. k < 0 prices
// an unlimited query (every row returned).
func (t *Table) planNN(column int, arg catalog.Datum, k int) (*Plan, error) {
	if tr := obs.Current(); tr != nil {
		sp := tr.StartSpan("plan", "plan")
		defer sp.End()
	}
	if k < 0 {
		k = int(t.Heap.Count())
	}
	for _, ix := range t.Indexes {
		if ix.Column != column || ix.OpClass.NNOp == "" {
			continue
		}
		// Incremental NN visits roughly the fraction of the index needed
		// to surface k results.
		rows := float64(t.Heap.Count())
		frac := 1.0
		if rows > 0 {
			frac = float64(k) / rows
			if frac > 1 {
				frac = 1
			}
		}
		cost := frac*float64(ix.pool.DM().NumPages())*randomPageCost +
			float64(k)*(cpuIndexCost+cpuTupleCost) +
			float64(k)*randomPageCost
		return &Plan{
			Kind:      IndexNNScan,
			Table:     t,
			Index:     ix,
			TotalCost: cost,
			Rows:      int64(k),
		}, nil
	}
	// Fallback: scan everything and sort by distance.
	rows := float64(t.Heap.Count())
	return &Plan{
		Kind:      SeqScan,
		Table:     t,
		TotalCost: t.seqScanCost() + nnSortCost(rows),
		Rows:      int64(k),
	}, nil
}

// nnSortCost prices the fallback's full sort by distance: n·log₂(n)
// comparisons at cpuOperCost each. A linear estimate here made
// large-table NN fallbacks absurdly cheap — the sort is the dominant
// term once the table outgrows a few pages.
func nnSortCost(rows float64) float64 {
	if rows < 2 {
		return rows * cpuOperCost
	}
	return rows * math.Log2(rows) * cpuOperCost
}

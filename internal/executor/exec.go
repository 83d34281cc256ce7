package executor

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/trie"
)

// Row is one query result: the tuple and its RID.
type Row struct {
	RID   heap.RID
	Tuple catalog.Tuple
}

// beginRead opens a statement that reads rows of t on behalf of tx (nil
// for autocommit) — the one prologue of every such form: a merge of t's
// index batch if tx owns t and the read may use an index; lockRead (the
// shared catalog/DDL lock, t's shared physical latch, the attachment
// check), then a snapshot that admits tx's own uncommitted writes. On
// error nothing is held; otherwise pair it with endRead.
func (t *Table) beginRead(tx *Txn, index bool) (*Snapshot, error) {
	if index && tx != nil && t.db.tm.lockedBy(t) == tx && len(t.batch.rids) > 0 {
		rlockTimed(&t.db.stmtMu, t.db.met.lockWaitNs, t.db.waits, obs.WaitLockCatalog)
		err := t.mergeFor(tx)
		t.db.stmtMu.RUnlock()
		if err != nil {
			return nil, err
		}
	}
	if err := t.lockRead(); err != nil {
		return nil, err
	}
	return t.db.tm.snapshot(tx), nil
}

// indexable reports whether a plan for pred may read one of t's indexes.
func (t *Table) indexable(pred *Pred) bool {
	return pred != nil && slices.ContainsFunc(t.Indexes, func(ix *IndexInfo) bool {
		return ix.Column == pred.Column && ix.OpClass.SupportsOp(pred.Op)
	})
}

// endRead closes the statement beginRead opened.
func (t *Table) endRead(snap *Snapshot) {
	t.db.tm.release(snap)
	t.unlockRead()
}

// Select plans and runs `SELECT * FROM t [WHERE pred]`, emitting rows
// until emit returns false. Index hits are rechecked against the heap
// tuple, so lossy access methods (R-tree MBRs, B+-tree wildcard prefix
// ranges) never produce false positives. The statement reads through a
// fresh READ COMMITTED snapshot: any number of Selects run
// concurrently — with each other AND with writers on the same table,
// whose uncommitted versions the snapshot simply does not admit. Only
// the page mutation window (a writer's physical latch) excludes a
// reader, never a transaction's think time.
func (t *Table) Select(pred *Pred, emit func(Row) bool) (*Plan, error) {
	return t.SelectTx(nil, pred, emit)
}

// SelectTx is Select inside transaction tx (nil for autocommit): the
// snapshot additionally admits tx's own uncommitted writes.
func (t *Table) SelectTx(tx *Txn, pred *Pred, emit func(Row) bool) (*Plan, error) {
	snap, err := t.beginRead(tx, t.indexable(pred))
	if err != nil {
		return nil, err
	}
	defer t.endRead(snap)
	t.db.met.stmtSelect.Inc()
	return t.selectLocked(snap, pred, emit)
}

// selectLocked is Select through an existing snapshot, under an
// already-held statement lock (shared or exclusive).
func (t *Table) selectLocked(snap *Snapshot, pred *Pred, emit func(Row) bool) (*Plan, error) {
	plan, err := t.planSelect(pred)
	if err != nil {
		return nil, err
	}
	_, _, err = t.run(snap, plan, emit)
	return plan, err
}

// SelectIndexed runs `pred` through a specific index, bypassing the
// cost-based access-path choice — the moral equivalent of PostgreSQL's
// enable_seqscan=off. Tests and demos use it to prove a particular index
// structure answers correctly (e.g. after crash recovery) even when the
// planner would prefer a sequential scan on a small table. Snapshot
// reads, like Select.
func (t *Table) SelectIndexed(ix *IndexInfo, pred *Pred, emit func(Row) bool) error {
	if pred == nil || pred.Column != ix.Column {
		return fmt.Errorf("executor: SelectIndexed needs a predicate on the indexed column")
	}
	if !ix.OpClass.SupportsOp(pred.Op) {
		return fmt.Errorf("executor: operator class %s does not support %q", ix.OpClass.Name, pred.Op)
	}
	op, ok := catalog.LookupOperator(pred.Op, t.Columns[pred.Column].Type)
	if !ok {
		return fmt.Errorf("executor: no operator %q for type %v", pred.Op, t.Columns[pred.Column].Type)
	}
	snap, err := t.beginRead(nil, false)
	if err != nil {
		return err
	}
	defer t.endRead(snap)
	t.db.met.stmtSelect.Inc()
	_, _, err = t.run(snap, &Plan{Kind: IndexScan, Table: t, Index: ix, Pred: pred, Recheck: true, op: op}, emit)
	return err
}

// run executes a SeqScan or IndexScan plan through snap, returning how
// many tuples it read (post-visibility, pre-filter) and emitted. Both
// paths apply MVCC visibility: the seq scan filters versions against
// the snapshot inline, and the index path rechecks every RID against
// the heap version — index entries are never removed by DELETE or
// UPDATE, so a pointer to a dead or not-yet-committed version is
// normal and simply skipped. Tuple counts accumulate locally and reach
// the cumulative counters in one Add per statement, keeping the
// per-row path free of shared-cacheline traffic. A planned predicate
// scan that ran to completion also records its q-error — how far the
// planner's row estimate was from the rows it really produced.
func (t *Table) run(snap *Snapshot, plan *Plan, emit func(Row) bool) (scanned, emitted int64, err error) {
	r := rowScans.Get().(*rowScan)
	r.t, r.snap, r.plan, r.emit = t, snap, plan, emit
	if plan.Pred != nil {
		r.opProc = plan.op.Proc
	}
	if tr := obs.Current(); tr != nil {
		sp := tr.StartSpan("execute "+plan.Kind.String(), "exec")
		defer sp.End()
		if plan.Kind == IndexScan {
			isp := tr.StartSpan("index_descent "+plan.Index.Name, "index")
			defer isp.End()
		}
	}
	m := t.db.met
	switch plan.Kind {
	case SeqScan:
		m.planSeqScan.Inc()
		_, err = t.seqScan(snap, r.acceptFn)
	case IndexScan:
		m.planIndexScan.Inc()
		plan.Index.scans.Inc()
		if err = plan.Index.Idx.Scan(plan.Pred.Op, plan.Pred.Arg, r.fetchFn); err == nil {
			err = r.err
		}
	default:
		err = fmt.Errorf("executor: cannot run plan kind %v", plan.Kind)
	}
	scanned, emitted, stopped := r.scanned, r.emitted, r.stopped
	r.release()
	m.tuplesRead.Add(scanned)
	m.rowsReturned.Add(emitted)
	if err == nil && !stopped && plan.Pred != nil {
		m.planQError.ObserveRatio(QError(plan.Rows, emitted))
	}
	return scanned, emitted, err
}

// rowScan is the state of one run: what it reads through, the filter it
// applies, and what it has counted. The heap and the index call back
// into its methods, bound once when the rowScan is made, and a finished
// one goes back to rowScans for the next statement, so running a plan
// allocates nothing of its own.
type rowScan struct {
	t      *Table
	snap   *Snapshot
	plan   *Plan
	opProc func(l, r catalog.Datum) bool // nil: no filter
	emit   func(Row) bool

	scanned, emitted int64
	stopped          bool  // emit asked for no more rows (LIMIT)
	err              error // a heap fetch failed under the index scan

	acceptFn func(heap.RID, catalog.Tuple) bool // accept
	fetchFn  func(heap.RID) bool                // fetch
}

// rowScans holds finished rowScans for run to reuse.
var rowScans = sync.Pool{New: func() any {
	r := new(rowScan)
	r.acceptFn, r.fetchFn = r.accept, r.fetch
	return r
}}

// release returns r, emptied, to rowScans.
func (r *rowScan) release() {
	*r = rowScan{acceptFn: r.acceptFn, fetchFn: r.fetchFn}
	rowScans.Put(r)
}

// accept counts a visible tuple, filters it and emits it when it passes.
func (r *rowScan) accept(rid heap.RID, tup catalog.Tuple) bool {
	r.scanned++
	if r.opProc != nil && !r.opProc(tup[r.plan.Pred.Column], r.plan.Pred.Arg) {
		return true // filtered out; keep scanning
	}
	r.emitted++
	r.stopped = !r.emit(Row{RID: rid, Tuple: tup})
	return !r.stopped
}

// fetch reads the version an index entry points to and accepts it when
// the snapshot sees it.
func (r *rowScan) fetch(rid heap.RID) bool {
	tup, err := r.t.getVisible(r.snap, rid)
	if err != nil {
		r.err = err
		return false
	}
	if tup == nil {
		return true // dead or invisible version; skip
	}
	return r.accept(rid, tup)
}

// seqScan walks the heap in order, calling fn with every version snap
// can see, decoded, until fn returns false — the one sequential-scan
// loop, shared by the Seq Scan plan and the NN fallback. It returns how
// many versions it walked, visible or not.
func (t *Table) seqScan(snap *Snapshot, fn func(heap.RID, catalog.Tuple) bool) (walked int64, err error) {
	var derr error
	err = t.Heap.ScanVersions(func(rid heap.RID, h heap.TupleHeader, rec []byte) bool {
		walked++
		if !snap.Visible(h) {
			return true
		}
		tup, e := catalog.DecodeTuple(rec)
		if e != nil {
			derr = e
			return false
		}
		return fn(rid, tup)
	})
	if err == nil {
		err = derr
	}
	return walked, err
}

// NNResult is one nearest-neighbor result.
type NNResult struct {
	Row
	Distance float64
}

// SelectNN plans and runs `SELECT * FROM t ORDER BY col <-> arg LIMIT k`
// via the incremental NN search when an index provides it, falling back
// to scan-and-sort. k < 0 means "all rows", resolved against the heap's
// version count inside this statement's lock window (an upper bound on
// visible rows, which is all a LIMIT needs). Snapshot reads, like
// Select.
func (t *Table) SelectNN(colName string, arg catalog.Datum, k int) ([]NNResult, *Plan, error) {
	return t.SelectNNTx(nil, colName, arg, k)
}

// SelectNNTx is SelectNN inside transaction tx (nil for autocommit).
func (t *Table) SelectNNTx(tx *Txn, colName string, arg catalog.Datum, k int) ([]NNResult, *Plan, error) {
	ci, err := t.colIndex(colName)
	if err != nil {
		return nil, nil, err
	}
	snap, err := t.beginRead(tx, true)
	if err != nil {
		return nil, nil, err
	}
	defer t.endRead(snap)
	t.db.met.stmtNN.Inc()
	plan, err := t.planNN(ci, arg, k)
	if err != nil {
		return nil, nil, err
	}
	out, _, err := t.runNN(snap, plan, ci, arg, k)
	if err != nil {
		return nil, nil, err
	}
	return out, plan, nil
}

// runNN executes an NN plan through snap, returning the k nearest rows
// and how many heap versions it fetched to find them — visible or not,
// on either path and on error; the cumulative counters get one Add per
// statement.
func (t *Table) runNN(snap *Snapshot, plan *Plan, ci int, arg catalog.Datum, k int) (out []NNResult, read int64, err error) {
	m := t.db.met
	defer func() {
		m.tuplesRead.Add(read)
		m.rowsReturned.Add(int64(len(out)))
	}()
	if k < 0 {
		k = int(t.Heap.Count())
	}
	if plan.Kind == IndexNNScan {
		m.planNNScan.Inc()
		plan.Index.scans.Inc()
		out = make([]NNResult, 0, min(k, int(t.Heap.Count())))
		if k == 0 {
			return out, 0, nil // LIMIT 0 opens no scan
		}
		// NNSearch ends the scan however the callback stops it: k rows,
		// an exhausted index or a heap-read error.
		var herr error
		err = plan.Index.Idx.NNSearch(arg, func(rid heap.RID, dist float64) bool {
			read++
			var tup catalog.Tuple
			if tup, herr = t.getVisible(snap, rid); herr != nil {
				return false
			}
			if tup != nil { // else a dead or invisible version; skip
				out = append(out, NNResult{Row: Row{RID: rid, Tuple: tup}, Distance: dist})
			}
			return len(out) < k
		})
		if err == nil {
			err = herr
		}
		if err != nil {
			return nil, read, err
		}
		return out, read, nil
	}
	// Fallback: full scan, sort by distance.
	m.planSeqScan.Inc()
	var derr error
	read, err = t.seqScan(snap, func(rid heap.RID, tup catalog.Tuple) bool {
		var d float64
		if d, derr = Distance(tup[ci], arg); derr != nil {
			return false
		}
		out = append(out, NNResult{Row: Row{RID: rid, Tuple: tup}, Distance: d})
		return true
	})
	if err == nil {
		err = derr
	}
	if err != nil {
		return nil, read, err
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Distance < out[j].Distance })
	if len(out) > k {
		out = out[:k]
	}
	return out, read, nil
}

// Distance is the NN distance function per column type: Hamming-style for
// strings (the trie's), Euclidean for points, point-to-segment for
// segments — the distance functions the paper assigns per index type.
func Distance(l, r catalog.Datum) (float64, error) {
	switch {
	case l.Typ == catalog.Text && r.Typ == catalog.Text:
		return trie.Distance(l.S, r.S), nil
	case l.Typ == catalog.Point && r.Typ == catalog.Point:
		return l.P.Dist(r.P), nil
	case l.Typ == catalog.Segment && r.Typ == catalog.Point:
		return l.G.DistToPoint(r.P), nil
	case l.Typ == catalog.Point && r.Typ == catalog.Segment:
		return r.G.DistToPoint(l.P), nil
	default:
		return 0, fmt.Errorf("executor: no distance between %v and %v", l.Typ, r.Typ)
	}
}

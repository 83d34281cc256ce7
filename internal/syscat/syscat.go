// Package syscat is the persistent system catalog of this reproduction —
// the on-disk analogue of the PostgreSQL catalogs (pg_class, pg_attribute,
// pg_index) that make every relation self-describing. The paper's SP-GiST
// realization leans on those catalogs to register access methods and
// operator classes and to let the server rediscover every relation after a
// restart; this package supplies the same property for our engine.
//
// The catalog is itself stored in a heap file (conventionally named by
// executor's catalogFile), so its mutations flow through the same
// write-ahead-logged heap path as user data: a DDL statement writes its
// catalog records, and the executor's per-statement commit marker makes
// the records and the relation's pages atomic together. Three record
// kinds live in the heap:
//
//   - a relation record per table: OID, name, heap file name, and the
//     column list (each column's name and SQL type name, resolved back
//     through catalog.TypeByName on load — the file is self-describing);
//   - an index record per index: OID, name, owning table OID, column
//     ordinal, access-method and operator-class names, index file name,
//     and a validity flag. The flag is always written 1: CREATE INDEX
//     builds the file before its entry commits. A 0 is an entry an older
//     build committed before its build, whose build a crash interrupted;
//   - a single OID counter record. OIDs are never reused — a dropped
//     relation's file name must stay dead while write-ahead log records
//     mentioning it can still replay, or redo could alias an old
//     relation's pages into a new one's file.
//
// Updates are delete+insert pairs within one statement (the heap has no
// in-place update), so they inherit the statement's crash atomicity.
//
// The catalog performs no locking discipline of its own beyond an
// internal mutex: the executor serializes DDL under its statement lock.
package syscat

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/catalog"
	"repro/internal/heap"
)

// Column is one column of a cataloged table.
type Column struct {
	Name string
	Type catalog.Type
}

// Table is one relation record: a table and its heap file.
type Table struct {
	OID  uint64
	Name string
	File string // heap file base name, rel<OID>.tbl
	Cols []Column
}

// Index is one index record.
type Index struct {
	OID      uint64
	Name     string
	TableOID uint64
	Column   int    // ordinal in the owning table's schema
	Method   string // access method name (pg_am reference)
	OpClass  string // operator class name (pg_opclass reference)
	File     string // index file base name, rel<OID>.idx
}

// Stats is one planner-statistics record: the sampled per-column
// statistics ANALYZE computed for a table, keyed by table OID — the
// mini pg_statistic. Statistics are advisory: a missing or stale record
// never prevents a database from opening, it only degrades plan choice.
type Stats struct {
	TableOID uint64
	// Rows is the heap's live row count when the statistics were
	// collected; the planner compares it against the current count to
	// discount stale statistics.
	Rows int64
	// SampleRows is how many rows the reservoir sample examined.
	SampleRows int64
	// Churn counts rows inserted+deleted since the statistics were
	// collected. ANALYZE writes it as 0; a clean shutdown folds the
	// session's counter back in, so a reopened planner keeps
	// discounting statistics whose table churned in ways the row-count
	// drift cannot see (balanced insert/delete mixes). A crash loses
	// the counter — the drift proxy still bounds net change.
	Churn int64
	// Cols holds one statistics entry per table column, in schema order.
	Cols []catalog.ColumnStats
}

// Record kinds, stored as the first byte of each catalog heap record.
const (
	recCounter byte = 'O'
	recTable   byte = 'T'
	recIndex   byte = 'I'
	recStats   byte = 'S'
	// recXid is the transaction-ID high-water record: every xid at or
	// below its value may have been handed out. The executor persists it
	// in strides ahead of use, so a crash can never lead to a transaction
	// ID being reissued (which would let a new transaction alias the WAL
	// records — and the on-page xmin/xmax stamps — of an old one). A
	// catalog without the record (a database that never allocated a
	// transaction) reads as high-water 0. Databases written before MVCC
	// landed never get this far: their heap files carry the pre-version
	// record format, which heap.Open refuses.
	recXid byte = 'X'
)

// Catalog is an open system catalog over a heap file.
type Catalog struct {
	mu   sync.RWMutex
	heap *heap.File

	tables  map[string]*tableSlot
	indexes map[string]*indexSlot
	stats   map[uint64]*statsSlot

	nextOID    uint64
	counterRID heap.RID

	xidHigh uint64
	xidRID  heap.RID
}

type tableSlot struct {
	t   Table
	rid heap.RID
}

type indexSlot struct {
	i   Index
	rid heap.RID
}

type statsSlot struct {
	s   Stats
	rid heap.RID
}

// New attaches a catalog to its heap file. fresh distinguishes a newly
// created heap (the OID counter is initialized) from an existing one
// (every record is loaded and validated). prev, when not nil, is the
// catalog this one is read again to replace, after a failed statement's
// pages were put back: the OIDs prev handed out stay dead, so allocation
// resumes at prev's counter, and the next allocation persists it.
func New(hf *heap.File, fresh bool, prev *Catalog) (*Catalog, error) {
	c := &Catalog{
		heap:       hf,
		tables:     make(map[string]*tableSlot),
		indexes:    make(map[string]*indexSlot),
		stats:      make(map[uint64]*statsSlot),
		counterRID: heap.InvalidRID,
		xidRID:     heap.InvalidRID,
	}
	if fresh {
		c.nextOID = 1
		rid, err := hf.Insert(encodeCounter(c.nextOID))
		if err != nil {
			return nil, fmt.Errorf("syscat: init counter: %w", err)
		}
		c.counterRID = rid
		return c, nil
	}
	if err := c.load(); err != nil {
		return nil, err
	}
	if prev != nil {
		c.nextOID = max(c.nextOID, prev.nextOID)
	}
	return c, nil
}

// load scans every catalog record. Heap scan order is physical, not
// logical (an updated record moves to a freed slot), so records are
// collected first and cross-checked after.
func (c *Catalog) load() error {
	var maxOID uint64
	var derr error
	err := c.heap.Scan(func(rid heap.RID, rec []byte) bool {
		if len(rec) == 0 {
			derr = fmt.Errorf("syscat: empty catalog record at %v", rid)
			return false
		}
		switch rec[0] {
		case recCounter:
			v, err := decodeCounter(rec)
			if err != nil {
				derr = err
				return false
			}
			// Keep the highest counter seen; duplicates cannot normally
			// exist, but taking the max is the safe reading.
			if v > c.nextOID {
				c.nextOID = v
				c.counterRID = rid
			}
		case recXid:
			v, err := decodeXid(rec)
			if err != nil {
				derr = err
				return false
			}
			// Like the OID counter: the highest record wins, so a stale
			// duplicate left by a failed rewrite is harmless.
			if v > c.xidHigh || !c.xidRID.Valid() {
				c.xidHigh = v
				c.xidRID = rid
			}
		case recTable:
			t, err := decodeTable(rec)
			if err != nil {
				derr = err
				return false
			}
			if _, dup := c.tables[t.Name]; dup {
				derr = fmt.Errorf("syscat: duplicate table record %q", t.Name)
				return false
			}
			c.tables[t.Name] = &tableSlot{t: t, rid: rid}
			if t.OID > maxOID {
				maxOID = t.OID
			}
		case recIndex:
			ix, err := decodeIndex(rec)
			if err != nil {
				derr = err
				return false
			}
			if _, dup := c.indexes[ix.Name]; dup {
				derr = fmt.Errorf("syscat: duplicate index record %q", ix.Name)
				return false
			}
			c.indexes[ix.Name] = &indexSlot{i: ix, rid: rid}
			if ix.OID > maxOID {
				maxOID = ix.OID
			}
		case recStats:
			// Statistics are advisory: a record this version cannot
			// decode (or one referencing a vanished table, pruned below)
			// must never brick the database — skip it and plan from
			// defaults instead.
			s, err := decodeStats(rec)
			if err != nil {
				break
			}
			c.stats[s.TableOID] = &statsSlot{s: s, rid: rid}
		default:
			derr = fmt.Errorf("syscat: unknown catalog record kind %q at %v", rec[0], rid)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if derr != nil {
		return derr
	}
	if c.nextOID <= maxOID {
		// A damaged or missing counter must still never hand out a live
		// OID; advancing past the maximum is the conservative repair.
		c.nextOID = maxOID + 1
	}
	// Every index must reference a cataloged table.
	byOID := make(map[uint64]string, len(c.tables))
	for _, s := range c.tables {
		byOID[s.t.OID] = s.t.Name
	}
	for _, s := range c.indexes {
		tn, ok := byOID[s.i.TableOID]
		if !ok {
			return fmt.Errorf("syscat: index %q references unknown table OID %d", s.i.Name, s.i.TableOID)
		}
		ncols := len(c.tables[tn].t.Cols)
		if s.i.Column < 0 || s.i.Column >= ncols {
			return fmt.Errorf("syscat: index %q column ordinal %d out of range for table %q", s.i.Name, s.i.Column, tn)
		}
	}
	// Statistics records are advisory; prune (from memory only) any that
	// reference an uncataloged table or disagree with its column count.
	// OIDs are never reused, so a stale record can never alias a new
	// table; its heap record lingers as harmless dead weight.
	for oid, s := range c.stats {
		tn, ok := byOID[oid]
		if !ok || len(s.s.Cols) != len(c.tables[tn].t.Cols) {
			delete(c.stats, oid)
		}
	}
	return nil
}

// alloc hands out the next OID and persists the advanced counter, so a
// dropped relation's OID (and therefore its file name) is never reissued
// even across crashes.
func (c *Catalog) alloc() (uint64, error) {
	oid := c.nextOID
	c.nextOID++
	// Insert the advanced counter, then delete the old record: should
	// both survive, load() takes the maximum.
	rid, err := c.heap.Insert(encodeCounter(c.nextOID))
	if err != nil {
		c.nextOID-- // nothing persisted; hand the OID back
		return 0, fmt.Errorf("syscat: rewrite counter: %w", err)
	}
	old := c.counterRID
	c.counterRID = rid
	if old.Valid() {
		// A failed delete leaves a stale (lower) counter record behind;
		// benign — load() takes the max — and not worth failing the DDL
		// over.
		c.heap.Delete(old)
	}
	return oid, nil
}

// AddTable records a new table and returns its catalog entry (OID and
// heap file name assigned here). The caller commits the statement.
func (c *Catalog) AddTable(name string, cols []Column) (Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[name]; dup {
		return Table{}, fmt.Errorf("syscat: table %q already cataloged", name)
	}
	oid, err := c.alloc()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		OID:  oid,
		Name: name,
		File: fmt.Sprintf("rel%d.tbl", oid),
		Cols: append([]Column(nil), cols...),
	}
	rid, err := c.heap.Insert(encodeTable(t))
	if err != nil {
		return Table{}, fmt.Errorf("syscat: add table %q: %w", name, err)
	}
	c.tables[name] = &tableSlot{t: t, rid: rid}
	return t, nil
}

// AddIndex records a new, valid index. The caller commits the statement.
func (c *Catalog) AddIndex(name string, tableOID uint64, column int, method, opclass string) (Index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.indexes[name]; dup {
		return Index{}, fmt.Errorf("syscat: index %q already cataloged", name)
	}
	oid, err := c.alloc()
	if err != nil {
		return Index{}, err
	}
	ix := Index{
		OID:      oid,
		Name:     name,
		TableOID: tableOID,
		Column:   column,
		Method:   method,
		OpClass:  opclass,
		File:     fmt.Sprintf("rel%d.idx", oid),
	}
	rid, err := c.heap.Insert(encodeIndex(ix))
	if err != nil {
		return Index{}, fmt.Errorf("syscat: add index %q: %w", name, err)
	}
	c.indexes[name] = &indexSlot{i: ix, rid: rid}
	return ix, nil
}

// RemoveTable deletes a table record (the executor removes the table's
// index records first). The caller commits the statement.
func (c *Catalog) RemoveTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("syscat: unknown table %q", name)
	}
	if err := c.heap.Delete(s.rid); err != nil {
		return fmt.Errorf("syscat: remove table %q: %w", name, err)
	}
	delete(c.tables, name)
	return nil
}

// RemoveIndex deletes an index record. The caller commits the statement.
func (c *Catalog) RemoveIndex(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.indexes[name]
	if !ok {
		return fmt.Errorf("syscat: unknown index %q", name)
	}
	if err := c.heap.Delete(s.rid); err != nil {
		return fmt.Errorf("syscat: remove index %q: %w", name, err)
	}
	delete(c.indexes, name)
	return nil
}

// SetStats replaces a table's statistics record (delete+insert; the heap
// has no in-place update). Like every catalog mutation the records stay
// uncommitted until the caller's statement commits, so a crash leaves
// either the old statistics or the new ones — never a torn mix.
func (c *Catalog) SetStats(s Stats) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, had := c.stats[s.TableOID]
	if had {
		if err := c.heap.Delete(old.rid); err != nil {
			return fmt.Errorf("syscat: replace stats for OID %d: %w", s.TableOID, err)
		}
	}
	rid, err := c.heap.Insert(encodeStats(s))
	if err != nil {
		if had {
			// The old record is already deleted; re-insert it so the map
			// stays truthful, dropping the entry if even that fails.
			if oldRID, rerr := c.heap.Insert(encodeStats(old.s)); rerr == nil {
				old.rid = oldRID
			} else {
				delete(c.stats, s.TableOID)
			}
		}
		return fmt.Errorf("syscat: set stats for OID %d: %w", s.TableOID, err)
	}
	c.stats[s.TableOID] = &statsSlot{s: s, rid: rid}
	return nil
}

// RemoveStats deletes a table's statistics record. Removing statistics
// that do not exist is a no-op. The caller commits the statement.
func (c *Catalog) RemoveStats(tableOID uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.stats[tableOID]
	if !ok {
		return nil
	}
	if err := c.heap.Delete(s.rid); err != nil {
		return fmt.Errorf("syscat: remove stats for OID %d: %w", tableOID, err)
	}
	delete(c.stats, tableOID)
	return nil
}

// GetStats looks up a table's statistics record by table OID.
func (c *Catalog) GetStats(tableOID uint64) (Stats, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.stats[tableOID]
	if !ok {
		return Stats{}, false
	}
	return s.s, true
}

// AllStats lists every statistics record in table-OID order.
func (c *Catalog) AllStats() []Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Stats, 0, len(c.stats))
	for _, s := range c.stats {
		out = append(out, s.s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TableOID < out[j].TableOID })
	return out
}

// GetTable looks up a table record by name.
func (c *Catalog) GetTable(name string) (Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.tables[name]
	if !ok {
		return Table{}, false
	}
	return s.t, true
}

// GetIndex looks up an index record by name.
func (c *Catalog) GetIndex(name string) (Index, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.indexes[name]
	if !ok {
		return Index{}, false
	}
	return s.i, true
}

// Tables lists all table records in OID (creation) order.
func (c *Catalog) Tables() []Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Table, 0, len(c.tables))
	for _, s := range c.tables {
		out = append(out, s.t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].OID < out[j].OID })
	return out
}

// Indexes lists all index records in OID (creation) order.
func (c *Catalog) Indexes() []Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Index, 0, len(c.indexes))
	for _, s := range c.indexes {
		out = append(out, s.i)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].OID < out[j].OID })
	return out
}

// IndexesOf lists the index records of one table in OID order.
func (c *Catalog) IndexesOf(tableOID uint64) []Index {
	var out []Index
	for _, ix := range c.Indexes() {
		if ix.TableOID == tableOID {
			out = append(out, ix)
		}
	}
	return out
}

// SaveMeta saves the counters of the catalog's heap file into its meta
// page (heap.File.SaveMeta); the executor calls it at its commit point.
func (c *Catalog) SaveMeta() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.heap.SaveMeta()
}

// XidHigh returns the persisted transaction-ID high-water mark: every
// xid at or below it may already have been handed out. 0 means no
// transaction was ever allocated (or the catalog predates MVCC).
func (c *Catalog) XidHigh() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.xidHigh
}

// SetXidHigh persists a new transaction-ID high-water mark. Like alloc's
// counter rewrite, the advanced record is inserted *before* the old one
// is deleted: if both survive a failure, load takes the maximum. The
// caller (the executor's transaction manager) serializes calls and
// commits the records; the mark must be durable before any xid it covers
// is used.
func (c *Catalog) SetXidHigh(v uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v <= c.xidHigh && c.xidRID.Valid() {
		return nil
	}
	rid, err := c.heap.Insert(encodeXid(v))
	if err != nil {
		return fmt.Errorf("syscat: rewrite xid high-water: %w", err)
	}
	old := c.xidRID
	c.xidHigh = v
	c.xidRID = rid
	if old.Valid() {
		// Best effort, like alloc: a stale lower record is harmless.
		c.heap.Delete(old)
	}
	return nil
}

// --- record encoding -------------------------------------------------
//
// All records are little-endian, kind byte first:
//
//	'O': nextOID:8
//	'X': xidHigh:8
//	'T': oid:8 name:str16 file:str16 ncols:2 { colName:str16 typeName:str8 }*
//	'I': oid:8 name:str16 tableOID:8 column:2 method:str8 opclass:str8 file:str16 valid:1
//	'S': tableOID:8 rows:8 sampleRows:8 churn:8 ncols:2 { ndistinct:8
//	     nullFrac:8 flags:1 [range:tup16] nmcv:2 { freq:8 }* mcvs:tup16
//	     hist:tup16 }*
//
// where tup16 is a 16-bit length-prefixed catalog.EncodeTuple byte
// string (datum lists reuse the heap tuple encoding).
//
// Column types are stored by SQL type name and resolved back through
// catalog.TypeByName, keeping the file self-describing (readable without
// this package's Go enum values).

func appendStr16(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendStr8(b []byte, s string) []byte {
	b = append(b, byte(len(s)))
	return append(b, s...)
}

func readStr16(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("syscat: truncated string length")
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, fmt.Errorf("syscat: truncated string")
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

func readStr8(b []byte) (string, []byte, error) {
	if len(b) < 1 {
		return "", nil, fmt.Errorf("syscat: truncated string length")
	}
	n := int(b[0])
	if len(b) < 1+n {
		return "", nil, fmt.Errorf("syscat: truncated string")
	}
	return string(b[1 : 1+n]), b[1+n:], nil
}

func encodeCounter(next uint64) []byte {
	b := make([]byte, 0, 9)
	b = append(b, recCounter)
	return binary.LittleEndian.AppendUint64(b, next)
}

func decodeCounter(rec []byte) (uint64, error) {
	if len(rec) != 9 {
		return 0, fmt.Errorf("syscat: malformed counter record (%d bytes)", len(rec))
	}
	return binary.LittleEndian.Uint64(rec[1:]), nil
}

func encodeXid(v uint64) []byte {
	b := make([]byte, 0, 9)
	b = append(b, recXid)
	return binary.LittleEndian.AppendUint64(b, v)
}

func decodeXid(rec []byte) (uint64, error) {
	if len(rec) != 9 {
		return 0, fmt.Errorf("syscat: malformed xid record (%d bytes)", len(rec))
	}
	return binary.LittleEndian.Uint64(rec[1:]), nil
}

func encodeTable(t Table) []byte {
	b := []byte{recTable}
	b = binary.LittleEndian.AppendUint64(b, t.OID)
	b = appendStr16(b, t.Name)
	b = appendStr16(b, t.File)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(t.Cols)))
	for _, c := range t.Cols {
		b = appendStr16(b, c.Name)
		b = appendStr8(b, c.Type.String())
	}
	return b
}

func decodeTable(rec []byte) (Table, error) {
	var t Table
	b := rec[1:]
	if len(b) < 8 {
		return t, fmt.Errorf("syscat: truncated table record")
	}
	t.OID = binary.LittleEndian.Uint64(b)
	b = b[8:]
	var err error
	if t.Name, b, err = readStr16(b); err != nil {
		return t, err
	}
	if t.File, b, err = readStr16(b); err != nil {
		return t, err
	}
	if len(b) < 2 {
		return t, fmt.Errorf("syscat: truncated column count in table %q", t.Name)
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	for i := 0; i < n; i++ {
		var cn, tn string
		if cn, b, err = readStr16(b); err != nil {
			return t, err
		}
		if tn, b, err = readStr8(b); err != nil {
			return t, err
		}
		typ, err := catalog.TypeByName(tn)
		if err != nil {
			return t, fmt.Errorf("syscat: table %q column %q: %w", t.Name, cn, err)
		}
		t.Cols = append(t.Cols, Column{Name: cn, Type: typ})
	}
	if len(b) != 0 {
		return t, fmt.Errorf("syscat: %d trailing bytes in table record %q", len(b), t.Name)
	}
	if len(t.Cols) == 0 {
		return t, fmt.Errorf("syscat: table record %q has no columns", t.Name)
	}
	return t, nil
}

func encodeIndex(ix Index) []byte {
	b := []byte{recIndex}
	b = binary.LittleEndian.AppendUint64(b, ix.OID)
	b = appendStr16(b, ix.Name)
	b = binary.LittleEndian.AppendUint64(b, ix.TableOID)
	b = binary.LittleEndian.AppendUint16(b, uint16(ix.Column))
	b = appendStr8(b, ix.Method)
	b = appendStr8(b, ix.OpClass)
	return appendStr16(b, ix.File)
}

// EncodedSize reports the heap-record size of a statistics record —
// ANALYZE checks it against the catalog page capacity and shrinks the
// statistics when a record would not fit.
func EncodedSize(s Stats) int { return len(encodeStats(s)) }

// appendTuple16 appends a 16-bit length-prefixed tuple encoding of a
// datum list.
func appendTuple16(b []byte, vals []catalog.Datum) []byte {
	enc := catalog.EncodeTuple(catalog.Tuple(vals))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(enc)))
	return append(b, enc...)
}

// readTuple16 reads a datum list written by appendTuple16.
func readTuple16(b []byte) ([]catalog.Datum, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("syscat: truncated tuple length")
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n {
		return nil, nil, fmt.Errorf("syscat: truncated tuple")
	}
	tup, err := catalog.DecodeTuple(b[2 : 2+n])
	if err != nil {
		return nil, nil, err
	}
	return []catalog.Datum(tup), b[2+n:], nil
}

func encodeStats(s Stats) []byte {
	b := []byte{recStats}
	b = binary.LittleEndian.AppendUint64(b, s.TableOID)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Rows))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.SampleRows))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Churn))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s.Cols)))
	for _, cs := range s.Cols {
		b = binary.LittleEndian.AppendUint64(b, uint64(cs.NDistinct))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cs.NullFrac))
		flags := byte(0)
		if cs.HasRange {
			flags |= 1
		}
		b = append(b, flags)
		if cs.HasRange {
			b = appendTuple16(b, []catalog.Datum{cs.Min, cs.Max})
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(cs.MCFreqs)))
		for _, f := range cs.MCFreqs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
		b = appendTuple16(b, cs.MCVals)
		b = appendTuple16(b, cs.Histogram)
	}
	return b
}

func decodeStats(rec []byte) (Stats, error) {
	var s Stats
	b := rec[1:]
	if len(b) < 34 {
		return s, fmt.Errorf("syscat: truncated stats record")
	}
	s.TableOID = binary.LittleEndian.Uint64(b)
	s.Rows = int64(binary.LittleEndian.Uint64(b[8:]))
	s.SampleRows = int64(binary.LittleEndian.Uint64(b[16:]))
	s.Churn = int64(binary.LittleEndian.Uint64(b[24:]))
	ncols := int(binary.LittleEndian.Uint16(b[32:]))
	b = b[34:]
	var err error
	for i := 0; i < ncols; i++ {
		var cs catalog.ColumnStats
		if len(b) < 17 {
			return s, fmt.Errorf("syscat: truncated stats column %d", i)
		}
		cs.NDistinct = int64(binary.LittleEndian.Uint64(b))
		cs.NullFrac = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		flags := b[16]
		b = b[17:]
		if flags&1 != 0 {
			var rng []catalog.Datum
			if rng, b, err = readTuple16(b); err != nil {
				return s, err
			}
			if len(rng) != 2 {
				return s, fmt.Errorf("syscat: stats range of %d datums", len(rng))
			}
			cs.HasRange = true
			cs.Min, cs.Max = rng[0], rng[1]
		}
		if len(b) < 2 {
			return s, fmt.Errorf("syscat: truncated MCV count")
		}
		nmcv := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if len(b) < 8*nmcv {
			return s, fmt.Errorf("syscat: truncated MCV frequencies")
		}
		for j := 0; j < nmcv; j++ {
			cs.MCFreqs = append(cs.MCFreqs, math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:])))
		}
		b = b[8*nmcv:]
		if cs.MCVals, b, err = readTuple16(b); err != nil {
			return s, err
		}
		if len(cs.MCVals) != nmcv {
			return s, fmt.Errorf("syscat: %d MCV values for %d frequencies", len(cs.MCVals), nmcv)
		}
		if cs.Histogram, b, err = readTuple16(b); err != nil {
			return s, err
		}
		s.Cols = append(s.Cols, cs)
	}
	if len(b) != 0 {
		return s, fmt.Errorf("syscat: %d trailing bytes in stats record for OID %d", len(b), s.TableOID)
	}
	return s, nil
}

func decodeIndex(rec []byte) (Index, error) {
	var ix Index
	b := rec[1:]
	if len(b) < 8 {
		return ix, fmt.Errorf("syscat: truncated index record")
	}
	ix.OID = binary.LittleEndian.Uint64(b)
	b = b[8:]
	var err error
	if ix.Name, b, err = readStr16(b); err != nil {
		return ix, err
	}
	if len(b) < 10 {
		return ix, fmt.Errorf("syscat: truncated index record %q", ix.Name)
	}
	ix.TableOID = binary.LittleEndian.Uint64(b)
	ix.Column = int(binary.LittleEndian.Uint16(b[8:]))
	b = b[10:]
	if ix.Method, b, err = readStr8(b); err != nil {
		return ix, err
	}
	if ix.OpClass, b, err = readStr8(b); err != nil {
		return ix, err
	}
	if ix.File, b, err = readStr16(b); err != nil {
		return ix, err
	}
	if len(b) != 0 {
		return ix, fmt.Errorf("syscat: %d trailing bytes in index record %q", len(b), ix.Name)
	}
	return ix, nil
}

package executor_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/geom"
	"repro/internal/sqlmini"
	"repro/internal/wal"
)

// TestIndexWALBudget guards what the log of an SP-GiST insert is made of.
// The load, before the first checkpoint, logs no page image but one of
// each page the index builds wrote outside the log, at its first touch:
// the log reaches back to every other page's creation. After a CHECKPOINT, 1 000
// autocommit single-row INSERTs into a trie-indexed and into a
// kd-tree-indexed table may append at most 155 B and 254 B of WAL per
// statement beyond page images, as the writer's page-image byte counter
// has them (140 and 237 measured; 152 and 249 while each statement also
// patched its index's entry count). The two shared one bound of 195 B, 191
// then 193 measured (212 while the heap record repeated the tuple's
// 18-byte header), until the load's batches went into the kd-tree median
// first: in the balanced tree more single-row inserts split a full
// one-point leaf than hang a leaf under an empty entry (9 148 → 9 478
// node records over both tables), and the kd-tree's statement went from
// 234 to 249 B. What is logged is the heap's one-tuple batch record,
// node-level slot records, most of them patches of a record rewritten where it lies, the slot
// patch of the counters in its heap's meta page (an autocommit statement
// is its own commit point; an index keeps no counter), and the statement's frame,
// where whole-page logging spent 8–12 KB. Such a frame is stored raw:
// under 1 KB, or carrying a first-touch image already deflated, which
// Huffman codes do not shrink. The only page images are first
// touches: the first record group to reach a page since the checkpoint,
// once. Inside a transaction a statement logs no meta record at all (no
// index root moves here): they wait for COMMIT, which logs each heap's
// once.
func TestIndexWALBudget(t *testing.T) {
	dir := t.TempDir()
	db, err := executor.Open(executor.Options{Dir: dir, WAL: true, WALSync: wal.SyncLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cols := func(typ catalog.Type) []executor.Column {
		return []executor.Column{{Name: "k", Type: typ}, {Name: "id", Type: catalog.Int}}
	}
	const loaded, inserted, inTxn = 5000, 1000, 500
	words := datagen.Words(loaded+inserted+inTxn, 41)
	pts := datagen.Points(loaded+inserted+inTxn, 42, geom.MakeBox(0, 0, 1000, 1000))
	datum := map[string]func(i int) catalog.Datum{
		"words": func(i int) catalog.Datum { return catalog.NewText(words[i]) },
		"pts":   func(i int) catalog.Datum { return catalog.NewPoint(pts[i]) },
	}
	tables := map[string]*executor.Table{}
	built := map[string]uint32{} // pages each index build wrote
	for _, def := range []struct {
		name, opclass string
		typ           catalog.Type
	}{{"words", "spgist_trie", catalog.Text}, {"pts", "spgist_kdtree", catalog.Point}} {
		tb, err := db.CreateTable(def.name, cols(def.typ))
		if err != nil {
			t.Fatal(err)
		}
		ix, err := db.CreateIndex(def.name+"_ix", def.name, "k", "spgist", def.opclass)
		if err != nil {
			t.Fatal(err)
		}
		built[ix.File()] = ix.Pool().DM().NumPages()
		tups := make([]catalog.Tuple, loaded)
		for i := range tups {
			tups[i] = catalog.Tuple{datum[def.name](i), catalog.NewInt(int64(i))}
		}
		if _, err := tb.InsertBatch(tups); err != nil {
			t.Fatal(err)
		}
		tables[def.name] = tb
	}
	w := db.WAL()
	if err := w.Sync(w.AppendedLSN()); err != nil {
		t.Fatal(err)
	}
	type pageKey struct {
		file string
		page uint32
	}
	builtImages := map[pageKey]int{}
	if _, err := wal.Replay(filepath.Join(dir, "wal"), func(r *wal.Record) error {
		if r.Type != wal.RecPageImage {
			return nil
		}
		key := pageKey{r.File, r.Page}
		if builtImages[key]++; r.Page >= built[r.File] || builtImages[key] > 1 {
			t.Errorf("LSN %d: image of %s page %d before the first checkpoint", r.LSN, r.File, r.Page)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	before, start := w.Stats(), w.AppendedLSN()
	after := before
	beyondImages := map[string]int64{} // per table
	for i := loaded; i < loaded+inserted; i++ {
		for name, tb := range tables {
			if _, err := tb.Insert(catalog.Tuple{datum[name](i), catalog.NewInt(int64(i))}); err != nil {
				t.Fatal(err)
			}
			st := w.Stats()
			beyondImages[name] += st.AppendedBytes - after.AppendedBytes -
				(st.ByType[wal.RecPageImage].Bytes - after.ByType[wal.RecPageImage].Bytes)
			after = st
		}
	}
	if err := w.Sync(w.AppendedLSN()); err != nil {
		t.Fatal(err)
	}

	// Walk the statements' records. A page image is a first touch iff no
	// earlier group holds a record of its page and the page has not been
	// imaged already.
	earlier := map[pageKey]bool{} // pages with a record in an earlier group, or an image
	inGroup := map[pageKey]bool{}
	var nodeRecords int64
	firstTouches := 0
	if _, err := wal.Replay(filepath.Join(dir, "wal"), func(r *wal.Record) error {
		if r.LSN <= start {
			return nil
		}
		key := pageKey{r.File, r.Page}
		switch r.Type {
		case wal.RecCommit:
			for k := range inGroup {
				earlier[k] = true
			}
			clear(inGroup)
		case wal.RecPageImage:
			if earlier[key] {
				t.Errorf("LSN %d: image of %s page %d, which an earlier group had already touched", r.LSN, r.File, r.Page)
			}
			earlier[key] = true
			firstTouches++
		case wal.RecSlotPut, wal.RecSlotPatch, wal.RecSlotDelete:
			nodeRecords++
			inGroup[key] = true
		case wal.RecSlotBatchPut:
			inGroup[key] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	statements := int64(2 * inserted)
	imageBytes := after.ByType[wal.RecPageImage].Bytes - before.ByType[wal.RecPageImage].Bytes
	t.Logf("%d first touches, %d B of images; %d node records", firstTouches, imageBytes, nodeRecords)
	for name, bound := range map[string]int64{"words": 155, "pts": 254} {
		perStmt := beyondImages[name] / inserted
		t.Logf("%s: %d B of WAL per INSERT beyond page images", name, perStmt)
		if perStmt > bound {
			t.Errorf("an INSERT into %s appends %d B of WAL beyond page images, want at most %d", name, perStmt, bound)
		}
	}
	if nodeRecords < statements {
		t.Errorf("%d slot records for %d index inserts: the index is not logging node writes", nodeRecords, statements)
	}
	// The per-type split is the same count, read from the writer, of the
	// records as they would be stored raw: the load's frames went out
	// deflated.
	var recs, bytes int64
	for _, by := range after.ByType {
		recs += by.Records
		bytes += by.Bytes
	}
	puts := after.ByType[wal.RecSlotPut].Records - before.ByType[wal.RecSlotPut].Records
	patches := after.ByType[wal.RecSlotPatch].Records - before.ByType[wal.RecSlotPatch].Records
	dels := after.ByType[wal.RecSlotDelete].Records - before.ByType[wal.RecSlotDelete].Records
	if recs != after.Appends || bytes != after.FrameRawBytes || puts+patches+dels != nodeRecords {
		t.Errorf("Stats.ByType sums to %d records / %d B against %d / %d; %d+%d+%d node records against %d in the log",
			recs, bytes, after.Appends, after.FrameRawBytes, puts, patches, dels, nodeRecords)
	}
	if raw := after.FrameRawBytes - before.FrameRawBytes; raw != after.AppendedBytes-before.AppendedBytes {
		t.Errorf("the single-row INSERTs' frames would take %d B raw, %d B stored: want them all stored raw",
			raw, after.AppendedBytes-before.AppendedBytes)
	}

	// The same statements inside one transaction, then its COMMIT.
	metaRecords := func(since wal.LSN) (n int) {
		t.Helper()
		if err := w.Sync(w.AppendedLSN()); err != nil {
			t.Fatal(err)
		}
		if _, err := wal.Replay(filepath.Join(dir, "wal"), func(r *wal.Record) error {
			if r.LSN > since && r.File != "" && r.Page == 0 {
				n++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	start = w.AppendedLSN()
	for i := loaded + inserted; i < loaded+inserted+inTxn; i++ {
		for name, tb := range tables {
			if _, err := tb.InsertTx(tx, catalog.Tuple{datum[name](i), catalog.NewInt(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := metaRecords(start); n != 0 {
		t.Errorf("%d statements inside a transaction logged %d meta records, want none", 2*inTxn, n)
	}
	start = w.AppendedLSN()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := metaRecords(start); n != 2 {
		t.Errorf("COMMIT logged %d meta records, want 2: two heaps, and no index", n)
	}
}

// TestBulkLoadWALBudget guards what a bulk load appends to the log: 10 000
// rows into a trie-indexed and 10 000 into a kd-tree-indexed table, in
// INSERT … VALUES statements of 500 rows inside one transaction. Each
// statement's frame is far over 1 KB and goes out deflated, so the load
// may append at most 85 B of WAL per row (82 measured; 121 with every
// frame stored raw, 143 while a batch insert also repeated each tuple's
// 18-byte header). A CREATE INDEX over the loaded words then logs nothing
// of its build. A second load of the same shape, crashed after half of
// its statements, recovers exactly the committed rows — the first load's —
// from those deflated frames, by a scan and through each index, the one
// built outside the log included.
func TestBulkLoadWALBudget(t *testing.T) {
	dir := t.TempDir()
	open := func() *executor.DB {
		db, err := executor.Open(executor.Options{Dir: dir, WAL: true})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	sess := sqlmini.NewSession(db)
	exec := func(stmt string) {
		t.Helper()
		if _, err := sess.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	exec(`CREATE TABLE words (k VARCHAR, id INT)`)
	exec(`CREATE INDEX words_ix ON words USING spgist (k spgist_trie)`)
	exec(`CREATE TABLE pts (p POINT, id INT)`)
	exec(`CREATE INDEX pts_ix ON pts USING spgist (p spgist_kdtree)`)
	const rows, perStmt = 10000, 500
	words := datagen.Words(rows+rows/2, 41)
	pts := datagen.Points(rows+rows/2, 42, geom.MakeBox(0, 0, 1000, 1000))
	load := func(from, to int) {
		for base := from; base < to; base += perStmt {
			var wv, pv []string
			for i := base; i < base+perStmt; i++ {
				wv = append(wv, fmt.Sprintf("('%s', %d)", words[i], i))
				pv = append(pv, fmt.Sprintf("('(%g,%g)', %d)", pts[i].X, pts[i].Y, i))
			}
			exec(`INSERT INTO words VALUES ` + strings.Join(wv, ", "))
			exec(`INSERT INTO pts VALUES ` + strings.Join(pv, ", "))
		}
	}

	w := db.WAL()
	before := w.Stats()
	exec(`BEGIN`)
	load(0, rows)
	exec(`COMMIT`)
	after := w.Stats()
	stored := after.AppendedBytes - before.AppendedBytes
	raw := after.FrameRawBytes - before.FrameRawBytes
	perRow := stored / (2 * rows)
	t.Logf("%d B of WAL per row (%d B stored, %d B raw)", perRow, stored, raw)
	if perRow > 85 {
		t.Errorf("a bulk-loaded row appends %d B of WAL, want at most 85", perRow)
	}
	if raw <= stored {
		t.Errorf("the load's frames take %d B stored and %d B raw: none was deflated", stored, raw)
	}

	// CREATE INDEX over the loaded words logs nothing of its build: the
	// index file's creation, its catalog records (the OID counter's
	// delete and insert, the index record, the catalog's meta patch) and
	// one marker, 186 B measured.
	start := w.AppendedLSN()
	before = w.Stats()
	exec(`CREATE INDEX words_ix2 ON words USING spgist (k spgist_trie)`)
	created := w.Stats().AppendedBytes - before.AppendedBytes
	tb, err := db.Table("words")
	if err != nil {
		t.Fatal(err)
	}
	ixFile := tb.Indexes[1].File()
	if err := w.Sync(w.AppendedLSN()); err != nil {
		t.Fatal(err)
	}
	var markers, others int
	if _, err := wal.Replay(filepath.Join(dir, "wal"), func(r *wal.Record) error {
		switch {
		case r.LSN <= start:
		case r.Type == wal.RecCommit:
			markers++
		case r.File == ixFile && r.Type != wal.RecFileCreate:
			t.Errorf("CREATE INDEX logged a %s record of %s page %d", r.Type, r.File, r.Page)
		case r.File != "syscat.dat" && r.File != ixFile:
			t.Errorf("CREATE INDEX logged a %s record of %s", r.Type, r.File)
		default:
			others++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("CREATE INDEX over %d rows: %d B of WAL, %d records and %d marker", rows, created, others, markers)
	if markers != 1 || others != 5 || created > 200 {
		t.Errorf("CREATE INDEX over %d rows appended %d B, %d records and %d markers, want at most 200 B, 5 and 1", rows, created, others, markers)
	}

	exec(`BEGIN`)
	load(rows, rows+rows/2)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	db = open()
	defer db.Close()
	if rs := db.RecoveryStats(); rs.SlotBatches == 0 || rs.TornTail {
		t.Fatalf("recovery replayed %d batch records (torn tail %v), want the loads' from whole frames", rs.SlotBatches, rs.TornTail)
	}
	for _, c := range []struct {
		table string
		op    string
		key   func(i int) catalog.Datum
	}{
		{"words", "=", func(i int) catalog.Datum { return catalog.NewText(words[i]) }},
		{"pts", "@", func(i int) catalog.Datum { return catalog.NewPoint(pts[i]) }},
	} {
		tb, err := db.Table(c.table)
		if err != nil {
			t.Fatal(err)
		}
		scanned := map[int64]bool{}
		if _, err := tb.Select(nil, func(r executor.Row) bool {
			scanned[r.Tuple[1].I] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		found := map[string]map[int64]bool{"scan": scanned}
		for _, ix := range tb.Indexes {
			indexed := map[int64]bool{}
			for i := 0; i < rows+rows/2; i++ {
				if err := tb.SelectIndexed(ix, &executor.Pred{Column: 0, Op: c.op, Arg: c.key(i)}, func(r executor.Row) bool {
					indexed[r.Tuple[1].I] = true
					return true
				}); err != nil {
					t.Fatal(err)
				}
			}
			found["index "+ix.Name] = indexed
		}
		for name, ids := range found {
			if len(ids) != rows {
				t.Errorf("%s: the %s finds %d rows after the crash, want the %d committed", c.table, name, len(ids), rows)
			}
			for id := range ids {
				if id < 0 || id >= rows {
					t.Errorf("%s: the %s finds row %d of the uncommitted load", c.table, name, id)
					break
				}
			}
		}
	}
}

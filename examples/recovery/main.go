// Recovery: crash-and-recover on a file-backed database. The program
// opens an on-disk database, which is always write-ahead logged, loads
// words and points under two SP-GiST indexes, then simulates a crash:
// every unflushed buffer-pool frame is discarded, so the data files hold
// only what happened to be evicted. Reopening runs the redo pass, and
// the indexed queries return exactly what a clean shutdown would have
// preserved.
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	dir, err := os.MkdirTemp("", "spgist-recovery-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fmt.Println("database directory:", dir)

	db, err := repro.Open(repro.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	db.MustExec(`CREATE TABLE word_data (name VARCHAR(50), id INT)`)
	db.MustExec(`CREATE INDEX words_trie ON word_data USING spgist (name spgist_trie)`)
	db.MustExec(`CREATE TABLE pts (loc POINT, id INT)`)
	db.MustExec(`CREATE INDEX pts_kd ON pts USING spgist (loc spgist_kdtree)`)
	for i := 0; i < 500; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO word_data VALUES ('word%04d', %d)`, i, i))
		db.MustExec(fmt.Sprintf(`INSERT INTO pts VALUES ('(%d,%d)', %d)`, i%100, (i*37)%100, i))
	}
	before := db.MustExec(`SELECT * FROM word_data WHERE name #= 'word012'`)
	fmt.Printf("before crash: prefix query finds %d rows\n", len(before.Rows))

	// Crash: drop all unflushed buffer-pool frames. Nothing that only
	// lived in memory reaches the data files — only the log has it.
	if err := db.Engine().Crash(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("simulated crash (unflushed pages discarded)")

	// Reopen: the redo pass replays the log into the heap and index
	// files, then the persistent system catalog rediscovers the schema —
	// nothing is re-declared.
	db, err = repro.Open(repro.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	rs := db.Engine().RecoveryStats()
	fmt.Printf("recovered: %d log records (%d page images, %d slot puts, %d slot patches, %d slot deletes; %d torn pages, %d repaired) -> %d pages across %d files; %d tuples of unresolved transactions aborted, %d xmaxes cleared\n",
		rs.Records, rs.PageImages, rs.SlotPuts, rs.SlotPatches, rs.SlotDeletes, rs.TornPages, rs.TornRepaired, rs.PagesWritten, rs.FilesTouched, rs.AbortFixups, rs.XmaxFixups)

	after := db.MustExec(`SELECT * FROM word_data WHERE name #= 'word012'`)
	pt := db.MustExec(`SELECT * FROM pts WHERE loc @ '(12,44)'`)
	fmt.Printf("after recovery: prefix query finds %d rows (want %d), point query finds %d rows\n",
		len(after.Rows), len(before.Rows), len(pt.Rows))
	if len(after.Rows) != len(before.Rows) {
		log.Fatal("recovery lost rows")
	}
	fmt.Println("crash recovery OK: indexed queries match the pre-crash state")
}

// Stats: persisted planner statistics in action. The program loads a
// skewed word table, runs ANALYZE (block-sampled, PostgreSQL-style),
// and shows the planner flipping between a sequential scan for the
// common value (selectivity ≈ 0.7, straight from the MCV list) and an
// index scan for a rare one. It then closes and reopens the database:
// the statistics load from the system catalog with the schema, so the
// first plan of the new session touches no heap data page and chooses
// exactly the same access paths.
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	dir, err := os.MkdirTemp("", "spgist-stats-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fmt.Println("database directory:", dir)

	db, err := repro.Open(repro.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	db.MustExec(`CREATE TABLE word_data (name VARCHAR, id INT)`)
	db.MustExec(`CREATE INDEX wd_trie ON word_data USING spgist (name spgist_trie)`)
	for i := 0; i < 1400; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO word_data VALUES ('common', %d)`, i))
	}
	for i := 0; i < 600; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO word_data VALUES ('w%04d', %d)`, i, 1400+i))
	}

	fmt.Println("\n-- ANALYZE word_data (block sample, persisted in the catalog)")
	db.MustExec(`ANALYZE word_data`)
	tb, err := db.Engine().Table("word_data")
	if err != nil {
		log.Fatal(err)
	}
	st, _ := db.Engine().Catalog().GetStats(tb.OID())
	fmt.Printf("persisted: rows=%d sampled=%d name.ndistinct=%d mcv[0]=%s@%.2f histogram=%d bounds\n",
		st.Rows, st.SampleRows, st.Cols[0].NDistinct,
		st.Cols[0].MCVals[0], st.Cols[0].MCFreqs[0], len(st.Cols[0].Histogram))

	explain := func(q string) {
		fmt.Printf("EXPLAIN %s\n  -> %s\n", q, db.MustExec("EXPLAIN "+q).Plan)
	}
	fmt.Println("\n-- plan choice from the statistics")
	explain(`SELECT * FROM word_data WHERE name = 'common'`)
	explain(`SELECT * FROM word_data WHERE name = 'w0042'`)

	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n-- reopen: statistics load with the catalog, no heap scan")
	db, err = repro.Open(repro.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	tb, err = db.Engine().Table("word_data")
	if err != nil {
		log.Fatal(err)
	}
	tb.Heap.Pool().ResetStats()
	explain(`SELECT * FROM word_data WHERE name = 'common'`)
	explain(`SELECT * FROM word_data WHERE name = 'w0042'`)
	fmt.Printf("heap pages read while planning: %d\n", tb.Heap.Pool().Stats().Accesses)
}

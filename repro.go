// Package repro is the public facade of this reproduction of
// "Space-partitioning Trees in PostgreSQL: Realization and Performance"
// (Eltabakh, Eltarras, Aref; ICDE 2006).
//
// It exposes a small embedded database whose extensible access-method
// layer realizes SP-GiST — the paper's framework for disk-based
// space-partitioning trees — alongside the B+-tree and R-tree baselines
// the paper compares against. Five SP-GiST instantiations ship in the
// box, selected per CREATE INDEX through operator classes exactly as in
// the paper's Tables 5–6:
//
//	spgist_trie       patricia trie over VARCHAR   (=, #=, ?=, @@)
//	spgist_suffix     suffix tree over VARCHAR     (@=, @@)
//	spgist_kdtree     kd-tree over POINT           (@, ^, @@)
//	spgist_pquadtree  point quadtree over POINT    (@, ^, @@)
//	spgist_pmr        PMR quadtree over SEGMENT    (=, &&, @@)
//
// Quick start:
//
//	db := repro.OpenMemory()
//	defer db.Close()
//	db.MustExec(`CREATE TABLE word_data (name VARCHAR, id INT)`)
//	db.MustExec(`CREATE INDEX trie_idx ON word_data USING spgist (name spgist_trie)`)
//	db.MustExec(`INSERT INTO word_data VALUES ('random', 1), ('spade', 2)`)
//	res, _ := db.Exec(`SELECT * FROM word_data WHERE name ?= 'r?nd?m'`)
//
// On-disk databases (Options.Dir) carry a persistent system catalog:
// reopening one rediscovers every table and index with no schema
// re-declaration, DROP TABLE / DROP INDEX remove relations, and SHOW
// TABLES / SHOW INDEXES introspect the catalog in SQL. With Options.WAL
// all DDL is crash-atomic — in particular, CREATE INDEX builds its file
// complete before its catalog entry commits, so a crash during it leaves
// neither the index nor a partial file.
//
// The deeper layers are available for direct use: repro/internal/core is
// the SP-GiST framework itself (OpClass external methods, generic
// internal methods, node-to-page clustering, incremental NN search), and
// the instantiations live in repro/internal/{trie,kdtree,pquad,pmr,
// suffix}.
package repro

import (
	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/sqlmini"
)

// Datum is a typed value (re-exported for programmatic inserts).
type Datum = catalog.Datum

// Typed datum constructors, re-exported from the catalog.
var (
	NewInt     = catalog.NewInt
	NewFloat   = catalog.NewFloat
	NewText    = catalog.NewText
	NewPoint   = catalog.NewPoint
	NewBox     = catalog.NewBox
	NewSegment = catalog.NewSegment
)

// DB is an embedded database speaking the mini SQL dialect of the
// paper's Table 6.
type DB struct {
	inner   *executor.DB
	session *sqlmini.Session
}

// Result is the outcome of one SQL statement (see sqlmini.Result).
type Result = sqlmini.Result

// Options configure storage.
type Options = executor.Options

// Open creates or opens a database over a directory; an empty Dir means
// in-memory.
func Open(opts Options) (*DB, error) {
	inner, err := executor.Open(opts)
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner, session: sqlmini.NewSession(inner)}, nil
}

// OpenMemory opens an in-memory database.
func OpenMemory() *DB {
	db, _ := Open(Options{})
	return db
}

// Exec runs one SQL statement.
func (db *DB) Exec(sql string) (*Result, error) { return db.session.Exec(sql) }

// MustExec runs one SQL statement and panics on error (examples, tests).
func (db *DB) MustExec(sql string) *Result {
	res, err := db.Exec(sql)
	if err != nil {
		panic(err)
	}
	return res
}

// Engine exposes the underlying executor database for programmatic use
// (bulk loads, statistics, benchmark harnesses).
func (db *DB) Engine() *executor.DB { return db.inner }

// Close flushes and closes all storage.
func (db *DB) Close() error { return db.inner.Close() }

// AccessMethods lists the registered access methods (the mini pg_am, cf.
// the paper's Table 2).
func AccessMethods() []*catalog.AccessMethod { return catalog.AMs() }

// OperatorClasses lists the registered operator classes (the mini
// pg_opclass, cf. the paper's Table 5).
func OperatorClasses() []*catalog.OperatorClass { return catalog.OpClasses() }

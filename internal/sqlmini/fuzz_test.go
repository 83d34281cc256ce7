package sqlmini

import (
	"testing"

	"repro/internal/executor"
)

// fuzzSchema is the small database every FuzzSessionExec input runs
// against: two tables, a trie over one and a kd-tree over the other.
var fuzzSchema = []string{
	`CREATE TABLE w (name VARCHAR(50), id INT)`,
	`CREATE INDEX w_trie ON w USING spgist (name spgist_trie)`,
	`INSERT INTO w VALUES ('random', 1), ('spade', 2), ('spark', 3), ('rondom', 4)`,
	`CREATE TABLE pts (p POINT, id INT)`,
	`CREATE INDEX pts_kd ON pts USING spgist (p spgist_kdtree)`,
	`INSERT INTO pts VALUES ('(0,1)', 1), ('(2,3)', 2), ('(7,8)', 3)`,
}

// fuzzSeeds holds every statement form of the dialect, over fuzzSchema's
// tables where the form names one.
var fuzzSeeds = []string{
	`CREATE TABLE t (name VARCHAR(20), id INT, f FLOAT, p POINT, b BOX, s SEGMENT)`,
	`CREATE INDEX w_bt ON w USING btree (name btree_text)`,
	`CREATE INDEX w_sfx ON w USING spgist (name spgist_suffix)`,
	`CREATE INDEX pts_quad ON pts USING spgist (p spgist_pquadtree)`,
	`CREATE INDEX pts_rt ON pts USING rtree (p rtree_point)`,
	`CREATE INDEX pts_def ON pts USING spgist (p)`,
	`DROP TABLE pts`,
	`DROP INDEX w_trie`,
	`INSERT INTO w VALUES ('spam', 5), ('eggs', 6)`,
	`INSERT INTO pts VALUES ('(1.5,-2)', 4);`,
	`SELECT * FROM w`,
	`SELECT * FROM w WHERE name = 'spark'`,
	`SELECT * FROM w WHERE name #= 'sp' LIMIT 1`,
	`SELECT * FROM w WHERE name ?= 'r?nd?m'`,
	`SELECT * FROM w WHERE id < 3`,
	`SELECT * FROM w ORDER BY name <-> 'spa' LIMIT 2`,
	`SELECT * FROM pts WHERE p @ '(0,1)'`,
	`SELECT * FROM pts WHERE p ^ '(0,0,5,5)'`,
	`SELECT * FROM pts ORDER BY p <-> '(50,50)' LIMIT 2`,
	`EXPLAIN SELECT * FROM w WHERE name = 'spark'`,
	`EXPLAIN SELECT * FROM pts ORDER BY p <-> '(1,1)'`,
	`EXPLAIN ANALYZE SELECT * FROM pts WHERE p ^ '(0,0,5,5)'`,
	`EXPLAIN ANALYZE SELECT * FROM pts ORDER BY p <-> '(1,1)' LIMIT 1`,
	`EXPLAIN (TRACE) SELECT * FROM w WHERE name #= 'r'`,
	`EXPLAIN (TRACE) DELETE FROM w WHERE id = 1`,
	`UPDATE w SET name = 'spoke', id = 9 WHERE name = 'spade'`,
	`UPDATE pts SET p = '(3,3)'`,
	`DELETE FROM w WHERE name #= 'sp'`,
	`DELETE FROM pts`,
	`BEGIN`,
	`COMMIT`,
	`ROLLBACK`,
	`VACUUM`,
	`VACUUM w`,
	`ANALYZE`,
	`ANALYZE pts`,
	`SCRUB`,
	`SCRUB w`,
	`CHECKPOINT`,
	`SHOW TABLES`,
	`SHOW INDEXES`,
	`SHOW STATS`,
	`SHOW STATS w`,
	`SHOW STATS RESET`,
	`SHOW ACTIVITY`,
	`SHOW STATE`,
	``,
	`;`,
	`SELECT * FROM w WHERE name = 'unterminated`,
	`DROP TABLE w; DROP TABLE pts`,
	// String literals the lexer takes as substrings of the statement or,
	// with a doubled quote, copies.
	`''`,
	`'it''s'`,
	`'a'''`,
	`'abc`,
	`'x'--c`,
	`'héllo 日本'`,
	`SELECT * FROM w WHERE name = 'it''s'`,
	`INSERT INTO w VALUES ('a''''', 7), ('', 8), ('wörd', 9)--c`,
}

// FuzzSessionExec runs any statement text against a fresh fuzzSchema
// database: it must come back as a result or an error, never a panic.
func FuzzSessionExec(f *testing.F) {
	for _, sql := range fuzzSeeds {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		db, err := executor.Open(executor.Options{PoolPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		s := NewSession(db)
		defer s.Close()
		for _, stmt := range fuzzSchema {
			mustExec(t, s, stmt)
		}
		if res, err := s.Exec(sql); res == nil && err == nil {
			t.Fatalf("%q: neither a result nor an error", sql)
		}
	})
}

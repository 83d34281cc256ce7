// Command spgist-cli is a small interactive SQL shell over the embedded
// engine — the closest thing in this repository to the psql sessions of
// the paper's Table 6.
//
//	$ spgist-cli [-dir /path/to/db [-wal-lazy]]
//	spgist> CREATE TABLE word_data (name VARCHAR, id INT);
//	spgist> CREATE INDEX t ON word_data USING spgist (name spgist_trie);
//	spgist> INSERT INTO word_data VALUES ('random', 1);
//	spgist> SELECT * FROM word_data WHERE name ?= 'r?nd?m';
//
// Meta commands: \dam (access methods), \doc (operator classes),
// \do (operators), \dt (tables), \d <table> (describe one table from the
// persistent system catalog), \page <rel> <pageno> (decode a raw heap,
// B+-tree, SP-GiST, or R-tree page straight from disk, pgpageshell
// style), \scrub [table] (checksum-verify every page of every heap and
// catalog file, pg_checksums style), \wal (log/recovery stats), \timing
// (toggle per-statement wall-clock reporting — watch a 1000-row
// multi-row INSERT beat 1000 single-row statements), \q (quit).
// SHOW TABLES / SHOW INDEXES / SHOW STATS and DROP TABLE / DROP INDEX
// are plain SQL.
// A database in -dir is write-ahead logged and recovers from a crash at
// the next start; without -dir it lives in memory, with no log.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/pageinspect"
	"repro/internal/wal"
)

func main() {
	dir := flag.String("dir", "", "database directory (default: in-memory)")
	walLazy := flag.Bool("wal-lazy", false, "sync the log lazily instead of on every commit (requires -dir)")
	flag.Parse()

	if *walLazy && *dir == "" {
		fmt.Fprintln(os.Stderr, "-wal-lazy requires -dir: an in-memory database has no log")
		os.Exit(2)
	}
	mode := wal.SyncCommit
	if *walLazy {
		mode = wal.SyncLazy
	}
	db, err := repro.Open(repro.Options{Dir: *dir, WALSync: mode})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer db.Close()
	if rs := db.Engine().RecoveryStats(); rs.PagesWritten > 0 || rs.TornTail {
		fmt.Printf("recovered from WAL: %d records (%d page images, %d slot puts, %d slot patches, %d slot deletes), %d pages written across %d files; %d tuples of unresolved transactions aborted, %d xmaxes cleared\n",
			rs.Records, rs.PageImages, rs.SlotPuts, rs.SlotPatches, rs.SlotDeletes, rs.PagesWritten, rs.FilesTouched, rs.AbortFixups, rs.XmaxFixups)
		if rs.TornPages > 0 {
			fmt.Printf("torn pages detected by checksum: %d, repaired from WAL: %d\n", rs.TornPages, rs.TornRepaired)
		}
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Println("SP-GiST mini SQL shell (type \\q to quit, \\dam \\doc \\do \\dt \\d <table> for catalogs, \\timing for latencies)")
	timing := false
	var pending strings.Builder
	for {
		if pending.Len() == 0 {
			fmt.Print("spgist> ")
		} else {
			fmt.Print("   ...> ")
		}
		if !in.Scan() {
			break
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if strings.ToLower(strings.Fields(line)[0]) == "\\timing" {
				timing = !timing
				if timing {
					fmt.Println("Timing is on.")
				} else {
					fmt.Println("Timing is off.")
				}
				continue
			}
			if meta(db, *dir, line) {
				return
			}
			continue
		}
		pending.WriteString(line)
		pending.WriteString(" ")
		if !strings.HasSuffix(line, ";") {
			continue
		}
		sql := pending.String()
		pending.Reset()
		start := time.Now()
		res, err := db.Exec(sql)
		elapsed := time.Since(start)
		if err != nil {
			fmt.Println("ERROR:", err)
			continue
		}
		printResult(res)
		if timing {
			fmt.Printf("Time: %.3f ms\n", float64(elapsed.Microseconds())/1000)
		}
	}
}

func printResult(res *repro.Result) {
	if res.Plan != "" && len(res.Columns) > 0 && res.Rows == nil && res.Msg == "" {
		fmt.Println(res.Plan) // EXPLAIN
		return
	}
	if len(res.Columns) > 0 {
		fmt.Println(strings.Join(res.Columns, " | "))
		for i, row := range res.Rows {
			var cells []string
			for _, d := range row {
				cells = append(cells, d.String())
			}
			line := strings.Join(cells, " | ")
			if res.Distances != nil {
				line += fmt.Sprintf("   <-> %.3f", res.Distances[i])
			}
			fmt.Println(line)
		}
		fmt.Printf("(%d rows)\n", len(res.Rows))
		return
	}
	if res.Msg != "" {
		fmt.Println(res.Msg)
	}
}

// meta handles backslash commands; returns true to quit.
func meta(db *repro.DB, dir, line string) bool {
	switch strings.ToLower(strings.Fields(line)[0]) {
	case "\\q", "\\quit":
		return true
	case "\\dam":
		fmt.Println("access methods (pg_am):")
		ams := repro.AccessMethods()
		sort.Slice(ams, func(i, j int) bool { return ams[i].Name < ams[j].Name })
		for _, am := range ams {
			fmt.Printf("  %-8s strategies=%d support=%d order=%d concurrent=%v build=%s cost=%s\n",
				am.Name, am.MaxStrategies, am.MaxSupport, am.OrderStrategy,
				am.Concurrent, am.BuildProc, am.CostProc)
		}
	case "\\doc":
		fmt.Println("operator classes (pg_opclass):")
		ocs := repro.OperatorClasses()
		sort.Slice(ocs, func(i, j int) bool { return ocs[i].Name < ocs[j].Name })
		for _, oc := range ocs {
			var ops []string
			for op, st := range oc.Strategies {
				ops = append(ops, fmt.Sprintf("%s(%d)", op, st))
			}
			sort.Strings(ops)
			fmt.Printf("  %-18s am=%-7s type=%-8v default=%-5v ops=%s\n",
				oc.Name, oc.AM, oc.Type, oc.Default, strings.Join(ops, " "))
		}
	case "\\do":
		fmt.Println("operators (pg_operator):")
		ops := catalog.Operators()
		sort.Slice(ops, func(i, j int) bool {
			if ops[i].Name != ops[j].Name {
				return ops[i].Name < ops[j].Name
			}
			return ops[i].Left < ops[j].Left
		})
		for _, op := range ops {
			fmt.Printf("  %-3s  left=%-8v right=%-8v commutator=%q\n",
				op.Name, op.Left, op.Right, op.Commutator)
		}
	case "\\d":
		fields := strings.Fields(line)
		if len(fields) < 2 {
			fmt.Println("usage: \\d <table>")
			break
		}
		describe(db, fields[1])
	case "\\dt":
		for _, t := range db.Engine().Tables() {
			var cols []string
			for _, c := range t.Columns {
				cols = append(cols, fmt.Sprintf("%s %v", c.Name, c.Type))
			}
			fmt.Printf("  %s (%s)  rows=%d indexes=%d\n",
				t.Name, strings.Join(cols, ", "), t.RowCount(), len(t.Indexes))
			for _, ix := range t.Indexes {
				fmt.Printf("    index %s on %s using %s (%s), %d pages\n",
					ix.Name, t.Columns[ix.Column].Name, ix.OpClass.AM, ix.OpClass.Name, ix.Pool().DM().NumPages())
			}
		}
	case "\\page":
		fields := strings.Fields(line)
		if len(fields) != 3 {
			fmt.Println("usage: \\page <table|index|file> <pageno>")
			break
		}
		pageNo, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil {
			fmt.Printf("bad page number %q\n", fields[2])
			break
		}
		path, err := relPath(db, dir, fields[1])
		if err != nil {
			fmt.Println("ERROR:", err)
			break
		}
		if err := pageinspect.Describe(os.Stdout, path, uint32(pageNo), 0); err != nil {
			fmt.Println("ERROR:", err)
		}
	case "\\scrub":
		fields := strings.Fields(line)
		table := ""
		if len(fields) > 1 {
			table = fields[1]
		}
		res, err := db.Engine().Scrub(table)
		if err != nil {
			fmt.Println("ERROR:", err)
			break
		}
		for _, is := range res.Issues {
			fmt.Println("CORRUPT:", is)
		}
		fmt.Printf("scrub: %d files, %d pages checked, %d corrupt\n",
			res.FilesChecked, res.PagesChecked, len(res.Issues))
	case "\\activity":
		fmt.Println("id | client | state | wait_event | statement | elapsed_ms")
		snap := db.Engine().Activity().Snapshot()
		for _, si := range snap {
			fmt.Printf("%d | %s | %s | %s | %s | %.3f\n",
				si.ID, si.Client, si.State, si.WaitEvent, si.Statement,
				si.StmtElapsed.Seconds()*1000)
		}
		fmt.Printf("(%d sessions)\n", len(snap))
	case "\\wal":
		w := db.Engine().WAL()
		if w == nil {
			fmt.Println("write-ahead logging is off (start with -dir DIR)")
			break
		}
		st := w.Stats()
		fmt.Printf("wal: dir=%s segments=%d appended-lsn=%d durable-lsn=%d\n",
			w.Dir(), w.Segments(), w.AppendedLSN(), w.DurableLSN())
		fmt.Printf("     appends=%d bytes=%d syncs=%d rotations=%d checkpoints=%d\n",
			st.Appends, st.AppendedBytes, st.Syncs, st.Rotations, st.Checkpoints)
		if rs := db.Engine().RecoveryStats(); rs.Records > 0 {
			fmt.Printf("     recovered: %d records, %d pages written, %d files, torn-pages=%d repaired=%d torn-tail=%v\n",
				rs.Records, rs.PagesWritten, rs.FilesTouched, rs.TornPages, rs.TornRepaired, rs.TornTail)
		}
	default:
		fmt.Println("unknown meta command; try \\dam \\doc \\do \\dt \\d <table> \\page <rel> <n> \\scrub [table] \\wal \\activity \\timing \\q")
	}
	return false
}

// relPath resolves the \page argument to a page-file path: a table or
// index name is looked up in the system catalog (on-disk databases
// only), anything containing a path separator or an existing file is
// taken literally — which is what lets the inspector read a *closed*
// database directory's files without an engine over them.
func relPath(db *repro.DB, dir, rel string) (string, error) {
	if strings.ContainsRune(rel, os.PathSeparator) {
		return rel, nil
	}
	if _, err := os.Stat(rel); err == nil {
		return rel, nil
	}
	cat := db.Engine().Catalog()
	if te, ok := cat.GetTable(rel); ok {
		if dir == "" {
			return "", fmt.Errorf("\\page needs an on-disk database (start with -dir), or pass a file path")
		}
		return filepath.Join(dir, te.File), nil
	}
	for _, ie := range cat.Indexes() {
		if strings.EqualFold(ie.Name, rel) {
			if dir == "" {
				return "", fmt.Errorf("\\page needs an on-disk database (start with -dir), or pass a file path")
			}
			return filepath.Join(dir, ie.File), nil
		}
	}
	return "", fmt.Errorf("no table, index, or file %q", rel)
}

// describe prints one table's schema and indexes as recorded in the
// persistent system catalog — the psql \d analogue.
func describe(db *repro.DB, name string) {
	cat := db.Engine().Catalog()
	te, ok := cat.GetTable(name)
	if !ok {
		fmt.Printf("no table %q in the system catalog\n", name)
		return
	}
	rows := int64(0)
	t, terr := db.Engine().Table(name)
	if terr == nil {
		rows = t.RowCount()
	}
	fmt.Printf("Table %q  (oid=%d, file=%s, rows=%d)\n", te.Name, te.OID, te.File, rows)
	fmt.Println("  Column | Type")
	for _, c := range te.Cols {
		fmt.Printf("  %-6s | %v\n", c.Name, c.Type)
	}
	indexes := cat.IndexesOf(te.OID)
	if len(indexes) > 0 {
		fmt.Println("Indexes:")
		for _, ix := range indexes {
			col := "?"
			if ix.Column >= 0 && ix.Column < len(te.Cols) {
				col = te.Cols[ix.Column].Name
			}
			fmt.Printf("  %s ON %s USING %s (%s %s)  oid=%d file=%s\n",
				ix.Name, te.Name, ix.Method, col, ix.OpClass, ix.OID, ix.File)
		}
	}
	// What the planner is using right now (an in-memory lazy sample is
	// never persisted), then what ANALYZE left in the catalog.
	if terr == nil {
		if si, err := t.StatsInfo(); err == nil {
			fmt.Printf("Planner statistics: source=%s rows=%d sampled=%d churn=%d stale=%d%%\n",
				si.Source, si.Rows, si.SampleRows, si.Churn, si.StalePct)
		}
	}
	st, ok := cat.GetStats(te.OID)
	if !ok {
		fmt.Println("Statistics: none persisted (run ANALYZE)")
		return
	}
	fmt.Printf("Statistics (persisted): rows=%d sampled=%d\n", st.Rows, st.SampleRows)
	for i, cs := range st.Cols {
		if i >= len(te.Cols) {
			break
		}
		line := fmt.Sprintf("  %-6s ndistinct=%d nullfrac=%.3f mcvs=%d histogram=%d",
			te.Cols[i].Name, cs.NDistinct, cs.NullFrac, len(cs.MCVals), len(cs.Histogram))
		if cs.HasRange {
			line += fmt.Sprintf(" min=%s max=%s", cs.Min, cs.Max)
		}
		fmt.Println(line)
	}
}

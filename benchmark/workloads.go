package main

import (
	"fmt"
	"math/rand"
)

// kind is a statement kind; latencies are kept per kind.
type kind int

const (
	kExact kind = iota
	kPrefix
	kBox
	kKNN
	kInsert
	kUpdate
	kDelete
	kBegin
	kCommit
	kVacuum
	kAnalyze
	kCheckpoint
	numKinds
)

var kindNames = [numKinds]string{
	"exact", "prefix", "box", "knn", "insert", "update", "delete",
	"begin", "commit", "vacuum", "analyze", "checkpoint",
}

// ungated kinds stay out of the gated ops_per_s. COMMIT and CHECKPOINT
// spend their time in the sandbox's disk flush, which drifts 1.5×
// between minutes and which no CPU reference tracks; the maintenance
// statements run once in sixteen slices, where a median over slices
// cannot see them. All are timed and reported per kind, and they count
// in ops_per_s_mean; what they write is gated as bytes, in
// write_bytes_per_user_byte.
func (k kind) ungated() bool { return k == kCommit || k >= kVacuum }

// stmt is one generated statement with what the oracle needs to check
// its response.
type stmt struct {
	kind kind
	sql  string
	key  string // name or prefix
	id   int64
	x, y float64
}

// workload is one traffic mix. Every workload runs over the same
// dataset; they differ in pool size and statement generator.
type workload struct {
	name string
	why  string
	// table the exact-match statements read.
	table string
	// coldPool > 0 closes the database after the build and reopens it
	// with that many buffer-pool pages per file.
	coldPool int
	// rate sizes the window: it issues rate × seconds × 5/6 statements
	// (the remaining sixth of the time goes to reference blocks), a fixed
	// count, so that the count metrics are exact. The rates are set so
	// that a window takes about seconds of wall time on the machine this
	// was written on, averaged over its fast and slow states.
	rate int
	// round is the length of the statement pattern; a slice holds whole
	// rounds.
	round   int
	primary kind
	// ladderN is how many primary-kind statements the layer ladder
	// replays at each rung.
	ladderN int
	// indexScan asserts an Index Scan plan line on every exact match.
	indexScan bool
	// writes marks the workload that changes rows: its window runs the
	// maintenance cycle and ends with the crash-recovery comparison.
	writes bool
	next   func(g *generator, i int) stmt
}

const poolPages = 1024 // the engine's default; every file of the dataset fits

var workloads = []*workload{
	{
		name:  "point_warm",
		why:   "cached exact-match on the trie: server framing and sqlmini parse/plan dominate; storage and wal idle",
		table: "words", rate: 28000, round: 1, primary: kExact, ladderN: 20000, indexScan: true,
		next: func(g *generator, i int) stmt { return g.exact() },
	},
	{
		name:  "point_cold",
		why:   "same statements through a 16-page pool: buffer-pool miss, eviction and read path dominate",
		table: "words", coldPool: 16, rate: 12000, round: 1, primary: kExact, ladderN: 20000, indexScan: true,
		next: func(g *generator, i int) stmt { return g.exact() },
	},
	{
		name:  "scan_warm",
		why:   "prefix, box and kNN in rotation, ten rows each: index descent, heap fetch and result encoding dominate",
		table: "words", rate: 10000, round: 3, primary: kKNN, ladderN: 4000,
		next: func(g *generator, i int) stmt {
			switch i % 3 {
			case 0:
				return g.prefix()
			case 1:
				return g.box()
			default:
				return g.knn()
			}
		},
	},
	{
		name:  "write_mix",
		why:   "reads beside transactional insert/update/delete with VACUUM and CHECKPOINT cycles, then crash recovery",
		table: "words", rate: 12000, round: len(writeRound), primary: kInsert, ladderN: 4000, writes: true,
		next: func(g *generator, i int) stmt { return g.write(writeRound[i%len(writeRound)]) },
	},
	{
		name:  "point_fresh",
		why:   "exact-match on a never-ANALYZEd table: the planner-statistics cliff (a Seq Scan today)",
		table: "fresh", rate: 950, round: 1, primary: kExact, ladderN: 1000,
		next: func(g *generator, i int) stmt { return g.exact() },
	},
}

// writeRound is write_mix's fixed pattern: twelve reads, then one
// transaction of four inserts, two updates and two deletes. The writes
// share one commit so that the device flush is paid once a round and by
// a statement of its own.
var writeRound = [...]kind{
	kExact, kExact, kExact, kExact, kExact, kExact,
	kExact, kExact, kExact, kExact, kExact, kExact,
	kBegin, kInsert, kInsert, kInsert, kInsert, kUpdate, kUpdate, kDelete, kDelete, kCommit,
}

// maintainEvery is how many slices pass between write_mix's
// maintenance cycles (VACUUM words, ANALYZE words, CHECKPOINT): six in a
// hundred slices. ANALYZE is part of the cycle because a window churns
// more rows than the table holds, and the planner answers fully stale
// statistics with a Seq Scan.
const maintainEvery = 16

var maintenance = []stmt{
	{kind: kVacuum, sql: "VACUUM words"},
	{kind: kAnalyze, sql: "ANALYZE words"},
	{kind: kCheckpoint, sql: "CHECKPOINT"},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// generator draws the statement stream from the seed and the model. The
// server only ever sees the SQL it produces.
type generator struct {
	rng   *rand.Rand
	m     *model
	table string
}

func newGenerator(seed int64, m *model, table string) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), m: m, table: table}
}

func (g *generator) liveKey() string {
	if g.table == "fresh" {
		return g.m.ds.fresh[g.rng.Intn(len(g.m.ds.fresh))]
	}
	return g.m.keys[g.rng.Intn(len(g.m.keys))]
}

func (g *generator) exact() stmt {
	key := g.liveKey()
	return stmt{kind: kExact, key: key, sql: "SELECT * FROM " + g.table + " WHERE name = '" + key + "'"}
}

func (g *generator) prefix() stmt {
	p := g.liveKey()[:prefixLen]
	return stmt{kind: kPrefix, key: p, sql: "SELECT * FROM words WHERE name #= '" + p + "'"}
}

func (g *generator) coord(span float64) float64 {
	return float64(g.rng.Intn(int(span*1000))) / 1000
}

func (g *generator) box() stmt {
	side := g.m.ds.boxSide
	x, y := g.coord(world-side), g.coord(world-side)
	return stmt{kind: kBox, x: x, y: y,
		sql: fmt.Sprintf("SELECT * FROM pts WHERE p ^ '(%g,%g,%g,%g)'", x, y, x+side, y+side)}
}

func (g *generator) knn() stmt {
	x, y := g.coord(world), g.coord(world)
	return stmt{kind: kKNN, x: x, y: y,
		sql: fmt.Sprintf("SELECT * FROM pts ORDER BY p <-> '(%g,%g)' LIMIT %d", x, y, knnK)}
}

func (g *generator) write(k kind) stmt {
	switch k {
	case kBegin:
		return stmt{kind: kBegin, sql: "BEGIN"}
	case kCommit:
		return stmt{kind: kCommit, sql: "COMMIT"}
	case kInsert:
		name := fmt.Sprintf("%08d", g.rng.Intn(100000000))
		for _, live := g.m.ids[name]; live; _, live = g.m.ids[name] {
			name = fmt.Sprintf("%08d", g.rng.Intn(100000000))
		}
		id := g.m.nextID
		g.m.nextID++
		return stmt{kind: kInsert, key: name, id: id,
			sql: fmt.Sprintf("INSERT INTO words VALUES ('%s', %d)", name, id)}
	case kUpdate:
		key := g.liveKey()
		id := g.m.nextID
		g.m.nextID++
		return stmt{kind: kUpdate, key: key, id: id,
			sql: fmt.Sprintf("UPDATE words SET id = %d WHERE name = '%s'", id, key)}
	case kDelete:
		key := g.liveKey()
		return stmt{kind: kDelete, key: key, sql: "DELETE FROM words WHERE name = '" + key + "'"}
	default:
		return g.exact()
	}
}

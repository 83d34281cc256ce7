package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Dataset sizes at -scale 1. Chosen so that one build over TCP takes
// about two seconds here: the benchmark builds the dataset several
// times in a run to report a median set-up time.
const (
	wordsRows = 40000
	ptsRows   = 15000
	freshRows = 5000
	loadBatch = 500 // rows per INSERT … VALUES statement of the load

	world     = 1000.0 // points are uniform in [0, world)²
	prefixLen = 4      // of 8 decimal digits: rows/10⁴ matches per prefix
	knnK      = 10
)

type point struct{ x, y float64 }

// dataset is everything the run inserts at load time, derived from the
// seed alone.
type dataset struct {
	words []string // unique 8-digit names; a row's id is its index
	pts   []point  // a row's id is its index
	fresh []string
	// boxSide makes a box query return about ten points.
	boxSide float64
}

func scaled(n int, scale float64) int {
	return max(int(float64(n)*scale), 2*loadBatch)
}

func newDataset(seed int64, scale float64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{}
	names := uniqueNames(rng, scaled(wordsRows, scale)+scaled(freshRows, scale))
	d.words = names[:scaled(wordsRows, scale)]
	d.fresh = names[len(d.words):]
	d.pts = make([]point, scaled(ptsRows, scale))
	for i := range d.pts {
		// Three decimals, so the text form round-trips exactly.
		d.pts[i] = point{float64(rng.Intn(int(world*1000))) / 1000, float64(rng.Intn(int(world*1000))) / 1000}
	}
	d.boxSide = math.Sqrt(10 * world * world / float64(len(d.pts)))
	return d
}

func uniqueNames(rng *rand.Rand, n int) []string {
	seen := make(map[string]struct{}, n)
	out := make([]string, 0, n)
	for len(out) < n {
		s := fmt.Sprintf("%08d", rng.Intn(100000000))
		if _, dup := seen[s]; dup {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	return out
}

// User bytes of one row: the bytes of its values, VARCHAR as its
// length, INT as 8, POINT as 16.
func wordBytes(name string) int64 { return int64(len(name)) + 8 }

const pointRowBytes = 16 + 8

// model is the oracle: the rows that must be live in the database, kept
// in Go beside it. Every response is checked against it.
type model struct {
	ds *dataset

	ids  map[string]int64 // words: live name → id
	keys []string         // live names in a deterministic order, for uniform picks
	pos  map[string]int   // name → index in keys
	// sorted is the load-time names in order, for prefix ranges. Prefix
	// statements run only on workloads that never write.
	sorted []string
	fresh  map[string]int64

	nextID    int64
	userBytes int64 // bytes of values ever inserted or updated
	liveBytes int64 // bytes of values in live rows
}

func newModel(ds *dataset) *model {
	m := &model{
		ds:     ds,
		ids:    make(map[string]int64, len(ds.words)),
		keys:   make([]string, 0, len(ds.words)),
		pos:    make(map[string]int, len(ds.words)),
		sorted: slices.Clone(ds.words),
		fresh:  make(map[string]int64, len(ds.fresh)),
	}
	slices.Sort(m.sorted)
	return m
}

func (m *model) insertWord(name string, id int64) {
	m.ids[name] = id
	m.pos[name] = len(m.keys)
	m.keys = append(m.keys, name)
	m.userBytes += wordBytes(name)
	m.liveBytes += wordBytes(name)
}

func (m *model) updateWord(name string, id int64) {
	m.ids[name] = id
	m.userBytes += wordBytes(name)
}

func (m *model) deleteWord(name string) {
	i := m.pos[name]
	last := m.keys[len(m.keys)-1]
	m.keys[i] = last
	m.pos[last] = i
	m.keys = m.keys[:len(m.keys)-1]
	delete(m.pos, name)
	delete(m.ids, name)
	m.liveBytes -= wordBytes(name)
}

// live returns the name → id rows of words or fresh.
func (m *model) live(table string) map[string]int64 {
	if table == "fresh" {
		return m.fresh
	}
	return m.ids
}

// addLoaded accounts for rows of pts or fresh, which are never changed
// after the load.
func (m *model) addLoaded(bytes int64) {
	m.userBytes += bytes
	m.liveBytes += bytes
}

// checkExact verifies the rows of `name = key` on words or fresh.
func checkExact(live map[string]int64, key string, rows [][]string) error {
	id, ok := live[key]
	if !ok {
		if len(rows) != 0 {
			return fmt.Errorf("exact %q: want no row, got %d", key, len(rows))
		}
		return nil
	}
	if len(rows) != 1 {
		return fmt.Errorf("exact %q: want 1 row, got %d", key, len(rows))
	}
	return checkWordRow(rows[0], key, id)
}

func checkWordRow(row []string, name string, id int64) error {
	if len(row) != 2 || row[0] != name || row[1] != strconv.FormatInt(id, 10) {
		return fmt.Errorf("row %q: want (%s, %d)", row, name, id)
	}
	return nil
}

// checkPrefix verifies the rows of `name #= prefix` for set equality.
func (m *model) checkPrefix(prefix string, rows [][]string) error {
	lo := sort.SearchStrings(m.sorted, prefix)
	hi := lo
	for hi < len(m.sorted) && strings.HasPrefix(m.sorted[hi], prefix) {
		hi++
	}
	if len(rows) != hi-lo {
		return fmt.Errorf("prefix %q: want %d rows, got %d", prefix, hi-lo, len(rows))
	}
	slices.SortFunc(rows, func(a, b []string) int { return strings.Compare(a[0], b[0]) })
	for i, row := range rows {
		name := m.sorted[lo+i]
		if err := checkWordRow(row, name, m.ids[name]); err != nil {
			return fmt.Errorf("prefix %q: %w", prefix, err)
		}
	}
	return nil
}

// rowPoint decodes a pts row (p, id[, distance]) and checks p against
// the dataset's point with that id.
func (m *model) rowPoint(row []string, cols int) (int, error) {
	if len(row) != cols {
		return 0, fmt.Errorf("row %q: want %d columns", row, cols)
	}
	id, err := strconv.Atoi(row[1])
	if err != nil || id < 0 || id >= len(m.ds.pts) {
		return 0, fmt.Errorf("row %q: bad id", row)
	}
	p := m.ds.pts[id]
	if want := fmt.Sprintf("(%g,%g)", p.x, p.y); row[0] != want {
		return 0, fmt.Errorf("row %q: point of id %d is %s", row, id, want)
	}
	return id, nil
}

// checkBox verifies `p ^ box` against a brute-force pass over the points.
func (m *model) checkBox(x, y, side float64, rows [][]string) error {
	want := 0
	for _, p := range m.ds.pts {
		if p.x >= x && p.x <= x+side && p.y >= y && p.y <= y+side {
			want++
		}
	}
	if len(rows) != want {
		return fmt.Errorf("box (%g,%g): want %d rows, got %d", x, y, want, len(rows))
	}
	seen := make(map[int]struct{}, len(rows))
	for _, row := range rows {
		id, err := m.rowPoint(row, 2)
		if err != nil {
			return fmt.Errorf("box (%g,%g): %w", x, y, err)
		}
		p := m.ds.pts[id]
		if p.x < x || p.x > x+side || p.y < y || p.y > y+side {
			return fmt.Errorf("box (%g,%g): id %d lies outside", x, y, id)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("box (%g,%g): id %d returned twice", x, y, id)
		}
		seen[id] = struct{}{}
	}
	return nil
}

// checkKNN verifies `ORDER BY p <-> (x,y) LIMIT k`: k distinct rows,
// each at the distance it claims, in non-decreasing order, the last at
// the brute-force k-th smallest distance.
func (m *model) checkKNN(x, y float64, k int, rows [][]string) error {
	if len(rows) != min(k, len(m.ds.pts)) {
		return fmt.Errorf("knn (%g,%g): want %d rows, got %d", x, y, k, len(rows))
	}
	best := make([]float64, 0, k+1) // the k smallest squared distances, ascending
	for _, p := range m.ds.pts {
		d := (p.x-x)*(p.x-x) + (p.y-y)*(p.y-y)
		if len(best) == k && d >= best[k-1] {
			continue
		}
		i := sort.SearchFloat64s(best, d)
		best = slices.Insert(best, i, d)
		if len(best) > k {
			best = best[:k]
		}
	}
	seen := make(map[int]struct{}, len(rows))
	prev := 0.0
	for _, row := range rows {
		id, err := m.rowPoint(row, 3)
		if err != nil {
			return fmt.Errorf("knn (%g,%g): %w", x, y, err)
		}
		dist, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return fmt.Errorf("knn (%g,%g): bad distance %q", x, y, row[2])
		}
		p := m.ds.pts[id]
		if !near(dist, math.Hypot(p.x-x, p.y-y)) {
			return fmt.Errorf("knn (%g,%g): id %d claims distance %g", x, y, id, dist)
		}
		if dist < prev {
			return fmt.Errorf("knn (%g,%g): distances decrease at id %d", x, y, id)
		}
		prev = dist
		if _, dup := seen[id]; dup {
			return fmt.Errorf("knn (%g,%g): id %d returned twice", x, y, id)
		}
		seen[id] = struct{}{}
	}
	if len(rows) > 0 && !near(prev*prev, best[len(rows)-1]) {
		return fmt.Errorf("knn (%g,%g): k-th distance %g, brute force %g", x, y, prev, math.Sqrt(best[len(rows)-1]))
	}
	return nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(a, b)) }

package server_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/executor"
	"repro/internal/server"
	"repro/internal/sqlmini"
)

// promMetric is one parsed metric family from the text exposition.
type promMetric struct {
	typ     string
	samples map[string]float64 // full sample line key (name + labels) → value
}

// parsePrometheus is a strict hand-written parser for the Prometheus
// text exposition format (version 0.0.4) — the round-trip check the
// acceptance criteria ask for. It enforces the format rules a real
// scraper relies on: TYPE before samples, known types, float-parseable
// values, histogram buckets cumulative and capped by +Inf == _count.
func parsePrometheus(t *testing.T, body string) map[string]*promMetric {
	t.Helper()
	fams := make(map[string]*promMetric)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			name, typ := f[2], f[3]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("unknown metric type %q in %q", typ, line)
			}
			if _, dup := fams[name]; dup {
				t.Fatalf("duplicate TYPE declaration for %s", name)
			}
			fams[name] = &promMetric{typ: typ, samples: make(map[string]float64)}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("non-float value %q in %q: %v", valStr, line, err)
		}
		// Strip labels and histogram-series suffixes to find the family.
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		fam, ok := fams[name]
		if !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, found := strings.CutSuffix(name, suffix); found {
					if f, ok2 := fams[base]; ok2 && f.typ == "histogram" {
						fam, ok = f, true
						break
					}
				}
			}
		}
		if !ok {
			t.Fatalf("sample %q has no preceding TYPE declaration", line)
		}
		if fam.typ == "counter" && val < 0 {
			t.Fatalf("counter sample %q is negative", line)
		}
		fam.samples[key] = val
	}
	// Histogram invariants: buckets cumulative, +Inf present and equal
	// to _count.
	for name, fam := range fams {
		if fam.typ != "histogram" {
			continue
		}
		inf, ok := fam.samples[name+`_bucket{le="+Inf"}`]
		if !ok {
			t.Fatalf("histogram %s has no +Inf bucket", name)
		}
		count, ok := fam.samples[name+"_count"]
		if !ok {
			t.Fatalf("histogram %s has no _count", name)
		}
		if inf != count {
			t.Fatalf("histogram %s: +Inf bucket %g != _count %g", name, inf, count)
		}
		for key, v := range fam.samples {
			if strings.Contains(key, "_bucket{") && v > inf {
				t.Fatalf("histogram %s: bucket %q = %g exceeds +Inf %g", name, key, v, inf)
			}
		}
	}
	return fams
}

// TestHTTPMetrics round-trips /metrics through the parser above and
// checks engine and server families are present with sane values.
func TestHTTPMetrics(t *testing.T) {
	db := executor.OpenMemory()
	defer db.Close()
	srv := server.New(db)
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	sess := sqlmini.NewSession(db)
	defer sess.Close()
	for _, stmt := range []string{
		`CREATE TABLE w (id INT)`,
		`INSERT INTO w VALUES (1), (2), (3)`,
		`SELECT * FROM w`,
		`SELECT * FROM w WHERE id = 2`,
	} {
		if _, err := sess.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}

	fams := parsePrometheus(t, string(body))
	if fam := fams["exec_select_total"]; fam == nil || fam.typ != "counter" || fam.samples["exec_select_total"] < 1 {
		t.Errorf("exec_select_total missing or wrong: %+v", fam)
	}
	if fam := fams["server_sessions_active"]; fam == nil || fam.typ != "gauge" {
		t.Errorf("server_sessions_active missing or wrong: %+v", fam)
	}
	if fam := fams["wait_lock_table_total"]; fam == nil || fam.typ != "counter" {
		t.Errorf("wait_lock_table_total missing or wrong: %+v", fam)
	}
	if fam := fams["server_query_latency_seconds"]; fam == nil || fam.typ != "histogram" {
		t.Errorf("server_query_latency_seconds histogram missing: %+v", fam)
	}
	// Plan quality: the q-error histogram is dimensionless (no _seconds,
	// le bounds in plain ratio units) and the lazy-sample counter counts
	// the one sample the predicate plan above took.
	if fam := fams["exec_plan_qerror"]; fam == nil || fam.typ != "histogram" ||
		fam.samples["exec_plan_qerror_count"] != 1 || fam.samples[`exec_plan_qerror_bucket{le="2"}`] != 1 {
		t.Errorf("exec_plan_qerror histogram missing or wrong: %+v", fam)
	}
	if fam := fams["exec_stats_refresh_total"]; fam == nil || fam.typ != "counter" || fam.samples["exec_stats_refresh_total"] != 1 {
		t.Errorf("exec_stats_refresh_total missing or wrong: %+v", fam)
	}
}

// TestHTTPMetricsWALByType: with a log attached, /metrics and SHOW STATS
// say what the log is made of — records and bytes per record type, as
// labelled series of one family each — and what deflating saves. The
// records sum to wal_appends_total; the bytes to the appended bytes plus
// what deflated frames saved, wal_frame_raw_bytes_total, which exceeds
// wal_appended_bytes_total once a statement's frame reaches 1 KB (the
// 300-row INSERT). wal_page_image_raw_bytes_total, the page-image bytes
// had they been stored raw, exceeds the page-image series once a full
// page is imaged (its first touch after a CHECKPOINT).
func TestHTTPMetricsWALByType(t *testing.T) {
	db, err := executor.Open(executor.Options{Dir: t.TempDir(), WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ts := httptest.NewServer(server.New(db).HTTPHandler())
	defer ts.Close()
	sess := sqlmini.NewSession(db)
	defer sess.Close()
	var rows []string
	for i := 0; i < 300; i++ {
		rows = append(rows, fmt.Sprintf("('w%08d', %d)", i*7919%100000, i))
	}
	for _, stmt := range []string{
		`CREATE TABLE w (name VARCHAR, id INT)`,
		`CREATE INDEX wt ON w USING spgist (name spgist_trie)`,
		`INSERT INTO w VALUES ('alpha', 1), ('beta', 2), ('gamma', 3)`,
		`INSERT INTO w VALUES ` + strings.Join(rows, ", "),
		`CHECKPOINT`,
		`INSERT INTO w VALUES ('delta', 4)`,
	} {
		if _, err := sess.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	fams := parsePrometheus(t, string(body))
	for family, total := range map[string]string{
		"wal_appended_bytes_by_type":   "wal_frame_raw_bytes_total",
		"wal_appended_records_by_type": "wal_appends_total",
	} {
		fam := fams[family]
		if fam == nil || fam.typ != "gauge" || fam.samples[family+`{type="slot-put"}`] == 0 {
			t.Fatalf("%s missing, mistyped or without slot-put records: %+v", family, fam)
		}
		sum := 0.0
		for _, v := range fam.samples {
			sum += v
		}
		if want := fams[total].samples[total]; sum != want {
			t.Errorf("%s sums to %g, %s is %g", family, sum, total, want)
		}
	}
	if fam := fams["wal_frame_raw_bytes_total"]; fam == nil || fam.typ != "counter" ||
		!(fam.samples["wal_frame_raw_bytes_total"] > fams["wal_appended_bytes_total"].samples["wal_appended_bytes_total"]) {
		t.Errorf("wal_frame_raw_bytes_total missing, mistyped or not above wal_appended_bytes_total: %+v", fam)
	}
	stored := fams["wal_appended_bytes_by_type"].samples[`wal_appended_bytes_by_type{type="page-image"}`]
	if fam := fams["wal_page_image_raw_bytes_total"]; fam == nil || fam.typ != "counter" ||
		!(fam.samples["wal_page_image_raw_bytes_total"] > stored && stored > 0) {
		t.Errorf("wal_page_image_raw_bytes_total missing, mistyped or not above the %g bytes of page images stored: %+v", stored, fam)
	}
	res, err := sess.Exec(`SHOW STATS`)
	if err != nil {
		t.Fatal(err)
	}
	// The first key's leaf is a new record, a put; the two keys after it
	// extend it where it lies, a patch each.
	for _, name := range []string{`wal_appended_bytes_by_type{type="slot-put"}`, `wal_appended_bytes_by_type{type="slot-patch"}`, "wal_frame_raw_bytes_total"} {
		found := false
		for _, row := range res.Rows {
			found = found || (row[0].S == name && row[1].I > 0)
		}
		if !found {
			t.Errorf(`SHOW STATS has no %s row`, name)
		}
	}
}

func TestHTTPActivityAndHealthz(t *testing.T) {
	// One server, two front doors: the SQL listener and the HTTP sidecar,
	// exactly the spgist-server -http topology.
	db := executor.OpenMemory()
	defer db.Close()
	srv := server.New(db)
	l, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(l) }()
	defer func() { srv.Shutdown(); l.Close(); <-done }()
	addr := l.Addr().String()
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE w (id INT)"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/activity")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []struct {
		ID        int64  `json:"id"`
		Client    string `json:"client"`
		State     string `json:"state"`
		WaitEvent string `json:"wait_event"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatalf("/activity JSON: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("/activity has %d sessions, want 1", len(rows))
	}
	if rows[0].State != "idle" || rows[0].Client == "" {
		t.Fatalf("/activity row = %+v", rows[0])
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || strings.TrimSpace(string(hbody)) != "ok" {
		t.Fatalf("/healthz = %d %q", hresp.StatusCode, hbody)
	}

	presp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status = %d", presp.StatusCode)
	}
}

func TestStatsResetVerb(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec("CREATE TABLE w (id INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO w VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if before["exec_insert_total"] != 5 {
		t.Fatalf("exec_insert_total = %d, want 5", before["exec_insert_total"])
	}
	if err := c.StatsReset(); err != nil {
		t.Fatal(err)
	}
	after, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after["exec_insert_total"] != 0 {
		t.Errorf("exec_insert_total = %d after STATS RESET, want 0", after["exec_insert_total"])
	}
	// The active-session gauge survives: it is instantaneous, not
	// cumulative.
	if after["server_sessions_active"] != 1 {
		t.Errorf("server_sessions_active = %d after STATS RESET, want 1", after["server_sessions_active"])
	}
}

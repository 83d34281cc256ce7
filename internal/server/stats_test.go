package server_test

import (
	"sync"
	"testing"

	"repro/internal/server"
)

// TestServerStatsVerb scrapes the STATS protocol verb while concurrent
// sessions are querying, then checks the counters reflect the traffic.
func TestServerStatsVerb(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()

	setup, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec("CREATE TABLE w (id INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec("INSERT INTO w VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	// Concurrent readers, with a scraper hitting STATS mid-flight: the
	// scrape must parse cleanly while queries are running.
	const clients, queries = 4, 25
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for q := 0; q < queries; q++ {
				if _, err := c.Exec("SELECT * FROM w WHERE id = 2"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	scraper, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := scraper.Stats(); err != nil {
			t.Fatalf("mid-flight STATS scrape: %v", err)
		}
	}
	wg.Wait()

	m, err := scraper.Stats()
	if err != nil {
		t.Fatal(err)
	}
	scraper.Close()
	if min := int64(clients*queries + 2); m["server_queries_total"] < min {
		t.Errorf("server_queries_total = %d, want >= %d", m["server_queries_total"], min)
	}
	if m["server_sessions_total"] < clients+2 {
		t.Errorf("server_sessions_total = %d, want >= %d", m["server_sessions_total"], clients+2)
	}
	if m["server_sessions_active"] < 1 { // the scraper itself
		t.Errorf("server_sessions_active = %d, want >= 1", m["server_sessions_active"])
	}
	if m["server_query_latency_count"] < int64(clients*queries) {
		t.Errorf("server_query_latency_count = %d, want >= %d", m["server_query_latency_count"], clients*queries)
	}
	if m["exec_select_total"] < int64(clients*queries) {
		t.Errorf("exec_select_total = %d, want >= %d", m["exec_select_total"], clients*queries)
	}
	if _, ok := m["pool_hits_total"]; !ok {
		t.Error("STATS output missing storage sampler counters")
	}
	if m["exec_plan_qerror_count"] < int64(clients*queries) || m["exec_stats_refresh_total"] < 1 {
		t.Errorf("plan-quality metrics: exec_plan_qerror_count = %d, exec_stats_refresh_total = %d",
			m["exec_plan_qerror_count"], m["exec_stats_refresh_total"])
	}
	// STATS is a protocol verb, not SQL: the same spelling through SQL
	// parsing (with a semicolon) must still fail as unsupported SQL.
	if _, err := setupErrProbe(addr, "STATS;"); err == nil {
		t.Error("SQL-parsed STATS; should be rejected")
	}
}

// setupErrProbe runs one statement on a throwaway connection.
func setupErrProbe(addr, stmt string) (*server.Response, error) {
	c, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Exec(stmt)
}

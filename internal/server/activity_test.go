package server_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// TestServerActivityVerb checks the live session table over the wire:
// sessions appear on connect, show their client address, and disappear
// on close.
func TestServerActivityVerb(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()

	a, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Dial returns once the kernel has accepted the connection; the
	// server registers the session only when its accept loop has run,
	// and the protocol has no greeting to wait for. One round trip on b
	// proves its session exists before a counts.
	if _, err := b.Activity(); err != nil {
		t.Fatal(err)
	}

	snap, err := a.Activity()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 2 {
		t.Fatalf("ACTIVITY has %d sessions, want 2", len(snap))
	}
	for _, si := range snap {
		if si.Client == "" || !strings.Contains(si.Client, ":") {
			t.Errorf("session %d client = %q, want a remote address", si.ID, si.Client)
		}
		if si.State != "idle" {
			t.Errorf("session %d state = %q, want idle (ACTIVITY is a verb, not a statement)", si.ID, si.State)
		}
	}

	b.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap, err = a.Activity()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("closed session still in ACTIVITY after 2s: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerActivityUnderLoad is the -race pin for the activity path: N
// concurrent sessions run mixed DML and SELECTs while a scraper loops
// ACTIVITY and STATS. Sessions must appear with untorn statement
// strings (every observed statement is exactly one of the statements a
// worker issues) and disappear once closed.
func TestServerActivityUnderLoad(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()

	setup, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec("CREATE TABLE w (name VARCHAR, id INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec("INSERT INTO w VALUES ('seed', 0)"); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	const workers = 6
	const opsPerWorker = 60
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < opsPerWorker; i++ {
				var stmt string
				if i%10 == 9 {
					stmt = fmt.Sprintf("INSERT INTO w VALUES ('w%d-%d', %d)", w, i, i)
				} else {
					stmt = "SELECT * FROM w WHERE name = 'seed'"
				}
				if _, err := c.Exec(stmt); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	// The scraper: loops ACTIVITY + STATS until the workers finish,
	// checking every observed statement string is whole.
	scraper, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer scraper.Close()
	sawPeer := false
	go func() { wg.Wait(); close(stop) }()
	for done := false; !done; {
		select {
		case <-stop:
			done = true // one final scrape after the workers exit
		default:
		}
		snap, err := scraper.Activity()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap) >= 2 {
			sawPeer = true
		}
		for _, si := range snap {
			if si.Statement == "" {
				continue
			}
			// Every observed statement must be, whole, one the workers
			// (or this test's setup) actually issued — a torn string
			// from a racy read would match none of these.
			valid := si.Statement == "SELECT * FROM w WHERE name = 'seed'" ||
				(strings.HasPrefix(si.Statement, "INSERT INTO w VALUES ('w") && strings.HasSuffix(si.Statement, ")")) ||
				si.Statement == "CREATE TABLE w (name VARCHAR, id INT)" ||
				si.Statement == "INSERT INTO w VALUES ('seed', 0)"
			if !valid {
				t.Fatalf("torn or foreign statement in ACTIVITY: %q", si.Statement)
			}
		}
		if _, err := scraper.Stats(); err != nil {
			t.Fatalf("mid-flight STATS: %v", err)
		}
	}
	if !sawPeer {
		t.Error("scraper never observed a worker session in ACTIVITY")
	}

	// After the workers close, only the scraper remains.
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap, err := scraper.Activity()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker sessions lingering in ACTIVITY: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientTimeout points a client at a listener that accepts and then
// never responds: Exec must fail with a timeout instead of hanging.
func TestClientTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, answer nothing
		}
	}()

	c, err := server.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(100 * time.Millisecond)

	start := time.Now()
	_, err = c.Exec("SELECT 1")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Exec against a stalled server returned no error")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("Exec error = %v, want a net timeout", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("Exec took %v to time out with a 100ms deadline", elapsed)
	}
}

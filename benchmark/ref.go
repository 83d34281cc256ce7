package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// refUS is the nominal cost of one reference op, in µs: the median
// ref.us of the committed A/A study (AA.md), rounded. Every calibrated
// time is the measured time × refUS / (reference-op time measured next
// to it), so calibrated values read as µs on a machine on which the
// reference op takes exactly this long.
const refUS = 16.0

const (
	refFormats   = 4     // row lines formatted and parsed back
	refLookups   = 16    // lookups in the key map
	refKeys      = 50000 // keys in the map: a few MiB, an L2-sized working set
	refAllocs    = 24    // small objects allocated and dropped
	refFileBytes = 16 << 20
	refPageBytes = 8192
)

// refLine is the statement-sized line the echo round trip carries.
const refLine = "SELECT * FROM words WHERE name = '01234567' LIMIT 10\n"

// refOp is the harness-owned reference operation. It touches no
// repository code. One op is: one line round trip to an echo goroutine
// over its own loopback TCP connection (what a statement pays for
// framing and two goroutine wake-ups); four row lines formatted with
// fmt and parsed back with strconv (what server and client do to every
// row); sixteen lookups in a 50 000-key map (an index descent's cache
// misses); twenty-four small allocations, linked and dropped (the
// engine allocates 80 objects for a point lookup); and one 8 KiB ReadAt
// at a random page of a 16 MiB file beside the database (the buffer
// pool's miss path). README.md has the measurements behind the mix. It
// slows down and speeds up with the machine, which is the point.
type refOp struct {
	ln     net.Listener
	conn   net.Conn
	in     *bufio.Reader
	out    *bufio.Writer
	echoed chan error

	lcg   uint64
	keys  []string
	byKey map[string]int64
	buf   []byte
	nodes *refNode
	file  *os.File
	page  []byte
	sink  int

	times []float64 // per-op µs of the current block
}

type refNode struct {
	next *refNode
	key  string
	val  [6]int64
}

func newRefOp(dir string) (*refOp, error) {
	r := &refOp{
		lcg:    0x9E3779B97F4A7C15,
		keys:   make([]string, refKeys),
		byKey:  make(map[string]int64, refKeys),
		page:   make([]byte, refPageBytes),
		echoed: make(chan error, 1),
	}
	for i := range r.keys {
		r.keys[i] = fmt.Sprintf("%08d", i*7919)
		r.byKey[r.keys[i]] = int64(i)
	}

	path := filepath.Join(dir, "ref.dat")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	r.file = f
	chunk := make([]byte, 1<<20)
	for i := range chunk {
		chunk[i] = byte(i * 31)
	}
	for off := 0; off < refFileBytes; off += len(chunk) {
		if _, err := f.WriteAt(chunk, int64(off)); err != nil {
			r.close()
			return nil, err
		}
	}

	r.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	go r.echo()
	r.conn, err = net.Dial("tcp", r.ln.Addr().String())
	if err != nil {
		r.close()
		return nil, err
	}
	r.in = bufio.NewReader(r.conn)
	r.out = bufio.NewWriter(r.conn)
	return r, nil
}

// echo serves the one reference connection until it closes.
func (r *refOp) echo() {
	conn, err := r.ln.Accept()
	if err != nil {
		r.echoed <- nil // listener closed before the dial: close() is cleaning up
		return
	}
	defer conn.Close()
	in := bufio.NewReader(conn)
	out := bufio.NewWriter(conn)
	for {
		line, err := in.ReadSlice('\n')
		if err != nil {
			r.echoed <- nil
			return
		}
		if _, err := out.Write(line); err != nil {
			r.echoed <- err
			return
		}
		if err := out.Flush(); err != nil {
			r.echoed <- err
			return
		}
	}
}

// close stops the echo goroutine and waits for it.
func (r *refOp) close() {
	if r.conn != nil {
		r.conn.Close()
	}
	if r.ln != nil {
		r.ln.Close()
		<-r.echoed
	}
	if r.file != nil {
		r.file.Close()
	}
}

func (r *refOp) rand() uint64 {
	r.lcg = r.lcg*6364136223846793005 + 1442695040888963407
	return r.lcg >> 33
}

func (r *refOp) key() string { return r.keys[r.rand()%refKeys] }

// op runs one reference operation.
func (r *refOp) op() error {
	if _, err := r.out.WriteString(refLine); err != nil {
		return err
	}
	if err := r.out.Flush(); err != nil {
		return err
	}
	if _, err := r.in.ReadSlice('\n'); err != nil {
		return err
	}

	for i := 0; i < refFormats; i++ {
		n := int64(r.rand())
		x := float64(r.rand()%1000000) / 1000
		r.buf = fmt.Appendf(r.buf[:0], "row %s\t%d\t(%g,%g)\n", r.key(), n, x, x+1)
		cols := bytes.Split(r.buf[len("row "):len(r.buf)-1], []byte{'\t'})
		id, _ := strconv.ParseInt(string(cols[1]), 10, 64)
		px, _ := strconv.ParseFloat(string(cols[2][1:bytes.IndexByte(cols[2], ',')]), 64)
		r.sink += int(id) + int(px)
	}

	for i := 0; i < refLookups; i++ {
		r.sink += int(r.byKey[r.key()])
	}

	var head *refNode
	for i := 0; i < refAllocs; i++ {
		head = &refNode{next: head, key: r.keys[i]}
	}
	r.nodes = head

	off := int64(r.rand()%(refFileBytes/refPageBytes)) * refPageBytes
	if _, err := r.file.ReadAt(r.page, off); err != nil {
		return err
	}
	r.sink += int(r.page[0])
	return nil
}

// block runs n reference ops, timing each, and returns their median
// time in µs: the median, because a block that a stall of the machine
// falls into must not move the scale of the slice next to it.
func (r *refOp) block(n int) (float64, error) {
	r.times = r.times[:0]
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := r.op(); err != nil {
			return 0, fmt.Errorf("reference op: %w", err)
		}
		r.times = append(r.times, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(r.times), nil
}

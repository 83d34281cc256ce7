package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// Client is a minimal client for the line protocol, used by the demo,
// the tests, and anyone scripting against spgist-server from Go.
type Client struct {
	conn    net.Conn
	in      *bufio.Scanner
	out     *bufio.Writer
	timeout time.Duration
	// resp gathers the payloads of a response's lines until its OK line,
	// each behind a kind byte and ended by '\n' (see read); it is reused
	// from statement to statement.
	resp []byte
}

// Response is one statement's parsed reply. Its strings share one
// backing string per response, and its rows one value slice, each row
// capacity-limited so that appending to one never overwrites the next.
type Response struct {
	Columns []string
	Rows    [][]string
	Plan    string
	OK      string // the OK terminator's payload ("3", "INSERT 2", ...)
}

// Dial connects to a running spgist-server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, in: bufio.NewScanner(conn), out: bufio.NewWriter(conn)}
	c.in.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return c, nil
}

// SetTimeout bounds every subsequent Exec (and the verbs built on it)
// to d of wall-clock time for the complete round trip: if the server
// stalls — accepts the connection but never answers, or trickles a
// response — the in-flight read or write fails with a net timeout error
// instead of hanging the caller forever. d <= 0 restores the default of
// no deadline.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// Exec sends one statement and reads its full response. A server-side
// statement failure comes back as an error (the ERR line's message).
func (c *Client) Exec(stmt string) (*Response, error) {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	// One statement is one line. The writes land in the buffer; Flush
	// reports any error they met.
	if strings.Contains(stmt, "\n") {
		stmt = strings.ReplaceAll(stmt, "\n", " ")
	}
	c.out.WriteString(stmt)
	c.out.WriteByte('\n')
	if err := c.out.Flush(); err != nil {
		return nil, err
	}
	return c.read()
}

// read reads one response. The lines' payloads are gathered, behind a
// kind byte, into c.resp, whose one string at the OK line holds every
// string of the response: the values of the #cols and row lines split
// into one slice, the plan and the OK payload. Only a value with an
// escape gets a string of its own.
func (c *Client) read() (*Response, error) {
	buf := c.resp[:0]
	if cap(buf) > 1<<20 {
		buf = nil // one huge response must not stay pinned for every later one
	}
	nvals, nrows := 0, 0
	for c.in.Scan() {
		// The scanner's buffer is reused: what the response keeps is
		// copied out of it into buf.
		line := c.in.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("#cols ")):
			line = line[len("#cols "):]
			nvals += 1 + bytes.Count(line, []byte{'\t'})
			buf = append(append(append(buf, 'c'), line...), '\n')
		case bytes.HasPrefix(line, []byte("row ")):
			line = line[len("row "):]
			nvals += 1 + bytes.Count(line, []byte{'\t'})
			nrows++
			buf = append(append(append(buf, 'r'), line...), '\n')
		case bytes.HasPrefix(line, []byte("plan ")):
			buf = append(append(append(buf, 'p'), line[len("plan "):]...), '\n')
		case bytes.HasPrefix(line, []byte("OK")):
			buf = append(buf, bytes.TrimSpace(line[len("OK"):])...)
			c.resp = buf
			return decodeResponse(string(buf), nvals, nrows), nil
		case bytes.HasPrefix(line, []byte("ERR ")):
			c.resp = buf
			return nil, fmt.Errorf("server: %s", line[len("ERR "):])
		default:
			c.resp = buf
			return nil, fmt.Errorf("server: malformed response line %q", line)
		}
	}
	c.resp = buf
	if err := c.in.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("server: connection closed mid-response")
}

// decodeResponse builds a Response out of what read gathered: lines of a
// kind byte, a payload and '\n', then the OK payload. nvals and nrows
// count the values and rows the lines hold.
func decodeResponse(s string, nvals, nrows int) *Response {
	res := &Response{}
	var vals []string
	if nvals > 0 {
		vals = make([]string, 0, nvals)
	}
	if nrows > 0 {
		res.Rows = make([][]string, 0, nrows)
	}
	for {
		end := strings.IndexByte(s, '\n')
		if end < 0 {
			res.OK = s
			return res
		}
		kind, line := s[0], s[1:end]
		s = s[end+1:]
		if kind == 'p' {
			res.Plan = line
			continue
		}
		first := len(vals)
		for {
			v, rest, more := strings.Cut(line, "\t")
			if kind == 'r' && strings.IndexByte(v, '\\') >= 0 {
				v = unescapeValue(v)
			}
			vals = append(vals, v)
			if !more {
				break
			}
			line = rest
		}
		if kind == 'c' {
			res.Columns = vals[first:len(vals):len(vals)]
		} else {
			res.Rows = append(res.Rows, vals[first:len(vals):len(vals)])
		}
	}
}

// Stats runs the STATS protocol verb and returns the server's metrics
// registry as a name → value map.
func (c *Client) Stats() (map[string]int64, error) {
	res, err := c.Exec("STATS")
	if err != nil {
		return nil, err
	}
	m := make(map[string]int64, len(res.Rows))
	for _, r := range res.Rows {
		if len(r) != 2 {
			return nil, fmt.Errorf("server: malformed STATS row %q", r)
		}
		v, err := strconv.ParseInt(r[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("server: non-integer STATS value %q for %s", r[1], r[0])
		}
		m[r[0]] = v
	}
	return m, nil
}

// StatsReset runs the STATS RESET protocol verb, zeroing the server's
// cumulative counters and histograms.
func (c *Client) StatsReset() error {
	_, err := c.Exec("STATS RESET")
	return err
}

// SessionInfo is one row of the server's live session table.
type SessionInfo struct {
	ID        int64
	Client    string
	State     string
	WaitEvent string
	Statement string
	ElapsedMS float64
}

// Activity runs the ACTIVITY protocol verb and returns the server's
// live session table (every connected session, including this one).
func (c *Client) Activity() ([]SessionInfo, error) {
	res, err := c.Exec("ACTIVITY")
	if err != nil {
		return nil, err
	}
	out := make([]SessionInfo, 0, len(res.Rows))
	for _, r := range res.Rows {
		if len(r) != 6 {
			return nil, fmt.Errorf("server: malformed ACTIVITY row %q", r)
		}
		id, err := strconv.ParseInt(r[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("server: non-integer ACTIVITY id %q", r[0])
		}
		ms, err := strconv.ParseFloat(r[5], 64)
		if err != nil {
			return nil, fmt.Errorf("server: non-numeric ACTIVITY elapsed_ms %q", r[5])
		}
		out = append(out, SessionInfo{
			ID: id, Client: r[1], State: r[2], WaitEvent: r[3],
			Statement: r[4], ElapsedMS: ms,
		})
	}
	return out, nil
}

// unescapeValue reverses the server's row-value escaping (\\ \n \r \t).
func unescapeValue(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' || i+1 == len(s) {
			b.WriteByte(c)
			continue
		}
		i++
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		case '\\':
			b.WriteByte('\\')
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// Close ends the session.
func (c *Client) Close() error {
	fmt.Fprintf(c.out, "\\q\n")
	c.out.Flush()
	return c.conn.Close()
}

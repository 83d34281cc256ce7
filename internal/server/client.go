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
}

// Response is one statement's parsed reply.
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
	res := &Response{}
	for c.in.Scan() {
		// The scanner's buffer is reused: only what the response keeps
		// is copied out of it, once per line.
		line := c.in.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("#cols ")):
			res.Columns = strings.Split(string(line[len("#cols "):]), "\t")
		case bytes.HasPrefix(line, []byte("row ")):
			vals := strings.Split(string(line[len("row "):]), "\t")
			if bytes.IndexByte(line, '\\') >= 0 {
				for i, v := range vals {
					vals[i] = unescapeValue(v)
				}
			}
			res.Rows = append(res.Rows, vals)
		case bytes.HasPrefix(line, []byte("plan ")):
			res.Plan = string(line[len("plan "):])
		case bytes.HasPrefix(line, []byte("OK")):
			res.OK = string(bytes.TrimSpace(line[len("OK"):]))
			return res, nil
		case bytes.HasPrefix(line, []byte("ERR ")):
			return nil, fmt.Errorf("server: %s", line[len("ERR "):])
		default:
			return nil, fmt.Errorf("server: malformed response line %q", line)
		}
	}
	if err := c.in.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("server: connection closed mid-response")
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

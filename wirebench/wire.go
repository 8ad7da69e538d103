package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"time"
)

// conn is the benchmark's own minimal speaker of the server's line
// protocol: it writes pre-encoded request bytes and reads reply lines.
// It deliberately shares no code with the repository's client package,
// so changes there cannot change what the benchmark measures.
type conn struct {
	c       net.Conn
	r       *bufio.Reader
	bytesIn int64
}

// replyTimeout bounds every wait for a reply; passing it is a failure.
const replyTimeout = 20 * time.Second

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 1<<20)}, nil
}

func (c *conn) close() { c.c.Close() }

func (c *conn) send(b []byte) error {
	_, err := c.c.Write(b)
	return err
}

// line returns the next reply line without its newline. The slice is
// valid until the next read.
func (c *conn) line() ([]byte, error) {
	l, err := c.r.ReadSlice('\n')
	c.bytesIn += int64(len(l))
	if err != nil {
		return nil, err
	}
	return l[:len(l)-1], nil
}

// deadline arms the reply timeout for the next reads.
func (c *conn) deadline() { c.c.SetReadDeadline(time.Now().Add(replyTimeout)) }

// call sends req and returns its one-line reply, failing on `err`.
func (c *conn) call(req string) (string, error) {
	c.deadline()
	if err := c.send([]byte(req + "\n")); err != nil {
		return "", err
	}
	l, err := c.line()
	if err != nil {
		return "", fmt.Errorf("%s: %w", req, err)
	}
	if !bytes.HasPrefix(l, []byte("ok ")) {
		return "", fmt.Errorf("%s: %s", req, l)
	}
	return string(l), nil
}

// frame reads the rest of a multi-line frame after its header line,
// up to and including the lone `.` line, appending every line (with its
// newline) to dst.
func (c *conn) frame(dst []byte) ([]byte, error) {
	for {
		l, err := c.line()
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, l...), '\n')
		if len(l) == 1 && l[0] == '.' {
			return dst, nil
		}
	}
}

// uintField parses the i-th space-separated field of a reply line as
// an unsigned integer, without allocating.
func uintField(l []byte, i int) (uint64, bool) {
	for ; i > 0; i-- {
		sp := bytes.IndexByte(l, ' ')
		if sp < 0 {
			return 0, false
		}
		l = l[sp+1:]
	}
	if sp := bytes.IndexByte(l, ' '); sp >= 0 {
		l = l[:sp]
	}
	var v uint64
	for _, c := range l {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, len(l) > 0
}

// strField returns the i-th space-separated field of a reply line.
func strField(l string, i int) string {
	fs := strings.Fields(l)
	if i >= len(fs) {
		return ""
	}
	return fs[i]
}

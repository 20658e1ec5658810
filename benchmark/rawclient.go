package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// rawClient is a keep-alive HTTP/1.1 client over one TCP connection. It
// writes pre-encoded request bytes and parses only what it needs of the
// reply — status code, Content-Length or chunked framing, body — so the
// harness takes a small and steady share of the box's two cores, which
// net/http.Client (header maps, goroutines per connection) does not.
type rawClient struct {
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

func dialRaw(addr string) (*rawClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return newRawClient(conn), nil
}

func newRawClient(conn net.Conn) *rawClient {
	return &rawClient{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
}

func (c *rawClient) close() { _ = c.conn.Close() } // read-only use; nothing to flush

// do sends one request and reads its reply. The returned body aliases
// the client's buffer and is valid until the next call.
func (c *rawClient) do(req []byte) (status int, body []byte, err error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, fmt.Errorf("write request: %w", err)
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, fmt.Errorf("read status line: %w", err)
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("status line %q: %w", line, err)
	}
	length, chunked := 0, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, fmt.Errorf("read header: %w", err)
		}
		if len(line) <= 2 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		key, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(key, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(val)); err != nil {
				return 0, nil, fmt.Errorf("content-length %q: %w", val, err)
			}
		case bytes.EqualFold(key, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	if !chunked {
		err = c.readN(length)
		return status, c.body, err
	}
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, fmt.Errorf("read chunk size: %w", err)
		}
		size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
		if err != nil {
			return 0, nil, fmt.Errorf("chunk size %q: %w", line, err)
		}
		if size == 0 {
			// No trailers are ever sent; the blank line ends the reply.
			_, err = c.br.Discard(2)
			return status, c.body, err
		}
		if err := c.readN(int(size)); err != nil {
			return 0, nil, err
		}
		if _, err := c.br.Discard(2); err != nil {
			return 0, nil, fmt.Errorf("read chunk end: %w", err)
		}
	}
}

// readN appends the next n bytes of the stream to c.body. do returns
// c.body only after its last readN, so growth is seen by the caller.
func (c *rawClient) readN(n int) error {
	at := len(c.body)
	if need := at + n; need > cap(c.body) {
		grown := make([]byte, at, need*2)
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:at+n]
	if _, err := io.ReadFull(c.br, c.body[at:]); err != nil {
		return fmt.Errorf("read body: %w", err)
	}
	return nil
}

// loopback serves a handler on 127.0.0.1 at a port the kernel picks,
// with irserve's http.Server settings.
type loopback struct {
	srv  *http.Server
	addr string
	done chan error
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &loopback{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		addr: ln.Addr().String(),
		done: make(chan error, 1),
	}
	// irlint:goroutine-exits Serve returns once shutdown closes the listener, and shutdown receives from done
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// shutdown stops the listener and waits for Serve to return.
func (l *loopback) shutdown(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// nullHandler answers every request with the same small body: the
// round trip the raw client and net/http cost with no program behind
// them (http.floor_us).
var nullHandler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, `{"count":0,"hits":null}`+"\n") // a failed write surfaces as a client read error
})

// cannedConn is a net.Conn that swallows writes and replays one reply
// forever, for timing the raw client alone (client.self_us).
type cannedConn struct {
	net.Conn // nil; only Read, Write and Close are ever called
	reply    []byte
	at       int
}

func (c *cannedConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *cannedConn) Close() error                { return nil }
func (c *cannedConn) Read(p []byte) (int, error) {
	n := copy(p, c.reply[c.at:])
	c.at = (c.at + n) % len(c.reply)
	return n, nil
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"syscall"
	"time"
)

// httpConn is one keep-alive HTTP/1.1 connection on a raw non-blocking
// socket. The generator drives every connection from a single goroutine
// that spins between sending due requests and polling for responses, so
// no Go timer or netpoller wakeup sits between a due time and the write.
// Nothing on the request path allocates once the buffers have grown.
type httpConn struct {
	fd   int
	wbuf []byte // the request being sent
	rbuf []byte // bytes of the in-flight response read so far
	body []byte // de-chunked body of a chunked response

	busy   bool
	idleAt int64 // when the connection last became free (ns since clock base)
}

// response is a parsed response. Its slices alias the connection's
// buffers and are valid until the connection sends again.
type response struct {
	status int
	etag   []byte // the ETag value with its quotes stripped
	body   []byte
}

var errClosed = errors.New("connection closed by server")

// dial opens a blocking-connect TCP connection to 127.0.0.1:port and
// switches it to non-blocking mode.
func dial(port int) (*httpConn, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("socket: %w", err)
	}
	if err := syscall.Connect(fd, &syscall.SockaddrInet4{Port: port, Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		syscall.Close(fd)
		return nil, err
	}
	if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("TCP_NODELAY: %w", err)
	}
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("set non-blocking: %w", err)
	}
	return &httpConn{fd: fd, rbuf: make([]byte, 0, 64<<10), body: make([]byte, 0, 16<<10)}, nil
}

func (c *httpConn) close() { syscall.Close(c.fd) }

// send writes c.wbuf in full, spinning on a full socket buffer.
func (c *httpConn) send() error {
	b := c.wbuf
	for len(b) > 0 {
		n, err := syscall.Write(c.fd, b)
		if err == syscall.EAGAIN {
			continue
		}
		if err != nil {
			return fmt.Errorf("write: %w", err)
		}
		b = b[n:]
	}
	c.rbuf = c.rbuf[:0]
	c.busy = true
	return nil
}

// poll reads what the socket holds without blocking and reports whether
// a whole response has arrived.
func (c *httpConn) poll(r *response) (done bool, err error) {
	if cap(c.rbuf)-len(c.rbuf) < 4096 {
		grown := make([]byte, len(c.rbuf), 2*cap(c.rbuf))
		copy(grown, c.rbuf)
		c.rbuf = grown
	}
	n, err := syscall.Read(c.fd, c.rbuf[len(c.rbuf):cap(c.rbuf)])
	if err == syscall.EAGAIN || err == syscall.EINTR {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("read: %w", err)
	}
	if n == 0 {
		return false, errClosed
	}
	c.rbuf = c.rbuf[:len(c.rbuf)+n]
	done, err = c.parse(r)
	if done || err != nil {
		c.busy = false
	}
	return done, err
}

// roundTrip sends c.wbuf and spins until the response arrives or the
// timeout passes.
func (c *httpConn) roundTrip(r *response, timeout time.Duration) error {
	if err := c.send(); err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for {
		done, err := c.poll(r)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			c.busy = false
			return fmt.Errorf("no response within %v", timeout)
		}
	}
}

var (
	crlfcrlf = []byte("\r\n\r\n")
	crlf     = []byte("\r\n")
)

// parse tries to parse one complete response from c.rbuf.
func (c *httpConn) parse(r *response) (bool, error) {
	buf := c.rbuf
	hdrEnd := bytes.Index(buf, crlfcrlf)
	if hdrEnd < 0 {
		return false, nil
	}
	if hdrEnd < 12 || !bytes.HasPrefix(buf, []byte("HTTP/1.")) {
		return false, fmt.Errorf("malformed status line %q", buf[:min(hdrEnd, 40)])
	}
	status := int(buf[9]-'0')*100 + int(buf[10]-'0')*10 + int(buf[11]-'0')
	contentLength, chunked := -1, false
	var etag []byte
	lines := buf[:hdrEnd]
	if i := bytes.Index(lines, crlf); i >= 0 {
		lines = lines[i+2:]
	} else {
		lines = nil
	}
	for len(lines) > 0 {
		line := lines
		if i := bytes.Index(lines, crlf); i >= 0 {
			line, lines = lines[:i], lines[i+2:]
		} else {
			lines = nil
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		name, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case asciiEqualFold(name, "content-length"):
			n, ok := atoi(val)
			if !ok {
				return false, fmt.Errorf("bad Content-Length %q", val)
			}
			contentLength = n
		case asciiEqualFold(name, "transfer-encoding"):
			chunked = asciiEqualFold(val, "chunked")
		case asciiEqualFold(name, "etag"):
			etag = bytes.Trim(val, `"`)
		}
	}
	rest := buf[hdrEnd+4:]
	switch {
	case chunked:
		body, complete, err := dechunk(c.body[:0], rest)
		if err != nil || !complete {
			return false, err
		}
		c.body = body
		r.body = body
	case contentLength >= 0:
		if len(rest) < contentLength {
			return false, nil
		}
		if len(rest) > contentLength {
			return false, fmt.Errorf("%d unexpected bytes after the response body", len(rest)-contentLength)
		}
		r.body = rest
	default:
		return false, fmt.Errorf("response has neither Content-Length nor chunked framing")
	}
	r.status, r.etag = status, etag
	return true, nil
}

// dechunk decodes a chunked body into dst; complete is false until the
// terminating zero-size chunk and its blank line have arrived.
func dechunk(dst, b []byte) (out []byte, complete bool, err error) {
	for {
		i := bytes.Index(b, crlf)
		if i < 0 {
			return dst, false, nil
		}
		size, ok := atoiHex(b[:i])
		if !ok {
			return dst, false, fmt.Errorf("bad chunk size %q", b[:i])
		}
		b = b[i+2:]
		if size == 0 {
			if len(b) < 2 {
				return dst, false, nil
			}
			return dst, true, nil
		}
		if len(b) < size+2 {
			return dst, false, nil
		}
		dst = append(dst, b[:size]...)
		b = b[size+2:]
	}
}

func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

func atoi(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func atoiHex(b []byte) (int, bool) {
	if i := bytes.IndexByte(b, ';'); i >= 0 {
		b = b[:i]
	}
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			n = n*16 + int(c-'0')
		case 'a' <= c && c <= 'f':
			n = n*16 + int(c-'a'+10)
		case 'A' <= c && c <= 'F':
			n = n*16 + int(c-'A'+10)
		default:
			return 0, false
		}
	}
	return n, true
}

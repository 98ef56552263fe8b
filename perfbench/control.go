package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// The control server is a minimal net/http server that this binary runs
// (with -control) on CPU 0 beside rws-serve. It answers every request
// with controlBody, so its latency is what the host, the kernel's
// loopback path and the Go runtime's net/http cost on their own, and it
// does not change when rws-serve's code does. On a shared VM that cost
// drifts by a fifth or more over tens of seconds, the same way for both
// servers; the heavy stage alternates windows between them so that the
// ratio of their latencies cancels the drift.

// controlBody is the control server's one answer.
var controlBody = []byte(`{"ok":true}` + "\n")

// serveControl runs the control server on addr until the process is
// killed.
func serveControl(addr string) error {
	return http.ListenAndServe(addr, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(controlBody) // a failed write shows as a failed request
	}))
}

// startControl starts the control server pinned to CPU 0 and waits
// until it answers.
func startControl(dir string) (*server, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	stderrPath := filepath.Join(dir, "control.stderr")
	srv, err := startServer(self, []string{"-control"}, stderrPath, childEnv())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for {
		c, err := dial(srv.port)
		if err == nil {
			var resp response
			c.wbuf = append(c.wbuf[:0], "GET / HTTP/1.1\r\nHost: control\r\n\r\n"...)
			err = c.roundTrip(&resp, bootTimeout)
			c.close()
			if err != nil {
				srv.kill()
				return nil, fmt.Errorf("control server probe: %w", err)
			}
			return srv, nil
		}
		if !srv.alive() || time.Since(start) > bootTimeout {
			srv.kill()
			return nil, fmt.Errorf("control server did not start listening: %v; stderr: %s", err, tail(stderrPath))
		}
		time.Sleep(time.Millisecond)
	}
}

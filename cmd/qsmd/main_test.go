package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerClosesIdleConnections: qsmd's server carries both connection
// timeouts, and with them a connection that never sends a request and one
// left idle after a response are both closed by the server. The timeouts
// are scaled down so the test can wait them out.
func TestServerClosesIdleConnections(t *testing.T) {
	srv := newServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("server timeouts = header %v, idle %v; want %v, %v",
			srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	srv.ReadHeaderTimeout, srv.IdleTimeout = 100*time.Millisecond, 100*time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	// closedWithin reads from conn until the server closes it.
	closedWithin := func(conn net.Conn, r io.Reader, d time.Duration) bool {
		conn.SetReadDeadline(time.Now().Add(d))
		_, err := io.Copy(io.Discard, r)
		return err == nil // io.Copy reports EOF as nil; a deadline as an error
	}

	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if !closedWithin(silent, silent, 5*time.Second) {
		t.Error("a connection that sent nothing was not closed")
	}

	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := io.WriteString(idle, "GET / HTTP/1.1\r\nHost: qsmd\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(idle)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != "ok" || resp.Close {
		t.Fatalf("keep-alive request = %d %q (close %v)", resp.StatusCode, body, resp.Close)
	}
	if !closedWithin(idle, br, 5*time.Second) {
		t.Error("a keep-alive connection left idle was not closed")
	}
}

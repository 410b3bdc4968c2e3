package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"testing"
	"time"

	"polyise/internal/session"
)

// serve starts newServer's server on a loopback port and returns its base
// address; the server is closed when the test ends.
func serve(t *testing.T) string {
	t.Helper()
	svc := session.NewService(session.Config{})
	srv := newServer("", session.NewHandler(svc, session.HandlerConfig{}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		svc.Shutdown(context.Background())
	})
	return ln.Addr().String()
}

// TestServerClosesHalfSentHeader checks the header bound: a client that
// sends a request line and one header but never the blank line ending the
// headers is disconnected once readHeaderTimeout has passed, instead of
// holding its connection for as long as it likes.
func TestServerClosesHalfSentHeader(t *testing.T) {
	addr := serve(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/graphs HTTP/1.1\r\nHost: polyised\r\n"); err != nil {
		t.Fatal(err)
	}
	// Without the bound the read below would wait out this deadline.
	bound := readHeaderTimeout + 3*time.Second
	conn.SetReadDeadline(start.Add(bound))
	_, err = io.ReadAll(conn)
	took := time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %v", took)
	}
	if took < readHeaderTimeout {
		t.Fatalf("connection closed after %v, before the %v header bound (err %v)", took, readHeaderTimeout, err)
	}
	t.Logf("closed after %v (read error %v)", took, err)
}

// TestServerKeepsConnectionsAlive checks that the idle bound leaves
// keep-alive clients working: back-to-back requests of one client reuse
// its connection, as the benchmark's HTTP client relies on.
func TestServerKeepsConnectionsAlive(t *testing.T) {
	base := "http://" + serve(t)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer client.CloseIdleConnections()
	for i := 0; i < 3; i++ {
		reused := false
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
		})
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if i > 0 && !reused {
			t.Fatalf("request %d opened a new connection", i)
		}
	}
}

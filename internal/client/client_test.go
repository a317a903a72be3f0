package client

import (
	"bufio"
	"context"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"learnedpieces/internal/wire"
)

// TestWriteDeadlineUnwedgesStalledPeer: with a peer that never reads,
// the framed write must fail with a deadline error instead of blocking
// the caller (and everyone queued on writeMu) forever.
func TestWriteDeadlineUnwedgesStalledPeer(t *testing.T) {
	cli, srv := net.Pipe() // unbuffered: a write blocks until srv reads
	defer srv.Close()

	c := NewConn(cli)
	c.writeTimeout = 50 * time.Millisecond
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Put runs aside: without a write deadline it blocks inside
	// bufio.Writer.Write under writeMu, where ctx cannot reach it.
	errc := make(chan error, 1)
	go func() { errc <- c.Put(ctx, 1, []byte("v")) }()
	var err error
	select {
	case err = <-errc:
	case <-time.After(3 * time.Second):
		_ = srv.Close() // fails the blocked write, so the goroutine exits
		<-errc
		t.Fatal("Put against a stalled peer still blocked after 3s: the request write has no deadline")
	}
	if err == nil {
		t.Fatal("Put against a stalled peer returned nil; want deadline error")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Put error = %v; want os.ErrDeadlineExceeded", err)
	}

	// The failed request must deregister its waiter: a later stray
	// response for its ID should be counted, not delivered.
	c.mu.Lock()
	waiting := len(c.waiters)
	c.mu.Unlock()
	if waiting != 0 {
		t.Fatalf("%d waiters left registered after a failed write", waiting)
	}
}

// TestWriteDeadlineDoesNotPerturbHealthyConn drives one round trip
// through a live in-memory peer to show the per-write deadline resets
// rather than poisons the connection.
func TestWriteDeadlineDoesNotPerturbHealthyConn(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()

	// Minimal peer: decode each request, answer StatusOK.
	go func() {
		br := bufio.NewReader(srv)
		var buf, out []byte
		for {
			body, err := wire.ReadFrame(br, buf)
			if err != nil {
				return
			}
			buf = body[:0]
			req, err := wire.DecodeRequest(body)
			if err != nil {
				return
			}
			out = wire.AppendResponse(out[:0], &wire.Response{ID: req.ID, Status: wire.StatusOK})
			if _, err := srv.Write(out); err != nil {
				return
			}
		}
	}()

	c := NewConn(cli)
	c.writeTimeout = 2 * time.Second
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if err := c.Put(ctx, uint64(i), []byte("v")); err != nil {
			t.Fatalf("Put %d on a healthy connection: %v", i, err)
		}
	}
	if n := c.Strays(); n != 0 {
		t.Fatalf("healthy round trips produced %d stray responses", n)
	}
}

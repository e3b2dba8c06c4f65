package dppnet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dpp"
	"repro/internal/testutil"
)

// Fault-injection coverage for the transport: connections dropped
// mid-frame, the server dying under a blocked Next, clients vanishing
// without a close frame, and malformed handshakes. Every scenario must
// end in a prompt error (never a hang, never a panic) and zero leaked
// goroutines on whichever side survives.

// waitActiveSessions polls the service until no session holds a slot.
func waitActiveSessions(t *testing.T, svc *dpp.Service, want int) {
	t.Helper()
	testutil.Eventually(t, func() bool { return svc.Stats().ActiveSessions == want },
		"service session count settles to %d", want)
}

// faultStream is either kind of remote stream behind one pull signature,
// so each transport fault runs once per kind of the one client.
type faultStream struct {
	next     func(context.Context) error
	close    func() error
	buffered func() int // received items not yet consumed
}

func faultStreamOf[T any](st *stream[T]) *faultStream {
	return &faultStream{
		next:  func(ctx context.Context) error { _, err := st.next(ctx); return err },
		close: st.Close,
		buffered: func() int {
			st.mu.Lock()
			defer st.mu.Unlock()
			return len(st.recv)
		},
	}
}

// remoteKinds are the two stream kinds: each names its payload frame and
// opens a Buffer-1 session (files is the unit stream's explicit list).
var remoteKinds = []struct {
	name  string
	frame byte
	open  func(ctx context.Context, addr string, files []string) (*faultStream, error)
}{
	{"batch", frameBatch, func(ctx context.Context, addr string, _ []string) (*faultStream, error) {
		rs, err := NewClient(addr).Open(ctx, dpp.Spec{Spec: alignedSpec(), Buffer: 1})
		if err != nil {
			return nil, err
		}
		return faultStreamOf(&rs.stream), nil
	}},
	{"unit", frameFileUnit, func(ctx context.Context, addr string, files []string) (*faultStream, error) {
		rus, err := NewClient(addr).OpenUnits(ctx, dpp.Spec{Spec: alignedSpec(), Files: files, Buffer: 1})
		if err != nil {
			return nil, err
		}
		return faultStreamOf(&rus.stream), nil
	}},
}

func allFiles(t testing.TB, env *testEnv) []string {
	t.Helper()
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestClientVanishDuringSend: a client that disappears without a close
// frame — its connection just dies — must not strand the server-side
// session, its reader goroutines, or its service slot, even while the
// server is parked waiting for credits.
func TestClientVanishDuringSend(t *testing.T) {
	before := runtime.NumGoroutine()

	env := newTestEnv(t, 60)
	h := startServer(t, env, dpp.Config{})
	rs, err := NewClient(h.addr).Open(context.Background(), dpp.Spec{Spec: alignedSpec(), Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Vanish: kill the socket out from under the session, no protocol
	// goodbye. The server is mid-stream (window exhausted or filling).
	rs.conn.Close()

	waitActiveSessions(t, h.svc, 0)

	// The client half observes the dead connection as an error, not EOF.
	for {
		_, err := rs.Next(context.Background())
		if err == nil {
			continue
		}
		if errors.Is(err, io.EOF) {
			t.Fatal("vanished connection surfaced as clean EOF")
		}
		break
	}
	rs.Close()

	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}

// TestServerKillDuringNext: killing the server while the client is
// blocked in Next surfaces a prompt transport error on the client —
// never a hang — and tears everything down leak-free.
func TestServerKillDuringNext(t *testing.T) {
	// A wide scan (hundreds of batches, ten files) so the kill provably
	// lands with most of the stream still unsent: the consumer outruns the
	// server's decode pace, so it spends its time parked inside Next.
	env := newTestEnv(t, 400)
	for _, k := range remoteKinds {
		t.Run(k.name, func(t *testing.T) {
			before := runtime.NumGoroutine()

			h := startServer(t, env, dpp.Config{})
			rs, err := k.open(context.Background(), h.addr, allFiles(t, env))
			if err != nil {
				t.Fatal(err)
			}

			midStream := make(chan struct{})
			errCh := make(chan error, 1)
			go func() {
				consumed := 0
				for {
					if err := rs.next(context.Background()); err != nil {
						errCh <- err
						return
					}
					consumed++
					if consumed == 2 {
						close(midStream) // provably mid-stream; the kill may fire
					}
				}
			}()

			select {
			case <-midStream:
			case err := <-errCh:
				t.Fatalf("stream died before the kill: %v", err)
			case <-time.After(5 * time.Second):
				t.Fatal("stream never started")
			}
			h.shutdown(t) // kill the server while the consumer is in Next

			select {
			case err := <-errCh:
				if err == nil || errors.Is(err, io.EOF) {
					t.Fatalf("killed server surfaced as %v, want transport error", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Next hung across server kill")
			}
			rs.close()

			testutil.WaitForGoroutines(t, before)
		})
	}
}

// fakeServer accepts one dppnet connection, replies to the handshake
// with frameOK, then runs inject over the raw connection — the hook for
// serving protocol garbage a real server never sends.
func fakeServer(t *testing.T, inject func(net.Conn)) (addr string, done chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done = make(chan struct{})
	go func() {
		defer close(done)
		defer ln.Close()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		preamble := make([]byte, len(protoMagic)+1)
		if _, err := io.ReadFull(br, preamble); err != nil {
			return
		}
		if typ, _, err := readFrame(br, maxControlFrameBytes); err != nil || typ != frameOpen {
			return
		}
		if err := writeFrame(conn, frameOK, nil); err != nil {
			return
		}
		inject(conn)
	}()
	return ln.Addr().String(), done
}

// TestMidFrameConnectionDrop: the server dies halfway through a batch
// frame — length prefix promises more bytes than ever arrive. The client
// must fail with a truncation error, not block or misparse.
func TestMidFrameConnectionDrop(t *testing.T) {
	for _, k := range remoteKinds {
		t.Run(k.name, func(t *testing.T) {
			before := runtime.NumGoroutine()

			addr, done := fakeServer(t, func(conn net.Conn) {
				var hdr bytes.Buffer
				hdr.WriteByte(k.frame)
				hdr.Write([]byte{0xE8, 0x07}) // uvarint 1000: a 1000-byte payload...
				hdr.Write(make([]byte, 10))   // ...of which only 10 bytes exist
				conn.Write(hdr.Bytes())
			})

			rs, err := k.open(context.Background(), addr, []string{"f"})
			if err != nil {
				t.Fatal(err)
			}
			err = rs.next(context.Background())
			if err == nil || errors.Is(err, io.EOF) {
				t.Fatalf("mid-frame drop returned %v, want transport error", err)
			}
			rs.close()
			<-done

			testutil.WaitForGoroutines(t, before)
		})
	}
}

// TestCorruptBatchFrame: a well-framed batch whose payload is garbage
// must surface as a decode error from Next — the codec's plausibility
// checks, not a panic, are the failure mode.
func TestCorruptBatchFrame(t *testing.T) {
	for _, k := range remoteKinds {
		t.Run(k.name, func(t *testing.T) {
			before := runtime.NumGoroutine()

			addr, done := fakeServer(t, func(conn net.Conn) {
				writeFrame(conn, k.frame, []byte("XBATgarbage-that-is-not-a-batch"))
			})

			rs, err := k.open(context.Background(), addr, []string{"f"})
			if err != nil {
				t.Fatal(err)
			}
			err = rs.next(context.Background())
			if err == nil || errors.Is(err, io.EOF) {
				t.Fatalf("corrupt batch returned %v, want decode error", err)
			}
			rs.close()
			<-done

			testutil.WaitForGoroutines(t, before)
		})
	}
}

// TestOversizedFrameRejected: a frame announcing more than maxFrameBytes
// is refused before any allocation happens.
func TestOversizedFrameRejected(t *testing.T) {
	before := runtime.NumGoroutine()

	addr, done := fakeServer(t, func(conn net.Conn) {
		var hdr bytes.Buffer
		hdr.WriteByte(frameBatch)
		hdr.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // uvarint ~2^55
		conn.Write(hdr.Bytes())
	})

	rs, err := NewClient(addr).Open(context.Background(), dpp.Spec{Spec: alignedSpec()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rs.Next(context.Background())
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("oversized frame returned %v, want limit error", err)
	}
	rs.Close()
	<-done

	testutil.WaitForGoroutines(t, before)
}

// rawDial opens a TCP connection to a real server for hand-rolled
// protocol abuse.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestServerRejectsMalformedHandshake drives the server with broken
// preambles and handshakes: wrong magic (dropped silently), bad JSON, an
// unknown request kind, and a session request without a spec. The server
// must answer with an error frame (or just close), never open a session,
// and leak nothing.
func TestServerRejectsMalformedHandshake(t *testing.T) {
	before := runtime.NumGoroutine()

	env := newTestEnv(t, 10)
	h := startServer(t, env, dpp.Config{})

	expectErrorFrame := func(t *testing.T, conn net.Conn) {
		t.Helper()
		br := bufio.NewReader(conn)
		typ, payload, err := readFrame(br, maxFrameBytes)
		if err != nil {
			t.Fatalf("reading server reply: %v", err)
		}
		if typ != frameError || len(payload) == 0 {
			t.Fatalf("server replied frame %#x %q, want non-empty error frame", typ, payload)
		}
	}

	t.Run("wrong magic", func(t *testing.T) {
		conn := rawDial(t, h.addr)
		defer conn.Close()
		conn.Write([]byte("HTTP/1.1 GET /statsz\r\n"))
		// The server drops the connection without a reply: there is no
		// known framing to answer in.
		buf := make([]byte, 1)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(buf); err != io.EOF {
			t.Fatalf("read after bad magic = (%d, %v), want EOF", n, err)
		}
	})
	t.Run("bad json", func(t *testing.T) {
		conn := rawDial(t, h.addr)
		defer conn.Close()
		conn.Write(append([]byte(protoMagic), protoVersion))
		writeFrame(conn, frameOpen, []byte("{not json"))
		expectErrorFrame(t, conn)
	})
	t.Run("unknown kind", func(t *testing.T) {
		conn := rawDial(t, h.addr)
		defer conn.Close()
		conn.Write(append([]byte(protoMagic), protoVersion))
		payload, _ := json.Marshal(openRequest{Kind: "exfiltrate"})
		writeFrame(conn, frameOpen, payload)
		expectErrorFrame(t, conn)
	})
	t.Run("session without spec", func(t *testing.T) {
		conn := rawDial(t, h.addr)
		defer conn.Close()
		conn.Write(append([]byte(protoMagic), protoVersion))
		payload, _ := json.Marshal(openRequest{Kind: kindSession, Window: 4})
		writeFrame(conn, frameOpen, payload)
		expectErrorFrame(t, conn)
	})
	t.Run("zero window", func(t *testing.T) {
		conn := rawDial(t, h.addr)
		defer conn.Close()
		conn.Write(append([]byte(protoMagic), protoVersion))
		ws, err := encodeSpec(dpp.Spec{Spec: alignedSpec()})
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := json.Marshal(openRequest{Kind: kindSession, Spec: ws})
		writeFrame(conn, frameOpen, payload)
		expectErrorFrame(t, conn)
	})

	if n := h.svc.Stats().SessionsOpened; n != 0 {
		t.Fatalf("malformed handshakes opened %d sessions", n)
	}
	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}

// TestSilentConnectionIsDropped: a peer that connects and then says nothing
// — or says the magic and then nothing — has handshakeTimeout to present
// its handshake. Until it does it holds a handler and a ConnsActive slot
// that no Gate has charged to anyone, and before the deadline existed it
// held them until Server.Close. Both peers here stay connected and silent:
// the server must drop them on its own, say so in the access log, and come
// back to no active connections with nothing leaked.
func TestSilentConnectionIsDropped(t *testing.T) {
	before := runtime.NumGoroutine()
	env := newTestEnv(t, 10)
	var mu sync.Mutex
	var details []string
	h := startTunedServer(t, env, dpp.Config{}, func(s *Server) {
		s.OnSession = func(ev SessionEvent) {
			if ev.Kind == "error" {
				mu.Lock()
				details = append(details, ev.Detail)
				mu.Unlock()
			}
		}
	})

	silent, magic := rawDial(t, h.addr), rawDial(t, h.addr)
	defer silent.Close()
	defer magic.Close()
	magic.Write(append([]byte(protoMagic), protoVersion))
	testutil.Eventually(t, func() bool { return h.srv.Stats().ConnsAccepted == 2 }, "both connections are being handled")

	// Neither peer sends another byte; each waits to be hung up on. The
	// one that got as far as the magic is told why, in the only framing
	// there is.
	for _, conn := range []net.Conn{silent, magic} {
		conn.SetReadDeadline(time.Now().Add(handshakeTimeout + 5*time.Second))
		reply, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("a silent connection was not closed within the handshake deadline: %v", err)
		}
		if (conn == magic) != bytes.Contains(reply, []byte("expected open frame")) {
			t.Fatalf("reply %q to the peer that sent magic=%v", reply, conn == magic)
		}
	}
	testutil.Eventually(t, func() bool { return h.srv.Stats().ConnsActive == 0 }, "the dropped connections release their slots")
	mu.Lock()
	slices.Sort(details)
	if want := []string{"expected open frame", "no preamble within " + handshakeTimeout.String()}; !slices.Equal(details, want) {
		t.Fatalf("access log error events %q, want %q", details, want)
	}
	mu.Unlock()
	if n := h.svc.Stats().SessionsOpened; n != 0 {
		t.Fatalf("silent connections opened %d sessions", n)
	}
	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}

// TestAbandonedSessionAfterCancel: cancelling the Open context must tear
// the whole session down even if the consumer never calls Next or Close
// afterwards — Open documents cancel as equivalent to Close, so an
// abandoned RemoteSession may strand neither the server-side slot nor
// the client's receive goroutine (which at that point is sitting on a
// full credit window of undelivered batches).
func TestAbandonedSessionAfterCancel(t *testing.T) {
	env := newTestEnv(t, 60)
	for _, k := range remoteKinds {
		t.Run(k.name, func(t *testing.T) {
			before := runtime.NumGoroutine()

			h := startServer(t, env, dpp.Config{})
			ctx, cancel := context.WithCancel(context.Background())
			rs, err := k.open(ctx, h.addr, allFiles(t, env))
			if err != nil {
				t.Fatal(err)
			}
			// Let the server exhaust the window so the receiver has buffered
			// items it will never deliver.
			testutil.Eventually(t, func() bool { return rs.buffered() >= 1 }, "server started streaming")
			cancel()
			_ = rs // abandoned: no Close, no further Next

			waitActiveSessions(t, h.svc, 0)
			h.shutdown(t)
			testutil.WaitForGoroutines(t, before)
		})
	}
}

// TestOpenCancelledDuringHandshake: a server that accepts the TCP
// connection but never answers the handshake cannot wedge Open past its
// context — cancellation must interrupt the handshake read.
func TestOpenCancelledDuringHandshake(t *testing.T) {
	before := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn // hold the connection open, reply with nothing
		}
	}()
	defer ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = NewClient(ln.Addr().String()).Open(ctx, dpp.Spec{Spec: alignedSpec()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Open against a mute server = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Open took %v to observe cancellation", elapsed)
	}
	select {
	case conn := <-accepted:
		conn.Close()
	default:
	}

	testutil.WaitForGoroutines(t, before)
}

// TestRemoteOpenRejectsBadSpec: admission errors cross the wire — an
// invalid spec fails at Open with the server's message, wrapped in
// ErrRemote, and holds no slot.
func TestRemoteOpenRejectsBadSpec(t *testing.T) {
	env := newTestEnv(t, 10)
	h := startServer(t, env, dpp.Config{})

	bad := alignedSpec()
	bad.BatchSize = 0
	if _, err := NewClient(h.addr).Open(context.Background(), dpp.Spec{Spec: bad}); !errors.Is(err, ErrRemote) {
		t.Fatalf("Open with invalid spec = %v, want ErrRemote", err)
	}
	missing := alignedSpec()
	missing.Table = "no_such_table"
	if _, err := NewClient(h.addr).Open(context.Background(), dpp.Spec{Spec: missing}); !errors.Is(err, ErrRemote) {
		t.Fatalf("Open with unknown table = %v, want ErrRemote", err)
	}
	if n := h.svc.Stats().ActiveSessions; n != 0 {
		t.Fatalf("rejected opens left %d sessions", n)
	}
}

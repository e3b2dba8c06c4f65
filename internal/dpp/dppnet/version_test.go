package dppnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dpp"
	"repro/internal/testutil"
)

// versionProxy relays a server and rewrites the version byte of the
// preamble to `speak` on every connection from the from-th on: a real
// client made to look like one built at another protocol version. It
// counts the connections it accepted — the client's dials.
type versionProxy struct {
	ln     net.Listener
	target string
	speak  byte
	from   int

	mu    sync.Mutex
	dials int
	conns []net.Conn
	wg    sync.WaitGroup
}

func startVersionProxy(t *testing.T, target string, speak byte, from int) *versionProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &versionProxy{ln: ln, target: target, speak: speak, from: from}
	p.wg.Add(1)
	go p.accept()
	t.Cleanup(p.close)
	return p
}

func (p *versionProxy) accept() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			conn.Close()
			continue
		}
		p.mu.Lock()
		rewrite := p.dials >= p.from
		p.dials++
		p.conns = append(p.conns, conn, up)
		p.wg.Add(2)
		p.mu.Unlock()
		go func() { // client → server, the preamble first
			defer p.wg.Done()
			preamble := make([]byte, len(protoMagic)+1)
			if _, err := io.ReadFull(conn, preamble); err == nil {
				if rewrite {
					preamble[len(protoMagic)] = p.speak
				}
				if _, err := up.Write(preamble); err == nil {
					io.Copy(up, conn)
				}
			}
			up.(*net.TCPConn).CloseWrite()
		}()
		go func() { // server → client
			defer p.wg.Done()
			io.Copy(conn, up)
			conn.Close()
			up.Close()
		}()
	}
}

// cut severs every connection relayed so far.
func (p *versionProxy) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

func (p *versionProxy) dialed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dials
}

func (p *versionProxy) close() {
	p.ln.Close()
	p.cut()
	p.wg.Wait()
}

// TestWrongVersionPeerIsTold: a dppnet client of another protocol version
// gets an error frame naming its version, the one that retired it and what
// changed, and the access log gets an error event — it is not dropped
// without a word. For a client under a resume policy that is the difference
// between one terminal ErrRemote and redialling a server that will never
// answer until the budget is spent: at Open it dials once, and a session
// that loses its connection to a server since upgraded makes the two dials
// of one refused resume, not MaxAttempts of them.
func TestWrongVersionPeerIsTold(t *testing.T) {
	before := runtime.NumGoroutine()
	env := newTestEnv(t, 120)
	var mu sync.Mutex
	var events []SessionEvent
	h := startTunedServer(t, env, dpp.Config{}, func(s *Server) {
		s.OnSession = func(ev SessionEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}
	})
	refusals := func(told string) (n int) {
		mu.Lock()
		defer mu.Unlock()
		for _, ev := range events {
			if ev.Kind == "error" && strings.Contains(ev.Detail, told) {
				n++
			}
		}
		return n
	}
	// The registry's retired lines. The last version retired is the one
	// before the current: a bump that forgets to register it fails here.
	const (
		toldV6  = "protocol v6 retired: v7 changed the stream hash; rebuild the client"
		toldV7  = "protocol v7 retired: v8 retired the extend frame, emptied the drain frame and ships the file-unit tail as columns; rebuild the client for v14"
		toldV8  = "protocol v8 retired: v9 ships a unit stream's batches as batch frames ahead of the file-unit frame, which now only closes the file; rebuild the client for v14"
		toldV9  = "protocol v9 retired: v10 opens a unit stream on the global file list and the indices it serves, names their carries in ok, and ships a carried-into file's head in a file-unit frame; rebuild the client for v14"
		toldV10 = "protocol v10 retired: v11 ships a file unit's rows without their row keys; rebuild the client for v14"
		toldV11 = "protocol v11 retired: v12 serves every session as a unit stream cut by the client, and a file-unit head names the carry it completes; rebuild the client for v14"
		toldV12 = "protocol v12 retired: v13 writes every integer block of a batch or chunk at the width its span needs, and a jagged tensor's offsets as row lengths; rebuild the client for v14"
		toldV13 = "protocol v13 retired: v14 ships a unit stream's batches, heads and tails as one stamped piece frame, and the eof frame carries the session stats; rebuild the client for v14"
	)
	if protoVersion != 14 {
		t.Fatalf("protocol v%d: register v%d in versionRefusal and retire it here", protoVersion, protoVersion-1)
	}

	for v, told := range map[byte]string{6: toldV6, 7: toldV7, 8: toldV8, 9: toldV9, 10: toldV10, 11: toldV11, 12: toldV12, 13: toldV13} {
		t.Run(fmt.Sprintf("raw v%d preamble", v), func(t *testing.T) {
			conn := rawDial(t, h.addr)
			defer conn.Close()
			conn.Write(append([]byte(protoMagic), v))
			writeFrame(conn, frameOpen, []byte(`{"kind":"session"}`))
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			typ, payload, err := readFrame(bufio.NewReader(conn), maxFrameBytes)
			if err != nil || typ != frameError || !strings.Contains(string(payload), told) {
				t.Fatalf("v%d preamble answered frame %#x %q, %v; want an error frame saying %q", v, typ, payload, err, told)
			}
			if refusals(told) != 1 {
				t.Fatalf("access log holds %d refusals of v%d, want 1", refusals(told), v)
			}
		})
	}

	t.Run("newer client", func(t *testing.T) {
		conn := rawDial(t, h.addr)
		defer conn.Close()
		conn.Write(append([]byte(protoMagic), protoVersion+1))
		writeFrame(conn, frameOpen, nil)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		typ, payload, err := readFrame(bufio.NewReader(conn), maxFrameBytes)
		if err != nil || typ != frameError || !strings.Contains(string(payload), "upgrade the server") {
			t.Fatalf("v%d preamble answered frame %#x %q, %v", protoVersion+1, typ, payload, err)
		}
	})

	policy := ResumePolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}
	spec := dpp.Spec{Spec: alignedSpec(), Buffer: 1}

	t.Run("open dials once", func(t *testing.T) {
		p := startVersionProxy(t, h.addr, 7, 0)
		c := NewClient(p.ln.Addr().String())
		c.Resume = policy
		_, err := c.Open(context.Background(), spec)
		if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), toldV7) {
			t.Fatalf("Open as a v7 client = %v, want ErrRemote saying %q", err, toldV7)
		}
		if p.dialed() != 1 {
			t.Fatalf("the refused Open dialed %d times, want 1", p.dialed())
		}
	})

	t.Run("resume is refused once", func(t *testing.T) {
		p := startVersionProxy(t, h.addr, 7, 1)
		c := NewClient(p.ln.Addr().String())
		c.Resume = policy
		rs, err := c.Open(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		if _, err := rs.Next(context.Background()); err != nil {
			t.Fatal(err)
		}
		p.cut()
		for err == nil {
			_, err = rs.Next(context.Background())
		}
		if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), toldV7) {
			t.Fatalf("stream ended with %v, want ErrRemote saying %q", err, toldV7)
		}
		if _, again := rs.Next(context.Background()); again == nil || again.Error() != err.Error() {
			t.Fatalf("the refusal is not terminal: next Next = %v", again)
		}
		// A refused token resume falls back once to a token-less replay,
		// whatever the refusal says; that is refused too, and that is all.
		if p.dialed() != 3 || rs.units.Reconnects() != 0 {
			t.Fatalf("%d dials and %d reconnects, want the open, the refused resume and its one refused fallback — not %d attempts",
				p.dialed(), rs.units.Reconnects(), policy.MaxAttempts)
		}
	})

	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}

package server

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/overload"
)

// expectGete reads one gete VALUE response (header, body, END) and returns
// the header's absolute exptime. The caller has already verified a hit is
// coming.
func expectGete(t *testing.T, rc *rawConn, key, value string, flags uint32) int64 {
	t.Helper()
	line := rc.line()
	fields := strings.Fields(line)
	if len(fields) != 6 || fields[0] != "VALUE" || fields[1] != key {
		t.Fatalf("bad gete header %q", line)
	}
	if f, _ := strconv.ParseUint(fields[2], 10, 32); uint32(f) != flags {
		t.Fatalf("gete flags = %s, want %d", fields[2], flags)
	}
	if n, _ := strconv.Atoi(fields[3]); n != len(value) {
		t.Fatalf("gete length = %s, want %d", fields[3], len(value))
	}
	exp, err := strconv.ParseInt(fields[5], 10, 64)
	if err != nil {
		t.Fatalf("gete exptime %q: %v", fields[5], err)
	}
	rc.expect(value)
	rc.expect("END")
	return exp
}

// TestTouchAndGeteWire pins the two TTL-management commands end to end:
// touch refreshes a live entry's deadline without moving its value, and
// gete serves the value along with its absolute expiry so a proxy can
// replicate TTLs faithfully.
func TestTouchAndGeteWire(t *testing.T) {
	_, addr := startServer(t, nil)
	rc := dialRaw(t, addr)

	rc.send("touch nope 60\r\n")
	rc.expect("NOT_FOUND")

	now := time.Now().Unix()
	rc.send("set k 7 60 3\r\nval\r\n")
	rc.expect("STORED")
	rc.send("gete k\r\n")
	exp := expectGete(t, rc, "k", "val", 7)
	if exp < now+58 || exp > now+62 {
		t.Fatalf("gete exptime %d, want ~%d", exp, now+60)
	}

	// Touch extends the deadline; the value never crossed the wire.
	rc.send("touch k 600\r\n")
	rc.expect("TOUCHED")
	rc.send("gete k\r\n")
	exp = expectGete(t, rc, "k", "val", 7)
	if exp < now+598 || exp > now+602 {
		t.Fatalf("after touch, exptime %d, want ~%d", exp, now+600)
	}

	// Touch to 0 clears the deadline entirely.
	rc.send("touch k 0\r\n")
	rc.expect("TOUCHED")
	rc.send("gete k\r\n")
	if exp = expectGete(t, rc, "k", "val", 7); exp != 0 {
		t.Fatalf("after touch 0, exptime %d, want 0", exp)
	}

	// A negative exptime expires the entry immediately, like set's.
	rc.send("touch k -1\r\n")
	rc.expect("TOUCHED")
	rc.send("get k\r\n")
	rc.expect("END")
	rc.send("gete k\r\n")
	rc.expect("END")

	// An absolute timestamp beyond the 30-day threshold is taken as-is.
	future := time.Now().Unix() + 3600
	rc.send("set abs 0 60 2\r\nab\r\n")
	rc.expect("STORED")
	rc.send(fmt.Sprintf("touch abs %d\r\n", future))
	rc.expect("TOUCHED")
	rc.send("gete abs\r\n")
	if exp = expectGete(t, rc, "abs", "ab", 0); exp != future {
		t.Fatalf("absolute touch exptime %d, want %d", exp, future)
	}

	// noreply swallows the acknowledgment; the effect still lands.
	rc.send("touch abs 0 noreply\r\ngete abs\r\n")
	if exp = expectGete(t, rc, "abs", "ab", 0); exp != 0 {
		t.Fatalf("noreply touch exptime %d, want 0", exp)
	}

	// gete is single-key by contract.
	rc.send("gete a b\r\n")
	if got := rc.line(); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("gete with two keys answered %q, want CLIENT_ERROR", got)
	}
}

// TestTouchKeepsEntryAlive drives the TTL clock: a touched entry survives
// its original deadline, an untouched one does not.
func TestTouchKeepsEntryAlive(t *testing.T) {
	srv, addr := startServer(t, nil)
	rc := dialRaw(t, addr)
	kv := srv.cfg.Store.(interface {
		SetNow(int64)
		AdvanceTTL(int64) int
	})

	rc.send("set keep 0 0 1\r\na\r\nset drop 0 0 1\r\nb\r\n")
	rc.expect("STORED")
	rc.expect("STORED")
	now := time.Now().Unix()
	base := now + 1000
	rc.send(fmt.Sprintf("touch keep %d\r\ntouch drop %d\r\n", base+5000, base+10))
	rc.expect("TOUCHED")
	rc.expect("TOUCHED")

	kv.SetNow(base + 100)
	kv.AdvanceTTL(base + 100)
	rc.send("get drop\r\n")
	rc.expect("END")
	rc.send("get keep\r\n")
	rc.expect("VALUE keep 0 1")
	rc.expect("a")
	rc.expect("END")

	// Touching an entry the clock already expired reports NOT_FOUND rather
	// than resurrecting it.
	rc.send(fmt.Sprintf("touch drop %d\r\n", base+9000))
	rc.expect("NOT_FOUND")
}

// TestClientTouchGetExpVersion exercises the client-side halves: Touch,
// GetExp (which must parse the extended five-token VALUE header), and the
// Version probe.
func TestClientTouchGetExpVersion(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if found, err := c.Touch([]byte("nope"), 60); err != nil || found {
		t.Fatalf("Touch(missing) = %v, %v", found, err)
	}
	if err := c.SetExp([]byte("k"), 3, 120, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	now := time.Now().Unix()
	value, flags, _, exp, found, err := c.GetExp([]byte("k"))
	if err != nil || !found || string(value) != "hello" || flags != 3 {
		t.Fatalf("GetExp = %q %d %v %v", value, flags, found, err)
	}
	if exp < now+118 || exp > now+122 {
		t.Fatalf("GetExp exptime %d, want ~%d", exp, now+120)
	}
	if found, err := c.Touch([]byte("k"), 0); err != nil || !found {
		t.Fatalf("Touch(live) = %v, %v", found, err)
	}
	if _, _, _, exp, _, err := c.GetExp([]byte("k")); err != nil || exp != 0 {
		t.Fatalf("after Touch 0: exp=%d err=%v", exp, err)
	}
	if _, _, _, _, found, err := c.GetExp([]byte("missing")); err != nil || found {
		t.Fatalf("GetExp(missing) = %v, %v", found, err)
	}

	v, err := c.Version()
	if err != nil || v != Version {
		t.Fatalf("Version() = %q, %v (want %q)", v, err, Version)
	}
}

// TestRetryBudgetGatesClientRetries wires a nearly-empty budget into a
// client pointed at a dead address: the initial-dial retry loop must stop
// as soon as the bucket runs dry instead of burning MaxRetries attempts.
func TestRetryBudgetGatesClientRetries(t *testing.T) {
	// Capacity 1 with a negligible earn rate: one retry is affordable, the
	// second is not.
	budget := overload.NewRetryBudget(0.001, 1)
	// A port a listener held until it closed: a dial there is refused at once.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	_, err = DialWithConfig(DialConfig{
		Addr:           ln.Addr().String(),
		ConnectTimeout: 200 * time.Millisecond,
		MaxRetries:     50,
		BackoffBase:    time.Microsecond,
		BackoffMax:     time.Millisecond,
		Budget:         budget,
	})
	if err == nil {
		t.Fatal("dial against a dead port succeeded")
	}
	if got := budget.Exhausted(); got == 0 {
		t.Fatal("budget never reported exhaustion")
	}
	// 1 token paid for exactly 1 retry beyond the initial attempt.
	if got := budget.Tokens(); got >= 1 {
		t.Fatalf("budget still holds %v tokens", got)
	}
}

package server

import (
	"net"
	"time"
)

// lazyDeadlines is lazy promotion applied to a connection's I/O deadlines.
// Arming a deadline for every request costs a clock read and a locked
// timer-heap update each time, for a timer that almost never fires; this
// type instead remembers when each direction was last armed and re-arms
// only once more than a quarter of the timeout has passed, for the timeout
// plus that quarter. A deadline is therefore never less than the configured
// timeout T away at any arm call and never more than 1.25·T, and a busy
// connection pays one monotonic clock read per call and a timer update
// every T/4.
//
// It is owned by the goroutine that does the connection's I/O. Anything
// that sets a deadline on the conn behind its back (the server's drain
// wake-up) must be followed by an invalidate before the next arm.
type lazyDeadlines struct {
	conn  net.Conn
	base  time.Time
	since func(time.Time) time.Duration // time.Since; tests run a virtual clock
	read  lazyDeadline
	write lazyDeadline
}

// lazyDeadline is one direction's stamp, in offsets from lazyDeadlines.base.
type lazyDeadline struct {
	timeout time.Duration // T; 0 means the direction has no deadline
	fresh   time.Duration // until this offset the armed deadline is still >= T away
}

func newLazyDeadlines(conn net.Conn, read, write time.Duration) lazyDeadlines {
	return lazyDeadlines{
		conn:  conn,
		base:  time.Now(),
		since: time.Since,
		read:  lazyDeadline{timeout: read, fresh: -1},
		write: lazyDeadline{timeout: write, fresh: -1},
	}
}

// next returns the offset to arm the deadline for, or false while the one
// armed earlier still leaves at least the timeout.
func (l *lazyDeadline) next(now time.Duration) (time.Duration, bool) {
	if now <= l.fresh {
		return 0, false
	}
	slack := l.timeout / 4
	l.fresh = now + slack
	return now + l.timeout + slack, true
}

func (d *lazyDeadlines) armRead()  { d.arm(true, false) }
func (d *lazyDeadlines) armWrite() { d.arm(false, true) }

// armBoth arms the pair off one clock read.
func (d *lazyDeadlines) armBoth() { d.arm(true, true) }

func (d *lazyDeadlines) arm(read, write bool) {
	read = read && d.read.timeout > 0
	write = write && d.write.timeout > 0
	if !read && !write {
		return
	}
	now := d.since(d.base)
	if read {
		if at, ok := d.read.next(now); ok {
			d.conn.SetReadDeadline(d.base.Add(at))
		}
	}
	if write {
		if at, ok := d.write.next(now); ok {
			d.conn.SetWriteDeadline(d.base.Add(at))
		}
	}
}

// invalidateRead forgets the read stamp, so the next armRead sets a deadline.
func (d *lazyDeadlines) invalidateRead() { d.read.fresh = -1 }

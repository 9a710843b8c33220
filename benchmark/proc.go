package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// subprocessGOGC is the collector setting of every server under test; the
// benchmark process sets the same for itself. Peak RSS is only comparable
// between runs with it fixed.
const subprocessGOGC = 100

// env is the checkout the benchmark runs in and the children it started.
type env struct {
	root string // holds BENCHMARK.json
	work string // root/.bench_build: server binary, span files

	build  sync.Once
	bin    string
	buildS float64
	binErr error

	allCPUs cpuMask // what this process may run on
	warn    sync.Once

	mu       sync.Mutex
	children []*child
}

// oneCPU binds this process, and so every server it spawns afterwards, to
// its lowest allowed CPU for the life of a workload (see affinity.go for
// why); release undoes it. A kernel that refuses is reported once and the
// run goes on unbound: its numbers are then noisier, not wrong.
func (e *env) oneCPU() {
	if err := bindProcess(e.allCPUs & -e.allCPUs); err != nil {
		e.warn.Do(func() { fmt.Fprintln(os.Stderr, "benchmark: running unbound:", err) })
	}
}

func (e *env) release() { bindProcess(e.allCPUs) }

// newEnv finds the checkout root above the working directory.
func newEnv() (*env, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("no BENCHMARK.json in any directory above the working directory")
		}
		dir = parent
	}
	// Without the mask nothing can be bound; oneCPU reports that when a
	// workload first asks.
	cpus, _ := allowedCPUs()
	e := &env{root: dir, work: filepath.Join(dir, ".bench_build"), allCPUs: cpus}
	return e, os.MkdirAll(e.work, 0o755)
}

// serverBinary builds cmd/cacheserver once per process. The go command's
// own cache makes a rebuild of unchanged source a fraction of a second.
func (e *env) serverBinary() (string, error) {
	e.build.Do(func() {
		e.bin = filepath.Join(e.work, "cacheserver")
		t0 := time.Now()
		cmd := exec.Command("go", "build", "-o", e.bin, "repro/cmd/cacheserver")
		cmd.Dir = filepath.Join(e.root, "benchmark")
		if out, err := cmd.CombinedOutput(); err != nil {
			e.binErr = fmt.Errorf("go build cacheserver: %v\n%s", err, out)
		}
		e.buildS = time.Since(t0).Seconds()
	})
	return e.bin, e.binErr
}

type child struct {
	cmd    *exec.Cmd
	addr   string
	log    bytes.Buffer
	exited chan struct{}
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawn starts one cacheserver on a free loopback port with GOMAXPROCS=1
// and waits until it answers the wire version command. It inherits this
// process's CPU binding.
func (e *env) spawn(args ...string) (*child, error) {
	bin, err := e.serverBinary()
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c := &child{addr: addr, exited: make(chan struct{})}
	c.cmd = exec.Command(bin, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS=1", "GOGC="+strconv.Itoa(subprocessGOGC))
	c.cmd.Stdout, c.cmd.Stderr = &c.log, &c.log
	// If the benchmark is killed outright the kernel takes the child too.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		c.cmd.Wait()
		close(c.exited)
	}()
	e.mu.Lock()
	e.children = append(e.children, c)
	e.mu.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if w, err := dialWire(addr); err == nil {
			err = w.version()
			w.close()
			if err == nil {
				return c, nil
			}
		}
		select {
		case <-c.exited:
			return nil, fmt.Errorf("cacheserver %v exited during start-up:\n%s", args, c.log.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("cacheserver %v not healthy after 10 s:\n%s", args, c.log.String())
		}
	}
}

// stop kills the child and returns once it has been reaped.
func (c *child) stop() {
	c.cmd.Process.Kill()
	<-c.exited
}

// stopAll reaps every child still running; it is safe to call twice and
// runs on every exit path, SIGINT included.
func (e *env) stopAll() {
	e.mu.Lock()
	cs := e.children
	e.children = nil
	e.mu.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// childrenCPU sums CPU time over live children.
func childrenCPU(cs []*child) (time.Duration, error) {
	var total time.Duration
	for _, c := range cs {
		d, err := procCPU(c.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// childrenPeakRSSKiB sums peak RSS over live children.
func childrenPeakRSSKiB(cs []*child) (int64, error) {
	var total int64
	for _, c := range cs {
		r, err := procPeakRSSKiB(c.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += r
	}
	return total, nil
}

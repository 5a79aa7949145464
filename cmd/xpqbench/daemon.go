package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// janitor owns everything a run leaves behind if it dies: daemon
// children and temp directories. Every exit path — normal return,
// harness panic, watchdog timeout, SIGINT — ends in sweep.
type janitor struct {
	mu    sync.Mutex
	procs map[*daemon]struct{}
	dirs  map[string]struct{}
}

func newJanitor() *janitor {
	return &janitor{procs: map[*daemon]struct{}{}, dirs: map[string]struct{}{}}
}

func (j *janitor) addDir(dir string) {
	j.mu.Lock()
	j.dirs[dir] = struct{}{}
	j.mu.Unlock()
}

// removeDir deletes a temp directory now and forgets it.
func (j *janitor) removeDir(dir string) {
	j.mu.Lock()
	delete(j.dirs, dir)
	j.mu.Unlock()
	_ = os.RemoveAll(dir) // best effort: the directory is under the ignored out/
}

// sweep kills every live daemon, waits for each to end, and removes
// every temp directory. Safe to call more than once.
func (j *janitor) sweep() {
	j.mu.Lock()
	procs := make([]*daemon, 0, len(j.procs))
	for d := range j.procs {
		procs = append(procs, d)
	}
	dirs := make([]string, 0, len(j.dirs))
	for dir := range j.dirs {
		dirs = append(dirs, dir)
	}
	j.procs = map[*daemon]struct{}{}
	j.dirs = map[string]struct{}{}
	j.mu.Unlock()
	for _, d := range procs {
		d.kill()
	}
	for _, dir := range dirs {
		_ = os.RemoveAll(dir)
	}
}

// daemon is one spawned xpqd child.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	pid     int
	spawned time.Time
	stderr  *os.File
	jan     *janitor
	// done is closed when the child has been waited for; waitErr is its
	// exit status.
	done    chan struct{}
	waitErr error
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// daemonEnv is the child's environment: the harness's own, with the
// processor count the benchmark fixes for the program under test.
func daemonEnv() []string {
	return append(os.Environ(), "GOMAXPROCS=2")
}

// baseArgs are the daemon flags every workload shares.
func baseArgs(addr string) []string {
	return []string{"-addr", addr, "-shards", "4", "-workers", "2", "-log-level", "warn"}
}

// startDaemon spawns bin with args on a free loopback port, its stderr
// appended to stderrPath.
func startDaemon(jan *janitor, bin string, extra []string, stderrPath string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	logf, err := os.OpenFile(stderrPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(baseArgs(addr), extra...)...)
	cmd.Env = daemonEnv()
	cmd.Stderr = logf
	cmd.SysProcAttr = childAttr()
	d := &daemon{cmd: cmd, addr: addr, stderr: logf, jan: jan, done: make(chan struct{})}
	d.spawned = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d.pid = cmd.Process.Pid
	jan.mu.Lock()
	jan.procs[d] = struct{}{}
	jan.mu.Unlock()
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// waitHealthy polls /healthz until the first 200 and returns the time
// since spawn — xpqd listens only after preload, so this is the
// daemon's whole set-up. It fails at once if the child exits.
func (d *daemon) waitHealthy(timeout time.Duration) (time.Duration, error) {
	c := newConn(d.addr, time.Second)
	defer c.close()
	deadline := d.spawned.Add(timeout)
	for {
		select {
		case <-d.done:
			return 0, fmt.Errorf("xpqd exited during set-up: %v", d.waitErr)
		default:
		}
		rep, err := c.roundTrip("GET", "/healthz", nil)
		if err == nil && rep.status == 200 {
			return rep.last.Sub(d.spawned), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("xpqd not healthy after %v: %v", timeout, err)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// alive reports whether the child is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

// drainLimit is how long xpqd may take to exit after SIGTERM (its own
// shutdown context allows 15 s).
const drainLimit = 15 * time.Second

// stop asks the daemon to drain (SIGTERM) and waits for it. A daemon
// that already died, exits non-zero, or does not drain in time is an
// error; in the last case it is killed.
func (d *daemon) stop() error {
	defer d.forget()
	if !d.alive() {
		return fmt.Errorf("xpqd (pid %d) died before shutdown: %v", d.pid, d.waitErr)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.done:
		if d.waitErr != nil {
			return fmt.Errorf("xpqd (pid %d) exited uncleanly after SIGTERM: %v", d.pid, d.waitErr)
		}
		return nil
	case <-time.After(drainLimit):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("xpqd (pid %d) did not drain within %v of SIGTERM", d.pid, drainLimit)
	}
}

// kill ends the child unconditionally and waits until it is gone.
func (d *daemon) kill() {
	if d.alive() {
		_ = d.cmd.Process.Kill()
	}
	<-d.done
	d.forget()
}

func (d *daemon) forget() {
	d.jan.mu.Lock()
	delete(d.jan.procs, d)
	d.jan.mu.Unlock()
	d.stderr.Close()
}

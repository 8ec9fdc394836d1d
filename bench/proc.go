package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one CLI invocation (a few seconds when all is well): a
// hang becomes a failed operation instead of stalling the run, and three of
// them still fit the driver's limit for a run.
const childTimeout = 40 * time.Second

// childEnv pins the program under test to the two cores the sandbox has.
func childEnv() []string { return append(os.Environ(), "GOMAXPROCS=2") }

// child is what one finished subprocess cost.
type child struct {
	Wall     time.Duration
	CPU      time.Duration // user+sys from the child's rusage
	RSSMB    float64       // ru_maxrss
	Exit     int           // -1 when it did not exit by itself
	TimedOut bool
}

// runChild runs bin to completion, feeding its standard output to onLine one
// line at a time (lines longer than the reader's buffer arrive truncated);
// output is never held whole. Wall time is spawn to exit.
func runChild(bin string, args []string, onLine func([]byte)) (child, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = childEnv()
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second
	out, err := cmd.StdoutPipe()
	if err != nil {
		return child{}, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return child{}, fmt.Errorf("start %s: %w", bin, err)
	}
	r := bufio.NewReaderSize(out, 64<<10)
	for {
		line, err := r.ReadSlice('\n')
		if len(line) > 0 && onLine != nil {
			onLine(bytes.TrimRight(line, "\n"))
		}
		for errors.Is(err, bufio.ErrBufferFull) { // drop the rest of an over-long line
			_, err = r.ReadSlice('\n')
		}
		if err != nil {
			break
		}
	}
	werr := cmd.Wait()
	c := child{Wall: time.Since(t0), Exit: -1, TimedOut: ctx.Err() != nil}
	if ps := cmd.ProcessState; ps != nil {
		c.CPU = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			c.RSSMB = float64(ru.Maxrss) / 1024
		}
		if ps.Exited() {
			c.Exit = ps.ExitCode()
		}
	}
	var ee *exec.ExitError
	if werr != nil && !errors.As(werr, &ee) && !c.TimedOut {
		return c, fmt.Errorf("wait %s: %w", bin, werr)
	}
	return c, nil
}

// freeAddr returns a loopback address nobody listens on at the moment.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// server is a running lyserve.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
}

// startServer launches lyserve on a free port and waits for /readyz.
func startServer(bin string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-workers", "2", "-log-level", "error", "-job-ttl", "2s")
	cmd.Env = childEnv()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start lyserve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.stop()
	return nil, errors.New("lyserve did not become ready within 15s")
}

// stop sends SIGTERM and waits for the process to end, killing it if the
// graceful path takes too long.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // exit status of a signalled server carries nothing
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// clockTick is USER_HZ; Linux fixes it at 100 for /proc on every supported
// architecture.
const clockTick = 100

// procCPU reads user+sys CPU of a live process from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procPeakRSSMB reads VmHWM of a live process ("self" for this one).
func procPeakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// selfCPU is this process's user+sys CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildRampd compiles ./cmd/rampd from the repository at root into out.
func buildRampd(ctx context.Context, root, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/rampd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build rampd: %w", err)
	}
	return nil
}

// daemon is one rampd child process listening on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	target *target
	exited chan struct{} // closed once Wait has returned
}

// startDaemon launches bin on 127.0.0.1:0 with its default flags plus
// extra, waits for the listening line on its stdout and for /readyz, and
// returns the running child. Its stderr (the request log) goes to logPath.
// The child is killed if this process dies first.
func startDaemon(ctx context.Context, bin, logPath string, extra []string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, extra...)...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rampd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}

	// The first stdout line names the bound address; the rest of stdout
	// (the drain messages) is drained so the child never blocks on it.
	addrc := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "rampd: listening on "); ok {
				addrc <- a
			}
		}
		_ = cmd.Wait()
	}()
	select {
	case addr := <-addrc:
		d.target = newHTTPTarget("http://" + addr)
	case <-d.exited:
		return nil, fmt.Errorf("rampd exited before listening (log: %s)", logPath)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("rampd did not start listening within 30s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	for {
		resp, err := d.target.do(ctx, http.MethodGet, "/readyz", nil)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop asks the child to drain (SIGTERM), kills it if it has not exited
// after five seconds, and returns once it has been reaped.
func (d *daemon) stop() {
	if d.target != nil {
		d.target.close()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// memoryMB reads one of the child's memory sizes from /proc/<pid>/status:
// VmRSS (resident now) or VmHWM (the resident high-water mark).
func (d *daemon) memoryMB(field string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s %q: %w", field, v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// rssEvery is how often sampleRSS reads the child's resident set.
const rssEvery = 100 * time.Millisecond

// sampleRSS appends the child's resident set (MB) to into now and every
// rssEvery until the returned stop function is called; stop returns once
// the sampler has ended.
func (d *daemon) sampleRSS(into *[]float64) (stop func()) {
	done := make(chan struct{})
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if v, err := d.memoryMB("VmRSS"); err == nil {
				*into = append(*into, v)
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		<-ended
	}
}

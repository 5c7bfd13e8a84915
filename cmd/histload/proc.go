package main

// The servers under test: histserved is built from this checkout once
// per invocation, before anything is timed, and runs as a separate
// process on loopback.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// repoRoot returns the nearest directory at or above the working
// directory that holds cmd/histserved.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "histserved", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/histserved at or above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/histserved into dir and returns the binary.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "histserved")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/histserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building histserved: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one running histserved.
type serverProc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has exited and been reaped
}

// startServer runs bin with args plus a loopback listener on a free
// port and waits for it to announce its address. The server's log goes
// to logPath.
func startServer(bin string, args []string, logPath string) (*serverProc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The server dies with this process, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd.Stdout = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting histserved: %w", err)
	}
	p := &serverProc{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		logf.Close()
	}()
	select {
	case a := <-addr:
		p.url = "http://" + a
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("histserved exited during start-up; see %s", logPath)
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("histserved did not start within 30s; see %s", logPath)
	}
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// kill stops the server with SIGKILL and waits until it is reaped.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// residentMB returns the process's resident set size (VmRSS) in MB.
func residentMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status VmRSS: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmRSS", pid)
}
